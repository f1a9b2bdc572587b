"""Murasugi sums made computable: braid-word composition and splitting,
linear-plumbing rewrites, exact integer invariants, and certified bounds
for the minimal sum size d_M.
"""

from .braid import (
    BraidSyntaxError,
    BraidWord,
    CompositeBraid,
    ShuffleError,
    SplitIndexError,
    closure_data,
    format_braid,
    murasugi_concat,
    parse_braid,
    split_braid,
)
from .distances import (
    DistanceData,
    DistanceDataError,
    DMInterval,
    GonPlan,
    dm_interval,
    gon_merge,
    load_distance_data,
    plan_triple_sum,
)
from .laurent import LaurentPolynomial
from .plumbing import (
    PlumbingError,
    PlumbingWord,
    RewriteTrace,
    SearchBudget,
    boundary_profile,
    normalize,
    rewrite_search,
    star4,
)
from .profiles import InvariantProfile, identify
from .surgery import (
    TripleBudget,
    TripleFailure,
    TripleWitness,
    TwistAnnulus,
    apply_crossing_changes,
    search_triples,
    unknot_certificate,
    unknotting_crossing_set,
    verify_triple,
)
from .table import KnotTableEntry, TableError, load_table, lookup

__version__ = "0.1.0"

__all__ = [
    "BraidSyntaxError",
    "BraidWord",
    "CompositeBraid",
    "DistanceData",
    "DistanceDataError",
    "DMInterval",
    "GonPlan",
    "InvariantProfile",
    "KnotTableEntry",
    "LaurentPolynomial",
    "PlumbingError",
    "PlumbingWord",
    "RewriteTrace",
    "SearchBudget",
    "ShuffleError",
    "SplitIndexError",
    "TableError",
    "TripleBudget",
    "TripleFailure",
    "TripleWitness",
    "TwistAnnulus",
    "apply_crossing_changes",
    "boundary_profile",
    "closure_data",
    "dm_interval",
    "format_braid",
    "gon_merge",
    "identify",
    "load_distance_data",
    "load_table",
    "lookup",
    "murasugi_concat",
    "normalize",
    "parse_braid",
    "plan_triple_sum",
    "rewrite_search",
    "search_triples",
    "split_braid",
    "star4",
    "unknot_certificate",
    "unknotting_crossing_set",
    "verify_triple",
]
