"""Murasugi sums made computable: braid-word composition and splitting,
linear-plumbing rewrites, exact integer invariants, and certified bounds
for the minimal sum size d_M.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it; a name's module is
# imported on first use, so `import knotsum` loads none of them
_HOMES = {
    "braid": (
        "BraidSyntaxError", "BraidWord", "CompositeBraid", "ShuffleError", "SplitIndexError",
        "closure_data", "format_braid", "murasugi_concat", "parse_braid", "split_braid",
    ),
    "distances": (
        "DistanceData", "DistanceDataError", "DMInterval", "GonPlan", "dm_interval",
        "gon_merge", "load_distance_data", "plan_triple_sum",
    ),
    "laurent": ("LaurentPolynomial",),
    "plumbing": (
        "PlumbingError", "PlumbingWord", "RewriteTrace", "SearchBudget", "boundary_profile",
        "normalize", "rewrite_search", "star4",
    ),
    "profiles": ("InvariantProfile", "identify"),
    "surgery": (
        "TripleBudget", "TripleFailure", "TripleWitness", "TwistAnnulus",
        "apply_crossing_changes", "search_triples", "unknot_certificate",
        "unknotting_crossing_set", "verify_triple",
    ),
    "table": ("KnotTableEntry", "TableError", "load_table", "lookup"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name: str) -> object:
    """The public name from its home module (PEP 562), imported on first use."""
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
