"""Output checks: each result is verified by a route other than the one timed.

Checks run after the timed pass, on the serialized outputs, with every
tracing wrapper removed. A query whose check fails counts in error_rate.

The digest pins the outputs themselves. Two routes that a later change
makes share code could break the same way and still agree; the digest
still catches that.
"""

from __future__ import annotations

import hashlib
import json

from knotsum.braid import BraidWord, closure_data, split_braid
from knotsum.burau import alexander_via_burau
from knotsum.laurent import LaurentPolynomial
from knotsum.seifert import seifert_matrix_of_braid
from knotsum.table import lookup

from workloads import CROSSCHECK_WIDE, PROFILE_LONG, SEARCH, Query

DEFAULT_SEED = 0

PINNED_DIGESTS = {
    (PROFILE_LONG, DEFAULT_SEED): "279b1e97bb67716c6363fc0943e4132efa5189d8841870cc58000d6e5cbf0083",
    (CROSSCHECK_WIDE, DEFAULT_SEED): "52028b3e0a61251d69fd420c463ab0ac72bda325b5bd9d9b50b92445d438fe57",
    (SEARCH, None): "ea6acdbef81e0d411d906efdc5dcf881805173dd8e3167dda22e6e1313c63ed5",
}
"""sha256 of the full-size outputs. A None seed pins every seed: the search
session is the same set of queries whatever the seed."""


def pinned_digest(workload: str, seed: int) -> str | None:
    return PINNED_DIGESTS.get((workload, seed), PINNED_DIGESTS.get((workload, None)))


def digest(queries: tuple[Query, ...], outputs: list) -> str:
    """Order-independent sha256 over (query key, output) pairs."""
    pairs = sorted(zip((q.key for q in queries), outputs), key=lambda kv: kv[0])
    text = json.dumps(pairs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _same_up_to_mirror(alex: LaurentPolynomial, name: str) -> bool:
    return lookup(name).profile.alexander in (alex, alex.mirror().normalized())


def _check_profile(word: BraidWord, out: dict) -> str | None:
    prof = out["profile"]
    alex = LaurentPolynomial.parse(prof["alexander"])
    if alexander_via_burau(word) != alex:
        return "Alexander polynomial differs from the Burau route"
    if seifert_matrix_of_braid(word).determinant_invariant() != prof["determinant"]:
        return "determinant differs from |det(V + V^T)|"
    if alex.at_one() not in (1, -1):
        return "Alexander polynomial at 1 is not +-1"
    if prof["signature"] % 2:
        return "knot signature is odd"
    wrong = [name for name in out["names"] if not _same_up_to_mirror(alex, name)]
    if wrong:
        return f"identified as {', '.join(wrong)}, whose Alexander polynomial differs"
    return None


def _check_crosscheck(out: dict) -> str | None:
    if out["surface"] != out["burau"]:
        return "Seifert and Burau routes disagree"
    if abs(LaurentPolynomial.parse(out["surface"]).at_minus_one()) != out["det"]:
        return "|det(V + V^T)| differs from |Alexander(-1)|"
    return None


def _word(data: list) -> BraidWord:
    strands, letters = data
    return BraidWord(strands, tuple(letters))


def _check_witness(w: dict, names: tuple[str, str, str], lower: int) -> str | None:
    composite = _word(w["word"])
    outer, inner = _word(w["outer"]), _word(w["inner"])
    if split_braid(composite, w["k"]) != (outer, inner):
        return f"witness {w['word']} does not split into its stored words"
    for part, name in zip((outer, inner, composite), names):
        if closure_data(part).components != 1:
            return f"witness part {list(part.letters)} does not close to a knot"
        if not _same_up_to_mirror(alexander_via_burau(part), name):
            return f"witness part {list(part.letters)} is not {name} by the Burau route"
    if w["gon"] < lower:
        return f"witness gon {w['gon']} is below the d_M lower bound {lower}"
    return None


def _check_triples(payload: tuple, out: list, lower: int | None) -> str | None:
    names, _budget, expected = payload
    if len(out) != expected:
        return f"{len(out)} witnesses, expected {expected}"
    if lower is None:
        return "no dm_interval result for this triple"
    for w in out:
        reason = _check_witness(w, names, lower)
        if reason:
            return reason
    return None


def check_outputs(queries: tuple[Query, ...], outputs: list) -> list[str | None]:
    """One entry per query: None when its output passed, else the reason."""
    lowers = {q.payload[0]: out["lower"] for q, out in zip(queries, outputs) if q.kind == "dm"}
    reasons: list[str | None] = []
    for q, out in zip(queries, outputs):
        if q.kind == "profile":
            reason = _check_profile(q.payload[0], out)
        elif q.kind == "crosscheck":
            reason = _check_crosscheck(out)
        elif q.kind == "dm":
            reason = None  # pinned by the digest; its lower bound is checked against witnesses
        elif q.kind == "triples":
            reason = _check_triples(q.payload, out, lowers.get(q.payload[0]))
        else:
            reason = None if out is None else f"rewrite reached {out['end']}, expected not found"
        reasons.append(reason)
    return reasons
