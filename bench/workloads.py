"""Seeded workload inputs and the queries the benchmark sends to knotsum.

A workload is a tuple of queries sent one after another by one client
(closed loop). The seed fixes the inputs; the same seed always yields
the same queries in the same order.

`run_query` calls knotsum through module attributes at call time, so
the tracer's wrappers see every call. `serialize` turns a result into
plain JSON data, which the output checks and the digest read.

Input shapes are stratified: the multiset of (strands, letters) pairs is
fixed and the seed picks letters and order. Cost depends mostly on the
shape (the Seifert matrix of a knot word has letters - strands + 1 rows),
so the work per pass hardly varies between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from knotsum import braid, burau, distances, plumbing, profiles, seifert, surgery, table

PROFILE_LONG = "profile-long"
CROSSCHECK_WIDE = "crosscheck-wide"
SEARCH = "search"

PROFILE_MAX_STRANDS = 4

SEARCH_TRIPLES = (
    (("unknot", "unknot", "3_1"), 24),
    (("unknot", "3_1", "3_1"), 304),
    (("unknot", "unknot", "4_1"), 24),
    (("3_1", "3_1", "5_1"), 24),
)
"""Triples searched at the default TripleBudget, with their witness counts."""

SEARCH_REWRITES = (
    ("S[2,2]", "4_1", 50_000),
    ("S[2,2]", "5_2", 100_000),
    ("S[0,2]", "unknot", 50_000),
)
"""(start, target, max_states): none is reachable. The first two differ from
the start's boundary; in the third the leading zero never becomes interior."""


@dataclass(frozen=True)
class Query:
    key: str  # unique within a workload; names failures and orders the digest
    kind: str
    payload: tuple


def _cycle_ids(perm: list[int]) -> list[int]:
    ids = [-1] * len(perm)
    count = 0
    for start in range(len(perm)):
        i = start
        while ids[i] < 0:
            ids[i] = count
            i = perm[i]
        count += ids[start] == count
    return ids


def _knot_word(rng: random.Random, strands: int, letters: int, seen: set) -> braid.BraidWord:
    """A new random word whose closure is a knot, built letter by letter.

    A letter swapping positions in different cycles of the strand
    permutation merges them; any other letter splits one. Letters are
    random until the letters left equal the cycles to merge, then merging
    ones only; a random rotation (a conjugation) spreads that tail over the
    word. Rejection sampling is far too slow at 10+ strands.
    """
    for _ in range(1000):
        perm = list(range(strands))
        out = []
        for left in range(letters, 0, -1):
            ids = _cycle_ids(perm)
            if left == max(ids):
                p = rng.choice([p for p in range(strands - 1) if ids[p] != ids[p + 1]])
            else:
                p = rng.randrange(strands - 1)
            perm[p], perm[p + 1] = perm[p + 1], perm[p]
            out.append(rng.choice((1, -1)) * (p + 1))
        turn = rng.randrange(letters)
        word = braid.BraidWord(strands, tuple(out[turn:] + out[:turn]))
        if (strands, word.letters) in seen:
            continue
        if braid.closure_data(word).components != 1:
            raise AssertionError(f"generated word {word} does not close to a knot")
        seen.add((strands, word.letters))
        return word
    raise ValueError(f"no new knot word with {strands} strands and {letters} letters")


def _word_key(word: braid.BraidWord) -> str:
    return f"{word.strands}:{','.join(map(str, word.letters))}"


def profile_long(seed: int, count: int = 120, max_letters: int = 32) -> tuple[Query, ...]:
    """Distinct knot words on 2..PROFILE_MAX_STRANDS strands and 1..max_letters letters.

    Slots are spread evenly over the Seifert matrix size, letters - strands
    + 1, which is always even for a knot word and sets the cost: words of
    neighbouring cost then have neighbouring sizes whatever their strand
    count, so latency percentiles do not jump between strand counts.
    """
    rng = random.Random(seed)
    seen: set = set()
    words = []
    kinds = PROFILE_MAX_STRANDS - 1
    per_kind = -(-count // kinds)
    sizes = max_letters // 2
    for i in range(count):
        strands = 2 + i % kinds
        size = 2 * (((i // kinds + 1) * sizes - 1) // per_kind)
        letters = min(size + strands - 1, max_letters - (max_letters - strands + 1) % 2)
        words.append(_knot_word(rng, strands, letters, seen))
    rng.shuffle(words)
    return tuple(Query(_word_key(w), "profile", (w,)) for w in words)


def crosscheck_wide(seed: int, count: int = 150, min_strands: int = 10,
                    max_strands: int = 18) -> tuple[Query, ...]:
    """Distinct knot words on min..max strands, 2S or 2S + 1 letters for S strands."""
    rng = random.Random(seed)
    seen: set = set()
    words = []
    for i in range(count):
        strands = min_strands + i % (max_strands - min_strands + 1)
        words.append(_knot_word(rng, strands, 2 * strands + 1 - strands % 2, seen))
    rng.shuffle(words)
    return tuple(Query(_word_key(w), "crosscheck", (w,)) for w in words)


def search(seed: int, triples=SEARCH_TRIPLES, rewrites=SEARCH_REWRITES,
           triple_budget: surgery.TripleBudget | None = None) -> tuple[Query, ...]:
    """A fixed research session; the seed only orders its queries.

    Each triple gets a dm_interval query followed by a search_triples
    query; the pairs and the rewrite queries are shuffled as units.
    """
    budget = triple_budget or surgery.TripleBudget()
    units = []
    for names, witnesses in triples:
        label = ",".join(names)
        units.append((
            Query(f"dm {label}", "dm", (names,)),
            Query(f"triples {label}", "triples", (names, budget, witnesses)),
        ))
    for start, target, states in rewrites:
        units.append((Query(
            f"rewrite {start}->{target}", "rewrite",
            (plumbing.PlumbingWord.parse(start), table.lookup(target).profile,
             plumbing.SearchBudget(max_states=states)),
        ),))
    random.Random(seed).shuffle(units)
    return tuple(q for unit in units for q in unit)


def build(name: str, seed: int) -> tuple[Query, ...]:
    """The full-size workload the benchmark measures."""
    return {PROFILE_LONG: profile_long, CROSSCHECK_WIDE: crosscheck_wide, SEARCH: search}[name](seed)


def _run_profile(word):
    prof = profiles.profile_of_braid(word)
    return prof, profiles.identify(prof)


def _run_crosscheck(word):
    return (
        seifert.alexander_of_braid(word),
        burau.alexander_via_burau(word),
        seifert.seifert_matrix_of_braid(word).determinant_invariant(),
    )


def _run_dm(names):
    return distances.dm_interval(*names)


def _run_triples(names, budget, _expected):
    return surgery.search_triples(names, budget)


def _run_rewrite(start, target, budget):
    return plumbing.rewrite_search(start, target, budget)


_RUN = {
    "profile": _run_profile,
    "crosscheck": _run_crosscheck,
    "dm": _run_dm,
    "triples": _run_triples,
    "rewrite": _run_rewrite,
}


def run_query(query: Query):
    return _RUN[query.kind](*query.payload)


def _word_data(word: braid.BraidWord) -> list:
    return [word.strands, list(word.letters)]


def serialize(query: Query, result) -> object:
    """Plain JSON data for one query's result."""
    if query.kind == "profile":
        prof, names = result
        return {"profile": prof.serialize(), "names": names}
    if query.kind == "crosscheck":
        surface, via_burau, det = result
        return {"surface": surface.serialize(), "burau": via_burau.serialize(), "det": det}
    if query.kind == "dm":
        return result.serialize()
    if query.kind == "triples":
        return [
            {
                "word": _word_data(w.composite.word),
                "k": w.composite.split_index,
                "gon": w.gon_size,
                "outer": _word_data(w.outer_word),
                "inner": _word_data(w.inner_word),
                "names": list(w.names),
                "profiles": [p.serialize() for p in w.profiles],
                "degenerate": w.degenerate,
            }
            for w in result
        ]
    if result is None:
        return None
    return {"end": result.end.format(), "steps": [list(step) for step in result.steps]}
