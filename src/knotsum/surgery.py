"""Crossing-change constructions: walk-derived unknotting sets, twist-annulus
records, and the search for Murasugi-sum triples with explicit witnesses.

The central device is a walk around a braid closure. Starting from a
basepoint and traveling the knot once, each crossing is met twice; the
letters first met on the under-strand form a set whose sign flips leave a
descending diagram, which is always an unknot. The complementary set
yields an ascending diagram, equally trivial, so the smaller of the two
is returned and the selection never exceeds half the letters (rounded up).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

from .braid import (
    BraidWord,
    CompositeBraid,
    SplitIndexError,
    closure_data,
    murasugi_concat,
    split_braid,
)
from .profiles import (
    InvariantProfile,
    UNKNOT_PROFILE_KEY,
    is_unknot_consistent,
    profile_of_braid,
)
from .seifert import seifert_matrix_of_braid
from .table import load_table, lookup, match_profile

SIDE_POSITIVE = "positive"
SIDE_NEGATIVE = "negative"

CERT_DESCENDING = "certified_descending"
CERT_CONSISTENT = "invariant_consistent"
CERT_INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class TwistAnnulus:
    """One crossing change realized as plumbing a twisted annulus.

    Contributes a 4-gon before merging, whichever side it lands on.
    """

    full_twists: int
    side: str

    def __post_init__(self) -> None:
        if self.full_twists == 0:
            raise ValueError("an annulus with no twists is not a crossing change")
        if self.side not in (SIDE_POSITIVE, SIDE_NEGATIVE):
            raise ValueError(f"side must be positive or negative, got {self.side!r}")

    @property
    def gon_contribution(self) -> int:
        return 4

    def serialize(self) -> dict[str, object]:
        return {
            "full_twists": self.full_twists,
            "side": self.side,
            "gon_contribution": self.gon_contribution,
        }


def _first_visit_sets(word: BraidWord, basepoint: int) -> tuple[set[int], set[int]]:
    """Letters first met on the under-strand vs on the over-strand.

    Walks the closure once from the top of the basepoint strand. Raises
    if the closure is not a knot (the walk would not cover the diagram).
    """
    if not 1 <= basepoint <= word.strands:
        raise ValueError(f"basepoint {basepoint} outside 1..{word.strands}")
    if closure_data(word).components != 1:
        raise ValueError("walk needs a knot closure")
    under_first: set[int] = set()
    over_first: set[int] = set()
    visited: set[int] = set()
    pos = basepoint
    for _ in range(word.strands):
        for idx, v in enumerate(word.letters):
            i = abs(v)
            if pos not in (i, i + 1):
                continue
            # positive letter: the strand entering at position i goes over
            over = (v > 0) == (pos == i)
            if idx not in visited:
                visited.add(idx)
                (over_first if over else under_first).add(idx)
            pos = i + 1 if pos == i else i
    if pos != basepoint:
        raise AssertionError("closure walk failed to close up")
    return under_first, over_first


def unknotting_crossing_set(word: BraidWord, basepoint: int = 1) -> frozenset[int]:
    """Letter positions whose sign flips trivialize the closure.

    Flipping the first-met-under letters makes the diagram descending;
    flipping the rest makes it ascending (descending for the reversed
    walk). Both are unknots, so the smaller set is returned, which keeps
    the size at or below ceil(letters / 2). Ties go to the descending set.
    """
    under_first, over_first = _first_visit_sets(word, basepoint)
    chosen = under_first if len(under_first) <= len(over_first) else over_first
    return frozenset(chosen)


@dataclass(frozen=True)
class CrossingChangeResult:
    word: BraidWord
    records: tuple[TwistAnnulus, ...]


def apply_crossing_changes(word: BraidWord, positions) -> CrossingChangeResult:
    """Flip the letters at the given positions, one annulus record each.

    A positive-to-negative flip plumbs a negatively twisted annulus and
    vice versa. Flipping the same position twice across two calls restores
    the original word.
    """
    index_set = set(positions)
    for p in index_set:
        if not 0 <= p < len(word.letters):
            raise IndexError(f"position {p} outside the word")
    letters = list(word.letters)
    records = []
    for p in sorted(index_set):
        old = letters[p]
        letters[p] = -old
        if old > 0:
            records.append(TwistAnnulus(full_twists=-1, side=SIDE_NEGATIVE))
        else:
            records.append(TwistAnnulus(full_twists=1, side=SIDE_POSITIVE))
    return CrossingChangeResult(
        word=BraidWord(word.strands, tuple(letters)), records=tuple(records)
    )


def unknot_certificate(word: BraidWord, from_walk: bool = False) -> str:
    """Tri-state unknot status; invariants alone never fully certify.

    from_walk marks words built by flipping a walk-selected set, which
    are monotone diagrams and therefore genuinely unknots.
    """
    if from_walk:
        return CERT_DESCENDING
    if is_unknot_consistent(profile_of_braid(word)):
        return CERT_CONSISTENT
    return CERT_INCONSISTENT


@dataclass(frozen=True)
class TripleWitness:
    """A braid word realizing K3 as a Murasugi sum of K1 and K2 summands.

    outer_word and inner_word are exactly split_braid of the composite, so
    the witness replays bit-for-bit. A degenerate witness (empty word) is
    flagged; its splits are unlinks and the knot check is skipped.
    """

    composite: CompositeBraid
    outer_word: BraidWord
    inner_word: BraidWord
    names: tuple[str, str, str]
    profiles: tuple[InvariantProfile, InvariantProfile, InvariantProfile]
    degenerate: bool = False

    @property
    def gon_size(self) -> int:
        return self.composite.gon_size

    def serialize(self) -> dict[str, object]:
        return {
            "word": list(self.composite.word.letters),
            "strands": self.composite.word.strands,
            "k": self.composite.split_index,
            "gon": self.gon_size,
            "names": list(self.names),
            "profiles": [p.serialize() for p in self.profiles],
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class TripleFailure:
    stage: str
    detail: str

    def serialize(self) -> dict[str, object]:
        return {"stage": self.stage, "detail": self.detail}


ProfileMemo = dict[BraidWord, InvariantProfile]
"""Profiles already computed, by word; one search owns one memo."""


def _profile(word: BraidWord, memo: ProfileMemo) -> InvariantProfile:
    profile = memo.get(word)
    if profile is None:
        profile = memo[word] = profile_of_braid(word)
    return profile


def _identify_as(
    word: BraidWord, expected: str, memo: ProfileMemo
) -> InvariantProfile | str:
    """Profile when the closure matches the expected name, else a reason."""
    data = closure_data(word)
    if data.components != 1:
        return f"closure has {data.components} components"
    profile = _profile(word, memo)
    names = match_profile(profile)
    if expected not in names:
        found = ", ".join(names) if names else "no table knot"
        return f"closure identifies as {found}, expected {expected}"
    return profile


def verify_triple(
    word: BraidWord, k: int, expected: tuple[str, str, str],
    *, _memo: ProfileMemo | None = None,
) -> TripleWitness | TripleFailure:
    """Split at k and check all three closures against the expected names.

    Failures are reported as data, never raised. The first expected name
    is the outer split, the second the inner, the third the composite.
    `_memo` is search_triples' profile memo; a direct call gets a fresh one.
    """
    memo = {} if _memo is None else _memo
    table = load_table()
    for name in expected:
        if name not in table:
            return TripleFailure("names", f"unknown knot name: {name}")

    try:
        outer, inner = split_braid(word, k)
    except SplitIndexError as exc:
        return TripleFailure("split", str(exc))

    if not word.letters:
        if set(expected) != {"unknot"}:
            return TripleFailure(
                "degenerate", "empty word can only witness (unknot, unknot, unknot)"
            )
        trivial = _profile(BraidWord(1, ()), memo)
        return TripleWitness(
            composite=CompositeBraid(word=word, split_index=k),
            outer_word=outer,
            inner_word=inner,
            names=expected,
            profiles=(trivial, trivial, trivial),
            degenerate=True,
        )

    outcome_outer = _identify_as(outer, expected[0], memo)
    if isinstance(outcome_outer, str):
        return TripleFailure("outer split", outcome_outer)
    outcome_inner = _identify_as(inner, expected[1], memo)
    if isinstance(outcome_inner, str):
        return TripleFailure("inner split", outcome_inner)
    outcome_composite = _identify_as(word, expected[2], memo)
    if isinstance(outcome_composite, str):
        return TripleFailure("composite", outcome_composite)

    return TripleWitness(
        composite=CompositeBraid(word=word, split_index=k),
        outer_word=outer,
        inner_word=inner,
        names=expected,
        profiles=(outcome_outer, outcome_inner, outcome_composite),
    )


@dataclass(frozen=True)
class TripleBudget:
    """Bounds for the witness search; the defaults keep it under a minute."""

    max_total_letters: int = 6
    max_strands: int = 3
    max_shuffles: int = 32

    def __post_init__(self) -> None:
        # fields(), not vars(): a materialized __dict__ slows every later field read
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ValueError(f"budget {field.name} must be >= 0, got {value}")

    def describe(self) -> str:
        return (
            f"total letters <= {self.max_total_letters}, "
            f"composite strands <= {self.max_strands}, "
            f"shuffles per pair <= {self.max_shuffles}"
        )


def _candidate_words(strands: int, max_letters: int) -> list[BraidWord]:
    alphabet = [s * i for i in range(1, strands) for s in (-1, 1)]
    words = []
    for length in range(max_letters + 1):
        for combo in itertools.product(alphabet, repeat=length):
            words.append(BraidWord(strands, combo))
    return words


def _pool_matching(
    name: str, strands: int, max_letters: int, memo: ProfileMemo
) -> list[BraidWord]:
    pool = []
    for w in _candidate_words(strands, max_letters):
        if closure_data(w).components != 1:
            continue
        if name in match_profile(_profile(w, memo)):
            pool.append(w)
    return pool


def search_triples(
    target: tuple[str, str, str],
    budget: TripleBudget | None = None,
    limit: int | None = None,
) -> list[TripleWitness]:
    """Enumerate (inner, outer, shuffle) Murasugi compositions hitting the
    target names, canonically ordered by (length, word, split position).

    The inner word realizes the second target name, the outer the first.
    An exhausted budget yields an empty list, not an error. Each distinct
    word is profiled at most once per call, and a composite whose
    |det(V + V^T)| differs from the third target's is dropped unprofiled:
    match_profile would reject it on the determinant anyway.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    budget = budget or TripleBudget()
    name1, name2, name3 = target
    for name in target:
        lookup(name)
    determinant3 = lookup(name3).profile.determinant

    memo: ProfileMemo = {}
    witnesses: list[TripleWitness] = []
    pools: dict[tuple[str, int], list[BraidWord]] = {}
    for s1 in range(2, budget.max_strands + 1):
        for s2 in range(2, budget.max_strands + 1):
            if s1 + s2 - 1 > budget.max_strands:
                continue
            for key in ((name2, s1), (name1, s2)):
                if key not in pools:
                    pools[key] = _pool_matching(*key, budget.max_total_letters, memo)
            inner_pool, outer_pool = pools[name2, s1], pools[name1, s2]
            for w1 in inner_pool:
                for w2 in outer_pool:
                    total = len(w1.letters) + len(w2.letters)
                    if total > budget.max_total_letters:
                        continue
                    patterns = itertools.islice(
                        itertools.combinations(range(total), len(w2.letters)),
                        budget.max_shuffles,
                    )
                    for positions in patterns:
                        shuffle = [0] * total
                        for p in positions:
                            shuffle[p] = 1
                        composite = murasugi_concat(w1, w2, shuffle)
                        word = composite.word
                        if closure_data(word).components != 1:
                            continue
                        if seifert_matrix_of_braid(word).determinant_invariant() != determinant3:
                            continue
                        outcome = verify_triple(
                            word, composite.split_index, target, _memo=memo
                        )
                        if isinstance(outcome, TripleWitness):
                            witnesses.append(outcome)

    witnesses.sort(
        key=lambda w: (
            len(w.composite.word.letters),
            w.composite.word.letters,
            w.composite.split_index,
        )
    )
    if limit is not None:
        witnesses = witnesses[:limit]
    return witnesses
