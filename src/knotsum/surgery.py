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

import functools
import itertools
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .braid import (
    BraidWord,
    CompositeBraid,
    SplitIndexError,
    closure_data,
    cyclic_conjugates,
    cyclic_reduction,
    shifted,
    split_braid,
)
from .profiles import UNKNOT_PROFILE_KEY, BraidInvariants, InvariantProfile
from .record import Record
from .table import load_table, lookup, match_profile

SIDE_POSITIVE = "positive"
SIDE_NEGATIVE = "negative"

CERT_DESCENDING = "certified_descending"
CERT_CONSISTENT = "invariant_consistent"
CERT_INCONSISTENT = "inconsistent"


class TwistAnnulus(Record):
    """One crossing change realized as plumbing a twisted annulus.

    Its side is the sign of its twist. Contributes a 4-gon before merging,
    whichever side it lands on: gon_contribution is a class constant.
    """

    __slots__ = _fields = ("full_twists",)
    gon_contribution = 4

    def __init__(self, full_twists: int) -> None:
        if full_twists == 0:
            raise ValueError("an annulus with no twists is not a crossing change")
        set_full_twists, set_values = self._setters
        set_full_twists(self, full_twists)
        set_values(self, (full_twists,))

    @property
    def side(self) -> str:
        return SIDE_POSITIVE if self.full_twists > 0 else SIDE_NEGATIVE

    def serialize(self) -> dict[str, object]:
        return {
            "full_twists": self.full_twists,
            "side": self.side,
            "gon_contribution": self.gon_contribution,
        }


def unknotting_crossing_set(word: BraidWord, basepoint: int = 1) -> frozenset[int]:
    """Letter positions whose sign flips trivialize the closure.

    Walks the closure once from the top of the basepoint strand, sorting
    each letter by whether it is first met on the under- or the
    over-strand; raises if the closure is not a knot (the walk would not
    cover the diagram). Flipping the first-met-under letters makes the
    diagram descending; flipping the rest makes it ascending (descending
    for the reversed walk). Both are unknots, so the smaller set is
    returned, which keeps the size at or below ceil(letters / 2). Ties go
    to the descending set.
    """
    if not 1 <= basepoint <= word.strands:
        raise ValueError(f"basepoint {basepoint} outside 1..{word.strands}")
    if closure_data(word).components != 1:
        raise ValueError("walk needs a knot closure")
    first_over: dict[int, bool] = {}  # letter position -> first met on the over-strand
    pos = basepoint
    for _ in range(word.strands):
        for idx, v in enumerate(word.letters):
            i = abs(v)
            if pos not in (i, i + 1):
                continue
            # positive letter: the strand entering at position i goes over
            first_over.setdefault(idx, (v > 0) == (pos == i))
            pos = i + 1 if pos == i else i
    if pos != basepoint:
        raise AssertionError("closure walk failed to close up")
    under = frozenset(idx for idx, is_over in first_over.items() if not is_over)
    over = frozenset(first_over) - under
    return under if len(under) <= len(over) else over


class CrossingChangeResult(NamedTuple):
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
        letters[p] = -letters[p]
        records.append(TwistAnnulus(full_twists=1 if letters[p] > 0 else -1))
    return CrossingChangeResult(
        word=BraidWord(word.strands, tuple(letters)), records=tuple(records)
    )


def unknot_certificate(word: BraidWord, basepoint: int | None = None) -> str:
    """Tri-state unknot status; invariants alone never fully certify.

    Certified only when the invariants are the unknot's and the walk from
    basepoint selects no letter: the diagram is then monotone, an unknot.
    """
    if not BraidInvariants(word).matches(UNKNOT_PROFILE_KEY):
        return CERT_INCONSISTENT
    monotone = basepoint is not None and not unknotting_crossing_set(word, basepoint)
    return CERT_DESCENDING if monotone else CERT_CONSISTENT


class TripleWitness(NamedTuple):
    """A braid word realizing K3 as a Murasugi sum of K1 and K2 summands.

    outer_word and inner_word are exactly split_braid of the composite, so
    the witness replays bit-for-bit. `degenerate` is a class constant, always
    False: an empty word that can be split lives on at least 3 strands, and
    its closure and both splits are unlinks; it stays in serialized output.
    """

    composite: CompositeBraid
    outer_word: BraidWord
    inner_word: BraidWord
    names: tuple[str, str, str]
    profiles: tuple[InvariantProfile, InvariantProfile, InvariantProfile]
    degenerate = False

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


class TripleFailure(NamedTuple):
    stage: str
    detail: str

    def serialize(self) -> dict[str, object]:
        return {"stage": self.stage, "detail": self.detail}


class ClassMemo:
    """Invariants by conjugacy class, and each class's verdict per fingerprint
    key; one search_triples call owns one.

    A word is looked up by (strands, cyclic_reduction), which most words of a
    search share with many others. A new cyclic word builds its orbit, the
    cyclic_conjugates, once and enters all of it, so no other word of the
    class builds it again. Each class keeps the BraidInvariants of its least
    conjugate, the representative. Each key asked about keeps one
    functools.cache of BraidInvariants.matches, shared by every caller.
    """

    def __init__(self) -> None:
        self._words: dict[tuple[int, tuple[int, ...]], BraidInvariants] = {}
        self._verdicts: dict[tuple, Callable[[BraidInvariants], bool]] = {}

    def of(self, strands: int, letters: Sequence[int]) -> BraidInvariants:
        cyclic = cyclic_reduction(letters)
        invariants = self._words.get((strands, cyclic))
        if invariants is None:
            conjugates = cyclic_conjugates(strands, cyclic)
            invariants = BraidInvariants(BraidWord(strands, min(conjugates)))
            for conjugate in conjugates:
                self._words[strands, conjugate] = invariants
        return invariants

    def matcher(self, key: tuple) -> Callable[[BraidInvariants], bool]:
        """invariants -> invariants.matches(key), asked once per class for this key."""
        if key not in self._verdicts:
            self._verdicts[key] = functools.cache(lambda invariants: invariants.matches(key))
        return self._verdicts[key]


def verify_triple(
    word: BraidWord, k: int, expected: tuple[str, str, str]
) -> TripleWitness | TripleFailure:
    """Split at k and check all three closures against the expected names.

    Failures are reported as data, never raised. The first expected name
    is the outer split, the second the inner, the third the composite; any
    other number of names is a "names" failure.
    This is the check for a word from outside; search_triples builds its
    witnesses from the checks its pools and prefilter already ran.
    """
    if len(expected) != 3:
        return TripleFailure("names", f"expected 3 knot names, got {len(expected)}")
    table = load_table()
    for name in expected:
        if name not in table:
            return TripleFailure("names", f"unknown knot name: {name}")

    try:
        outer, inner = split_braid(word, k)
    except SplitIndexError as exc:
        return TripleFailure("split", str(exc))

    profiles = []
    stages = ("outer split", "inner split", "composite")
    for stage, part, name in zip(stages, (outer, inner, word), expected):
        invariants = BraidInvariants(part)
        if invariants.matches(table[name].profile.fingerprint()):
            profiles.append(invariants.profile(part))
        elif invariants.components != 1:
            return TripleFailure(stage, f"closure has {invariants.components} components")
        else:
            found = ", ".join(match_profile(invariants.profile(part))) or "no table knot"
            return TripleFailure(stage, f"closure identifies as {found}, expected {name}")

    return TripleWitness(
        composite=CompositeBraid(word=word, split_index=k),
        outer_word=outer,
        inner_word=inner,
        names=expected,
        profiles=tuple(profiles),
    )


class TripleBudget(Record):
    """Bounds for the witness search; the defaults keep it under a minute."""

    __slots__ = _fields = ("max_total_letters", "max_strands", "max_shuffles")

    def __init__(self, max_total_letters: int = 6, max_strands: int = 3,
                 max_shuffles: int = 32) -> None:
        values = (max_total_letters, max_strands, max_shuffles)
        for name, value in zip(self._fields, values):
            if value < 0:
                raise ValueError(f"budget {name} must be >= 0, got {value}")
        set_max_total_letters, set_max_strands, set_max_shuffles, set_values = self._setters
        set_max_total_letters(self, max_total_letters)
        set_max_strands(self, max_strands)
        set_max_shuffles(self, max_shuffles)
        set_values(self, values)

    def describe(self) -> str:
        return (
            f"total letters <= {self.max_total_letters}, "
            f"composite strands <= {self.max_strands}, "
            f"shuffles per pair <= {self.max_shuffles}"
        )


def _knot_letters(strands: int, length: int) -> Iterator[tuple[int, ...]]:
    """Every word of exactly `length` letters whose closure is a knot.

    A depth-first walk carries the strand permutation, so a word whose
    closure is a link is never built. A knot closes up as one cycle
    through all strands, which forces length = strands - 1 (mod 2) and
    uses every generator; a branch stops once too few letters remain for
    the generators it has not used yet.
    """
    if strands < 2 or length < strands - 1 or (length - strands + 1) % 2:
        return
    alphabet = [s * i for i in range(1, strands) for s in (-1, 1)]
    perm = list(range(strands))
    uses = [0] * strands
    letters = [0] * length

    def walk(depth: int, missing: int) -> Iterator[tuple[int, ...]]:
        if depth == length:
            i, cycle = perm[0], 1
            while i:
                i, cycle = perm[i], cycle + 1
            if cycle == strands:
                yield tuple(letters)
            return
        if missing > length - depth:
            return
        for v in alphabet:
            i = abs(v)
            letters[depth] = v
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            uses[i] += 1
            yield from walk(depth + 1, missing - (uses[i] == 1))
            uses[i] -= 1
            perm[i - 1], perm[i] = perm[i], perm[i - 1]

    yield from walk(0, strands - 1)


def _pool(
    name: str, strands: int, length: int, memo: ClassMemo
) -> list[tuple[BraidWord, BraidInvariants]]:
    """(word, class record) for each word of `length` letters on `strands`
    strands whose closure is `name`.

    Each knot word's class record is checked against the name's
    fingerprint by BraidInvariants.matches, cheapest invariant first, once
    per class.
    """
    matches = memo.matcher(lookup(name).profile.fingerprint())
    return [
        (BraidWord(strands, letters), record)
        for letters in _knot_letters(strands, length)
        if matches(record := memo.of(strands, letters))
    ]


def _shuffles(total: int, outer_letters: int, limit: int) -> list[Callable]:
    """The first `limit` interleavings, in combinations order, of an outer
    word of outer_letters letters into a composite of `total`. Each maps
    inner letters + shifted outer letters to the composite's letters
    (always two or more: no pool word is empty).
    """
    inner_letters = total - outer_letters
    shuffles = []
    for positions in itertools.islice(
        itertools.combinations(range(total), outer_letters), limit
    ):
        inner, outer = iter(range(inner_letters)), iter(range(inner_letters, total))
        shuffles.append(
            itemgetter(*(next(outer) if p in positions else next(inner) for p in range(total)))
        )
    return shuffles


def search_triples(
    target: tuple[str, str, str],
    budget: TripleBudget | None = None,
    limit: int | None = None,
) -> list[TripleWitness]:
    """Enumerate (inner, outer, shuffle) Murasugi compositions hitting the
    target names, canonically ordered by (length, word, split position).

    The inner word realizes the second target name, the outer the first.
    An exhausted budget yields an empty list, not an error. A knot word on
    s strands has s - 1 letters or more, so composites stay on at most
    min(max_strands, max_total_letters + 1) strands: no wider pair fills.

    Exact invariants are memoized by conjugacy class in one ClassMemo: a
    closure, and so every invariant, is fixed on a class. The memo has two
    levels. Each word is looked up by its cyclic_reduction, which thousands
    of composites share, and a class's orbit is built once. Each class
    answers BraidInvariants.matches once per fingerprint key. Only the
    genus bound is computed per word. Pools hold knot words only, enumerated
    with their strand permutation, so a link closure is never built. A
    composite whose class fails the third target's fingerprint is dropped
    before its word is built; every other one is a witness, built from the
    records it and its parts matched.
    Composites run in tiers of equal total length, shortest first, each
    sorted by (word, split position), so `limit` stops after the first tier
    that reaches it with the same answer as the full list cut to `limit`.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    budget = budget or TripleBudget()
    name1, name2, name3 = target
    for name in target:
        lookup(name)
    memo = ClassMemo()
    is_name3 = memo.matcher(lookup(name3).profile.fingerprint())
    pool = functools.cache(functools.partial(_pool, memo=memo))

    max_strands = min(budget.max_strands, budget.max_total_letters + 1)
    strand_pairs = [  # the composite has s1 + s2 - 1 strands
        (s1, s2) for s1 in range(2, max_strands + 1) for s2 in range(2, max_strands + 2 - s1)
    ]
    witnesses: list[TripleWitness] = []
    for total in range(budget.max_total_letters + 1):
        tier = []
        for s1, s2 in strand_pairs:
            k, strands = s1 - 1, s1 + s2 - 1
            for outer_letters in range(total + 1):
                inner_pool = pool(name2, s1, total - outer_letters)
                outer_pool = pool(name1, s2, outer_letters) if inner_pool else []
                if not outer_pool:
                    continue
                shuffles = _shuffles(total, outer_letters, budget.max_shuffles)
                outer_up = [shifted(w2.letters, k) for w2, _ in outer_pool]
                for w1, r1 in inner_pool:
                    for (w2, r2), w2_letters in zip(outer_pool, outer_up):
                        both = w1.letters + w2_letters
                        for shuffle in shuffles:
                            letters = shuffle(both)
                            record = memo.of(strands, letters)
                            if is_name3(record):
                                word = BraidWord(strands, letters)
                                tier.append(TripleWitness(
                                    CompositeBraid(word, k), w2, w1, target,
                                    (r2.profile(w2), r1.profile(w1), record.profile(word)),
                                ))
        tier.sort(key=lambda w: (w.composite.word.letters, w.composite.split_index))
        witnesses.extend(tier)
        if limit is not None and len(witnesses) >= limit:
            break
    return witnesses[:limit]
