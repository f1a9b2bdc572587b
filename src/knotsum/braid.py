"""Braid words, closures, and Murasugi-style composition and splitting.

A braid word on n strands is a sequence of signed generator letters.
Letters are stored as nonzero ints: +i means the strand at position i
crosses over the strand at position i+1, -i the inverse crossing.
Strand positions are 1-based and a letter's index must stay below the
strand count. The empty word is a valid braid on any number of strands.

The composition implemented here concatenates a word w1 on k+1 strands
with a word w2 shifted up by k, so that the two closures share exactly
one strand. Splitting at k undoes this exactly, which is what the
round-trip tests rely on. `shifted` moves letters up and `restrict` cuts
out a sub-word re-indexed from 1; no other module re-indexes letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class BraidSyntaxError(ValueError):
    """Raised for unparsable braid text or out-of-range letters."""


class SplitIndexError(ValueError):
    """Raised when a split position is outside 1..strands-2."""


class ShuffleError(ValueError):
    """Raised when an interleaving pattern does not fit the two words."""


@dataclass(frozen=True)
class BraidWord:
    """An element of the braid group, spelled as a word in the generators."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        """Refuses a zero letter first, then a letter out of range, then a
        strand count below 1; parse_braid's errors are these."""
        if 0 in self.letters:
            raise BraidSyntaxError("braid letter 0 is not allowed")
        for letter in self.letters:
            if abs(letter) >= self.strands:
                raise BraidSyntaxError(
                    f"letter {letter} exceeds the declared strand count {self.strands}"
                )
        if self.strands < 1:
            raise BraidSyntaxError("strand count must be at least 1")

    def __str__(self) -> str:
        return format_braid(self)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def writhe(self) -> int:
        return sum(1 if v > 0 else -1 for v in self.letters)

    def index_count(self, index: int) -> int:
        return sum(1 for v in self.letters if abs(v) == index)


@dataclass(frozen=True)
class ClosureData:
    """Combinatorial data of the closed-up braid diagram.

    permutation maps top position i to the bottom position reached by the
    strand entering at i (1-based, stored as a tuple indexed from 0).
    """

    permutation: tuple[int, ...]
    components: int

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return _cycles(self.permutation)


def _cycles(permutation: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = len(permutation)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i + 1)
            i = permutation[i] - 1
        out.append(tuple(cyc))
    return tuple(out)


@dataclass(frozen=True)
class CompositeBraid:
    """A braid word remembered together with its summing position.

    split_braid(word, split_index) gives back the (outer, inner) factors.
    """

    word: BraidWord
    split_index: int

    @property
    def gon_size(self) -> int:
        """Twice the number of letters whose bands attach to the shared
        Seifert disk: the index split_index letters of the inner word plus
        the index split_index+1 letters of the shifted outer word."""
        k = self.split_index
        return 2 * (self.word.index_count(k) + self.word.index_count(k + 1))


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    Empty input yields the trivial braid; with no explicit strand count it
    lives on 1 strand, otherwise on the requested number. The default
    strand count is one more than the largest index mentioned.
    """
    letters = []
    for tok in text.split():
        try:
            letters.append(int(tok))
        except ValueError as exc:
            raise BraidSyntaxError(f"bad braid letter {tok!r}") from exc
    if strands is None:
        strands = max(map(abs, letters), default=0) + 1
    return BraidWord(strands, tuple(letters))


def format_braid(word: BraidWord) -> str:
    return " ".join(str(v) for v in word.letters)


def closure_data(word: BraidWord) -> ClosureData:
    n = word.strands
    perm = list(range(1, n + 1))
    for v in word.letters:
        i = abs(v)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    # perm was built by tracking which top strand sits at each bottom position;
    # invert to map top position -> bottom position.
    image = [0] * n
    for bottom_pos, top_start in enumerate(perm):
        image[top_start - 1] = bottom_pos + 1
    permutation = tuple(image)
    return ClosureData(permutation=permutation, components=len(_cycles(permutation)))


def restrict(word: BraidWord, lo: int, hi: int) -> BraidWord:
    """The letters on generators strictly between lo and hi, in order and
    keeping their signs, re-indexed from 1, on hi - lo strands."""
    return BraidWord(hi - lo, tuple([v - lo if v > 0 else v + lo
                                     for v in word.letters if lo < abs(v) < hi]))


def shifted(letters: Sequence[int], k: int) -> tuple[int, ...]:
    """The letters moved up k strands, keeping their signs."""
    return tuple([v + k if v > 0 else v - k for v in letters])


def split_braid(word: BraidWord, k: int) -> tuple[BraidWord, BraidWord]:
    """Cut the word along strand k+1 into (outer, inner) halves.

    The outer half is restrict(word, k, strands): the letters of index
    >= k+1, reindexed down by k, on strands-k strands. The inner half is
    restrict(word, 0, k+1): the letters of index <= k on k+1 strands.
    """
    if word.strands < 3:
        raise SplitIndexError(
            f"a word on {word.strands} strands has no split position; "
            "splitting needs at least 3 strands"
        )
    if not 1 <= k <= word.strands - 2:
        raise SplitIndexError(
            f"split position {k} not in 1..{word.strands - 2} for {word.strands} strands"
        )
    return restrict(word, k, word.strands), restrict(word, 0, k + 1)


def default_shuffle(n1: int, n2: int) -> tuple[int, ...]:
    return tuple([0] * n1 + [1] * n2)


def murasugi_concat(
    w1: BraidWord,
    w2: BraidWord,
    shuffle: Sequence[int] | None = None,
) -> CompositeBraid:
    """Merge w1 and the k-shifted copy of w2 into one word, k = w1.strands - 1.

    The shuffle is a 0/1 sequence choosing at each step whether the next
    letter comes from w1 or from w2; both subsequences keep their internal
    order. The closures of the two inputs then sit inside the closure of
    the output as a Murasugi sum along the shared strand's disk, and
    split_braid at k recovers (w2, w1) exactly. A word on 1 strand has no
    strand to share, and either one raises ValueError.
    """
    for role, w in (("inner", w1), ("outer", w2)):
        if w.strands < 2:
            raise ValueError(f"{role} word is on 1 strand; a summand needs at least 2")
    k = w1.strands - 1
    if shuffle is None:
        shuffle = default_shuffle(len(w1.letters), len(w2.letters))
    shuffle = tuple(shuffle)
    if any(b not in (0, 1) for b in shuffle):
        raise ShuffleError("shuffle entries must be 0 or 1")
    if len(shuffle) != len(w1.letters) + len(w2.letters):
        raise ShuffleError("shuffle length must cover both words")
    if sum(shuffle) != len(w2.letters):
        raise ShuffleError("shuffle does not match the two letter counts")

    it1 = iter(w1.letters)
    it2 = iter(shifted(w2.letters, k))
    letters = [next(it2) if b else next(it1) for b in shuffle]

    strands = k + w2.strands
    return CompositeBraid(word=BraidWord(strands, tuple(letters)), split_index=k)


def _free_reduced(letters: Sequence[int]) -> list[int]:
    stack: list[int] = []
    for v in letters:
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return stack


def cyclic_reduction(letters: Sequence[int]) -> tuple[int, ...]:
    """The letters with adjacent inverse pairs deleted until none remain, then
    x ... x^-1 pairs stripped from the two ends.

    Both moves replace the braid by a conjugate on the same strands, so the
    result closes to the same link; it is what cyclic_conjugates rotates and flips.
    """
    reduced = _free_reduced(letters)
    lo, hi = 0, len(reduced)
    while hi - lo > 1 and reduced[lo] == -reduced[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(reduced[lo:hi])


def cyclic_conjugates(strands: int, cyclic: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every rotation of a cyclically reduced word and of its flip
    sigma_i -> sigma_(n-i) (conjugation by the half twist): conjugates, so
    every word of this orbit closes to one link (Markov's theorem), and
    each is cyclically reduced with the same orbit. Different orbits may
    still be conjugate. Takes bare letters so a caller can key a word
    before building it."""
    flipped = tuple([strands - v if v > 0 else -strands - v for v in cyclic])
    return [w[i:] + w[:i] for w in (cyclic, flipped) for i in range(len(w))] or [()]
