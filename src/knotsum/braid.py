"""Braid words, closures, and Murasugi-style composition and splitting.

A braid word on n strands is a sequence of signed generator letters.
Letters are stored as nonzero ints: +i means the strand at position i
crosses over the strand at position i+1, -i the inverse crossing.
Strand positions are 1-based and a letter's index must stay below the
strand count. The empty word is a valid braid on any number of strands.

The composition implemented here concatenates a word w1 on k+1 strands
with a word w2 shifted up by k, so that the two closures share exactly
one strand. Splitting at k undoes this exactly, which is what the
round-trip tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


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
        if self.strands < 1:
            raise BraidSyntaxError("strand count must be at least 1")
        for letter in self.letters:
            if letter == 0:
                raise BraidSyntaxError("letter 0 is not a generator")
            if abs(letter) > self.strands - 1:
                raise BraidSyntaxError(
                    f"letter {letter} needs at least {abs(letter) + 1} strands, "
                    f"word has {self.strands}"
                )

    def __str__(self) -> str:
        return format_braid(self)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def writhe(self) -> int:
        return sum(1 if v > 0 else -1 for v in self.letters)

    def index_count(self, index: int) -> int:
        return sum(1 for v in self.letters if abs(v) == index)

    def with_letters(self, letters: Iterable[int]) -> "BraidWord":
        return BraidWord(self.strands, tuple(letters))


@dataclass(frozen=True)
class ClosureData:
    """Combinatorial data of the closed-up braid diagram.

    permutation maps top position i to the bottom position reached by the
    strand entering at i (1-based, stored as a tuple indexed from 0).
    euler_char is the Euler characteristic of the canonical Seifert
    surface: one disk per strand, one band per letter.
    """

    permutation: tuple[int, ...]
    components: int
    writhe: int
    euler_char: int

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

    gon_size is twice the number of letters whose bands attach to the
    shared Seifert disk: index split_index letters from the inner word
    plus index split_index+1 letters from the shifted outer word.
    """

    word: BraidWord
    split_index: int
    gon_size: int
    inner_letter_count: int
    outer_letter_count: int


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    Empty input yields the trivial braid; with no explicit strand count it
    lives on 1 strand, otherwise on the requested number. The default
    strand count is one more than the largest index mentioned.
    """
    tokens = text.split()
    letters = []
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError as exc:
            raise BraidSyntaxError(f"bad braid letter {tok!r}") from exc
        if v == 0:
            raise BraidSyntaxError("braid letter 0 is not allowed")
        letters.append(v)
    if strands is None:
        strands = max((abs(v) for v in letters), default=0) + 1
    for v in letters:
        if abs(v) > strands - 1:
            raise BraidSyntaxError(
                f"letter {v} exceeds the declared strand count {strands}"
            )
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
    return ClosureData(
        permutation=permutation,
        components=len(_cycles(permutation)),
        writhe=word.writhe,
        euler_char=n - len(word.letters),
    )


def is_knot(word: BraidWord) -> bool:
    return closure_data(word).components == 1


def split_braid(word: BraidWord, k: int) -> tuple[BraidWord, BraidWord]:
    """Cut the word along strand k+1 into (outer, inner) halves.

    The first word keeps the letters of index >= k+1, reindexed down by k,
    on strands-k strands. The second keeps the letters of index <= k on
    k+1 strands. Letter order is preserved in both.
    """
    if not 1 <= k <= word.strands - 2:
        raise SplitIndexError(
            f"split position {k} not in 1..{word.strands - 2} for {word.strands} strands"
        )
    outer = []
    inner = []
    for v in word.letters:
        if abs(v) >= k + 1:
            outer.append(v - k if v > 0 else v + k)
        else:
            inner.append(v)
    return (
        BraidWord(word.strands - k, tuple(outer)),
        BraidWord(k + 1, tuple(inner)),
    )


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
    split_braid at k recovers (w2, w1) exactly.
    """
    if w1.strands < 2 and len(w2.letters) > 0:
        raise ValueError("inner word needs at least 2 strands to share one with w2")
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

    shifted_w2 = [v + k if v > 0 else v - k for v in w2.letters]
    it1 = iter(w1.letters)
    it2 = iter(shifted_w2)
    letters = [next(it2) if b else next(it1) for b in shuffle]

    strands = k + w2.strands
    word = BraidWord(strands, tuple(letters))
    gon = 2 * (w1.index_count(k) + sum(1 for v in shifted_w2 if abs(v) == k + 1))
    return CompositeBraid(
        word=word,
        split_index=k,
        gon_size=gon,
        inner_letter_count=len(w1.letters),
        outer_letter_count=len(w2.letters),
    )


def free_reduce(word: BraidWord) -> BraidWord:
    """Delete adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for v in word.letters:
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    return BraidWord(word.strands, tuple(stack))


def mirror_braid(word: BraidWord) -> BraidWord:
    """Flip every crossing; the closure becomes the mirror link."""
    return BraidWord(word.strands, tuple(-v for v in word.letters))
