"""Seifert matrices for canonical braid surfaces and linear plumbings.

The canonical surface of a closed braid has one disk per strand and one
band per letter. Its first homology is generated by one loop for each
pair of consecutive letters with the same index: the loop runs through
the two bands and along the two disks between them. The Seifert matrix
records linking numbers of positively pushed-off generators, and for
this surface those linking numbers are purely combinatorial:

* a loop through bands of signs e1, e2 links its own push-off by
  -(e1 + e2)/2;
* two loops on the same index sharing a band of sign e contribute the
  unimodular pair ((e+1)/2, (e-1)/2), earlier loop first;
* loops on adjacent indices interact only when their band-position
  intervals interleave; the entry lives in the (left-index loop,
  right-index loop) slot and is +1 when the left loop starts first,
  -1 when the right loop starts first, with the transposed slot zero;
* everything else is zero: far columns, disjoint or nested intervals.

The interleave rules are exactly what makes the surface a plumbing
rather than a boundary connected sum. The whole table is pinned by the
requirement that det(V - t*V^T) reproduces the Burau route's Alexander
polynomial on every word, and that sigma(closure of sigma_1^3) = -2
fixes the global mirror convention; the test suite enforces both.

A word with k unused generator indices has a canonical surface in k + 1
pieces and closes to a split link. Tubing the pieces together keeps the
boundary and every linking number, and each tube adds its meridian, which
bounds a disk off the surface, as a zero row and column after the loops.
seifert_matrix_of_braid keeps one such row and column whatever k is: one
already makes det(V - t*V^T) and det(V + V^T) vanish by themselves, the
signature is the sum over the pieces with any number of them, and a word
of three letters on many strands stays a matrix of a few rows.

A linear plumbing of unknotted annuli with even twist counts
[a1, ..., an] gets the n x n matrix with diagonal -ai/2 and a single +1
above the diagonal per adjacent pair, matching the braid convention
(the [2, 2] chain and the sigma_1^3 surface produce the same matrix).

SeifertMatrix holds the tuple rows the linalg kernels read. It computes the
(signature, det) pair of V + V^T once, on first use, as each profile reads
both; Delta is evaluated on each call, and profiles.BraidInvariants keeps it.
"""

from __future__ import annotations

from functools import cached_property
from operator import add
from typing import Sequence

from .braid import BraidWord
from .laurent import LaurentPolynomial
from .linalg import pencil_determinant, symmetric_form
from .record import Record


class SeifertMatrix(Record):
    """Square integer matrix V of push-off linking numbers; sigma and det cached on first use."""

    _fields = ("rows",)
    __slots__ = ("rows", "__dict__")  # cached_property keeps sigma and det in the __dict__

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        if set(map(len, rows)) - {len(rows)}:
            raise ValueError("Seifert matrix must be square")
        set_rows, set_values = self._setters
        set_rows(self, rows)
        set_values(self, (rows,))

    @property
    def size(self) -> int:
        return len(self.rows)

    def symmetrized(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(map(add, row, col)) for row, col in zip(self.rows, zip(*self.rows)))

    def alexander(self) -> LaurentPolynomial:
        """Normalized det(V - t*V^T), evaluated on each call."""
        return pencil_determinant(self.rows).normalized()

    @cached_property
    def _symmetric_form(self) -> tuple[int, int]:
        return symmetric_form(self.symmetrized())

    def signature(self) -> int:
        return self._symmetric_form[0]

    def determinant_invariant(self) -> int:
        """|det(V + V^T)|, the link determinant."""
        return abs(self._symmetric_form[1])


def _basis_loops(word: BraidWord) -> list[tuple[int, int, int, int, int]]:
    """(index, first, second, first_sign, second_sign) per loop: the bands at word
    positions first < second, both joining disks index and index + 1."""
    positions: dict[int, list[int]] = {}
    for pos, v in enumerate(word.letters):
        positions.setdefault(abs(v), []).append(pos)
    loops = []
    for index in sorted(positions):
        occ = positions[index]
        for a, b in zip(occ, occ[1:]):
            sa = 1 if word.letters[a] > 0 else -1
            sb = 1 if word.letters[b] > 0 else -1
            loops.append((index, a, b, sa, sb))
    return loops


def seifert_matrix_of_braid(word: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the closure's canonical surface, its pieces tubed together.

    Basis loops are ordered by (generator index, position), so the matrix
    itself, not just its invariants, is deterministic; if a generator index
    is unused, one zero row and column (a tube's meridian) follow them.
    """
    loops = _basis_loops(word)
    n = len(loops)
    size = n + (len({abs(v) for v in word.letters}) < word.strands - 1)  # a tube after loops
    m = [[0] * size for _ in range(size)]
    for r, (index, first, second, first_sign, second_sign) in enumerate(loops):
        m[r][r] = -(first_sign + second_sign) // 2
        for s in range(r + 1, n):
            v_index, v_first, v_second, _, _ = loops[s]
            if v_index == index:
                # consecutive loops share a band; others are disjoint
                if second == v_first:
                    m[r][s] = (second_sign + 1) // 2
                    m[s][r] = (second_sign - 1) // 2
            elif v_index == index + 1:
                # loops are sorted by index, so loop r is the left-index loop
                if first < v_first < second < v_second:
                    m[r][s] = 1
                elif v_first < first < v_second < second:
                    m[r][s] = -1
    return SeifertMatrix(tuple(map(tuple, m)))


def seifert_matrix_of_plumbing(half_twists: Sequence[int]) -> SeifertMatrix:
    """Matrix of the linear chain of annuli with the given even twist counts."""
    for a in half_twists:
        if a % 2 != 0:
            raise ValueError("plumbing twist counts must be even")
    n = len(half_twists)
    m = [[0] * n for _ in range(n)]
    for i, a in enumerate(half_twists):
        m[i][i] = -a // 2
    for i in range(n - 1):
        m[i][i + 1] = 1
    return SeifertMatrix(tuple(map(tuple, m)))


def alexander_of_braid(word: BraidWord) -> LaurentPolynomial:
    """Alexander polynomial of the closure, through the surface route."""
    return seifert_matrix_of_braid(word).alexander()
