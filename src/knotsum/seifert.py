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

det(V - t*V^T) is the Alexander polynomial only when the surface is
connected, which for a closed braid means every generator index occurs
in the word. Otherwise the closure is a split link and its Alexander
polynomial vanishes; alexander_of_surface handles that case.

A linear plumbing of unknotted annuli with even twist counts
[a1, ..., an] gets the n x n matrix with diagonal -ai/2 and a single +1
above the diagonal per adjacent pair, matching the braid convention
(the [2, 2] chain and the sigma_1^3 surface produce the same matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .braid import BraidWord
from .laurent import LaurentPolynomial
from .linalg import bareiss_determinant, pencil_determinant, symmetric_signature


@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix of push-off linking numbers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("Seifert matrix must be square")

    @staticmethod
    def from_lists(rows: Sequence[Sequence[int]]) -> "SeifertMatrix":
        return SeifertMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    def transpose(self) -> "SeifertMatrix":
        n = self.size
        return SeifertMatrix(tuple(tuple(self.rows[j][i] for j in range(n)) for i in range(n)))

    def symmetrized(self) -> tuple[tuple[int, ...], ...]:
        n = self.size
        return tuple(
            tuple(self.rows[i][j] + self.rows[j][i] for j in range(n)) for i in range(n)
        )

    def alexander(self) -> LaurentPolynomial:
        """Normalized det(V - t*V^T)."""
        n = self.size
        neg_vt = [[-self.rows[j][i] for j in range(n)] for i in range(n)]
        det = pencil_determinant([list(r) for r in self.rows], neg_vt)
        return det.normalized()

    def signature(self) -> int:
        return symmetric_signature(self.symmetrized())

    def determinant_invariant(self) -> int:
        """|det(V + V^T)|, the link determinant."""
        return abs(bareiss_determinant(self.symmetrized()))

    def intersection_determinant(self) -> int:
        """det(V - V^T); +-1 exactly when the boundary is a knot."""
        n = self.size
        skew = [
            [self.rows[i][j] - self.rows[j][i] for j in range(n)] for i in range(n)
        ]
        return bareiss_determinant(skew)


@dataclass(frozen=True)
class _Loop:
    index: int  # generator column: bands join disks index and index+1
    first: int  # word position of the earlier band
    second: int  # word position of the later band
    first_sign: int
    second_sign: int


def _basis_loops(word: BraidWord) -> list[_Loop]:
    positions: dict[int, list[int]] = {}
    for pos, v in enumerate(word.letters):
        positions.setdefault(abs(v), []).append(pos)
    loops = []
    for index in sorted(positions):
        occ = positions[index]
        for a, b in zip(occ, occ[1:]):
            sa = 1 if word.letters[a] > 0 else -1
            sb = 1 if word.letters[b] > 0 else -1
            loops.append(_Loop(index, a, b, sa, sb))
    return loops


def seifert_matrix_of_braid(word: BraidWord) -> SeifertMatrix:
    """Seifert matrix of the canonical surface of the braid closure.

    Basis loops are ordered by (generator index, position), so the matrix
    itself, not just its invariants, is deterministic.
    """
    loops = _basis_loops(word)
    n = len(loops)
    m = [[0] * n for _ in range(n)]
    for r, u in enumerate(loops):
        m[r][r] = -(u.first_sign + u.second_sign) // 2
    for r in range(n):
        for s in range(r + 1, n):
            u, v = loops[r], loops[s]
            if u.index == v.index:
                # consecutive loops share a band; others are disjoint
                if u.second == v.first:
                    e = u.second_sign
                    m[r][s] = (e + 1) // 2
                    m[s][r] = (e - 1) // 2
            elif abs(u.index - v.index) == 1:
                if u.index < v.index:
                    left, right, lr, ls = u, v, r, s
                else:
                    left, right, lr, ls = v, u, s, r
                if left.first < right.first < left.second < right.second:
                    m[lr][ls] += 1
                elif right.first < left.first < right.second < left.second:
                    m[lr][ls] -= 1
    return SeifertMatrix.from_lists(m)


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
    return SeifertMatrix.from_lists(m)


def canonical_surface_is_connected(word: BraidWord) -> bool:
    """True when every band column is populated, so the disks chain up."""
    used = {abs(v) for v in word.letters}
    return all(i in used for i in range(1, word.strands))


def alexander_of_braid(word: BraidWord) -> LaurentPolynomial:
    """Alexander polynomial of the closure, through the surface route."""
    return alexander_of_surface(word, seifert_matrix_of_braid(word))


def alexander_of_surface(word: BraidWord, matrix: SeifertMatrix) -> LaurentPolynomial:
    """Alexander polynomial of the closure from its canonical-surface matrix.

    Split closures (some generator index unused) have a disconnected
    canonical surface; their Alexander polynomial is zero.
    """
    if not canonical_surface_is_connected(word):
        return LaurentPolynomial()
    return matrix.alexander()
