"""Exact, fraction-free linear algebra over the integers and over Z[t, t^-1].

One elimination kernel, `_eliminate`: fraction-free integer elimination
(Bareiss 1968) that never touches a zero, behind both `bareiss_determinant`
(row pivoting) and `symmetric_form` (diagonal pivoting); it returns the
determinant, whose sign only row swaps flip. Its only divisions are exact. A
row with a zero under the pivot sits the step out, and its missed scalings
by p_k/p_(k-1) telescope into one exact division by a stored pivot ratio,
done when the row next takes part; each row update stops at the last nonzero
column of the pivot row or of the row itself, so fill stays inside the rows'
skyline. On a matrix of bandwidth b that is O(n*b^2) integer operations plus
O(n^2) zero tests (row ends, pivot columns), against O(n^3) dense.

Polynomial determinants run the integer kernel once, at t = 2^B (Kronecker
substitution), behind one front end, `kronecker_determinant`, which takes
the matrix as a list of nonzero entries, each a coefficient list: the
Seifert pencil V - t*V^T (the surface route), the Burau route's B - I, and
matrices of `LaurentPolynomial`s. B comes from Hadamard's bound on the
coefficients of the determinant, so the integer holds them as balanced
base-2^B digits, which `balanced_digits`, the one decoder, reads back with
no interpolation. The pencil is eliminated on a reverse Cuthill-McKee
order (Cuthill & McKee 1969) of V + V^T's pattern, which keeps it
banded. A symmetric form's signature is read off one run's pivots
(Sylvester's law of inertia), and its determinant is that run's. No
floating point is used anywhere in the package.
"""

from __future__ import annotations

from math import inf, isqrt, prod
from typing import Sequence

from .laurent import ZERO, LaurentPolynomial


def _eliminate(matrix: Sequence[Sequence[int]], symmetric: bool) -> tuple[list[int], int]:
    """Pivots [1, D_1, ..., D_r] of fraction-free elimination, and the determinant.

    Row pivoting takes at step k the first row at or below k with a nonzero
    in column k. Diagonal pivoting (symmetric) takes the first nonzero
    diagonal and swaps columns as rows, so D_k are the leading principal
    minors of a congruent matrix; when every live diagonal is zero it adds
    row and column j into i for a nonzero m[i][j], a unimodular congruence
    that keeps the divisions exact and makes the diagonal 2*m[i][j]. The
    determinant is D_n, its sign flipped by row swaps only, or 0 if the run
    stops, r < n, at a zero live column (live block, when symmetric).
    level[i] = L records that row i holds the values left by step L - 1, so
    its values for step k are stored * piv[k] // piv[L], exactly, as
    Bareiss's values are minors.
    """
    n = len(matrix)
    ends = []
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        e = n - 1
        while e >= 0 and not row[e]:
            e -= 1
        ends.append(e)
    m = list(map(list, matrix))
    if symmetric and m != list(map(list, zip(*m))):
        raise ValueError("matrix is not symmetric")
    level = [0] * n
    piv = [1]  # piv[k + 1] is the pivot of step k
    sign = 1

    def lift(r: int, k: int) -> None:  # row r to its values for step k
        lag = level[r]
        if lag != k:
            row, prev, ratio = m[r], piv[k], piv[lag]
            for j in range(k, ends[r] + 1):
                row[j] = row[j] * prev // ratio
            level[r] = k

    for k in range(n):
        p = k
        while p < n and not m[p][p if symmetric else k]:
            p += 1
        if p == n:  # no pivot; diagonal pivoting first tries the row-and-column addition
            pair = symmetric and next(((i, j) for i in range(k, n)
                                       for j in range(i + 1, ends[i] + 1) if m[i][j]), None)
            if not pair:
                return piv, 0
            p, j = pair
            lift(p, k)
            lift(j, k)
            for c in range(k, ends[j] + 1):
                m[p][c] += m[j][c]
            ends[p] = max(ends[p], ends[j])
            for r in range(k, n):  # m[r][j] != 0 only where ends[r] >= j > p
                m[r][p] += m[r][j]
        if p != k:
            m[k], m[p] = m[p], m[k]
            ends[k], ends[p] = ends[p], ends[k]
            level[k], level[p] = level[p], level[k]
            if not symmetric:
                sign = -sign
            else:
                for r in range(k, n):
                    row = m[r]
                    row[k], row[p] = row[p], row[k]
                    if row[p] and ends[r] < p:
                        ends[r] = p
        lift(k, k)
        prev = piv[k]
        top = m[k]
        end = ends[k]
        pivot = top[k]
        piv.append(pivot)
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            if not f:
                continue
            stop = ends[i]
            if stop < end:
                stop = ends[i] = end
            lag = level[i]
            if lag == k:
                for j in range(k + 1, stop + 1):
                    row[j] = (row[j] * pivot - f * top[j]) // prev
            else:
                ratio = piv[lag]
                f = f * prev // ratio
                for j in range(k + 1, stop + 1):
                    row[j] = (row[j] * prev // ratio * pivot - f * top[j]) // prev
            level[i] = k + 1
    return piv, sign * piv[-1]


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, from `_eliminate`'s row pivoting; 1 when empty."""
    return _eliminate(matrix, False)[1]


def balanced_digits(value: int, bits: int) -> list[int]:
    """Digits d_k in [-2^(bits-1), 2^(bits-1)), lowest first, of value = sum(d_k * 2^(bits*k))."""
    if bits < 2:  # digits in [-1, 0) cannot spell a positive value
        raise ValueError("balanced digits need at least 2 bits")
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        digits.append(digit)
        value = (value - digit) >> bits
    return digits


def _reverse_cuthill_mckee(pattern: list[list[int]]) -> list[int]:
    """Reverse Cuthill-McKee order of a symmetric pattern: pattern[i] lists i's neighbours.

    Breadth-first from a vertex of least degree (a diagonal entry counts)
    in each component, visiting new neighbours by increasing degree;
    reversed, it keeps the nonzeros of the permuted matrix near the diagonal.
    """
    degree = list(map(len, pattern))
    seen = [False] * len(pattern)
    order: list[int] = []
    for root in sorted(range(len(pattern)), key=degree.__getitem__):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            fresh = [u for u in pattern[order[head]] if not seen[u]]
            head += 1
            fresh.sort(key=degree.__getitem__)
            for u in fresh:
                seen[u] = True
            order += fresh
    order.reverse()
    return order


def kronecker_determinant(
    n: int, entries: Sequence[tuple[int, int, int, Sequence[int]]]
) -> LaurentPolynomial:
    """Determinant of the n x n matrix whose nonzero (i, j) entry is sum(c[k] * t**(lo + k)).

    Each entry comes as (i, j, lo, c); c may have zeros at either end, but
    zeros at its low end lower the row's shift and widen the ints. A row of
    norm 0 (no entry, or only zeros) makes the determinant ZERO. Otherwise
    row i is shifted by its lowest exponent, which multiplies the determinant
    by a known power of t and leaves a polynomial D. On |t| = 1 Hadamard's
    inequality gives |D(t)| <= C = prod_i sqrt(sum_j ||m_ij||_1^2), and each
    coefficient d_k of D is the average of D(t)*t^-k over that circle, so
    |d_k| <= C. With 2^(B-1) > C, D(2^B) from one integer Bareiss run
    holds D's coefficients as balanced base-2^B digits, read back by
    `balanced_digits`. D's degree is at most the sum of the row spans; a
    value with more digits than that raises ArithmeticError.
    """
    row_lo = [inf] * n
    row_end = [-inf] * n
    row_norm = [0] * n
    for i, _, lo, c in entries:
        row_lo[i] = min(row_lo[i], lo)
        row_end[i] = max(row_end[i], lo + len(c))
        row_norm[i] += sum(map(abs, c)) ** 2
    if not all(row_norm):
        return ZERO
    # isqrt(C^2) + 1 > C, so 2^(bits - 1) > C
    bits = (isqrt(prod(row_norm)) + 1).bit_length() + 1
    matrix = [[0] * n for _ in range(n)]
    for i, j, lo, c in entries:
        v = 0
        for x in reversed(c):
            v = (v << bits) + x
        matrix[i][j] = v << ((lo - row_lo[i]) * bits)
    coeffs = balanced_digits(bareiss_determinant(matrix), bits)
    if len(coeffs) > sum(row_end) - sum(row_lo) - n + 1:
        raise ArithmeticError("determinant is wider than its rows allow")
    return LaurentPolynomial.from_coeffs(sum(row_lo), coeffs)


def pencil_determinant(v: Sequence[Sequence[int]]) -> LaurentPolynomial:
    """det(V - t*V^T), the Seifert pencil of a square integer matrix V, as a polynomial in t.

    One integer Bareiss run at t = 2^B (`kronecker_determinant`), on the
    reverse Cuthill-McKee order of V + V^T's pattern, the entries where V or
    V^T is nonzero (the same permutation of rows and columns leaves det
    unchanged), which keeps the sparse Seifert pencils banded: O(n*b^2)
    multiplications of ints of O(n*B) bits for bandwidth b. Entry (i, j) is
    V[i][j] - V[j][i]*t, of ||.||_1 = |V[i][j]| + |V[j][i]|, so B is about
    log2 of the Hadamard bound, and the result has degree at most n.
    """
    n = len(v)
    if any(len(row) != n for row in v):
        raise ValueError("pencil matrix is not square")
    cols = range(n)
    pattern = [[j for j in cols if row[j] or col[j]] for row, col in zip(v, zip(*v))]
    order = _reverse_cuthill_mckee(pattern)
    where = [0] * n
    for new, old in enumerate(order):
        where[old] = new
    entries = [(where[i], where[j], 0, (v[i][j], -v[j][i])) for i in cols for j in pattern[i]]
    return kronecker_determinant(n, entries)


def laurent_matrix_determinant(
    matrix: Sequence[Sequence[LaurentPolynomial]],
) -> LaurentPolynomial:
    """Determinant of a square Laurent-polynomial matrix.

    One integer Bareiss run at t = 2^B (`kronecker_determinant`) on the
    nonzero entries: the ring arithmetic of Z[t, t^-1] becomes big-int
    arithmetic, and no polynomial is multiplied or divided.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    entries = [(i, j, p.lo, p.coeffs) for i, row in enumerate(matrix)
               for j, p in enumerate(row) if p]
    return kronecker_determinant(n, entries)


def symmetric_form(matrix: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(signature, determinant) of a symmetric integer matrix, from one elimination.

    The kernel's diagonal pivoting (`_eliminate`) gives the nonzero leading
    principal minors D_1, ..., D_r of a congruent matrix whose Schur
    complement past them is zero, so the signature is sum(sign(D_k * D_(k-1)))
    (Sylvester's law of inertia), and the determinant is the one it returns.
    """
    piv, det = _eliminate(matrix, True)
    signature = sum(1 if (a > 0) == (b > 0) else -1 for a, b in zip(piv, piv[1:]))
    return signature, det


def symmetric_signature(matrix: Sequence[Sequence[int]]) -> int:
    """Signature of a symmetric integer matrix (`symmetric_form`)."""
    return symmetric_form(matrix)[0]
