"""Exact, fraction-free linear algebra over the integers.

Bareiss elimination for integer determinants, Newton interpolation by
exact integer divided differences for determinants of matrix pencils
A + t*B, a minor-expansion determinant for matrices of Laurent polynomials,
and integer congruence diagonalization for symmetric signatures.
No floating point is used anywhere in the package.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .laurent import LaurentPolynomial


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def pencil_determinant(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> LaurentPolynomial:
    """det(A + t*B) for integer matrices A, B, as an exact polynomial in t.

    The determinant has degree at most n, so n + 1 Bareiss evaluations at
    the consecutive integers -(n // 2) .. n - n // 2 pin it down. Newton
    divided differences there divide level k by k, exactly for an integer
    polynomial, so a remainder raises ArithmeticError; Horner's rule on
    (t - x_k) then expands the Newton form into monomials.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("pencil matrices differ in size")
    if any(len(row) != n for row in (*a, *b)):
        raise ValueError("pencil matrices are not square")
    if n == 0:
        return LaurentPolynomial.constant(1)
    points = range(-(n // 2), n + 1 - n // 2)
    diffs = [bareiss_determinant([[a[i][j] + x * b[i][j] for j in range(n)] for i in range(n)])
             for x in points]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            diffs[i], rem = divmod(diffs[i] - diffs[i - 1], k)
            if rem:
                raise ArithmeticError("interpolation produced a non-integer coefficient")
    coeffs = [diffs[n]]
    for k in range(n - 1, -1, -1):
        x = points[k]
        coeffs = [up - x * c for up, c in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += diffs[k]
    return LaurentPolynomial.from_dict(dict(enumerate(coeffs)))


def laurent_matrix_determinant(
    matrix: Sequence[Sequence[LaurentPolynomial]],
) -> LaurentPolynomial:
    """Determinant of a square Laurent-polynomial matrix.

    Uses minor expansion memoized on column subsets: exact and division
    free, but the memo holds up to 2^(n-1) minors and each one costs up to
    n Laurent multiplies, so time and memory double with every added row.
    An n-strand reduced Burau matrix is (n-1) x (n-1).
    """
    n = len(matrix)
    if n == 0:
        return LaurentPolynomial.constant(1)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    full_mask = (1 << n) - 1
    memo: dict[int, LaurentPolynomial] = {full_mask: LaurentPolynomial.constant(1)}

    def det_for(mask: int) -> LaurentPolynomial:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = bin(mask).count("1")
        total = LaurentPolynomial()
        sign = 1
        for col in range(n):
            bit = 1 << col
            if mask & bit:
                continue
            entry = matrix[row][col]
            if not entry.is_zero():
                sub = det_for(mask | bit)
                term = entry * sub
                total = total + (term if sign > 0 else -term)
            sign = -sign
        memo[mask] = total
        return total

    return det_for(0)


def symmetric_signature(matrix: Sequence[Sequence[int]]) -> int:
    """Signature of a symmetric integer matrix by exact congruence diagonalization.

    Fraction free: pivot d clears row and column i by the congruence
    row_i <- d*row_i - f*row_p, then the same on column i; row and column i
    are then divided by a g with g^2 | m[i][i]. Zero rows contribute nothing.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    sig = 0
    live = list(range(n))
    while live:
        pivot = next((i for i in live if m[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for i in live for j in live if i < j and m[i][j] != 0), None
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            # congruence: add row/column j into i to expose a nonzero diagonal
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            continue
        d = m[pivot][pivot]
        sig += 1 if d > 0 else -1
        live.remove(pivot)
        for i in live:
            f = m[i][pivot]
            if f == 0:
                continue
            for k in range(n):
                m[i][k] = d * m[i][k] - f * m[pivot][k]
            for k in range(n):
                m[k][i] = d * m[k][i] - f * m[k][pivot]
            g = gcd(*(m[i][k] for k in live))  # live includes i
            g = gcd(g, m[i][i] // g) if g else 0  # so that g^2 | m[i][i]
            if g > 1:
                for k in live:
                    m[i][k] //= g
                    m[k][i] //= g
    return sig
