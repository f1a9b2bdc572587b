"""Exact, fraction-free linear algebra over the integers and over Z[t, t^-1].

One determinant kernel, `bareiss_determinant`: fraction-free elimination
(Bareiss 1968) that never touches a zero. Its only divisions are exact,
so it runs unchanged over any integral domain whose elements support
+, -, *, truth (nonzero) and an exact //: Python ints for the Seifert
route, Laurent polynomials for the Burau route. A row with a zero under
the pivot sits the step out, and its missed scalings by p_k/p_(k-1)
telescope into one exact division by a stored pivot ratio, done when the
row next takes part; each row update stops at the last nonzero column of
the pivot row or of the row itself, so fill stays inside the rows'
skyline. On a matrix of bandwidth b that is O(n*b^2) ring operations
plus O(n^2) zero tests (row ends, pivot columns), against O(n^3) dense.

Around it: Newton interpolation by exact integer divided differences for
determinants of matrix pencils A + t*B, evaluated on a reverse
Cuthill-McKee order (Cuthill & McKee 1969) that gives the sparse Seifert
pencils a small bandwidth; the same kernel on matrices of Laurent
polynomials; and integer congruence diagonalization for symmetric
signatures. No floating point is used anywhere in the package.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import or_
from typing import Sequence, TypeVar

from .laurent import LaurentPolynomial

R = TypeVar("R")


def bareiss_determinant(matrix: Sequence[Sequence[R]]) -> R | int:
    """Fraction-free determinant of a square matrix over an integral domain.

    Entries are ints or any ring elements with +, -, *, truth and an exact
    //; the result is the int 1 for an empty matrix and the int 0 for a
    singular one.

    The pivot at step k is the first row at or below k with a nonzero in
    column k (a swap flips the sign). level[i] = L records that row i holds
    the values left by step L - 1, so its values for step k are
    stored * piv[k] // piv[L], exactly, as Bareiss's values are minors.
    """
    n = len(matrix)
    if n == 0:
        return 1
    ends = []
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        e = n - 1
        while e >= 0 and not row[e]:
            e -= 1
        ends.append(e)
    m = list(map(list, matrix))
    level = [0] * n
    piv = [1]  # piv[k + 1] is the pivot of step k
    sign = 1
    for k in range(n):
        p = k
        while p < n and not m[p][k]:
            p += 1
        if p == n:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            ends[k], ends[p] = ends[p], ends[k]
            level[k], level[p] = level[p], level[k]
            sign = -sign
        prev = piv[k]
        top = m[k]
        end = ends[k]
        lag = level[k]
        if lag != k:
            ratio = piv[lag]
            for j in range(k, end + 1):
                top[j] = top[j] * prev // ratio
        pivot = top[k]
        piv.append(pivot)
        # rows k+1 .. p-1 have a zero in column k, like every skipped row
        for i in range(p + 1, n):
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
    return sign * piv[n]


def _reverse_cuthill_mckee(pattern: list[list[int]]) -> list[int]:
    """Reverse Cuthill-McKee order of the graph with edges i - j for j in pattern[i].

    Breadth-first from a vertex of least degree (a diagonal entry counts)
    in each component, visiting new neighbours by increasing degree;
    reversed, it keeps the nonzeros of the permuted matrix near the diagonal.
    A pattern already within one step of the diagonal keeps its own order,
    as no order is narrower.
    """
    if all(abs(i - j) <= 1 for i, cols in enumerate(pattern) for j in cols):
        return list(range(len(pattern)))
    neighbours = [set(cols) for cols in pattern]
    for i, cols in enumerate(pattern):
        for j in cols:
            neighbours[j].add(i)
    degree = list(map(len, neighbours))
    seen = [False] * len(pattern)
    order: list[int] = []
    for root in sorted(range(len(pattern)), key=degree.__getitem__):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            fresh = [u for u in neighbours[order[head]] if not seen[u]]
            head += 1
            fresh.sort(key=degree.__getitem__)
            for u in fresh:
                seen[u] = True
            order += fresh
    order.reverse()
    return order


def pencil_determinant(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> LaurentPolynomial:
    """det(A + t*B) for integer matrices A, B, as an exact polynomial in t.

    The determinant has degree at most n, so n + 1 Bareiss evaluations at
    the consecutive integers -(n // 2) .. n - n // 2 pin it down. The
    evaluations run on one reverse Cuthill-McKee order of the joint
    nonzero pattern of A and B (the same permutation of rows and columns
    leaves det unchanged), and each evaluation matrix is filled from that
    pattern alone. A point then costs O(nnz) to build and O(n*b^2) to
    eliminate for bandwidth b, as the kernel scales the rows it skips
    lazily and keeps fill inside the band. Newton divided differences divide
    level k by k, exactly for an integer polynomial, so a remainder raises
    ArithmeticError; Horner's rule on (t - x_k) then expands the Newton
    form into monomials.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("pencil matrices differ in size")
    if any(len(row) != n for row in (*a, *b)):
        raise ValueError("pencil matrices are not square")
    if n == 0:
        return LaurentPolynomial.constant(1)
    cols = range(n)
    pattern = [list(compress(cols, map(or_, ra, rb))) for ra, rb in zip(a, b)]
    order = _reverse_cuthill_mckee(pattern)
    where = [0] * n
    for new, old in enumerate(order):
        where[old] = new
    entries = [(where[i], where[j], a[i][j], b[i][j]) for i in cols for j in pattern[i]]
    # bareiss_determinant copies its input, so one matrix serves every
    # point: only the entries of the pattern change between points
    matrix = [[0] * n for _ in cols]
    points = range(-(n // 2), n + 1 - n // 2)
    diffs = []
    for x in points:
        for i, j, aij, bij in entries:
            matrix[i][j] = aij + x * bij
        diffs.append(bareiss_determinant(matrix))
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
    return LaurentPolynomial.from_coeffs(0, coeffs)


def laurent_matrix_determinant(
    matrix: Sequence[Sequence[LaurentPolynomial]],
) -> LaurentPolynomial:
    """Determinant of a square Laurent-polynomial matrix.

    The Bareiss kernel over Z[t, t^-1]: O(n^3) ring operations, where a
    minor expansion would hold up to 2^(n-1) minors. On the dense
    coefficient vectors, a product of polynomials with d and e coefficients
    costs O(d*e), a sum O(d + e), and an exact division a long division
    over the quotient's span. The first step's divisor is the kernel's
    int pivot 1, which // and * return at once. An n-strand reduced Burau
    matrix is (n-1) x (n-1).
    """
    det = bareiss_determinant(matrix)
    return LaurentPolynomial.constant(det) if isinstance(det, int) else det


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
