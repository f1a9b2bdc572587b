"""Alexander polynomials through the reduced Burau representation.

For a word w on n strands with closure L, the product B of the reduced
Burau matrices of its letters satisfies

    alexander(L) = det(B - I) * (1 - t) / (1 - t**n)

up to units, which the final normalization washes out. This route never
looks at a Seifert surface, so it serves as the independent cross-check
for the surface-based pipeline.
"""

from __future__ import annotations

from .braid import BraidWord
from .laurent import ONE, T, ZERO, LaurentPolynomial, geometric_sum
from .linalg import laurent_matrix_determinant


def _identity(n: int) -> list[list[LaurentPolynomial]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def reduced_burau_letter(index: int, sign: int, strands: int) -> list[list[LaurentPolynomial]]:
    """Reduced Burau matrix of one generator, size (strands-1) x (strands-1)."""
    n = strands
    if not 1 <= index <= n - 1:
        raise ValueError("generator index out of range")
    m = _identity(n - 1)
    tinv = LaurentPolynomial.monomial(-1)
    i = index - 1  # 0-based row/column of the generator's own coordinate
    if sign > 0:
        m[i][i] = -T
        if i - 1 >= 0:
            m[i - 1][i] = T
        if i + 1 <= n - 2:
            m[i + 1][i] = ONE
    else:
        m[i][i] = -tinv
        if i - 1 >= 0:
            m[i - 1][i] = ONE
        if i + 1 <= n - 2:
            m[i + 1][i] = tinv
    return m


def reduced_burau(word: BraidWord) -> list[list[LaurentPolynomial]]:
    n = word.strands
    size = n - 1
    product = _identity(size)
    for v in word.letters:
        letter = reduced_burau_letter(abs(v), 1 if v > 0 else -1, n)
        product = _matmul(product, letter)
    return product


def _matmul(
    a: list[list[LaurentPolynomial]], b: list[list[LaurentPolynomial]]
) -> list[list[LaurentPolynomial]]:
    size = len(a)
    out = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for k in range(size):
            aik = a[i][k]
            if aik.is_zero():
                continue
            for j in range(size):
                bkj = b[k][j]
                if not bkj.is_zero():
                    out[i][j] = out[i][j] + aik * bkj
    return out


def alexander_via_burau(word: BraidWord) -> LaurentPolynomial:
    """Normalized Alexander polynomial of the closure of the word.

    Returns the zero polynomial for split closures (e.g. the closure of an
    empty word on several strands).
    """
    n = word.strands
    if n == 1:
        return ONE
    b = reduced_burau(word)
    for i in range(n - 1):
        b[i][i] = b[i][i] - ONE
    det = laurent_matrix_determinant(b)
    if det.is_zero():
        return det
    # multiply by (1 - t)/(1 - t^n), i.e. divide by 1 + t + ... + t^(n-1)
    quotient = det.divide_exact(geometric_sum(n))
    return quotient.normalized()
