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


def _letter_column(
    index: int, sign: int, strands: int
) -> tuple[int, list[tuple[int, LaurentPolynomial]]]:
    """Column i where a generator's matrix differs from the identity, and its nonzero entries."""
    i = index - 1  # 0-based row/column of the generator's own coordinate
    tinv = LaurentPolynomial.monomial(-1)
    above, diagonal, below = (T, -T, ONE) if sign > 0 else (ONE, -tinv, tinv)
    entries = ((i - 1, above), (i, diagonal), (i + 1, below))
    return i, [(k, entry) for k, entry in entries if 0 <= k <= strands - 2]


def reduced_burau(word: BraidWord) -> list[list[LaurentPolynomial]]:
    """Product of the letters' reduced Burau matrices, left to right.

    A letter's matrix differs from the identity in its own column i only,
    so each letter rewrites column i of the product and leaves the rest.
    """
    n = word.strands
    product = _identity(n - 1)
    for v in word.letters:
        i, column = _letter_column(abs(v), 1 if v > 0 else -1, n)
        for row in product:
            row[i] = sum((row[k] * entry for k, entry in column if row[k]), ZERO)
    return product


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
    if not det:
        return det
    # multiply by (1 - t)/(1 - t^n), i.e. divide by 1 + t + ... + t^(n-1)
    quotient = det.divide_exact(geometric_sum(n))
    return quotient.normalized()
