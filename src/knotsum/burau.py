"""Alexander polynomials through the reduced Burau representation.

For a word w on n strands with closure L, the product B of the reduced
Burau matrices of its letters satisfies

    alexander(L) = det(B - I) * (1 - t) / (1 - t**n)

up to units, which the final normalization washes out. This route never
looks at a Seifert surface, so it serves as the independent cross-check
for the surface-based pipeline. The product runs on ints at t = 2^B, I is
subtracted on those ints, and each entry of B - I is decoded once, by
`linalg.balanced_digits`, into an entry of `linalg.kronecker_determinant`.
"""

from __future__ import annotations

from .braid import BraidWord
from .laurent import ONE, LaurentPolynomial, geometric_sum
from .linalg import balanced_digits, kronecker_determinant


def reduced_burau(word: BraidWord) -> tuple[int, list[int], list[list[int]]]:
    """Product of the letters' reduced Burau matrices, left to right, packed as (B, lo, columns).

    Letter v's matrix is the identity but in column i = |v| - 1, which holds
    (t, -t, 1) for v > 0 and (1, -1/t, 1/t) for v < 0 in rows i - 1, i, i + 1.
    columns[j][r] is entry (r, j) of the product times t^-lo[j] at t = 2^B,
    so a letter is at most three shifts and two adds per row on one column.
    bound[j] caps the l1 norm of column j's entries; with 2^(B-1) above
    max(bound), each coefficient is one balanced base-2^B digit.
    """
    size = word.strands - 1
    bound = [1] * size
    for v in word.letters:
        i = abs(v) - 1
        bound[i] = sum(bound[max(i - 1, 0) : i + 2])
    bits = max(bound, default=1).bit_length() + 1
    columns = [[int(r == j) for r in range(size)] for j in range(size)]
    lo = [0] * size
    for v in word.letters:
        i = abs(v) - 1
        # (column, power of t) read into column i: the diagonal first, then its sides
        terms = [(k, e) for k, e in zip((i, i - 1, i + 1), (1, 1, 0) if v > 0 else (-1, 0, -1))
                 if 0 <= k < size]
        low = min(lo[k] + e for k, e in terms)
        (diagonal, shift), *sides = [(columns[k], (lo[k] + e - low) * bits) for k, e in terms]
        new = [-(x << shift) for x in diagonal]
        for side, shift in sides:
            new = [y + (x << shift) for y, x in zip(new, side)]
        columns[i], lo[i] = new, low
    return bits, lo, columns


def alexander_via_burau(word: BraidWord) -> LaurentPolynomial:
    """Normalized Alexander polynomial of the closure of the word.

    Returns the zero polynomial for split closures (e.g. the closure of an
    empty word on several strands).
    """
    n = word.strands
    if n == 1:
        return ONE
    bits, lo, columns = reduced_burau(word)
    entries = []
    for j, column in enumerate(columns):
        # column j of B - I times t^-low: B's column moved to t^low, less t^0 on the diagonal;
        # |c| <= max(bound) < 2^(B-1) for B's coefficients, so c - 1 is a balanced digit too
        low = min(lo[j], 0)
        shift = (lo[j] - low) * bits
        column = [x << shift for x in column]
        column[j] -= 1 << (-low * bits)
        for i, x in enumerate(column):
            if x:  # drop the entry's zero low digits, so its lo is its lowest exponent
                zeros = ((x & -x).bit_length() - 1) // bits
                entries.append((i, j, low + zeros, balanced_digits(x >> (zeros * bits), bits)))
    det = kronecker_determinant(n - 1, entries)
    if not det:
        return det
    # multiply by (1 - t)/(1 - t^n), i.e. divide by 1 + t + ... + t^(n-1)
    quotient = det.divide_exact(geometric_sum(n))
    return quotient.normalized()
