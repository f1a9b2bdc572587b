"""Alexander polynomials through the reduced Burau representation.

For a word w on n strands with closure L, the product B of the reduced
Burau matrices of its letters satisfies

    alexander(L) = det(B - I) * (1 - t) / (1 - t**n)

up to units, which the final normalization washes out. This route never
looks at a Seifert surface, so it serves as the independent cross-check
for the surface-based pipeline. The product runs on ints at t = 2^B, I is
subtracted on those ints, and each entry of B - I is decoded once, by
`linalg.balanced_digits`, into an entry of `linalg.kronecker_determinant`.

The word is first cut where the closure is a connected sum (the Murasugi
sum along a 2-gon): at each generator it uses exactly once. Each summand
is `braid.restrict` of the word between two cuts; a word with no cut is
one summand like any other. The Seifert matrix of a connected sum is the
block sum of the summands' matrices, so alexander(L) is the product of
the summands' polynomials, and each summand on m strands brings its own
B - I, one diagonal block of the determinant, and its own
1 + t + ... + t^(m-1) to divide by. A generator the word never uses
leaves a split closure, whose polynomial is zero. The surface route reads
the whole, uncut word, so the two routes agreeing also checks the cut.
"""

from __future__ import annotations

from .braid import BraidWord, restrict
from .laurent import ONE, ZERO, LaurentPolynomial
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

    One pass counts each generator's uses; if one is unused, the closure is
    split and the zero polynomial returns before any product. The strands
    are cut at every generator used once; with the ends 0 and n, two
    consecutive cuts lo < hi bound the summand restrict(word, lo, hi) on
    m = hi - lo strands. Each summand of m >= 2 strands brings its B - I,
    one diagonal block of a single determinant, the product of the blocks'
    determinants, which is divided once by the product of the summands'
    1 + t + ... + t^(m-1). With no summand left, the closure is an unknot.
    """
    n = word.strands
    uses = [0] * n  # uses[i]: letters on generator i; uses[0] stays 0
    for v in word.letters:
        uses[abs(v)] += 1
    if 0 in uses[1:]:
        return ZERO
    cuts = [0, *(i for i in range(1, n) if uses[i] == 1), n]
    summands = [restrict(word, lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]
    if not summands:
        return ONE
    entries = []
    offset = 0  # the block's first row and column
    for summand in summands:
        bits, lo, columns = reduced_burau(summand)
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
                    entries.append((offset + i, offset + j, low + zeros,
                                    balanced_digits(x >> (zeros * bits), bits)))
        offset += summand.strands - 1
    det = kronecker_determinant(offset, entries)
    # multiply by (1 - t)/(1 - t^m) per summand, i.e. divide by the product of their
    # 1 + t + ... + t^(m-1); multiplying by one is a window sum of m coefficients
    divisor = [1]
    for m in (summand.strands for summand in summands):
        divisor = [sum(divisor[max(k - m + 1, 0) : k + 1]) for k in range(len(divisor) + m - 1)]
    return det.divide_exact(LaurentPolynomial.from_coeffs(0, divisor)).normalized()
