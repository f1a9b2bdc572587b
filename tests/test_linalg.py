import random
from math import gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotsum import linalg
from knotsum.braid import BraidWord, closure_data
from knotsum.laurent import ONE, ZERO, LaurentPolynomial
from knotsum.linalg import (
    balanced_digits,
    bareiss_determinant,
    laurent_matrix_determinant,
    pencil_determinant,
    symmetric_form,
    symmetric_signature,
)
from knotsum.seifert import seifert_matrix_of_braid

T = LaurentPolynomial.from_coeffs(1, (1,))  # t


def _cofactor_det(m, one=1):
    # reference: Laplace expansion down the rows, memoized on the set of
    # columns the rows above have used; it needs only +, -, * and truth, so
    # it checks bareiss_determinant over Z and, given Laurent entries and
    # one=ONE, laurent_matrix_determinant and pencil_determinant
    n = len(m)
    memo = {(1 << n) - 1: one}

    def minor(used):
        if used not in memo:
            row = m[bin(used).count("1")]
            total, sign = one - one, 1
            for col in range(n):
                if used >> col & 1:
                    continue
                if row[col]:
                    term = row[col] * minor(used | 1 << col)
                    total = total + term if sign > 0 else total - term
                sign = -sign
            memo[used] = total
        return memo[used]

    return minor(0)


def _at(p, x):
    # value of a polynomial (no negative exponents) at the integer x
    assert all(e >= 0 for e, _ in p.terms)
    return sum(c * x**e for e, c in p.terms)


def square_matrices(n, lo=-5, hi=5):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )


def test_bareiss_examples():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    # row swap flips the sign
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    # a zero column, and a zero row
    assert bareiss_determinant([[0, 0], [0, 5]]) == 0
    assert bareiss_determinant([[1, 2], [0, 0]]) == 0
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2, 3], [4, 5, 6]])


@given(st.integers(1, 4).flatmap(square_matrices))
def test_bareiss_matches_cofactor_expansion(m):
    assert bareiss_determinant(m) == _cofactor_det(m)


def test_pencil_determinant_examples():
    # det(V - t*V^T) for the trefoil's V = [[-1, 1], [0, -1]] is t^2 - t + 1
    p = pencil_determinant([[-1, 1], [0, -1]])
    assert p == LaurentPolynomial.from_dict({0: 1, 1: -1, 2: 1})
    # one-sided: [[0, 1], [-t, 0]] has det t; an antisymmetric pair, whose
    # V + V^T is 0, gives [[0, 1 + t], [-1 - t, 0]] and det (1 + t)^2
    assert pencil_determinant([[0, 1], [0, 0]]) == T
    assert pencil_determinant([[0, 1], [-1, 0]]) == LaurentPolynomial.from_dict({0: 1, 1: 2, 2: 1})
    # a zero tube row and column
    assert pencil_determinant([[-1, 1, 0], [0, -1, 0], [0, 0, 0]]) == ZERO
    assert pencil_determinant([]) == ONE
    with pytest.raises(ValueError, match="square"):
        pencil_determinant([[1], [2]])
    # only the first n columns used to be read, giving 1 - t
    with pytest.raises(ValueError, match="square"):
        pencil_determinant([[1, 2]])


@given(st.integers(1, 4).flatmap(square_matrices))
def test_pencil_matches_evaluations(v):
    n = len(v)
    p = pencil_determinant(v)
    for x in (-2, 0, 1, 3):
        mx = [[v[i][j] - x * v[j][i] for j in range(n)] for i in range(n)]
        assert _at(p, x) == bareiss_determinant(mx)


def test_kronecker_rejects_a_determinant_wider_than_its_rows(monkeypatch):
    # det([[1 - t]]) has degree at most 1; at t = 2^3 (Hadamard bound 2) a
    # value 8^2 decodes to t^2, which no 1 x 1 pencil can give
    values = iter((8, 64))
    monkeypatch.setattr(linalg, "bareiss_determinant", lambda m: next(values))
    assert pencil_determinant([[1]]) == T
    with pytest.raises(ArithmeticError):
        pencil_determinant([[1]])


def test_kronecker_shifts_each_row_to_its_lowest_exponent(monkeypatch):
    # [[t^3, 2t^5], [1/t^2, 1/t]]: rows shifted by t^3 and t^-2 leave
    # [[1, 2t^2], [1, t]], whose integer image has ones in column 0
    seen = []
    bareiss = linalg.bareiss_determinant
    monkeypatch.setattr(linalg, "bareiss_determinant", lambda m: seen.append(m) or bareiss(m))
    entries = [(0, 0, 3, [1]), (0, 1, 5, [2]), (1, 0, -2, [1]), (1, 1, -1, [1])]
    assert linalg.kronecker_determinant(2, entries) == LaurentPolynomial.from_coeffs(2, (1, -2))
    assert [row[0] for row in seen[0]] == [1, 1]


@pytest.mark.parametrize("bits", [2, 8, 61])
def test_balanced_digits_round_trip(bits):
    # digits in [-2^(B-1), 2^(B-1)), the lowest digit and a leading negative
    # digit included, come back from sum(d_k * 2^(B*k)) exactly
    rng = random.Random(bits)
    half = 1 << (bits - 1)
    cases = [[-half], [half - 1], [1, -half], [-half, 0, -1], [half - 1, -half, half - 1]]
    for _ in range(300):
        digits = [rng.randrange(-half, half) for _ in range(rng.randint(1, 12))]
        cases.append(digits[:-1] + [digits[-1] or -half])  # no leading zero
    for digits in cases:
        value = sum(d << (bits * k) for k, d in enumerate(digits))
        assert balanced_digits(value, bits) == digits, (bits, digits)
    assert balanced_digits(0, bits) == []


def test_balanced_digits_refuse_one_bit():
    # digits in [-1, 0) cannot spell 1; the loop would never end
    with pytest.raises(ValueError):
        balanced_digits(1, 1)


def _random_matrix(rng, n, density, lo=-4, hi=4):
    return [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]


def _sylvester(n):
    # the n x n Sylvester-Hadamard matrix, n a power of 2: |det| = n^(n/2),
    # Hadamard's bound for entries of absolute value 1
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


def _scaled(m, c):
    return [[c * v for v in row] for row in m]


def _tight_pencils(rng):
    # det reaches the coefficient bound: A = H (constant det), B = H (the
    # t^n coefficient), and A = B = H, entries 1 + t, so each row's bound
    # sums |a| + |b|; then entries of 2^64, a zero row and a repeated row
    for n in (4, 8):
        h, zero = _sylvester(n), [[0] * n for _ in range(n)]
        yield h, zero
        yield zero, _scaled(h, -1)
        yield h, h
        yield _scaled(h, -1), h
    for n in (1, 3, 5):
        yield (_scaled(_random_matrix(rng, n, 0.7), 2**64),
               _scaled(_random_matrix(rng, n, 0.7), -(2**64)))
    a, b = _random_matrix(rng, 5, 1.0), _random_matrix(rng, 5, 1.0)
    a[2] = b[2] = [0] * 5
    yield a, b
    a, b = _random_matrix(rng, 5, 1.0), _random_matrix(rng, 5, 1.0)
    a[3], b[3] = a[1], b[1]  # det 0 at every t
    yield a, b


def _seifert_like(rng, n, density):
    # off the diagonal, pairs (V[i][j], V[j][i]) are mostly one-sided, as in
    # braid Seifert matrices; some are antisymmetric, where V + V^T cancels
    # but the pencil does not, and some are general
    v = [[rng.randint(-2, 2) if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                x, kind = rng.choice((-2, -1, 1, 2)), rng.randrange(5)
                pair = [(x, 0), (0, x), (0, x), (x, -x), (x, rng.randint(-3, 3))][kind]
                v[i][j], v[j][i] = pair
    return v


def test_pencil_matches_laurent_determinant_on_seeded_matrices():
    rng = random.Random(20261018)
    cases = []
    for trial in range(120):
        n = trial % 8
        a = _random_matrix(rng, n, rng.choice((0.3, 1.0)))
        b = _random_matrix(rng, n, rng.choice((0.3, 1.0)))
        if n and trial % 3 == 0:
            b[rng.randrange(n)] = [0] * n  # singular B: degree drops below n
        cases.append((a, b))
    # general pencils A + t*B, through the Laurent front end
    for a, b in cases + list(_tight_pencils(rng)):
        n = len(a)
        pencil = [[LaurentPolynomial.from_dict({0: a[i][j], 1: b[i][j]}) for j in range(n)]
                  for i in range(n)]
        assert laurent_matrix_determinant(pencil) == _cofactor_det(pencil, ONE), (a, b)
    # Seifert pencils V - t*V^T: seeded, with entries of 2^64, and with a
    # zero tube row and column, whose Delta is ZERO
    seifert = [_seifert_like(rng, trial % 9, rng.choice((0.3, 0.7))) for trial in range(120)]
    seifert += [_scaled(_seifert_like(rng, n, 0.7), 2**64) for n in (1, 3, 5)]
    for n in (3, 6):
        v = _seifert_like(rng, n, 1.0)
        v[n - 1] = [0] * n
        for row in v:
            row[n - 1] = 0
        assert pencil_determinant(v) == ZERO
        seifert.append(v)
    for v in seifert:
        n = len(v)
        pencil = [[LaurentPolynomial.from_dict({0: v[i][j], 1: -v[j][i]}) for j in range(n)]
                  for i in range(n)]
        expected = _cofactor_det(pencil, ONE)
        assert pencil_determinant(v) == laurent_matrix_determinant(pencil) == expected, v


def _dense_bareiss(m):
    # reference: textbook Bareiss touching every entry below and right of the pivot
    n = len(m)
    m = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if m[r][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def _sparse_test_matrix(rng, n):
    # banded or scattered; zeroed diagonal entries force row swaps, and long
    # zero runs to the right of column 0 make rows sit out several steps
    # between the updates that touch them (the lazy-scaling path)
    width = rng.randint(0, 4)
    m = [[rng.randint(-3, 3) if abs(i - j) <= width and rng.random() < 0.7 else 0
          for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, n)):
        m[rng.randrange(n)][rng.randrange(n)] = rng.randint(-9, 9)
    for k in rng.sample(range(n), n // 3):
        m[k][k] = 0
    if n > 2 and rng.random() < 0.5:
        rows = rng.sample(range(1, n), rng.randint(1, n - 1))
        for i in rows:
            m[i][0] = rng.choice((-2, -1, 1, 2))
    return m


def test_kernel_matches_cofactor_expansion_on_seeded_sparse_matrices():
    rng = random.Random(6151)
    for trial in range(400):
        m = _sparse_test_matrix(rng, trial % 6 + 1)
        assert bareiss_determinant(m) == _cofactor_det(m), m


def test_kernel_matches_dense_bareiss_up_to_forty_rows():
    rng = random.Random(1968)
    sizes = [rng.randint(1, 40) for _ in range(60)] + [40, 40]
    for n in sizes:
        m = _sparse_test_matrix(rng, n)
        assert bareiss_determinant(m) == _dense_bareiss(m), m
    for n in (12, 25, 40):
        # nonsingular and banded, then rows shuffled: nonzero answers that
        # need many swaps
        m = [[rng.randint(1, 5) if i == j else rng.choice((0, 0, 1, -1)) * (abs(i - j) <= 2)
              for j in range(n)] for i in range(n)]
        rng.shuffle(m)
        assert bareiss_determinant(m) == _dense_bareiss(m) != 0


def test_kernel_on_rows_that_sit_out_steps():
    # row 3 is updated at step 0, has zeros in columns 1 and 2, and takes
    # part again at step 3; row 2 first takes part at step 2
    m = [[2, 0, 0, 1], [0, 3, 1, 0], [0, 0, 5, 2], [4, 0, 0, 7]]
    assert bareiss_determinant(m) == _cofactor_det(m) == 150
    # the same for row 4, which is then eliminated below the step-3 pivot
    m = [[2, 0, 0, 1, 1], [0, 3, 1, 0, 0], [0, 0, 5, 2, 0], [0, 0, 0, 4, 1], [4, 0, 0, 7, 3]]
    assert bareiss_determinant(m) == _cofactor_det(m) != 0
    # a zero diagonal at every step: the pivot is always a swapped-in row
    anti = [[0, 0, 0, 2], [0, 0, 3, 0], [0, 5, 0, 0], [7, 0, 0, 0]]
    assert bareiss_determinant(anti) == _cofactor_det(anti) == 210


def test_pencil_is_invariant_under_simultaneous_permutation():
    rng = random.Random(1969)
    for trial in range(40):
        n = rng.randint(1, 12)
        v = _seifert_like(rng, n, 0.25)
        perm = list(range(n))
        rng.shuffle(perm)
        pv = [[v[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert pencil_determinant(pv) == pencil_determinant(v), (v, perm)


def test_laurent_matrix_determinant_examples():
    assert laurent_matrix_determinant([]) == ONE
    assert laurent_matrix_determinant([[T, ONE], [ZERO, T]]) == T * T
    swap = laurent_matrix_determinant([[ZERO, ONE], [ONE, ZERO]])
    assert swap == -ONE
    with pytest.raises(ValueError):
        laurent_matrix_determinant([[ONE, ONE]])


def _random_laurent(rng):
    # nonzero: 1-3 terms with exponents in -3..3
    return LaurentPolynomial.from_dict(
        {rng.randint(-3, 3): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 3))}
    )


def test_kernel_matches_minor_expansion_over_laurent_polynomials():
    rng = random.Random(19687)
    for trial in range(210):
        n = trial % 7
        # the integer generator's zeros (swaps, rows that sit out) with a
        # Laurent polynomial in place of each nonzero
        m = [[_random_laurent(rng) if v else ZERO for v in row]
             for row in _sparse_test_matrix(rng, n)]
        if n > 1 and trial % 5 == 0:
            # singular: one row a Laurent multiple of another
            i, j = rng.sample(range(n), 2)
            f = _random_laurent(rng)
            m[i] = [f * v for v in m[j]]
        expected = _cofactor_det(m, ONE)
        assert laurent_matrix_determinant(m) == expected, m
        if n > 1 and trial % 5 == 0:
            assert expected == ZERO
    p, q = T + ONE, T - LaurentPolynomial.from_coeffs(-1, (1,))
    # a zero pivot at step 0: row 1 swaps in
    swap = [[ZERO, p, ONE], [q, ONE, ZERO], [ONE, ZERO, p]]
    # row 3 is updated at step 0, then sits out steps 1 and 2
    sit_out = [[p, ZERO, ZERO, ONE], [ZERO, q, ONE, ZERO],
               [ZERO, ZERO, p * q, T], [q, ZERO, ZERO, p]]
    for m in (swap, sit_out):
        assert laurent_matrix_determinant(m) == _cofactor_det(m, ONE) != ZERO
    # Sylvester-Hadamard rows times t^k, k negative in some rows, and times
    # +-(1 + t): the det's top coefficient meets the Hadamard bound
    big = LaurentPolynomial.from_dict({-3: 2**64, 2: -(2**64) + 1})
    tight = []
    for n in (4, 8):
        shifts = [rng.randint(-4, 3) for _ in range(n)]
        for f in (ONE, p, -p):
            tight.append([[f.shift(k) * v for v in row]
                          for k, row in zip(shifts, _sylvester(n))])
    tight.append([[big if v else ZERO for v in row] for row in _sparse_test_matrix(rng, 5)])
    tight.append([[big * v for v in row] for row in _sylvester(4)])
    zero_row = [[_random_laurent(rng) for _ in range(4)] for _ in range(4)]
    zero_row[1] = [ZERO] * 4
    tight.append(zero_row)
    for m in tight:
        assert laurent_matrix_determinant(m) == _cofactor_det(m, ONE), m


@given(st.integers(1, 3).flatmap(square_matrices))
def test_laurent_determinant_matches_bareiss_on_constants(m):
    wrapped = [[LaurentPolynomial.constant(v) for v in row] for row in m]
    assert laurent_matrix_determinant(wrapped) == LaurentPolynomial.constant(
        bareiss_determinant(m)
    )


def _jacobi_signature(m):
    """Sign agreements minus sign changes in the leading principal minors.

    Valid only when every leading principal minor is nonzero.
    """
    n = len(m)
    minors = [1]
    for k in range(1, n + 1):
        d = bareiss_determinant([row[:k] for row in m[:k]])
        if d == 0:
            return None
        minors.append(d)
    sig = 0
    for prev, cur in zip(minors, minors[1:]):
        sig += 1 if (prev > 0) == (cur > 0) else -1
    return sig


def test_symmetric_signature_examples():
    assert symmetric_signature([]) == 0
    assert symmetric_signature([[2]]) == 1
    assert symmetric_signature([[-2, 1], [1, -2]]) == -2
    assert symmetric_signature([[0, 1], [1, 0]]) == 0
    # no diagonal is nonzero: adding row and column 1 into 0 makes it -2
    assert symmetric_signature([[0, -1], [-1, 0]]) == 0
    assert symmetric_signature([[0, 0], [0, 3]]) == 1
    assert symmetric_signature([[1, 0, 0], [0, -1, 0], [0, 0, 0]]) == 0
    assert symmetric_signature([[0] * 3 for _ in range(3)]) == 0
    # after the first pivot the live block is [[0, -1], [-1, 0]], so the
    # row-and-column addition runs mid-elimination, on updated rows
    assert symmetric_signature([[1, 1, 1], [1, 1, 0], [1, 0, 1]]) == 1
    # found by a seeded search: at step 1 the first nonzero live diagonal
    # is row 2's, which sat out step 0 (m[2][0] = 0), and its stored 1
    # rescales by piv[1] / piv[0] = -1 to D_2 = -1. Reading the stored
    # sign instead gives -3
    lagging = [[-1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]
    assert symmetric_signature(lagging) == _descartes_signature(lagging) == 1
    # the same run's last pivot is the determinant; a run that stops early means 0
    assert symmetric_form([]) == (0, 1)
    assert symmetric_form([[0, -1], [-1, 0]]) == (0, -1)
    assert symmetric_form([[1, 1, 1], [1, 1, 0], [1, 0, 1]]) == (1, -1)
    assert symmetric_form([[0] * 3 for _ in range(3)]) == (0, 0)
    assert symmetric_form(lagging) == (1, 0)
    # one diagonal swap, then a row-and-column addition: both are
    # congruences, so neither flips the determinant's sign
    assert symmetric_form([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == (1, -1)
    # only the first n columns used to be read, giving 1
    with pytest.raises(ValueError, match="square"):
        symmetric_signature([[1, 5]])
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_signature([[1, 2], [3, 1]])


@given(st.integers(1, 4).flatmap(square_matrices))
def test_signature_against_jacobi_minors(m):
    n = len(m)
    sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    expected = _jacobi_signature(sym)
    if expected is None:
        return
    assert symmetric_signature(sym) == expected


@given(st.integers(2, 3).flatmap(square_matrices))
def test_signature_is_congruence_invariant(m):
    n = len(m)
    sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    # an explicit unimodular congruence: add twice row/col 0 to row/col 1
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    a[0][1] = 2
    at_m = [[sum(a[k][i] * sym[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    congruent = [[sum(at_m[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert symmetric_signature(congruent) == symmetric_signature(sym)


def _sign_changes(coeffs):
    return sum((x > 0) != (y > 0) for x, y in zip(coeffs, coeffs[1:]))


def _descartes_signature(sym):
    """Positive minus negative roots of det(tI - S), all real for symmetric S."""
    n = len(sym)
    char = laurent_matrix_determinant(
        [[(T if i == j else ZERO) - LaurentPolynomial.constant(sym[i][j]) for j in range(n)]
         for i in range(n)]
    )
    coeffs = [c for _, c in char.terms]
    flipped = [c if e % 2 == 0 else -c for e, c in char.terms]
    return _sign_changes(coeffs) - _sign_changes(flipped)


def test_signature_matches_descartes_on_seeded_sparse_matrices():
    rng = random.Random(7919)
    for trial in range(150):
        n = trial % 9
        m = _random_matrix(rng, n, rng.choice((0.2, 0.4, 0.8)), -6, 6)
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        if trial % 2 == 0:
            for i in range(n):
                sym[i][i] = 0  # zero diagonal: the pair step has to run
        assert symmetric_signature(sym) == _descartes_signature(sym), sym


def _congruence_signature(sym):
    """Signature by congruence diagonalization, sharing no code with the kernel.

    Pivot d clears row and column i by row_i <- d*row_i - f*row_p, then the
    same on column i; row and column i are then divided by a g with
    g^2 | m[i][i]. A live block with a zero diagonal first gets row and
    column j added into i for a nonzero m[i][j].
    """
    n = len(sym)
    m = [list(row) for row in sym]
    sig = 0
    live = list(range(n))
    while live:
        pivot = next((i for i in live if m[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in live for j in live if i < j and m[i][j] != 0), None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
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


def _seifert_forms(rng, count):
    # V + V^T of knot words on 6-10 strands and up to 40 letters, past the
    # corpus of <= 5 strands and 12 letters; a loop through bands of
    # opposite signs puts a zero on the diagonal
    forms = []
    while len(forms) < count:
        strands = rng.randint(6, 10)
        alphabet = [s * i for i in range(1, strands) for s in (1, -1)]
        letters = tuple(rng.choice(alphabet) for _ in range(rng.randint(strands - 1, 40)))
        word = BraidWord(strands, letters)
        if closure_data(word).components == 1:
            forms.append(seifert_matrix_of_braid(word).symmetrized())
    return forms


def test_signature_matches_congruence_oracle_on_seeded_matrices():
    rng = random.Random(2112)
    cases = _seifert_forms(rng, 60)
    for trial in range(240):
        n = trial % 12 + 1
        m = _random_matrix(rng, n, rng.choice((0.2, 0.5, 1.0)), -5, 5)
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        if trial % 2:
            for i in range(n):
                sym[i][i] = 0
        else:
            # a zero trailing block, singular when wider than half the matrix
            z = rng.randint(1, n)
            for i in range(n - z, n):
                sym[i][n - z:] = [0] * z
        cases.append(sym)
    for sym in cases:
        assert symmetric_form(sym) == (_congruence_signature(sym), _dense_bareiss(sym)), sym


def _permutation_sign(perm):
    return (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


def _block_matrix(blocks, above):
    # the blocks on the diagonal, and above(i, j) right of each block
    n = sum(map(len, blocks))
    m = [[above(i, j) for j in range(n)] for i in range(n)]
    lo = 0
    for block in blocks:
        size = len(block)
        for i in range(size):
            m[lo + i][lo:lo + size] = block[i]
        for i in range(lo + size, n):
            m[i][lo:lo + size] = [0] * size
        lo += size
    return m


def _nonsingular_block(rng, size):
    while True:
        sparse = rng.random() < 0.5
        block = _sparse_test_matrix(rng, size) if sparse else _random_matrix(rng, size, 0.8)
        if _cofactor_det(block):
            return block


def test_block_laws_hold_with_rows_shuffled_across_blocks():
    # 2-6 blocks of 1-5 rows: the determinant of a block-diagonal or block
    # upper-triangular matrix is the product of the blocks' determinants,
    # times the sign of a row shuffle; over a symmetric block sum under one
    # simultaneous permutation, the signature adds and det multiplies
    rng = random.Random(1935)
    nonzero = [0, 0]  # nonzero determinants: matrices, forms
    for trial in range(120):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 6))]
        blocks = [_nonsingular_block(rng, s) for s in sizes]
        if trial % 5 == 0:
            blocks[-1][0] = [0] * sizes[-1]  # one singular block
        density = 0 if trial % 2 else 0.3
        m = _block_matrix(blocks, lambda i, j: rng.randint(-3, 3) if rng.random() < density else 0)
        perm = list(range(len(m)))
        rng.shuffle(perm)
        expected = _permutation_sign(perm) * prod(map(_cofactor_det, blocks))
        assert bareiss_determinant([m[r] for r in perm]) == expected, (m, perm)
        nonzero[0] += expected != 0

        forms = [[[a[i][j] + a[j][i] for j in range(len(a))] for i in range(len(a))]
                 for a in blocks]
        for form in forms[::2]:
            for i in range(len(form)):
                form[i][i] = 0  # zero diagonal: the pair step has to run
        block_sum = _block_matrix(forms, lambda i, j: 0)
        shuffled = [[block_sum[a][b] for b in perm] for a in perm]
        signature, det = sum(map(_congruence_signature, forms)), prod(map(_cofactor_det, forms))
        assert symmetric_form(shuffled) == (signature, det), (block_sum, perm)
        nonzero[1] += det != 0
    assert nonzero[0] > 80 and nonzero[1] > 40
