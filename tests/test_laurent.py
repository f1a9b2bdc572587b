import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotsum.laurent import ONE, T, ZERO, LaurentPolynomial, geometric_sum

polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6
).map(LaurentPolynomial.from_dict)


def test_constructors_drop_zero_coefficients():
    assert LaurentPolynomial.from_dict({2: 0, 1: 3}).terms == ((1, 3),)
    assert LaurentPolynomial.constant(0) == ZERO
    assert LaurentPolynomial.monomial(5, 0) == ZERO
    assert LaurentPolynomial.monomial(-2).terms == ((-2, 1),)


def test_coeff_and_support():
    p = LaurentPolynomial.from_dict({-1: 1, 0: -3, 1: 1})
    assert p.coeff(0) == -3
    assert p.coeff(7) == 0
    assert p.min_exp == -1
    assert p.max_exp == 1
    with pytest.raises(ValueError):
        _ = ZERO.min_exp


def test_arithmetic_examples():
    p = T + ONE
    assert (p * p).terms == ((0, 1), (1, 2), (2, 1))
    assert (p - p) == ZERO
    assert (-p).coeff(1) == -1
    assert (p * 3).coeff(0) == 3
    assert (3 * p) == p * 3
    assert p * 0 == ZERO


def test_shift_and_mirror():
    p = LaurentPolynomial.from_dict({0: 2, 3: -1})
    assert p.shift(2).terms == ((2, 2), (5, -1))
    assert p.mirror().terms == ((-3, -1), (0, 2))
    sym = LaurentPolynomial.from_dict({-1: 1, 0: -1, 1: 1})
    assert sym.mirror() == sym
    assert p.mirror() != p


def test_evaluations_at_plus_and_minus_one():
    p = LaurentPolynomial.from_dict({-1: 1, 1: 1})
    assert p.at_minus_one() == -2
    assert p.at_one() == 2


def test_divide_exact():
    num = geometric_sum(6)
    den = geometric_sum(3)
    # 1 + ... + t^5 = (1 + t + t^2)(1 + t^3)
    assert num.divide_exact(den).terms == ((0, 1), (3, 1))
    with pytest.raises(ValueError):
        (T + ONE).divide_exact(LaurentPolynomial.from_dict({0: 2}))
    with pytest.raises(ZeroDivisionError):
        ONE.divide_exact(ZERO)
    assert ZERO.divide_exact(T) == ZERO


def test_floor_division_is_exact_division():
    assert not ZERO and T
    # a divisor wider than the dividend leaves the quotient no span
    with pytest.raises(ValueError):
        T // geometric_sum(3)
    # an int divisor is a constant: exact, then with a remainder
    assert LaurentPolynomial.from_dict({-1: 2, 3: -4}) // 2 == LaurentPolynomial.from_dict(
        {-1: 1, 3: -2}
    )
    with pytest.raises(ValueError):
        LaurentPolynomial.from_dict({0: 2, 1: 3}) // 2
    with pytest.raises(ZeroDivisionError):
        T // 0
    # negative exponents: t^-3 - t^-1 = t^-1 * (t^-2 - 1)
    assert LaurentPolynomial.from_dict({-3: 1, -1: -1}) // LaurentPolynomial.from_dict(
        {-2: 1, 0: -1}
    ) == LaurentPolynomial.monomial(-1)
    # the top terms divide away, leaving 1 below the quotient's span {0, 1}
    with pytest.raises(ValueError):
        geometric_sum(3) // (T + ONE)


def test_inexact_division_by_monic_divisor_raises():
    # a lead coefficient of +-1 never leaves a remainder in the top term, so
    # only the quotient's exponent floor can stop these divisions
    with pytest.raises(ValueError):
        ONE.divide_exact(geometric_sum(2))
    with pytest.raises(ValueError):
        LaurentPolynomial.from_dict({-2: 1, 0: 1}).divide_exact(
            LaurentPolynomial.from_dict({-1: 1, 0: -1})
        )
    # exact divisions with negative exponents still go through
    assert LaurentPolynomial.from_dict({-2: 1, 0: -1}).divide_exact(
        LaurentPolynomial.from_dict({-1: 1, 0: 1})
    ) == LaurentPolynomial.from_dict({-1: 1, 0: -1})


def test_normalized_balances_and_signs():
    p = LaurentPolynomial.from_dict({2: -1, 3: 1, 4: -1})
    assert p.normalized().terms == ((-1, 1), (0, -1), (1, 1))
    # odd spread: centered as parity allows, top coefficient positive
    q = LaurentPolynomial.from_dict({0: 1, 1: 1})
    assert q.normalized().terms == ((0, 1), (1, 1))
    assert ZERO.normalized() == ZERO
    neg = LaurentPolynomial.from_dict({0: -1})
    assert neg.normalized().terms == ((0, 1),)


def test_serialize_parse_round_trip():
    p = LaurentPolynomial.from_dict({-2: 1, 0: -3, 2: 1})
    assert p.serialize() == "-2:1,0:-3,2:1"
    assert LaurentPolynomial.parse(p.serialize()) == p
    assert ZERO.serialize() == "0"
    assert LaurentPolynomial.parse("0") == ZERO


def test_pretty():
    p = LaurentPolynomial.from_dict({-1: 1, 0: -1, 1: 1})
    assert p.pretty() == "t - 1 + t^-1"
    assert ZERO.pretty() == "0"
    assert LaurentPolynomial.from_dict({2: -3}).pretty() == "-3*t^2"


def test_geometric_sum():
    assert geometric_sum(1) == ONE
    assert geometric_sum(4).terms == ((0, 1), (1, 1), (2, 1), (3, 1))


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + ZERO == a
    assert a * ONE == a


@given(polys)
def test_serialize_round_trip_random(p):
    assert LaurentPolynomial.parse(p.serialize()) == p


@given(polys)
def test_mirror_involution(p):
    assert p.mirror().mirror() == p
    assert p.mirror().at_one() == p.at_one()


@given(polys, polys)
def test_exact_division_inverts_multiplication(a, b):
    if b == ZERO:
        return
    assert (a * b).divide_exact(b) == a


@given(polys)
def test_normalized_is_idempotent_and_balanced(p):
    n = p.normalized()
    assert n.normalized() == n
    if n != ZERO:
        assert n.terms[-1][1] > 0
        assert n.min_exp + n.max_exp in (0, 1)
