from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from knotsum.laurent import ONE, ZERO, LaurentPolynomial

T = LaurentPolynomial.from_coeffs(1, (1,))  # t

coefficient_dicts = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6)
polys = coefficient_dicts.map(LaurentPolynomial.from_dict)
# a polynomial beside its reference: a dict {exponent: nonzero coefficient}
paired = coefficient_dicts.map(
    lambda d: ({e: c for e, c in d.items() if c}, LaurentPolynomial.from_dict(d))
)


def test_constructors_drop_zero_coefficients():
    assert LaurentPolynomial.from_dict({2: 0, 1: 3}).terms == ((1, 3),)
    assert LaurentPolynomial.constant(0) == ZERO
    assert LaurentPolynomial.from_coeffs(5, (0,)) == ZERO
    assert LaurentPolynomial.from_coeffs(-2, (1,)).terms == ((-2, 1),)


def test_coeff_and_support():
    p = LaurentPolynomial.from_dict({-1: 1, 0: -3, 1: 1})
    assert dict(p.terms)[0] == -3
    assert 7 not in dict(p.terms)
    assert (p.lo, p.coeffs) == (-1, (1, -3, 1))


@pytest.mark.parametrize("lo, coeffs, trimmed", [
    (0, (0, 1), T),
    (0, (1, 0), ONE),
    (3, (), ZERO),
])
def test_constructor_rejects_non_canonical_fields(lo, coeffs, trimmed):
    with pytest.raises(ValueError, match="from_coeffs"):
        LaurentPolynomial(lo, coeffs)
    assert LaurentPolynomial.from_coeffs(lo, coeffs) == trimmed


def test_arithmetic_examples():
    p = T + ONE
    assert (p * p).terms == ((0, 1), (1, 2), (2, 1))
    assert (p - p) == ZERO
    assert dict((-p).terms)[1] == -1
    assert dict((p * 3).terms)[0] == 3
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
    num = LaurentPolynomial.from_coeffs(0, (1,) * 6)
    den = LaurentPolynomial.from_coeffs(0, (1,) * 3)
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
        T.divide_exact(LaurentPolynomial.from_coeffs(0, (1,) * 3))
    # an int divisor is a constant: exact, then with a remainder
    assert LaurentPolynomial.from_dict({-1: 2, 3: -4}).divide_exact(
        LaurentPolynomial.constant(2)
    ) == LaurentPolynomial.from_dict({-1: 1, 3: -2})
    with pytest.raises(ValueError):
        LaurentPolynomial.from_dict({0: 2, 1: 3}).divide_exact(LaurentPolynomial.constant(2))
    with pytest.raises(ZeroDivisionError):
        T.divide_exact(LaurentPolynomial.constant(0))
    # negative exponents: t^-3 - t^-1 = t^-1 * (t^-2 - 1)
    assert LaurentPolynomial.from_dict({-3: 1, -1: -1}).divide_exact(
        LaurentPolynomial.from_dict({-2: 1, 0: -1})
    ) == LaurentPolynomial.from_coeffs(-1, (1,))
    # the top terms divide away, leaving 1 below the quotient's span {0, 1}
    with pytest.raises(ValueError):
        LaurentPolynomial.from_coeffs(0, (1,) * 3).divide_exact(T + ONE)


def test_inexact_division_by_monic_divisor_raises():
    # a lead coefficient of +-1 never leaves a remainder in the top term, so
    # only the quotient's exponent floor can stop these divisions
    with pytest.raises(ValueError):
        ONE.divide_exact(LaurentPolynomial.from_coeffs(0, (1,) * 2))
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


def test_sums_that_cancel_an_end_are_trimmed():
    top = LaurentPolynomial.from_dict({0: 1, 1: 1, 2: 1}) + LaurentPolynomial.from_dict(
        {0: 3, 2: -1}
    )
    assert (top.lo, top.coeffs) == (0, (4, 1))
    bottom = LaurentPolynomial.from_dict({-1: 1, 1: 1}) + LaurentPolynomial.from_dict(
        {-1: -1, 0: 2}
    )
    assert (bottom.lo, bottom.coeffs) == (0, (2, 1))
    zero = (T - ONE) * (T + ONE) - T * T + ONE
    assert zero == ZERO and hash(zero) == hash(ZERO)
    assert (zero.lo, zero.coeffs) == (0, ())


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
        assert 2 * n.lo + len(n.coeffs) - 1 in (0, 1)  # lowest + highest exponent


# Reference arithmetic on dicts {exponent: coefficient} with no zero values.


def _ref_sum(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_scale(x, k):
    return {e: c * k for e, c in x.items() if c * k}


def _ref_product(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_quotient(x, y):
    """x / y in Z[t, t^-1] by long division over Q, or None when inexact."""
    if not x:
        return {}
    x_lo, y_lo = min(x), min(y)
    num = [Fraction(x.get(x_lo + i, 0)) for i in range(max(x) - x_lo + 1)]
    den = [y.get(y_lo + i, 0) for i in range(max(y) - y_lo + 1)]
    if len(num) < len(den):
        return None
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = num[k + len(den) - 1] / den[-1]
        for j, c in enumerate(den):
            num[k + j] -= quot[k] * c
    if any(num) or any(q.denominator != 1 for q in quot):
        return None
    return {x_lo - y_lo + k: int(q) for k, q in enumerate(quot) if q}


def _ref_normalized(x):
    if not x:
        return {}
    centre = (min(x) + max(x)) // 2
    sign = 1 if x[max(x)] > 0 else -1
    return {e - centre: sign * c for e, c in x.items()}


def _assert_matches(p, ref):
    """p is in canonical form and has the reference's terms."""
    assert p.terms == tuple(sorted(ref.items()))
    if p.coeffs:
        assert p.coeffs[0] and p.coeffs[-1]
    else:
        assert p == LaurentPolynomial() and hash(p) == hash(LaurentPolynomial())
        assert p.lo == 0


@given(paired, paired)
def test_ring_operations_match_reference(x, y):
    (dx, px), (dy, py) = x, y
    _assert_matches(px + py, _ref_sum(dx, dy))
    _assert_matches(px - py, _ref_sum(dx, _ref_scale(dy, -1)))
    _assert_matches(-px, _ref_scale(dx, -1))
    _assert_matches(px * py, _ref_product(dx, dy))
    _assert_matches(px * -3, _ref_scale(dx, -3))
    _assert_matches(px - px, {})


@given(paired)
def test_cancelling_an_end_term_matches_reference(x):
    dx, px = x
    assume(dx)
    for e in (min(dx), max(dx)):
        rest = {k: c for k, c in dx.items() if k != e}
        _assert_matches(px - LaurentPolynomial.from_coeffs(e, (dx[e],)), rest)
        _assert_matches(LaurentPolynomial.from_coeffs(e, (-dx[e],)) + px, rest)


@given(paired, paired)
def test_floor_division_matches_reference(x, y):
    (dx, px), (dy, py) = x, y
    assume(dy)
    expected = _ref_quotient(dx, dy)
    if expected is None:
        with pytest.raises(ValueError):
            px.divide_exact(py)
    else:
        _assert_matches(px.divide_exact(py), expected)
    _assert_matches((px * py).divide_exact(py), dx)


@given(paired, st.integers(-4, 4).filter(bool))
def test_floor_division_by_int_matches_reference(x, k):
    dx, px = x
    pk = LaurentPolynomial.constant(k)
    if all(c % k == 0 for c in dx.values()):
        _assert_matches(px.divide_exact(pk), {e: c // k for e, c in dx.items()})
    else:
        with pytest.raises(ValueError):
            px.divide_exact(pk)
    _assert_matches((px * k).divide_exact(pk), dx)


@given(paired, st.integers(-5, 5))
def test_unary_operations_match_reference(x, k):
    dx, px = x
    _assert_matches(px.shift(k), {e + k: c for e, c in dx.items()})
    _assert_matches(px.mirror(), {-e: c for e, c in dx.items()})
    _assert_matches(px.normalized(), _ref_normalized(dx))
    _assert_matches(LaurentPolynomial.parse(px.serialize()), dx)
    assert dict(px.terms) == dx
    assert px.at_one() == sum(dx.values())
    assert px.at_minus_one() == sum(c * (-1) ** (e % 2) for e, c in dx.items())
