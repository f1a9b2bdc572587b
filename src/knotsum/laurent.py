"""Integer Laurent polynomials in one variable t.

Coefficients are exact Python ints; a polynomial is stored as a sorted
tuple of (exponent, coefficient) pairs with all coefficients nonzero.
This is the coefficient ring for Alexander polynomials, so the class
carries the normalization used throughout the package: shift exponents
so the support is balanced around zero and fix the overall sign so the
top coefficient is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


def _clean(items: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    for e, c in items:
        acc[e] = acc.get(e, 0) + c
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


@dataclass(frozen=True)
class LaurentPolynomial:
    """Immutable Laurent polynomial with int coefficients."""

    terms: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_dict(coeffs: Mapping[int, int]) -> "LaurentPolynomial":
        return LaurentPolynomial(_clean(coeffs.items()))

    @staticmethod
    def constant(c: int) -> "LaurentPolynomial":
        return LaurentPolynomial(((0, c),) if c else ())

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPolynomial":
        return LaurentPolynomial(((exp, coeff),) if coeff else ())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        return self.terms[0][0]

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        return self.terms[-1][0]

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return LaurentPolynomial(_clean(self.terms + other.terms))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial(tuple((e, c * other) for e, c in self.terms) if other else ())
        prods = [(e1 + e2, c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms]
        return LaurentPolynomial(_clean(prods))

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t**k."""
        return LaurentPolynomial(tuple((e + k, c) for e, c in self.terms))

    def mirror(self) -> "LaurentPolynomial":
        """Substitute t -> 1/t."""
        return LaurentPolynomial(tuple(sorted((-e, c) for e, c in self.terms)))

    def at_minus_one(self) -> int:
        return sum(c if e % 2 == 0 else -c for e, c in self.terms)

    def at_one(self) -> int:
        return sum(c for _, c in self.terms)

    def divide_exact(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division; raises ValueError when a nonzero remainder is left.

        Long division, top term first, on a dense remainder over the span of
        self: an exact quotient spans self.min_exp - divisor.min_exp to
        self.max_exp - divisor.max_exp, so the loop visits each exponent of
        that span once, and whatever is left below it is the remainder.
        """
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return self
        lo = self.terms[0][0]
        d_lo, (d_hi, lead) = divisor.terms[0][0], divisor.terms[-1]
        width = d_hi - d_lo
        size = self.terms[-1][0] - lo - width + 1  # quotient span
        if size <= 0:
            raise ValueError("inexact polynomial division")
        rem = [0] * (size + width)
        for e, c in self.terms:
            rem[e - lo] = c
        lower = [(e - d_lo, c) for e, c in divisor.terms[:-1]]
        quot = [0] * size
        for k in range(size - 1, -1, -1):
            top = rem[k + width]
            if top:
                q, r = divmod(top, lead)
                if r:
                    raise ValueError("inexact polynomial division")
                quot[k] = q
                for j, c in lower:
                    rem[k + j] -= q * c
        if any(rem[:width]):
            raise ValueError("inexact polynomial division")
        q_lo = lo - d_lo
        # a list first: tuple() of a generator grows the tuple by repeated
        # resizes, and that pattern measurably raised peak RSS on Burau runs
        return LaurentPolynomial(tuple([(q_lo + k, q) for k, q in enumerate(quot) if q]))

    def __floordiv__(self, divisor: "LaurentPolynomial | int") -> "LaurentPolynomial":
        """Exact quotient by divide_exact; an int divisor is a constant."""
        if isinstance(divisor, int):
            divisor = LaurentPolynomial.constant(divisor)
        return self.divide_exact(divisor)

    def normalized(self) -> "LaurentPolynomial":
        """Balance the support around exponent 0 and make the top coefficient positive.

        For a knot's Alexander polynomial the result is the symmetric
        representative; for link polynomials with an odd exponent spread the
        support is centered as nearly as parity allows.
        """
        if not self.terms:
            return self
        lo, hi = self.terms[0][0], self.terms[-1][0]
        shifted = self.shift(-((lo + hi) // 2))
        if shifted.terms[-1][1] < 0:
            shifted = -shifted
        return shifted

    def serialize(self) -> str:
        if not self.terms:
            return "0"
        return ",".join(f"{e}:{c}" for e, c in self.terms)

    @staticmethod
    def parse(text: str) -> "LaurentPolynomial":
        text = text.strip()
        if text == "0":
            return LaurentPolynomial()
        pairs = []
        for chunk in text.split(","):
            e_str, c_str = chunk.split(":")
            pairs.append((int(e_str), int(c_str)))
        return LaurentPolynomial(_clean(pairs))

    def pretty(self) -> str:
        """Human form such as 't - 1 + t^-1'."""
        if not self.terms:
            return "0"
        bits = []
        for e, c in reversed(self.terms):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            bits.append((sign, body))
        first_sign, first_body = bits[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in bits[1:]:
            out += f" {sign} {body}"
        return out


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial.constant(1)
T = LaurentPolynomial.monomial(1)


def geometric_sum(n: int) -> LaurentPolynomial:
    """1 + t + ... + t**(n-1)."""
    return LaurentPolynomial(tuple((k, 1) for k in range(n)))
