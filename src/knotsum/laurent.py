"""Integer Laurent polynomials in one variable t.

Coefficients are exact Python ints. A polynomial is stored densely, as the
exponent `lo` of its lowest term and the tuple `coeffs` of the
coefficients of t**lo, t**(lo + 1), ...; neither end of `coeffs` is zero,
and the zero polynomial is (0, ()). The form is canonical, so equality and
hashing compare fields. Every operation builds a plain coefficient list
and hands it to `from_coeffs`, which trims it to that form. This is the
coefficient ring for Alexander polynomials, so the class carries the
normalization used throughout the package: shift exponents so the support
is balanced around zero and fix the overall sign so the top coefficient
is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Mapping, Sequence


@dataclass(frozen=True, slots=True)
class LaurentPolynomial:
    """Immutable Laurent polynomial with int coefficients: the sum of coeffs[i] * t**(lo + i).

    The constructor takes canonical fields only and raises ValueError on any
    other; from_coeffs trims any coefficients to them.
    """

    lo: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = self.coeffs
        # canonical: a tuple with no zero at either end; the zero polynomial is (0, ())
        if not (isinstance(c, tuple) and (c[0] and c[-1] if c else self.lo == 0)):
            raise ValueError(
                f"non-canonical fields lo={self.lo}, coeffs={c!r}; "
                "build from any coefficients with LaurentPolynomial.from_coeffs"
            )

    @staticmethod
    def from_coeffs(lo: int, coeffs: Sequence[int]) -> "LaurentPolynomial":
        """The polynomial sum of coeffs[i] * t**(lo + i); zeros at either end are dropped."""
        hi = len(coeffs)
        while hi and not coeffs[hi - 1]:
            hi -= 1
        if not hi:
            return ZERO
        start = 0
        while not coeffs[start]:
            start += 1
        return LaurentPolynomial(lo + start, tuple(coeffs[start:hi]))

    @staticmethod
    def from_dict(coeffs: Mapping[int, int]) -> "LaurentPolynomial":
        if not coeffs:
            return ZERO
        lo = min(coeffs)
        dense = [0] * (max(coeffs) - lo + 1)
        for e, c in coeffs.items():
            dense[e - lo] = c
        return LaurentPolynomial.from_coeffs(lo, dense)

    @staticmethod
    def constant(c: int) -> "LaurentPolynomial":
        return LaurentPolynomial.from_coeffs(0, (c,))

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The (exponent, coefficient) pairs with nonzero coefficient, by exponent."""
        lo = self.lo
        return tuple([(lo + i, c) for i, c in enumerate(self.coeffs) if c])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if other.lo < self.lo:
            self, other = other, self
        off = other.lo - self.lo
        end = off + len(other.coeffs)
        out = list(self.coeffs)
        if end > len(out):
            out += [0] * (end - len(out))
        out[off:end] = map(add, out[off:end], other.coeffs)
        return LaurentPolynomial.from_coeffs(self.lo, out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial.from_coeffs(self.lo, [-c for c in self.coeffs])

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial.from_coeffs(self.lo, [c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        na = len(a)
        out = [0] * (na + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                out[j : j + na] = map(add, out[j : j + na], [x * y for x in a])
        return LaurentPolynomial.from_coeffs(self.lo + other.lo, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t**k."""
        if not k:
            return self
        return LaurentPolynomial.from_coeffs(self.lo + k, self.coeffs)

    def mirror(self) -> "LaurentPolynomial":
        """Substitute t -> 1/t."""
        return LaurentPolynomial.from_coeffs(1 - self.lo - len(self.coeffs), self.coeffs[::-1])

    def at_minus_one(self) -> int:
        value = sum(self.coeffs[::2]) - sum(self.coeffs[1::2])
        return -value if self.lo % 2 else value

    def at_one(self) -> int:
        return sum(self.coeffs)

    def divide_exact(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division; raises ValueError when a nonzero remainder is left.

        Long division, top term first, on the coefficients of self: an exact
        quotient's exponents run from self's lowest minus the divisor's lowest
        to self's highest minus the divisor's highest, so the loop visits each
        exponent of that span once, and whatever is left below it is the
        remainder.
        """
        d = divisor.coeffs
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.coeffs:
            return self
        width = len(d) - 1
        size = len(self.coeffs) - width  # quotient span
        if size <= 0:
            raise ValueError("inexact polynomial division")
        rem = list(self.coeffs)
        lead = d[-1]
        lower = [(j, c) for j, c in enumerate(d[:-1]) if c]
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
        return LaurentPolynomial.from_coeffs(self.lo - divisor.lo, quot)

    def normalized(self) -> "LaurentPolynomial":
        """Balance the support around exponent 0 and make the top coefficient positive.

        For a knot's Alexander polynomial the result is the symmetric
        representative; for link polynomials with an odd exponent spread the
        support is centered as nearly as parity allows.
        """
        if not self.coeffs:
            return self
        shifted = self.shift(-((2 * self.lo + len(self.coeffs) - 1) // 2))
        if shifted.coeffs[-1] < 0:
            shifted = -shifted
        return shifted

    def serialize(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(f"{e}:{c}" for e, c in self.terms)

    @staticmethod
    def parse(text: str) -> "LaurentPolynomial":
        text = text.strip()
        if text == "0":
            return ZERO
        acc: dict[int, int] = {}
        for chunk in text.split(","):
            e, c = map(int, chunk.split(":"))
            acc[e] = acc.get(e, 0) + c
        return LaurentPolynomial.from_dict(acc)

    def pretty(self) -> str:
        """Human form such as 't - 1 + t^-1'."""
        if not self.coeffs:
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
