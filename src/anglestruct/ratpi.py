"""Exact angles as rational multiples of pi.

Every angle, invariant value and inequality in the solver is a rational
multiple of pi, so all comparisons are decided exactly.  A value is stored
as its dimensionless coefficient: ``RatPi(7, 10)`` means (7/10)*pi.
Scaling by a rational is allowed; multiplying two angles is not (that
would carry dimension pi^2) and raises ``TypeError``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedRational, ZeroDenominator

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class RatPi:
    """Immutable rational multiple of pi with exact arithmetic."""

    __slots__ = ("coeff",)

    def __init__(self, numerator, denominator=1):
        if isinstance(numerator, Fraction) and denominator == 1:
            coeff = numerator
        else:
            if denominator == 0:
                raise ZeroDenominator(f"{numerator}/0")
            coeff = Fraction(numerator, denominator)
        object.__setattr__(self, "coeff", coeff)

    def __setattr__(self, name, value):
        raise AttributeError("RatPi is immutable")

    def __add__(self, other):
        if not isinstance(other, RatPi):
            return NotImplemented
        return RatPi(self.coeff + other.coeff)

    def __sub__(self, other):
        if not isinstance(other, RatPi):
            return NotImplemented
        return RatPi(self.coeff - other.coeff)

    def __neg__(self):
        return RatPi(-self.coeff)

    def __mul__(self, scalar):
        if isinstance(scalar, RatPi):
            raise TypeError("product of two angles is not an angle")
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return RatPi(self.coeff * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, RatPi):
            raise TypeError("ratio of two angles is a plain rational; divide coefficients")
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of angle by zero")
        return RatPi(self.coeff / scalar)

    def __eq__(self, other):
        return isinstance(other, RatPi) and self.coeff == other.coeff

    def __lt__(self, other):
        return self.coeff < other.coeff

    def __le__(self, other):
        return self.coeff <= other.coeff

    def __gt__(self, other):
        return self.coeff > other.coeff

    def __ge__(self, other):
        return self.coeff >= other.coeff

    def __hash__(self):
        return hash(("RatPi", self.coeff))

    def __repr__(self):
        return f"RatPi({self.coeff.numerator}, {self.coeff.denominator})"

    def render(self) -> str:
        """Canonical ``p/q`` string (reduced, denominator always present)."""
        return f"{self.coeff.numerator}/{self.coeff.denominator}"


def parse(text: str) -> RatPi:
    """Parse an ASCII ``p/q`` (or bare integer) string into a canonical RatPi."""
    if not isinstance(text, str):
        raise MalformedRational(f"{text!r} is not a string")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise MalformedRational(repr(text))
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:  # more digits than int() converts
        raise MalformedRational(f"{text[:12]}... has too many digits") from None
    if den == 0:
        raise ZeroDenominator(text)
    return RatPi(num, den)


ZERO = RatPi(0)
PI = RatPi(1)
TWO_PI = RatPi(2)
