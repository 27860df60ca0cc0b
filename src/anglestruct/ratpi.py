"""The ``p/q`` text form of angles, which are rational multiples of pi.

Every angle, invariant value and slack in the solver is a rational
multiple of pi, so all comparisons are decided exactly.  A value is held
as its dimensionless coefficient, a plain ``Fraction``: ``Fraction(7, 10)``
means (7/10)*pi.  This module reads and writes that coefficient as text.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedRational, ZeroDenominator, excerpt

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse(text: str) -> Fraction:
    """Parse an ASCII ``p/q`` (or bare integer) string into a Fraction."""
    if not isinstance(text, str):
        raise MalformedRational(f"{excerpt(text)} is not a string")
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise MalformedRational(excerpt(text))
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError:  # more digits than int() converts
        raise MalformedRational(f"{text[:12]}... has too many digits") from None
    if den == 0:
        raise ZeroDenominator(text if len(text) <= 12 else f"{text[:12]}...")
    return Fraction(num, den)


def render(v: Fraction) -> str:
    """Canonical ``p/q`` string (reduced, denominator always present)."""
    return f"{v.numerator}/{v.denominator}"
