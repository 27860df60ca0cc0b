from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglestruct.errors import MalformedRational, ZeroDenominator
from anglestruct.ratpi import parse, render


def test_parse_and_render():
    assert type(parse("7/10")) is Fraction
    assert parse("7/10") == Fraction(7, 10)
    assert parse("2/4") == Fraction(1, 2)
    assert render(parse("2/4")) == "1/2"
    assert parse("-3") == Fraction(-3, 1)
    assert render(parse("-6/4")) == "-3/2"
    assert render(Fraction(0)) == "0/1"


def test_parse_errors():
    with pytest.raises(ZeroDenominator):
        parse("1/0")
    for bad in ("", "a/b", "1.5", "1/-2", "1/2/3"):
        with pytest.raises(MalformedRational):
            parse(bad)


def test_parse_only_ascii_digits_unpadded():
    # non-ASCII digits, surrounding space and a trailing newline are not p/q
    for bad in ("\u0663/\u0664", "\uff11/2", " 1/2 ", "1/2\n"):
        with pytest.raises(MalformedRational):
            parse(bad)


def test_parse_too_many_digits():
    # beyond the digits int() converts, parse still raises its own error
    for bad in ("9" * 5000, "1/" + "9" * 5000):
        with pytest.raises(MalformedRational, match="too many digits"):
            parse(bad)


@given(
    p=st.integers(-10**6, 10**6),
    q=st.integers(1, 10**6),
    r=st.integers(-10**6, 10**6),
    s=st.integers(1, 10**6),
)
def test_canonical_form_is_path_independent(p, q, r, s):
    left = Fraction(p, q) + Fraction(r, s)
    right = Fraction(p * s + r * q, q * s)
    assert left == right
    assert render(left) == render(right)
    assert parse(render(left)) == left

