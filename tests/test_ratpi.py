import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglestruct.errors import MalformedRational, ZeroDenominator
from anglestruct.ratpi import PI, RatPi, parse


def test_basic_arithmetic():
    assert RatPi(1, 2) + RatPi(1, 3) == RatPi(5, 6)
    assert RatPi(7, 10) > RatPi(2, 3)  # 21/30 vs 20/30
    assert -RatPi(0, 1) == RatPi(0, 1)
    assert RatPi(1, 2) - RatPi(1, 3) == RatPi(1, 6)
    assert 2 * RatPi(1, 3) == RatPi(2, 3)
    assert RatPi(1, 3) * Fraction(1, 2) == RatPi(1, 6)
    assert RatPi(2, 3) / 2 == RatPi(1, 3)


def test_parse_and_render():
    assert parse("7/10") == RatPi(7, 10)
    assert parse("2/4") == RatPi(1, 2)
    assert parse("2/4").render() == "1/2"
    assert parse("-3") == RatPi(-3, 1)
    assert parse("-6/4").render() == "-3/2"
    assert RatPi(0).render() == "0/1"


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


def test_angle_times_angle_is_rejected():
    with pytest.raises(TypeError):
        RatPi(1, 2) * RatPi(1, 3)
    with pytest.raises(TypeError):
        RatPi(1, 2) / RatPi(1, 3)


def test_immutable_and_hashable():
    v = RatPi(1, 2)
    with pytest.raises(AttributeError):
        v.coeff = Fraction(1)
    assert len({RatPi(1, 2), RatPi(2, 4), RatPi(1, 3)}) == 2


def test_exactness_bulk():
    # (a + b) - b == a for 10^4 random rationals
    rng = random.Random(20240202)
    for _ in range(10_000):
        a = RatPi(rng.randint(-999, 999), rng.randint(1, 999))
        b = RatPi(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a


@given(
    p=st.integers(-10**6, 10**6),
    q=st.integers(1, 10**6),
    r=st.integers(-10**6, 10**6),
    s=st.integers(1, 10**6),
)
def test_canonical_form_is_path_independent(p, q, r, s):
    left = RatPi(p, q) + RatPi(r, s)
    right = RatPi(p * s + r * q, q * s)
    assert left == right
    assert left.render() == right.render()
    assert parse(left.render()) == left


def test_pi_constant():
    assert PI == RatPi(1, 1)
    assert PI.render() == "1/1"
