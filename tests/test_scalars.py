import random
import sys
from fractions import Fraction

import pytest

from lsglue import LsglueError, MalformedNumber, ZeroDenominator
from lsglue.scalars import BACKEND, rat, rat_float, rat_str, rational_from_string


def test_backend_selected():
    assert BACKEND in ("gmp", "fractions")


@pytest.mark.parametrize(
    "text,num,den",
    [
        ("11/42", 11, 42),
        ("0", 0, 1),
        ("2.5", 5, 2),
        ("-4", -4, 1),
        ("-68/105", -68, 105),
        ("007", 7, 1),
        ("0.125", 1, 8),
        ("  3/9 ", 1, 3),
    ],
)
def test_parse_exact(text, num, den):
    value = rational_from_string(text)
    assert value.numerator == num and value.denominator == den


@pytest.mark.parametrize(
    "text", ["", "a", "1/2/3", "1.2.3", "2.5e3", "1/-2", "+5", "1.", ".5", "1 / 2", "nan"]
)
def test_parse_malformed(text):
    with pytest.raises(MalformedNumber):
        rational_from_string(text)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDenominator):
        rational_from_string("3/0")


def test_canonical_form():
    assert rat("-1070/5880") == rat("-107/588")
    assert rat_str(rat("-1070/5880")) == "-107/588"
    assert rat_str(rat("14/7")) == "2"
    assert rat_str(rat(0)) == "0"
    # denominator stays positive after mixed-sign arithmetic
    value = rat("1/3") - rat("2/3")
    assert value.denominator == 3 and value.numerator == -1


def test_string_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        value = rat(Fraction(rng.randint(-400, 400), rng.randint(1, 400)))
        assert rational_from_string(rat_str(value)) == value


def test_field_axioms_spot_check():
    rng = random.Random(7)
    for _ in range(60):
        x, y, z = (
            rat(Fraction(rng.randint(-50, 50), rng.randint(1, 50))) for _ in range(3)
        )
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        if x != 0:
            assert x * (1 / x) == 1


def test_float_is_advisory_python_float():
    value = rat_float(rat("653/5880"))
    assert isinstance(value, float)
    assert abs(value - 0.111054421768) < 1e-9


def test_float_beyond_range_is_none():
    assert rat_float(rat("1" + "0" * 400)) is None
    assert rat_float(rat("-1/" + "1" + "0" * 400)) == -0.0
    assert rat_float(rat(10**308)) == 1e308


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on decimal integer strings in this interpreter",
)
def test_digit_limit_is_an_lsglue_error():
    limit = sys.get_int_max_str_digits()
    for literal in ("7" * (limit + 1), "1/" + "3" * (limit + 1), "0." + "5" * (limit + 1)):
        with pytest.raises(MalformedNumber, match=f"limit of {limit} digits"):
            rational_from_string(literal)
    with pytest.raises(LsglueError, match=f"limit of {limit} digits"):
        rat_str(rat(10**limit))
    assert rat_str(rat(10 ** (limit - 1))) == "1" + "0" * (limit - 1)
