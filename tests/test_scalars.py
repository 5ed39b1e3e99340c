import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsglue as lg
from lsglue import LsglueError, MalformedNumber, ZeroDenominator
from lsglue.scalars import (
    BACKEND,
    digit_limit,
    over_digit_limit,
    rat,
    rat_float,
    rat_str,
    rational_from_string,
)

import oracles


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


def _reading(parse, text):
    """What ``parse`` makes of ``text``: the value with its type, or the
    class and message of the error it raises."""
    try:
        value = parse(text)
    except LsglueError as err:
        return type(err), str(err)
    return type(value), value


# strings of literal-like characters (with "e", "_", a plus sign, a space
# and the non-ASCII digit U+0663, which int() and Fraction() would accept),
# and near-literals of one to four digits on each side of "/" or "."
LITERALS = st.one_of(
    st.text(st.sampled_from("0123456789-+/.e_ \u0663"), max_size=10),
    st.from_regex(r"[-+]?[0-9\u0663]{1,4}([/.][0-9\u0663]{1,4})?", fullmatch=True),
)


@settings(max_examples=500, deadline=None)
@example("")
@example("\u0663")
@example("1/\u0663")
@example("+5")
@example("1_000")
@example(" -2.50 ")
@example("3/0")
@example("7" * 5000)
@example("7" * 5000 + "/0")
@example("0." + "5" * 5000)
@given(LITERALS)
def test_literal_grammar_matches_the_two_pattern_reader(text):
    assert _reading(rational_from_string, text) == _reading(oracles.two_pattern_rational, text)


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


def test_interpreter_without_a_digit_limit(monkeypatch):
    # sys.get_int_max_str_digits is missing on Python 3.10.0-3.10.6
    data = lg.WeightedDataSet.of([(2, 3), ("1/3", -1, "2/5"), (-4, "7/2")])
    features = lg.FeatureMap.of([[2], [1], [0]])
    expected = lg.build_normal_system(data, features)
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert digit_limit() == 0
    assert over_digit_limit("a literal").startswith("a literal exceeds the limit of 0 digits")
    assert lg.build_normal_system(data, features) == expected
    assert features.evaluate(lg.Vector.of(["1/3"])) == lg.Vector.of(["1/9", "1/3", 1])
