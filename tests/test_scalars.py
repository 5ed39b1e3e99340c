import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsglue as lg
from lsglue import LsglueError, MalformedNumber, ZeroDenominator
from lsglue.scalars import (
    BACKEND,
    digit_limit,
    literal_pair,
    over_digit_limit,
    rat,
    rat_float,
    rat_str,
    rational_from_string,
)

import oracles

SRC = Path(lg.__file__).resolve().parent.parent


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


@pytest.mark.parametrize(
    "text", ["26/28", "-0/5", "2.50", "007", "  3/9 ", "-0.50", "0.125", "-68/105", "-0", "10/5"]
)
def test_literal_pair_cases(text):
    value = Fraction(text)
    assert literal_pair(text) == (value.numerator, value.denominator)


# literals of the grammar, with leading zeros and padding
GRAMMAR = st.from_regex(r"[ \t]*-?[0-9]{1,25}(/[0-9]{1,25}|\.[0-9]{1,25})?[ \t]*", fullmatch=True)


@settings(max_examples=500, deadline=None)
@example("26/28")
@example("-0/5")
@example(" 2.50\t")
@example("007")
@example("-000.000")
@example("3/0")
@example("7" * 5000)
@example("7" * 5000 + "/0")
@example("1/" + "3" * 5000)
@example("0." + "5" * 5000)
@example("5" * 3000 + "." + "5" * 3000)
@given(st.one_of(GRAMMAR, LITERALS))
def test_literal_pair_is_the_fraction_pair(text):
    # the one reader: the reduced pair Fraction holds, with a positive
    # denominator, or the error class and message of rational_from_string
    expected = _reading(rational_from_string, text)
    try:
        pair = literal_pair(text)
    except LsglueError as err:
        assert (type(err), str(err)) == expected
        return
    value = Fraction(text)
    assert pair == (value.numerator, value.denominator)
    assert all(type(v) is int for v in pair) and pair[1] > 0 and gcd(*pair) == 1
    assert expected == (type(rat(0)), rat(value))


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
    # the writer refuses no value: only reading keeps the limit
    assert rat_str(rat(10**limit)) == "1" + "0" * limit
    assert rat_str(rat(10 ** (limit - 1))) == "1" + "0" * (limit - 1)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on decimal integer strings in this interpreter",
)
def test_writer_spells_any_length_as_str():
    # past the limit rat_str splits each integer at a power of ten; the
    # spelling must be str's, compared with the limit lifted
    rng = random.Random(26)
    limit = sys.get_int_max_str_digits()
    edges = [10**600 - 1, 10**600, 10**1200 - 1, 10**1200, 10**limit, 10**2400 + 1]
    values = [rat(v) for v in edges] + [rat(-(10**4800) // 7), rat(Fraction(1, 10**limit))]
    for bits in (1, 1993, 14286, 14287, 20000, 40000, 90000):
        num, den = rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1
        values += [rat(num), rat(-num), rat(Fraction(num, den)), rat(Fraction(-num, den))]
    written = [rat_str(value) for value in values]
    sys.set_int_max_str_digits(0)
    try:
        expected = [
            str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            for v in values
        ]
    finally:
        sys.set_int_max_str_digits(limit)
    assert written == expected


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


def _fresh_process(script: str, backend: str) -> subprocess.CompletedProcess:
    """``script`` run in a new interpreter without site, from src, on
    ``backend``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), LSGLUE_BACKEND=backend)
    return subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


LAZY_RATIONALS = """
import sys
import lsglue
from lsglue import scalars
from lsglue.koszul import LinearizedElement
assert "fractions" not in sys.modules, "import lsglue loaded fractions"
element = LinearizedElement(0, lsglue.Vector((1, 2), 3))
assert "fractions" not in sys.modules, "a coefficient built a rational"
import fractions
assert lsglue.Rational is scalars.Rational is fractions.Fraction
values = [
    scalars.ZERO,
    scalars.ONE,
    scalars.rat("1/2"),
    *lsglue.Vector((1, 2), 3).entries,
    element.c0,
    LinearizedElement.of_parts(6, 4, element.c).c0,
]
assert [type(value) for value in values] == [fractions.Fraction] * len(values)
assert values == [0, 1, fractions.Fraction(1, 2), fractions.Fraction(1, 3),
                  fractions.Fraction(2, 3), 0, fractions.Fraction(3, 2)]
print("ok")
"""


def test_rationals_are_fractions_imported_at_first_use():
    # the fractions backend imports fractions at the first rational built;
    # the names that hold the type and its constants are bound at first read
    proc = _fresh_process(LAZY_RATIONALS, "fractions")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_unknown_backend_is_an_import_error():
    proc = _fresh_process("import lsglue", "bogus")
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "ImportError: unknown LSGLUE_BACKEND='bogus'; expected 'gmp' or 'fractions'"
    )
