import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsglue as lg
from lsglue.koszul import (
    KoszulElement,
    LinearizedDifferential,
    LinearizedElement,
    koszul_diff,
    koszul_from_json,
    koszul_to_json,
    ring_mul,
    translate,
)

import oracles
from conftest import rand_fraction

F = Fraction


def vec(*vals):
    return lg.Vector.of(vals)


def toy_pair_differential():
    base = vec("13/14", "12/7")
    return LinearizedDifferential(base=base, nmat=lg.Matrix.of([[12, 4], [4, 6]]))


def rand_symmetric_invertible(rng, n):
    while True:
        entries = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = rand_fraction(rng, span=5)
        if oracles.det(entries) != 0:
            return lg.Matrix.of(entries)


def rand_element(rng, n, degree, base):
    coeffs = {}
    for idx in combinations(range(1, n + 1), degree):
        if rng.random() < 0.7:
            coeffs[idx] = LinearizedElement(
                c0=lg.rat(rand_fraction(rng)),
                c=vec(*[rand_fraction(rng) for _ in range(n)]),
            )
    return KoszulElement.build(degree, base, coeffs)


# ---------------------------------------------------------------- ring_mul


def test_generators_square_to_zero():
    gen1 = LinearizedElement.linear(vec(1, 0))
    assert ring_mul(gen1, gen1).is_zero()
    gen2 = LinearizedElement.linear(vec(0, 1))
    assert ring_mul(gen1, gen2).is_zero()


def test_unit_element():
    u = LinearizedElement(c0=lg.rat("2/3"), c=vec(3, "5/7"))
    one = LinearizedElement.constant(2, 1)
    assert ring_mul(u, one) == u
    assert ring_mul(one, u) == u


def test_product_truncates_quadratic_cross_term():
    u = LinearizedElement(c0=lg.rat(2), c=vec(3, 0))
    v = LinearizedElement(c0=lg.rat(5), c=vec(0, 1))
    out = ring_mul(u, v)
    assert out == LinearizedElement(c0=lg.rat(10), c=vec(15, 2))


def test_add_base_mismatch():
    u = KoszulElement.from_constants(1, vec(0, 0), {(1,): 1})
    v = KoszulElement.from_constants(1, vec(1, 0), {(1,): 1})
    with pytest.raises(lg.BaseMismatch):
        u + v
    with pytest.raises(lg.BaseMismatch):
        u - v


# ------------------------------------------------------------- koszul_diff


def test_differential_of_toy_witness():
    eta = toy_pair_differential()
    beta = KoszulElement.from_constants(
        1, eta.base, {(1,): lg.rat("653/5880"), (2,): lg.rat("-1070/5880")}
    )
    image = koszul_diff(beta, eta)
    expected = KoszulElement.build(
        0, eta.base, {(): LinearizedElement.linear(vec("127/210", "-68/105"))}
    )
    assert image == expected


def test_differential_squares_to_zero_random():
    rng = random.Random(53)
    for _ in range(50):
        n = rng.randint(2, 4)
        degree = rng.randint(2, n)
        base = vec(*[rand_fraction(rng) for _ in range(n)])
        eta = LinearizedDifferential(base=base, nmat=rand_symmetric_invertible(rng, n))
        xi = rand_element(rng, n, degree, base)
        assert koszul_diff(koszul_diff(xi, eta), eta).is_zero()


def test_top_wedge_expansion():
    # iota(e1 ^ e2) = eta^1 e2 - eta^2 e1
    base = vec(0, 0)
    nmat = lg.Matrix.of([[3, 0], [0, 3]])
    eta = LinearizedDifferential(base=base, nmat=nmat)
    wedge = KoszulElement.from_constants(2, base, {(1, 2): 1})
    image = koszul_diff(wedge, eta)
    assert image.coefficient((2,)) == eta.component(1)
    assert image.coefficient((1,)) == -eta.component(2)


def test_differential_errors():
    eta = toy_pair_differential()
    alpha = KoszulElement.build(0, eta.base, {(): LinearizedElement.constant(2, 1)})
    with pytest.raises(lg.DegreeZero):
        koszul_diff(alpha, eta)
    elsewhere = KoszulElement.from_constants(1, vec(0, 0), {(1,): 1})
    with pytest.raises(lg.BaseMismatch):
        koszul_diff(elsewhere, eta)
    with pytest.raises(lg.DimensionMismatch, match="must be n x n"):
        LinearizedDifferential(vec(0, 0), lg.Matrix.of([[1, 0]]))


def test_image_of_constant_witness_has_no_constant_term():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(2, 4)
        base = vec(*[rand_fraction(rng) for _ in range(n)])
        eta = LinearizedDifferential(base=base, nmat=rand_symmetric_invertible(rng, n))
        witness = KoszulElement.from_constants(
            1, base, {(i,): rand_fraction(rng) for i in range(1, n + 1)}
        )
        image = koszul_diff(witness, eta)
        assert image.coefficient(()).c0 == 0


# --------------------------------------------------------------- translate


def test_translate_identity_and_involution():
    rng = random.Random(61)
    base = vec(*[rand_fraction(rng) for _ in range(3)])
    other = vec(*[rand_fraction(rng) for _ in range(3)])
    xi = rand_element(rng, 3, 2, base)
    assert translate(xi, base) == xi
    assert translate(translate(xi, other), base) == xi


def test_translate_keeps_coefficients():
    a1 = vec("11/42", "50/21")
    a12 = vec("13/14", "12/7")
    alpha = KoszulElement.build(0, a1, {(): LinearizedElement.linear(a1)})
    moved = translate(alpha, a12)
    assert moved.base == a12
    assert moved.coefficient(()).c == a1
    assert moved.coefficient(()).c0 == 0


def test_translate_is_chain_map():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(2, 4)
        degree = rng.randint(1, n)
        base_a = vec(*[rand_fraction(rng) for _ in range(n)])
        base_b = vec(*[rand_fraction(rng) for _ in range(n)])
        nmat = rand_symmetric_invertible(rng, n)
        eta_a = LinearizedDifferential(base=base_a, nmat=nmat)
        eta_b = LinearizedDifferential(base=base_b, nmat=nmat)
        xi = rand_element(rng, n, degree, base_a)
        assert translate(koszul_diff(xi, eta_a), base_b) == koszul_diff(
            translate(xi, base_b), eta_b
        )


# ------------------------------------------------------------ serialization


def test_koszul_json_round_trip():
    rng = random.Random(79)
    base = vec(*[rand_fraction(rng) for _ in range(3)])
    for degree in (0, 1, 2, 3):
        xi = rand_element(rng, 3, degree, base)
        doc = koszul_to_json(xi)
        assert koszul_from_json(doc, degree, base) == xi


def test_koszul_json_base_enforced():
    base = vec(1, 2)
    xi = KoszulElement.from_constants(1, base, {(1,): 5})
    doc = koszul_to_json(xi)
    with pytest.raises(lg.LsglueError):
        koszul_from_json(doc, 1, vec(0, 0))


def _package_accepts(key):
    """Whether ``koszul_from_json`` reads ``key`` as a slot key: a key it
    accepts fails on the coefficient record, None, instead."""
    with pytest.raises(lg.LsglueError) as info:
        koszul_from_json({key: None}, 1, vec(0))
    return "bad index tuple key" not in str(info.value)


# keys built from key-like characters, from JSON arrays written with and
# without spaces, and from the key grammar loosened to admit leading zeros,
# -0 and a plus sign
SLOT_KEYS = st.one_of(
    st.text(st.sampled_from("[],-+0123456789 .e\u0661\n"), max_size=12),
    st.lists(st.integers(-(10**30), 10**30), max_size=4).map(json.dumps),
    st.lists(st.integers(-(10**30), 10**30), max_size=4).map(
        lambda idx: json.dumps(idx, separators=(",", ":"))
    ),
    st.from_regex(r"\[([-+]?[0-9]{1,3}(,[-+]?[0-9]{1,3}){0,3})?\]", fullmatch=True),
)


@settings(max_examples=400, deadline=None)
@example("[-0]")
@example("[01]")
@example("[\u0661]")
@example("[1\u0661]")
@example("[1]\n")
@example("[true]")
@example("[]")
@example("[" * 5000 + "]" * 5000)
@example("[" + "1" * 5001 + "]")
@given(SLOT_KEYS)
def test_slot_key_grammar_matches_json_round_trip(key):
    assert _package_accepts(key) == oracles.slot_key_accepted(key)
