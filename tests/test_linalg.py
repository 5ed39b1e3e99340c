import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsglue import (
    DimensionMismatch,
    Matrix,
    Singular,
    Vector,
    ZeroDenominator,
    solve_square,
)
from lsglue.assembly import ReportStrings, _exact
from lsglue.scalars import rat_float, rat_str

import oracles


def test_inverse_toy_overlap_matrix():
    # N12^-1 = [[6, -4], [-4, 12]] / 56, both columns from one elimination
    n12 = Matrix.of([[12, 4], [4, 6]])
    columns = [Vector.of([1, 0]), Vector.of([0, 1])]
    expected = (Vector.of(["6/56", "-4/56"]), Vector.of(["-4/56", "12/56"]))
    solutions = solve_square(n12, *columns)
    assert solutions == expected
    for e, x in zip(columns, solutions):
        assert oracles.matvec(n12, x) == e


def test_inverse_singular():
    with pytest.raises(Singular) as err:
        solve_square(Matrix.of([[2, 4], [1, 2]]), Vector.of([1, 0]))
    assert err.value.rank == 1


def test_solve_square_toy_delta():
    a = Matrix.of([[12, 4], [4, 6]])
    b = Vector.of(["127/210", "-68/105"])
    (x,) = solve_square(a, b)
    assert x == Vector.of(["653/5880", "-1070/5880"])
    assert oracles.matvec(a, x) == b


def test_solve_square_identity():
    b = Vector.of([3, "5/7"])
    assert solve_square(Matrix.of([[1, 0], [0, 1]]), b) == (b,)


def test_solve_square_halved_overlap_sums():
    # Cramer by hand: det = 14, x = (27-14)/14, y = (42-18)/14
    (x,) = solve_square(Matrix.of([[6, 2], [2, 3]]), Vector.of([9, 7]))
    assert x == Vector.of(["13/14", "12/7"])


def test_solve_square_singular():
    with pytest.raises(Singular) as err:
        solve_square(Matrix.of([[1, 1], [1, 1]]), Vector.of([1, 2]))
    assert err.value.rank == 1


def _random_matrix(rng, nrows, ncols):
    return Matrix.of(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_random_solve_square_zero_residual():
    rng = random.Random(29)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        rows = [oracles.as_fractions(a.row(i)) for i in range(n)]
        if oracles.det(rows) == 0:
            continue
        b = Vector.of([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
        (x,) = solve_square(a, b)
        assert oracles.matvec(a, x) == b
        done += 1


fractions = st.builds(Fraction, st.integers(-36, 36), st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(1, 4), st.integers(-30, 30).filter(bool), st.data())
def test_matrix_fields_are_its_entries_in_lowest_terms(nrows, ncols, scale, data):
    # integer rows over one positive denominator with no common factor, so
    # a matrix built from any multiple of its fields has the same fields,
    # and equality and hash follow the rational entries
    row = st.lists(fractions, min_size=ncols, max_size=ncols).map(tuple)
    matrices = st.lists(row, min_size=nrows, max_size=nrows).map(tuple)
    rows = data.draw(matrices)
    a = Matrix.of(rows, ncols)
    assert a.rows == rows and a.nrows == nrows and a.ncols == ncols
    assert a.den > 0 and gcd(a.den, *chain.from_iterable(a.nums)) == 1
    scaled = Matrix(tuple(tuple(scale * v for v in r) for r in a.nums), scale * a.den, ncols)
    assert (scaled.nums, scaled.den) == (a.nums, a.den)
    assert scaled == a and hash(scaled) == hash(a)
    other = data.draw(st.one_of(st.just(rows), matrices))
    assert (Matrix.of(other, ncols) == a) == (other == rows)


# rationals from far below the float range to far beyond it, zero included
wide_fractions = st.one_of(
    fractions,
    st.just(Fraction(0)),
    st.builds(
        lambda num, den, exponent: Fraction(num, den) * Fraction(10) ** exponent,
        st.integers(-(10**20), 10**20),
        st.integers(1, 10**20),
        st.integers(-400, 400),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.sampled_from([-6, -1, 2, 35]), st.data())
@example(2, 2, None)
def test_vector_is_its_integers_over_one_denominator(dim, scale, data):
    # against Fraction lists: the fields are the one canonical form (lowest
    # terms, den > 0, zero as 0/1) from any multiple of them, the rational
    # views round-trip, arithmetic and equality follow the values, and the
    # report writes each entry as rat_str and rat_float of its Fraction,
    # None past the float range
    values = st.lists(wide_fractions, min_size=dim, max_size=dim)
    if data is None:
        u_values = [Fraction(-(10**400), 3), Fraction(1, 10**400)]
        v_values, s = [Fraction(0), Fraction(0)], Fraction(10**400)
    else:
        u_values = data.draw(values)
        v_values = data.draw(st.one_of(st.just(u_values), values))
        s = data.draw(wide_fractions)
    u, v = Vector.of(u_values), Vector.of(v_values)
    for vector, entries in ((u, u_values), (v, v_values)):
        assert (vector.nums, vector.den) == oracles.vector_fields(entries)
        assert vector.den > 0 and gcd(vector.den, *vector.nums) == 1
        assert Vector([scale * n for n in vector.nums], scale * vector.den) == vector
        assert vector.entries == tuple(entries) and list(vector) == entries
        assert [vector[i] for i in range(dim)] == entries and len(vector) == vector.dim == dim
        assert Vector.of(vector.entries) == vector
        assert vector.is_zero() == (not any(entries))
    assert list(u + v) == [a + b for a, b in zip(u_values, v_values)]
    assert list(u - v) == [a - b for a, b in zip(u_values, v_values)]
    assert list(-u) == [-a for a in u_values]
    assert list(u.scale(s)) == [s * a for a in u_values]
    assert u.dot(v) == sum((a * b for a, b in zip(u_values, v_values)), Fraction(0))
    assert (u == v) == (u_values == v_values)
    if u == v:
        assert hash(u) == hash(v)
    assert Vector.zeros(dim) == Vector([0] * dim, scale) == Vector.of([0] * dim)
    assert (Vector.zeros(dim).nums, Vector.zeros(dim).den) == ((0,) * dim, 1)
    fields = _exact("u", u, ReportStrings())
    assert fields["u"] == [rat_str(x) for x in u_values]
    assert fields["u_float"] == [rat_float(x) for x in u_values]


def test_matrix_refuses_a_zero_denominator():
    with pytest.raises(ZeroDenominator):
        Matrix(((0, 0),), 0, 2)


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        solve_square(Matrix.of([[1, 2]]), Vector.of([1]))
    with pytest.raises(DimensionMismatch):
        oracles.matvec(Matrix.of([[1, 2]]), Vector.of([1]))
    with pytest.raises(DimensionMismatch):
        Vector.of([1]) + Vector.of([1, 2])
    with pytest.raises(DimensionMismatch, match="ragged matrix rows"):
        Matrix(((1, 2), (3,)), 1, 2)
