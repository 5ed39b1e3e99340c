"""The two exact kernels against brute force, over random inputs.

Elimination (``solve_square``) must agree with cofactor determinants and
adjugate inverses: solved against each unit vector it must give that column of
the inverse, including on matrices whose leading entries are zero, so that rows
are swapped, and on singular matrices of every rank, where :class:`Singular`
must carry the rank.  The normal-system accumulation behind
``build_normal_system`` must equal the direct sums of ``oracles.normal_sums``,
on the data, on its restriction to a chart and under fresh weights.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsglue as lg

import oracles

F = Fraction
QUADRATIC_3D = [
    [a, b, c] for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2
]
FEATURES = {"affine_1d": [[1], [0]], "quadratic_3d": QUADRATIC_3D}

entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)


@st.composite
def square_matrices(draw):
    """Square rational matrices up to 6x6 with frequent zeros; the leading
    entries of the first rows are zeroed on request, so pivoting must swap."""
    n = draw(st.integers(1, 6))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for r in range(draw(st.integers(0, n - 1))):
        for c in range(draw(st.integers(1, n))):
            rows[r][c] = F(0)
    return rows


@st.composite
def singular_matrices(draw):
    """(n x n matrix, target rank) built as a product of n x r and r x n
    factors, so its rank is at most r < n."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n - 1))
    left = [[draw(entries) for _ in range(r)] for _ in range(n)]
    right = [[draw(entries) for _ in range(n)] for _ in range(r)]
    rows = [
        [sum((left[i][t] * right[t][j] for t in range(r)), F(0)) for j in range(n)]
        for i in range(n)
    ]
    return rows, r


def _rows(matrix):
    return [oracles.as_fractions(row) for row in matrix.rows]


@settings(max_examples=150, deadline=None)
@given(square_matrices(), st.data())
@example([[F(0), F(1)], [F(1), F(0)]], None)
@example([[F(0), F(0), F(2)], [F(0), F(3), F(1)], [F(5), F(1), F(1)]], None)
def test_elimination_matches_adjugate(rows, data):
    n = len(rows)
    a = lg.Matrix.of(rows)
    b_entries = (
        [F(1, k + 2) for k in range(n)]
        if data is None
        else data.draw(st.lists(entries, min_size=n, max_size=n))
    )
    units = [[F(int(i == k)) for i in range(n)] for k in range(n)]
    inverse = oracles.adjugate_inverse(rows)
    if inverse is None:
        expected_rank = oracles.rank(rows)
        for b in (b_entries, *units):
            with pytest.raises(lg.Singular) as err:
                lg.solve_square(a, lg.Vector.of(b))
            assert err.value.rank == expected_rank
        return
    for k, unit in enumerate(units):
        column = lg.solve_square(a, lg.Vector.of(unit))
        assert oracles.as_fractions(column) == [row[k] for row in inverse]
    x = lg.solve_square(a, lg.Vector.of(b_entries))
    assert oracles.as_fractions(x) == oracles.matvec(inverse, b_entries)


@settings(max_examples=100, deadline=None)
@given(singular_matrices())
@example(([[F(0)]], 0))
@example(([[F(0), F(0)], [F(0), F(1)]], 1))
@example(([[F(0), F(2), F(4)], [F(0), F(1), F(2)], [F(3), F(1), F(1)]], 2))
def test_singular_carries_rank(case):
    rows, bound = case
    expected = oracles.rank(rows)
    assert expected <= bound
    with pytest.raises(lg.Singular) as err:
        lg.solve_square(lg.Matrix.of(rows), lg.Vector.of([1] * len(rows)))
    assert err.value.rank == expected


coordinates = st.fractions(min_value=-40, max_value=40, max_denominator=32)
integer_or_not = st.one_of(st.integers(-50, 50).map(F), coordinates)
weights = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-5, max_value=12, max_denominator=12),
)


@st.composite
def weighted_points(draw):
    """(feature name, exponents, points as (x, y), weights)."""
    name = draw(st.sampled_from(sorted(FEATURES)))
    exponents = FEATURES[name]
    dim = len(exponents[0])
    m = draw(st.integers(1, 9))
    points = [
        (tuple(draw(coordinates) for _ in range(dim)), draw(integer_or_not))
        for _ in range(m)
    ]
    return name, exponents, points, [draw(weights) for _ in range(m)]


def _dataset(exponents, points, point_weights):
    return lg.WeightedDataSet.of(
        [(x, y, w) for (x, y), w in zip(points, point_weights)], ambient_dim=len(exponents[0])
    )


def _assert_matches(system, points, point_weights, exponents):
    nu, nmat = oracles.normal_sums(points, point_weights, exponents)
    assert oracles.as_fractions(system.nu) == nu
    assert _rows(system.nmat) == nmat


@settings(max_examples=100, deadline=None)
@given(weighted_points(), st.data())
@example(
    (
        "affine_1d",
        FEATURES["affine_1d"],
        [((F(1, 3),), F(2)), ((F(-5, 7),), F(1, 2))],
        [F(1), F(-2, 3)],
    ),
    None,
)
def test_normal_system_matches_direct_sums(case, data):
    _, exponents, points, point_weights = case
    features = lg.FeatureMap.of(exponents)
    dataset = _dataset(exponents, points, point_weights)
    _assert_matches(
        lg.build_normal_system(dataset, features), points, point_weights, exponents
    )

    m = len(points)
    keep = {1} if data is None else data.draw(st.sets(st.integers(1, m)))
    _assert_matches(
        lg.build_normal_system(lg.restrict(dataset, keep), features),
        points,
        oracles.restrict_weights(point_weights, keep),
        exponents,
    )
    fresh = (
        [F(3, 4)] * m
        if data is None
        else data.draw(st.lists(weights, min_size=m, max_size=m))
    )
    _assert_matches(
        lg.build_normal_system(_dataset(exponents, points, fresh), features),
        points,
        fresh,
        exponents,
    )
