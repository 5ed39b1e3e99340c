"""The exact kernels against brute force, over random inputs.

Elimination (``solve_square``) must agree with cofactor determinants and
adjugate inverses: solved against every unit vector and a further right-hand
side in one call, it must give the columns of the inverse and A⁻¹b, including
on matrices whose leading entries are zero, so that rows are swapped, on rows
with mixed denominators, on right-hand sides far wider than the matrix, and on
singular matrices of every rank, where :class:`Singular` must carry the rank
whatever the number of right-hand sides.  The modular rank must equal the
cofactor rank, and may only fall below it under a small prime.  The
integer-numerator ``matvec`` and ``norm_sq`` must equal plain Fraction sums.
The normal-system accumulation behind ``build_normal_system`` must equal the
direct sums of ``oracles.normal_sums``, on the data, on its restriction to a
chart and under fresh weights.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsglue as lg
from lsglue import linalg

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


wide_rhs = st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**64))


@st.composite
def square_systems(draw):
    """(rows, b): a matrix from :func:`square_matrices` and a right-hand side
    whose entries may have denominators far wider than the matrix's."""
    rows = draw(square_matrices())
    b = draw(st.lists(st.one_of(entries, wide_rhs), min_size=len(rows), max_size=len(rows)))
    return rows, b


@settings(max_examples=150, deadline=None)
@given(square_systems())
@example(([[F(0), F(1)], [F(1), F(0)]], [F(1, 2), F(1, 3)]))
@example(([[F(0), F(0), F(2)], [F(0), F(3), F(1)], [F(5), F(1), F(1)]], [F(1)] * 3))
# rows with mixed denominators, each cleared by its own lcm
@example(([[F(1, 2), F(1, 3)], [F(-5, 6), F(7)]], [F(1, 7), F(-2, 5)]))
# a right-hand side far wider than N, cleared apart from N's rows
@example(([[F(2), F(1, 3)], [F(1), F(3)]], [F(1, 2**64 - 59), F(-(2**70), 2**61 - 1)]))
# an all-zero right-hand side column
@example(([[F(0), F(2), F(1)], [F(1, 4), F(0), F(1)], [F(1), F(1), F(0)]], [F(0)] * 3))
def test_elimination_matches_adjugate(case):
    # [e_1 ... e_n | b] in one call: column k of the result is column k of
    # the inverse, and the last is A⁻¹b; a singular A raises with its rank
    rows, b = case
    n = len(rows)
    a = lg.Matrix.of(rows)
    columns = [lg.Vector.of([int(i == k) for i in range(n)]) for k in range(n)]
    columns.append(lg.Vector.of(b))
    inverse = oracles.adjugate_inverse(rows)
    if inverse is None:
        with pytest.raises(lg.Singular) as err:
            lg.solve_square(a, *columns)
        assert err.value.rank == oracles.rank(rows)
        return
    *inverse_columns, x = lg.solve_square(a, *columns)
    for k, column in enumerate(inverse_columns):
        assert oracles.as_fractions(column) == [row[k] for row in inverse]
    assert oracles.as_fractions(x) == oracles.matvec(inverse, b)


@settings(max_examples=100, deadline=None)
@given(singular_matrices())
@example(([[F(0)]], 0))
@example(([[F(0), F(0)], [F(0), F(1)]], 1))
@example(([[F(0), F(2), F(4)], [F(0), F(1), F(2)], [F(3), F(1), F(1)]], 2))
def test_singular_carries_rank(case):
    # the rank is the pivot count of A alone, however many right-hand sides
    # are eliminated with it
    rows, bound = case
    n = len(rows)
    expected = oracles.rank(rows)
    assert expected <= bound
    ones = lg.Vector.of([1] * n)
    units = [lg.Vector.of([int(i == k) for i in range(n)]) for k in range(n)]
    wide_column = lg.Vector.of([F(k + 1, 2**64 + k) for k in range(n)])
    for columns in ([], [ones], [ones, *units, wide_column, lg.Vector.zeros(n)]):
        with pytest.raises(lg.Singular) as err:
            lg.solve_square(lg.Matrix.of(rows), *columns)
        assert err.value.rank == expected


@settings(max_examples=150, deadline=None)
@given(square_matrices())
@example([[F(1, 2), F(1, 3)], [F(1), F(2, 3)]])
@example([[F(0), F(0)], [F(0), F(0)]])
def test_modular_rank_is_the_rank(rows):
    # Cleared of its denominators (lcm 60 at most), a drawn matrix has integer
    # entries of at most 360 in absolute value, so by Hadamard's bound a
    # nonzero minor is below 6**3 * 360**6 < 2**61 - 1 and no minor vanishes
    # modulo that prime that does not vanish over the rationals.  The rows of
    # the first example have mixed denominators: rank 1 only when each row is
    # scaled by its own lcm.
    a = lg.Matrix.of(rows)
    assert linalg.modular_rank(a) == oracles.rank(rows)
    assert linalg.modular_rank(a.transpose()) == oracles.rank(rows)


@pytest.mark.parametrize("prime", [2**61 - 1, 3])
@settings(max_examples=100, deadline=None)
@given(st.one_of(square_matrices(), singular_matrices().map(lambda case: case[0])))
@example([[F(3), F(0)], [F(0), F(1)]])
def test_modular_rank_never_exceeds_the_rank(prime, rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "RANK_PRIME", prime)
        rank = linalg.modular_rank(lg.Matrix.of(rows))
    assert rank <= oracles.rank(rows)
    if rows == [[F(3), F(0)], [F(0), F(1)]]:
        assert rank == (1 if prime == 3 else 2)


wide = st.one_of(
    st.just(F(0)),
    st.integers(-(2**70), 2**70).map(F),
    st.fractions(max_denominator=2**64),
    st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 2**64)),
)


@st.composite
def matvec_cases(draw):
    """(rows, vector): a possibly non-square matrix with wide entries, zero
    rows and a zero column among them, and a vector of matching length."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [[draw(wide) for _ in range(ncols)] for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [F(0)] * ncols
    if ncols and draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = F(0)
    return rows, [draw(wide) for _ in range(ncols)]


@settings(max_examples=200, deadline=None)
@given(matvec_cases())
@example(([[F(1, 2**64), F(-3, 2**64 - 1)], [F(0), F(0)]], [F(-1, 3), F(2**64, 7)]))
@example(([[F(1, 2), F(1, 3)], [F(-5, 6), F(7)]], [F(0), F(-1, 4)]))
def test_integer_matvec_and_norm_match_fraction_sums(case):
    rows, v = case
    a = lg.Matrix.of(rows, ncols=len(v))
    vector = lg.Vector.of(v)
    assert oracles.as_fractions(a.matvec(vector)) == oracles.matvec(rows, v)
    assert vector.norm_sq() == sum((x * x for x in v), F(0))
    for row in rows:
        assert lg.Vector.of(row).norm_sq() == sum((x * x for x in row), F(0))


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
