"""The membership-atom index against brute force, over random covers.

The nerve built from atom signatures must list the same cells, with the same
indices and in the same order, as the search over every chart tuple
(``oracles.nerve``); every cell's normal system, summed from its atoms, must
equal the system of the base restricted to the cell; and the first singular
cell in (degree, names) order must be the one reported.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsglue as lg
from lsglue.assembly import cell_normal_systems
from lsglue.data import dataset_from_json

import oracles

F = Fraction
NAMES = ["A", "B", "C", "D", "E", "F"]
WEIGHTS = ["0", "1", "2", "1/3", "-1", "-5/2"]
FEATURES = {
    "affine": None,
    "quadratic": [[2], [1], [0]],
}
small = st.fractions(min_value=-4, max_value=4, max_denominator=3).map(str)


@st.composite
def covers(draw, cover_all=True):
    """(points, charts, features, max_degree) with points as (x, y, weight)
    literal triples and charts as [name, indices] in file order."""
    features = draw(st.sampled_from(sorted(FEATURES)))
    dim = 1 if features == "quadratic" else draw(st.integers(1, 2))
    m = draw(st.integers(1, 8))
    points = [
        ([draw(small) for _ in range(dim)], draw(small), draw(st.sampled_from(WEIGHTS)))
        for _ in range(m)
    ]
    order = draw(st.permutations(NAMES))
    k = draw(st.integers(1, len(NAMES) - 1))
    charts = [[name, sorted(draw(st.sets(st.integers(1, m))))] for name in order[:k]]
    if draw(st.booleans()):  # a second chart with the same indices
        charts.append([order[k], list(charts[0][1])])
    if draw(st.booleans()):  # a point in every chart
        for chart in charts:
            chart[1] = sorted(set(chart[1]) | {1})
    if cover_all:
        covered = set().union(*(indices for _, indices in charts))
        charts[-1][1] = sorted(set(charts[-1][1]) | (set(range(1, m + 1)) - covered))
    return points, charts, features, draw(st.integers(0, 4))


def build(points, charts, features):
    dim = len(points[0][0])
    doc = {
        "ambient_dim": dim,
        "points": [{"x": x, "y": y, "weight": w} for x, y, w in points],
    }
    data = dataset_from_json(doc, allow_negative_weights=True)
    cover = lg.Cover.of(data, [(name, indices) for name, indices in charts])
    exponents = FEATURES[features]
    feature_map = lg.affine_features(dim) if exponents is None else lg.FeatureMap.of(exponents)
    return data, cover, feature_map


ONE_POINT_CHART = (
    [(["0"], "1", "1"), (["1"], "2", "1"), (["2"], "2", "1")],
    [["B", [1, 2, 3]], ["A", [2]]],
    "affine",
    2,
)
TWIN_CHARTS = (
    [(["0"], "1", "1"), (["1"], "2", "2"), (["2"], "2", "1"), (["3"], "0", "1")],
    [["U", [1, 2, 3]], ["V", [1, 2, 3]], ["W", [3, 4]]],
    "affine",
    3,
)
POINT_IN_EVERY_CHART = (
    [(["0", "1"], "1", "1"), (["1", "0"], "2", "1"), (["2", "2"], "2", "1"), (["1", "1"], "0", "1")],
    [["E", [1, 2]], ["D", [1, 3]], ["C", [1, 4]], ["B", [1, 2, 3]], ["A", [1]]],
    "affine",
    4,
)
ZERO_AND_NEGATIVE_WEIGHTS = (
    [(["0"], "1", "0"), (["1"], "2", "-1"), (["2"], "2", "5/2"), (["3"], "1", "0"), (["4"], "3", "1")],
    [["P", [1, 2, 3, 4]], ["Q", [2, 3, 4, 5]], ["R", [1, 5]]],
    "quadratic",
    0,
)
EXAMPLES = [ONE_POINT_CHART, TWIN_CHARTS, POINT_IN_EVERY_CHART, ZERO_AND_NEGATIVE_WEIGHTS]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=100, deadline=None)
@with_examples
@example(([(["0"], "1", "1"), (["1"], "1", "1")], [["A", [1]]], "affine", 1))
@given(covers(cover_all=False))
def test_atom_nerve_matches_brute_force(case):
    points, charts, features, max_degree = case
    _, cover, _ = build(points, charts, features)
    cells = lg.enumerate_nerve(cover, max_degree)
    expected = oracles.nerve({name: set(indices) for name, indices in charts}, max_degree)
    assert [(cell.chart_names, cell.indices) for cell in cells] == expected


@settings(max_examples=100, deadline=None)
@with_examples
@given(covers())
def test_cell_systems_equal_restricted_systems(case):
    points, charts, features, max_degree = case
    data, cover, feature_map = build(points, charts, features)
    systems = cell_normal_systems(cover, feature_map, max_degree)
    assert list(systems) == lg.enumerate_nerve(cover, max_degree)
    for cell, system in systems.items():
        reference = lg.build_normal_system(lg.restrict(data, cell.indices), feature_map)
        assert system.nu == reference.nu, cell.label
        assert system.nmat == reference.nmat, cell.label


@settings(max_examples=100, deadline=None)
@with_examples
@given(covers())
def test_first_singular_cell_is_reported(case):
    points, charts, features, max_degree = case
    _, cover, feature_map = build(points, charts, features)
    oracle_points = [(tuple(F(v) for v in x), F(y)) for x, y, _ in points]
    weights = [F(w) for _, _, w in points]
    exponents = [list(mono) for mono in feature_map.monomials]
    expected = None
    for names, indices in oracles.nerve(
        {name: set(indices) for name, indices in charts}, max_degree
    ):
        _, nmat = oracles.normal_sums(
            oracle_points, oracles.restrict_weights(weights, indices), exponents
        )
        if oracles.det(nmat) == 0:
            expected = "|".join(names)
            break
    try:
        fits = lg.fit_all_cells(cover, feature_map, max_degree)
    except lg.Singular as err:
        assert err.cell == expected
    else:
        assert expected is None
        assert list(fits) == lg.enumerate_nerve(cover, max_degree)
