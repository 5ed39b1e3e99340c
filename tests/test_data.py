import random

import pytest

import lsglue as lg
from lsglue import data as data_module
from lsglue.data import (
    cover_from_json,
    dataset_from_csv,
    dataset_from_json,
    enumerate_nerve,
    restrict,
    validate_cover,
)

from conftest import make_dataset, rand_nonneg_fraction, rand_points


def test_restrict_toy_overlap(toy_dataset):
    out = restrict(toy_dataset, {2, 3, 4})
    assert [p.weight for p in out.points] == [0, 1, 1, 1, 0]
    # original x/y survive untouched, only weights change
    assert out.point(1).x == toy_dataset.point(1).x
    assert out.point(1).y == toy_dataset.point(1).y


def test_restrict_identity_and_empty(toy_dataset):
    assert restrict(toy_dataset, toy_dataset.indices()) == toy_dataset
    assert all(p.weight == 0 for p in restrict(toy_dataset, set()).points)


def test_restrict_bad_index(toy_dataset):
    with pytest.raises(lg.IndexOutOfRange):
        restrict(toy_dataset, {6})


def test_restrict_composes_as_intersection(toy_dataset):
    rng = random.Random(101)
    universe = list(toy_dataset.indices())
    for _ in range(50):
        a = {i for i in universe if rng.random() < 0.7}
        b = {i for i in universe if rng.random() < 0.7}
        assert restrict(restrict(toy_dataset, a), b) == restrict(toy_dataset, a & b)


def test_validate_cover(toy_cover, toy_dataset):
    validate_cover(toy_cover)  # no exception
    validate_cover(lg.Cover.of(toy_dataset, [("all", [1, 2, 3, 4, 5])]))


def test_not_a_cover():
    data = lg.WeightedDataSet.of([(0, 0), (1, 1), (2, 2), (3, 3)])
    cover = lg.Cover.of(data, [("A", [1, 2]), ("B", [2, 3])])
    with pytest.raises(lg.NotACover) as err:
        validate_cover(cover)
    assert err.value.missing == frozenset({4})


def test_enumerate_nerve_toy(toy_cover):
    cells = enumerate_nerve(toy_cover, 1)
    assert [c.chart_names for c in cells] == [("D1",), ("D2",), ("D1", "D2")]
    assert cells[2].indices == frozenset({2, 3, 4})
    assert cells[2].degree == 1
    assert cells[2].label == "D1|D2"


def test_enumerate_nerve_single_chart(toy_dataset):
    cover = lg.Cover.of(toy_dataset, [("all", [1, 2, 3, 4, 5])])
    for depth in (0, 1, 5):
        cells = enumerate_nerve(cover, depth)
        assert len(cells) == 1 and cells[0].degree == 0


def test_enumerate_nerve_triple(toy_dataset):
    cover = lg.Cover.of(
        toy_dataset, [("A", [1, 2, 3]), ("B", [2, 3, 4]), ("C", [3, 4, 5])]
    )
    cells = enumerate_nerve(cover, 2)
    triple = [c for c in cells if c.degree == 2]
    assert len(triple) == 1 and triple[0].indices == frozenset({3})


def _charts_through_one_point(count):
    """``count`` charts that all hold the one point of a one-point data set."""
    data = make_dataset([(0, 0)], [1])
    return lg.Cover.of(data, [(f"C{i}", [1]) for i in range(count)])


@pytest.mark.parametrize(
    "charts, max_degree",
    [(64, 63), (2000, 2)],
    ids=["2**64-1_subsets", "1.3e9_subsets"],
)
def test_oversized_nerve_is_refused_before_it_is_listed(monkeypatch, charts, max_degree):
    cover = _charts_through_one_point(charts)

    def listed(*args):
        raise AssertionError("the nerve was listed")

    monkeypatch.setattr(data_module, "combinations", listed)
    with pytest.raises(lg.LsglueError) as err:
        enumerate_nerve(cover, max_degree)
    assert str(err.value) == (
        f"the nerve up to degree {max_degree} would visit more than 1000000 chart subsets"
    )


def test_nerve_bound_admits_exactly_its_count(monkeypatch):
    # 5 charts through one point visit 5 + 10 + 10 subsets up to degree 2,
    # and 9 more charts of their own points add one each
    data = make_dataset([(i, 0) for i in range(10)], [1] * 10)
    shared = [(f"S{i}", [1]) for i in range(5)]
    cover = lg.Cover.of(data, shared + [(f"T{i}", [i + 1]) for i in range(1, 10)])
    monkeypatch.setattr(data_module, "MAX_NERVE_VISITS", 34)
    assert len(enumerate_nerve(cover, 2)) == 34
    monkeypatch.setattr(data_module, "MAX_NERVE_VISITS", 33)
    with pytest.raises(lg.LsglueError, match="more than 33 chart subsets"):
        enumerate_nerve(cover, 2)


def test_nerve_faces_are_cells():
    rng = random.Random(61)
    for _ in range(20):
        points = rand_points(rng, rng.randint(3, 8), 1)
        weights = [rand_nonneg_fraction(rng) for _ in points]
        data = make_dataset(points, weights)
        universe = list(data.indices())
        charts = []
        for ci in range(rng.randint(1, 4)):
            members = sorted({i for i in universe if rng.random() < 0.6} or {1})
            charts.append((f"U{ci}", members))
        charts.append(("Ufill", universe))  # guarantee a cover
        cover = lg.Cover.of(data, charts)
        cells = enumerate_nerve(cover, 3)
        present = {c.chart_names for c in cells}
        for cell in cells:
            assert cells == sorted(cells, key=lambda c: (c.degree, c.chart_names))
            for face in cell.faces():
                if face:
                    assert face in present


def test_dataset_json_round_trip():
    doc = {
        "ambient_dim": 1,
        "points": [
            {"x": ["-4"], "y": "2", "weight": "1"},
            {"x": ["2.5"], "y": "1/3"},
        ],
    }
    data = dataset_from_json(doc)
    assert data.size == 2
    assert data.point(2).x == lg.Vector.of(["5/2"])
    assert data.point(2).weight == lg.rat(1)


def test_dataset_rejects_negative_weights():
    doc = {"points": [{"x": ["0"], "y": "0", "weight": "-1"}]}
    with pytest.raises(lg.LsglueError):
        dataset_from_json(doc)
    data = dataset_from_json(doc, allow_negative_weights=True)
    assert data.point(1).weight == lg.rat(-1)


def test_dataset_rejects_float_literals():
    doc = {"points": [{"x": [0.5], "y": "0", "weight": "1"}]}
    with pytest.raises(lg.LsglueError):
        dataset_from_json(doc)


def test_dataset_csv():
    text = "x1,y,weight\n-4,2,1\n-1,1,1\n1,2,1\n2,4,1\n5,6,1\n"
    data = dataset_from_csv(text)
    assert data.size == 5 and data.ambient_dim == 1
    assert data.point(1).x == lg.Vector.of([-4])
    with pytest.raises(lg.LsglueError):
        dataset_from_csv("x1,y\n1,2\n")


def test_cover_json(toy_dataset):
    doc = {"charts": [{"name": "D1", "indices": [1, 2, 3, 4]}, {"name": "D2", "indices": [2, 3, 4, 5]}]}
    cover = cover_from_json(doc, toy_dataset)
    assert cover.charts[0] == ("D1", frozenset({1, 2, 3, 4}))
    bad = {"charts": [{"name": "D1", "indices": [1, 2]}]}
    with pytest.raises(lg.NotACover):
        cover_from_json(bad, toy_dataset)
    with pytest.raises(lg.IndexOutOfRange):
        cover_from_json({"charts": [{"name": "D1", "indices": [1, 9]}]}, toy_dataset)


def test_duplicate_chart_names(toy_dataset):
    with pytest.raises(lg.LsglueError):
        lg.Cover.of(toy_dataset, [("D", [1, 2, 3, 4, 5]), ("D", [1, 2])])


@pytest.mark.parametrize("name", ["", "D1|D2"])
def test_reserved_chart_names(toy_dataset, name):
    with pytest.raises(lg.LsglueError, match="must be nonempty and free of '|'"):
        lg.Cover(toy_dataset, ((name, frozenset({1, 2, 3, 4, 5})),))


@pytest.mark.parametrize("name", ["A\ud800", "\udfff", "D\ud83d1"])
def test_chart_name_must_be_encodable_as_utf8(toy_dataset, name):
    # a lone surrogate, which JSON can spell ("\ud800") but UTF-8 cannot
    with pytest.raises(lg.LsglueError, match="is not encodable as UTF-8"):
        lg.Cover(toy_dataset, ((name, frozenset({1, 2, 3, 4, 5})),))
    # a surrogate pair decoded by the JSON reader is one character, and kept
    cover = lg.Cover(toy_dataset, (("A\U0001f600", frozenset({1, 2, 3, 4, 5})),))
    assert cover.charts[0][0] == "A\U0001f600"


def test_point_dimension_must_match_the_data_set():
    row = (((1, 1), (2, 1)), (0, 1), (1, 1))
    with pytest.raises(lg.DimensionMismatch, match="point with dim 2"):
        lg.WeightedDataSet((row,), 1)
    with pytest.raises(lg.DimensionMismatch, match="point with dim 2"):
        lg.WeightedDataSet.of([((1, 2), 0)], 1)

