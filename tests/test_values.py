"""Value semantics of the classes on ``linalg.Value``, every immutable record
of the package.

Each case builds one object twice, from equal fields reached in different
ways (a class helper and the plain constructor, positional and keyword
arguments, two runs of the pipeline), and once more with a field changed.
The two builds must be equal and hash equal, or refuse to hash when a field
is a dict; the changed one and a plain tuple of the same fields must compare
unequal; no field may be assigned or deleted; and the repr is the class name
with the fields' reprs in slot order, built here from the fields so that it
holds under either scalar backend.
"""

import pytest

import lsglue as lg
from lsglue.assembly import PairCheck, TripleCheck
from lsglue.koszul import KoszulElement, LinearizedDifferential, LinearizedElement
from lsglue.linalg import Value

rat = lg.rat


def vec(*values):
    return lg.Vector.of(values)


def toy_cover(*charts):
    data = lg.WeightedDataSet.of([(-4, 2), (-1, 1), (1, 2), (2, 4), (5, 6)])
    return lg.Cover.of(data, charts or [("D1", [1, 2, 3, 4]), ("D2", [2, 3, 4, 5])])


def three_chart_report():
    """The verified report of the three-chart toy cover: three glued pairs
    and one obstructed triple."""
    cover = toy_cover(("D1", [1, 2, 3, 4]), ("D2", [2, 3, 4, 5]), ("D3", [1, 2, 3, 5]))
    return lg.build_zero_cocycle(cover, lg.affine_features(1))[1]


def first_pair():
    return next(iter(three_chart_report().pairs.values()))


def the_triple():
    return next(iter(three_chart_report().triples.values()))


def toy_cochain(*charts):
    return lg.build_zero_cocycle(toy_cover(*charts), lg.affine_features(1))[0]


def point(weight):
    return lg.WeightedPoint(x=vec(1, "2/3"), y=rat("1/3"), weight=rat(weight))


MATRIX_ROWS = [[1, "2/3"], [0, 1]]

# class name -> (build, build again from equal fields, build with a field changed)
CASES = {
    "Vector": (
        lambda: lg.Vector.of(["1/2", 3]),
        lambda: lg.Vector((rat("1/2"), rat(3))),
        lambda: lg.Vector.of(["1/2", 4]),
    ),
    "Matrix": (
        lambda: lg.Matrix.of(MATRIX_ROWS),
        lambda: lg.Matrix(tuple(tuple(rat(v) for v in row) for row in MATRIX_ROWS), 2),
        lambda: lg.Matrix.of([[1, "2/3"], [0, -1]]),
    ),
    "WeightedPoint": (
        lambda: lg.WeightedPoint(vec(1, "2/3"), rat("1/3"), rat(1)),
        lambda: point(1),
        lambda: point(0),
    ),
    "WeightedDataSet": (
        lambda: lg.WeightedDataSet.of([((1, "2/3"), "1/3"), ((1, "2/3"), "1/3", 0)]),
        lambda: lg.WeightedDataSet((point(1), point(0)), 2),
        lambda: lg.restrict(lg.WeightedDataSet((point(1), point(0)), 2), [2]),
    ),
    "NerveCell": (
        lambda: lg.enumerate_nerve(toy_cover(), 1)[2],
        lambda: lg.NerveCell(("D1", "D2"), frozenset({2, 3, 4})),
        lambda: lg.NerveCell(("D1", "D2"), frozenset({2, 3})),
    ),
    "FeatureMap": (
        lambda: lg.affine_features(1),
        lambda: lg.FeatureMap(((1,), (0,))),
        lambda: lg.FeatureMap.of([[2], [0]]),
    ),
    "LinearizedElement": (
        lambda: LinearizedElement(rat("2/3"), vec(3, "5/7")),
        lambda: LinearizedElement(c0=rat("2/3"), c=vec(3, "5/7")),
        lambda: LinearizedElement(rat("2/3"), vec(3, "5/8")),
    ),
    "KoszulElement": (
        lambda: KoszulElement.from_constants(1, vec(0, 1), {(1,): 2}),
        lambda: KoszulElement(1, vec(0, 1), {(1,): LinearizedElement.constant(2, 2)}),
        lambda: KoszulElement.from_constants(1, vec(0, 2), {(1,): 2}),
    ),
    "LinearizedDifferential": (
        lambda: LinearizedDifferential(vec(0, 1), lg.Matrix.of([[2, 1], [1, 3]])),
        lambda: LinearizedDifferential(base=vec(0, 1), nmat=lg.Matrix.of([[2, 1], [1, 3]])),
        lambda: LinearizedDifferential(vec(0, 1), lg.Matrix.of([[2, 1], [1, 4]])),
    ),
    "PairCheck": (
        first_pair,
        first_pair,
        lambda: PairCheck(first_pair().delta, first_pair().delta, first_pair().residual),
    ),
    "TripleCheck": (
        the_triple,
        the_triple,
        lambda: TripleCheck(
            the_triple().defect_constant,
            KoszulElement.zero(2, the_triple().residual.base),
            the_triple().residual,
        ),
    ),
    "ObstructionReport": (
        three_chart_report,
        three_chart_report,
        lambda: lg.ObstructionReport(three_chart_report().pairs, {}),
    ),
    "Cover": (
        toy_cover,
        lambda: lg.Cover(
            toy_cover().base, (("D1", frozenset({1, 2, 3, 4})), ("D2", frozenset({2, 3, 4, 5})))
        ),
        lambda: toy_cover(("D1", [1, 2, 3, 4]), ("D2", [1, 2, 3, 4, 5])),
    ),
    "NormalSystem": (
        lambda: lg.build_normal_system(toy_cover().base, lg.affine_features(1)),
        lambda: lg.NormalSystem(vec(-62, -30), lg.Matrix.of([[94, 6], [6, 10]])),
        lambda: lg.NormalSystem(vec(-62, -30), lg.Matrix.of([[94, 6], [6, 11]])),
    ),
    "LSSolution": (
        lambda: lg.solve_least_squares(
            lg.NormalSystem(vec(-2, -4), lg.Matrix.of([[2, 0], [0, 4]]))
        ),
        lambda: lg.LSSolution(vec(1, 1), ()),
        lambda: lg.LSSolution(vec(1, 1), (vec(0, 0),)),
    ),
    "TotalCochain": (
        toy_cochain,
        toy_cochain,
        lambda: toy_cochain(("D1", [1, 2, 3, 4]), ("D2", [1, 2, 3, 4, 5])),
    ),
}

# their fields hold dicts
UNHASHABLE = {
    "KoszulElement", "PairCheck", "TripleCheck", "ObstructionReport", "Cover", "TotalCochain"
}


def test_every_value_class_has_a_case():
    assert {cls.__name__ for cls in Value.__subclasses__()} == set(CASES)


@pytest.mark.parametrize("build, same, changed", CASES.values(), ids=list(CASES))
def test_value_semantics(build, same, changed):
    value, twin, other = build(), same(), changed()
    cls = type(value)
    assert cls.__name__ in CASES and type(twin) is cls and type(other) is cls
    fields = tuple(getattr(value, name) for name in cls.__slots__)
    assert value is not twin
    assert value == twin and not value != twin
    assert value != other and not value == other
    assert value.__eq__(fields) is NotImplemented
    assert value != fields and fields != value
    if cls.__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
        assert {value: 1}[twin] == 1
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == f"{cls.__name__}({', '.join(repr(field) for field in fields)})"
