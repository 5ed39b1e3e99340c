"""A data set is integer rows and a normal system keeps ν as integers.

Every point is held as (numerator, denominator) pairs in lowest terms from
the literal on, and ``model._evaluate`` lifts each point's terms over one lcm
per atom.  These are the edges of that accumulation, each against the direct
Fraction sums of ``oracles.normal_sums``: an atom whose every weight is 0,
responses that are all 0, and denominators pairwise coprime, so that the lcm
grows at every point.  The three readers (JSON, CSV, ``WeightedDataSet.of``)
must give equal data sets and equal systems, ``points`` must be the
rationals of the rows, ν and N must be stored in lowest terms, and a claimed
â must be certified by cross-multiplying integers exactly when N·â = -ν.
"""

from fractions import Fraction
from math import gcd

import pytest

import lsglue as lg
from lsglue import assembly
from lsglue.data import dataset_from_csv, dataset_from_json
from lsglue.model import sum_normal_systems

import oracles

F = Fraction
QUADRATIC_2D = [[a, b] for a in range(3) for b in range(3) if a + b <= 2]


def _assert_matches(system, points, weights, exponents):
    nu, nmat = oracles.normal_sums(points, weights, exponents)
    assert system.param_dim == len(exponents)
    assert oracles.as_fractions(system.nu) == nu
    assert [list(row) for row in system.nmat.rows] == nmat


def _system(points, weights, exponents):
    data = lg.WeightedDataSet.of([(x, y, w) for (x, y), w in zip(points, weights)])
    return lg.build_normal_system(data, lg.FeatureMap.of(exponents))


def test_atom_of_zero_weights_is_a_zero_system_of_full_size():
    points = [((F(1, 3), F(-2, 5)), F(7, 2)), ((F(4), F(1, 9)), F(-1, 6))]
    system = _system(points, [F(0), F(0)], QUADRATIC_2D)
    _assert_matches(system, points, [F(0), F(0)], QUADRATIC_2D)
    n = len(QUADRATIC_2D)
    assert (system.nu.nums, system.nu.den) == ((0,) * n, 1)
    assert system.nmat == lg.Matrix(((0,) * n,) * n, 1, n)
    # the same atom inside a cover: points 3 and 4 weigh nothing and lie in
    # B and C only, so chart C (and B|C) is that atom's zero system, and
    # chart B sums it with the atom {A, B} of point 5
    data = lg.WeightedDataSet.of(
        [(1, 2), (2, "1/3"), (3, 5, 0), (4, -1, 0), ("5/2", 1)]
    )
    cover = lg.Cover.of(data, [("A", [1, 2, 5]), ("B", [3, 4, 5]), ("C", [3, 4])])
    systems = assembly.cell_normal_systems(cover, lg.affine_features(1), 2)
    weights = [p.weight for p in data.points]
    raw = [(p.x.entries, p.y) for p in data.points]
    for cell, system in systems.items():
        kept = oracles.restrict_weights(weights, cell.indices)
        _assert_matches(system, raw, kept, [[1], [0]])
    by_names = {cell.chart_names: system for cell, system in systems.items()}
    zero = lg.NormalSystem(lg.Vector((0, 0), 1), lg.Matrix(((0, 0), (0, 0)), 1, 2))
    assert by_names[("C",)] == zero
    assert by_names[("B",)] == by_names[("A", "B")] != by_names[("C",)]


def test_responses_all_zero_give_nu_zero():
    points = [((F(1, 3), F(-2, 5)), F(0)), ((F(4), F(1, 9)), F(0)), ((F(-3, 7), F(2)), F(0))]
    weights = [F(2, 3), F(5), F(1, 4)]
    system = _system(points, weights, QUADRATIC_2D)
    _assert_matches(system, points, weights, QUADRATIC_2D)
    assert (system.nu.nums, system.nu.den) == ((0,) * len(QUADRATIC_2D), 1)
    assert any(map(any, system.nmat.nums))


def test_pairwise_coprime_denominators_grow_the_lcm_at_every_point():
    primes = iter([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])
    points, weights = [], []
    for k in range(6):
        x = (F(k + 1, next(primes)), F(-2 * k - 1, next(primes)))
        points.append((x, F(3 - k, next(primes))))
    for k in range(6):
        weights.append(F(k + 1, [67, 71, 73, 79, 83, 89][k]))
    system = _system(points, weights, QUADRATIC_2D)
    _assert_matches(system, points, weights, QUADRATIC_2D)
    # each point brings denominators no other point shares, so the
    # denominator of N holds every weight denominator
    for w in weights:
        assert system.nmat.den % w.denominator == 0


LITERALS = [
    (["26/28", "-0.50"], "2.50", "007"),
    (["-0/5", "1/3"], "-4", "12/36"),
    (["0.125", "-7"], "0", "1"),
]


def test_three_readers_give_one_data_set_and_one_system():
    doc = {
        "ambient_dim": 2,
        "points": [
            {"x": x, "y": y, "weight": w if w != "1" else 1} for x, y, w in LITERALS
        ],
    }
    csv = "x1,x2,y,weight\n" + "".join(f" {x[0]},{x[1]} ,{y},{w}\n" for x, y, w in LITERALS)
    rows = [(tuple(F(v) for v in x), F(y), F(w)) for x, y, w in LITERALS]
    from_json, from_csv = dataset_from_json(doc), dataset_from_csv(csv)
    from_of = lg.WeightedDataSet.of(rows)
    assert from_json == from_csv == from_of
    assert from_json.rows == tuple(
        (tuple((v.numerator, v.denominator) for v in x), (y.numerator, y.denominator),
         (w.numerator, w.denominator))
        for x, y, w in rows
    )
    features = lg.FeatureMap.of(QUADRATIC_2D)
    systems = [lg.build_normal_system(d, features) for d in (from_json, from_csv, from_of)]
    assert systems[0] == systems[1] == systems[2]
    _assert_matches(systems[0], [(x, y) for x, y, _ in rows], [w for *_, w in rows], QUADRATIC_2D)


def test_points_are_the_rationals_of_the_rows():
    rows = [(tuple(F(v) for v in x), F(y), F(w)) for x, y, w in LITERALS]
    data = lg.WeightedDataSet.of(rows)
    expected = tuple(lg.WeightedPoint(lg.Vector.of(x), y, w) for x, y, w in rows)
    assert data.points == expected
    assert [data.point(i) for i in (1, 2, 3)] == list(expected)
    restricted = lg.restrict(data, [2])
    assert [p.weight for p in restricted.points] == [0, F(1, 3), 0]
    assert restricted.rows[0][2] == (0, 1)


def test_normal_system_fields_are_nu_in_lowest_terms():
    # a system is the pair (ν, N), ν a Vector: its lowest terms and positive
    # denominator are the Vector's, as N's are the Matrix's
    assert lg.NormalSystem.__slots__ == ("nu", "nmat")
    for name in ("of", "nu_nums", "nu_den"):
        assert not hasattr(lg.NormalSystem, name), name
    nmat = lg.Matrix.of([[2, 1], [1, 3]])
    system = lg.NormalSystem(lg.Vector((-124, 60), 4), nmat)
    assert (system.nu.nums, system.nu.den) == ((-31, 15), 1)
    assert system == lg.NormalSystem(lg.Vector.of([-31, 15]), nmat)
    assert lg.NormalSystem(lg.Vector((3, -6), -9), nmat).nu.nums == (-1, 2)
    assert lg.NormalSystem(lg.Vector((3, -6), -9), nmat).nu.den == 3
    assert lg.NormalSystem(lg.Vector((0, 0), 7), nmat).nu.den == 1
    assert system.nu == lg.Vector.of([-31, 15]) and system.param_dim == 2
    with pytest.raises(lg.ZeroDenominator):
        lg.NormalSystem(lg.Vector((1, 2), 0), nmat)
    data = lg.WeightedDataSet.of([("1/3", "5/7", "2/9"), ("-4/5", "1/2", "3/11"), (2, 3)])
    built = lg.build_normal_system(data, lg.affine_features(1))
    summed = sum_normal_systems([built, built])
    for nu in (built.nu, summed.nu):
        assert type(nu) is lg.Vector
        assert nu.den > 0 and gcd(nu.den, *nu.nums) == 1
    assert summed.nu == built.nu.scale(2)


def test_claim_check_cross_multiplies_n_a_against_minus_nu():
    data = lg.WeightedDataSet.of([("1/3", "5/7", "2/9"), ("-4/5", "1/2", "3/11"), (2, 3)])
    system = lg.build_normal_system(data, lg.affine_features(1))
    a_hat = lg.solve_least_squares(system).a_hat
    assert assembly._solves(system, a_hat)
    # -ν ≠ 0 here, so â solves N·x = -ν and not N·x = ν
    assert not system.nu.is_zero()
    flipped = lg.NormalSystem(-system.nu, system.nmat)
    assert not assembly._solves(flipped, a_hat)
    assert assembly._solves(flipped, -a_hat)
    for shift in ("1/1000", "-1", "0"):
        probe = a_hat + lg.Vector.of([shift, 0])
        expected = oracles.matvec(system.nmat, probe) == -system.nu
        assert assembly._solves(system, probe) == expected
