"""Acceptance suite: every criterion is exact (tolerance zero) unless noted.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import functools
import json
import random
import time
from fractions import Fraction
from itertools import combinations

import lsglue as lg
from lsglue import cli
from lsglue.assembly import (
    assemble_cochain,
    build_zero_cocycle,
    fit_all_cells,
    verify_cocycle,
)
from lsglue.koszul import (
    KoszulElement,
    LinearizedDifferential,
    LinearizedElement,
    koszul_diff,
    translate,
)

import oracles
from conftest import make_dataset, rand_fraction, rand_nonneg_fraction, rand_points

F = Fraction


def criterion(number: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL  {label}")
                raise
            print(f"criterion {number} PASS  {label}")

        return run

    return wrap


def toy_setup():
    data = lg.WeightedDataSet.of([(-4, 2), (-1, 1), (1, 2), (2, 4), (5, 6)])
    cover = lg.Cover.of(data, [("D1", [1, 2, 3, 4]), ("D2", [2, 3, 4, 5])])
    return data, cover, lg.affine_features(1)


@criterion(1, "toy-example exactness (bit-exact reproduction, < 1 s)")
def test_criterion_1_toy_exactness():
    started = time.perf_counter()
    _, cover, features = toy_setup()
    fits = fit_all_cells(cover, features, 2)
    by_label = {cell.label: fit for cell, fit in fits.items()}

    assert by_label["D1"].base == lg.Vector.of(["11/42", "50/21"])
    assert by_label["D2"].base == lg.Vector.of(["13/15", "26/15"])
    pair = by_label["D1|D2"]
    assert pair.base == lg.Vector.of(["13/14", "12/7"])
    assert pair.nmat == lg.Matrix.of([[12, 4], [4, 6]])
    # N^-1 = [[6, -4], [-4, 12]] / 56, both columns from one elimination
    units = [lg.Vector.of([int(i == k) for i in range(2)]) for k in range(2)]
    inverse = tuple(
        lg.Vector.of([lg.rat(c) / 56 for c in column]) for column in ([6, -4], [-4, 12])
    )
    assert lg.solve_square(pair.nmat, *units) == inverse

    cochain, report = assemble_cochain(fits)
    (pair_cell,) = cochain.beta
    check = report.pairs[pair_cell]
    assert check.delta == lg.Vector.of(["127/210", "-68/105"])
    beta = cochain.beta[pair_cell]
    assert beta.coefficient((1,)).c0 == lg.rat("653/5880")
    assert beta.coefficient((2,)).c0 == lg.rat("-1070/5880")

    # iota(beta) == (127/210)(m - 13/14) - (68/105)(b - 12/7), residual zero
    image = koszul_diff(beta, pair)
    expected = KoszulElement.build(
        0, pair.base, {(): LinearizedElement.linear(lg.Vector.of(["127/210", "-68/105"]))}
    )
    assert image == expected
    assert check.residual.is_zero()
    assert not report.triples
    assert time.perf_counter() - started < 1.0


@criterion(2, "presheaf functoriality of (nu, N) under nested restriction, 100 cases")
def test_criterion_2_presheaf_functoriality():
    rng = random.Random(2025)
    features_by_dim = {1: lg.affine_features(1), 2: lg.affine_features(2)}
    for _ in range(100):
        dim = rng.randint(1, 2)
        points = rand_points(rng, rng.randint(1, 12), dim)
        weights = [rand_fraction(rng) for _ in points]
        data = make_dataset(points, weights)
        universe = list(data.indices())
        a = {i for i in universe if rng.random() < 0.8}
        b = {i for i in a if rng.random() < 0.7}
        features = features_by_dim[dim]
        nested = lg.build_normal_system(
            lg.restrict(lg.restrict(data, a), b), features
        )
        direct = lg.build_normal_system(lg.restrict(data, b), features)
        assert nested.nu == direct.nu
        assert nested.nmat == direct.nmat


def _rand_symmetric_invertible(rng, n):
    while True:
        entries = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = rand_fraction(rng, span=5)
        if oracles.det(entries) != 0:
            return lg.Matrix.of(entries)


def _rand_element(rng, n, degree, base):
    coeffs = {}
    for idx in combinations(range(1, n + 1), degree):
        if rng.random() < 0.8:
            coeffs[idx] = LinearizedElement(
                c0=lg.rat(rand_fraction(rng)),
                c=lg.Vector.of([rand_fraction(rng) for _ in range(n)]),
            )
    return KoszulElement.build(degree, base, coeffs)


@criterion(3, "interior multiplication squares to zero, 200 random elements")
def test_criterion_3_koszul_square_zero():
    rng = random.Random(3407)
    for _ in range(200):
        n = rng.randint(2, 4)
        degree = rng.randint(2, n)
        base = lg.Vector.of([rand_fraction(rng) for _ in range(n)])
        eta = LinearizedDifferential(base=base, nmat=_rand_symmetric_invertible(rng, n))
        xi = _rand_element(rng, n, degree, base)
        assert koszul_diff(koszul_diff(xi, eta), eta).is_zero()


@criterion(4, "translation is an involutive chain isomorphism, 100 cases")
def test_criterion_4_translation_chain_iso():
    rng = random.Random(4099)
    for _ in range(100):
        n = rng.randint(2, 4)
        degree = rng.randint(1, n)
        base_a = lg.Vector.of([rand_fraction(rng) for _ in range(n)])
        base_b = lg.Vector.of([rand_fraction(rng) for _ in range(n)])
        nmat = _rand_symmetric_invertible(rng, n)
        eta_a = LinearizedDifferential(base=base_a, nmat=nmat)
        eta_b = LinearizedDifferential(base=base_b, nmat=nmat)
        xi = _rand_element(rng, n, degree, base_a)
        assert translate(translate(xi, base_b), base_a) == xi
        assert translate(koszul_diff(xi, eta_a), base_b) == koszul_diff(
            translate(xi, base_b), eta_b
        )


def _random_solvable_chart(rng, dim):
    """(points, weights) with nonnegative weights and invertible N."""
    exponents = lg.affine_features(dim).monomials
    while True:
        points = rand_points(rng, rng.randint(dim + 1, 10), dim)
        weights = [rand_nonneg_fraction(rng) for _ in points]
        _, nmat = oracles.normal_sums(points, weights, exponents)
        if oracles.det(nmat) != 0:
            return points, weights


@criterion(5, "gradient-zero certificate and strict LS minimality, 100 charts x 10 probes")
def test_criterion_5_ls_optimality():
    rng = random.Random(5081)
    for _ in range(100):
        dim = rng.randint(1, 2)
        points, weights = _random_solvable_chart(rng, dim)
        data = make_dataset(points, weights)
        features = lg.affine_features(dim)
        system = lg.build_normal_system(data, features)
        fit = lg.solve_least_squares(system)
        assert (system.nu + oracles.matvec(system.nmat, fit.a_hat)).is_zero()
        best = lg.loss_eval(data, features, fit.a_hat)
        for _ in range(10):
            probe = lg.Vector.of(
                [rand_fraction(rng) for _ in range(features.param_dim)]
            )
            if probe.is_zero():
                probe = lg.Vector.of([1] + [0] * (features.param_dim - 1))
            assert lg.loss_eval(data, features, fit.a_hat + probe) > best


def _random_two_chart_cover(rng):
    """Dataset + two-interval cover whose three cells all have invertible N."""
    exponents = lg.affine_features(1).monomials
    while True:
        points = rand_points(rng, rng.randint(4, 10), 1)
        weights = [rand_nonneg_fraction(rng) for _ in points]
        m = len(points)
        cut_lo = rng.randint(1, m - 1)
        cut_hi = rng.randint(cut_lo, m - 1)
        chart1 = list(range(1, cut_hi + 1))
        chart2 = list(range(cut_lo, m + 1))
        charts = {"A": set(chart1), "B": set(chart2)}
        result = oracles.cover_data(points, weights, charts, exponents)
        if "singular" in result:
            continue
        if oracles.det(oracles.normal_sums(points, oracles.restrict_weights(weights, charts["A"] & charts["B"]), exponents)[1]) == 0:
            continue
        return points, weights, chart1, chart2, result


@criterion(6, "two-chart covers always yield an exactly verified cocycle, 50 cases")
def test_criterion_6_two_chart_cocycle():
    rng = random.Random(6133)
    for _ in range(50):
        points, weights, chart1, chart2, _ = _random_two_chart_cover(rng)
        data = make_dataset(points, weights)
        cover = lg.Cover.of(data, [("A", chart1), ("B", chart2)])
        cochain, report = build_zero_cocycle(cover, lg.affine_features(1))
        assert all(check.residual_zero for check in report.pairs.values())
        assert report.all_verified()
        assert not report.triples
        re_report = verify_cocycle(
            cochain, fit_all_cells(cover, lg.affine_features(1), 2)
        )
        assert re_report.all_verified()


@criterion(7, "exact agreement with independent Cramer and brute-force oracles")
def test_criterion_7_oracle_equivalence():
    rng = random.Random(7211)
    # solve_least_squares vs Cramer's rule, n = 2 and n = 3
    for _ in range(60):
        dim = rng.randint(1, 2)
        points, weights = _random_solvable_chart(rng, dim)
        features = lg.affine_features(dim)
        fit = lg.solve_least_squares(
            lg.build_normal_system(make_dataset(points, weights), features)
        )
        keep = set(range(1, len(points) + 1))
        expected = oracles.chart_fit(points, weights, keep, features.monomials)
        assert oracles.as_fractions(fit.a_hat) == expected

    # pair data of the cocycle builder vs the standalone brute-force script
    cases = []
    for _ in range(10):
        points, weights, chart1, chart2, expected = _random_two_chart_cover(rng)
        cases.append((points, weights, {"A": set(chart1), "B": set(chart2)}, expected))
    toy_charts = {"D1": {1, 2, 3, 4}, "D2": {2, 3, 4, 5}, "D3": {1, 2, 3, 5}}
    cases.append(
        (
            oracles.TOY_POINTS,
            oracles.TOY_WEIGHTS,
            toy_charts,
            oracles.cover_data(
                oracles.TOY_POINTS, oracles.TOY_WEIGHTS, toy_charts, oracles.AFFINE_1D
            ),
        )
    )
    for points, weights, charts, expected in cases:
        data = make_dataset(points, weights)
        cover = lg.Cover.of(data, sorted((k, sorted(v)) for k, v in charts.items()))
        cochain, report = build_zero_cocycle(cover, lg.affine_features(1))
        for cell, check in report.pairs.items():
            ref = expected["pairs"][cell.chart_names]
            assert oracles.as_fractions(check.delta) == ref["delta"]
            assert oracles.as_fractions(check.beta_constants) == ref["beta"]
            assert oracles.as_fractions(fit_all_cells(cover, lg.affine_features(1), 2)[cell].base) == ref["a"]
        for cell, check in report.triples.items():
            assert oracles.as_fractions(check.defect_constant) == expected["triples"][cell.chart_names]


@criterion(8, "obstruction semantics: exit code, exact defect, and zero-defect witness")
def test_criterion_8_obstruction_semantics(tmp_path, capsys):
    # nonzero constant defect: the toy points with a third chart
    dataset_doc = {
        "ambient_dim": 1,
        "points": [
            {"x": ["-4"], "y": "2", "weight": "1"},
            {"x": ["-1"], "y": "1", "weight": "1"},
            {"x": ["1"], "y": "2", "weight": "1"},
            {"x": ["2"], "y": "4", "weight": "1"},
            {"x": ["5"], "y": "6", "weight": "1"},
        ],
    }
    cover_doc = {
        "charts": [
            {"name": "D1", "indices": [1, 2, 3, 4]},
            {"name": "D2", "indices": [2, 3, 4, 5]},
            {"name": "D3", "indices": [1, 2, 3, 5]},
        ]
    }
    charts = {"D1": {1, 2, 3, 4}, "D2": {2, 3, 4, 5}, "D3": {1, 2, 3, 5}}
    expected = oracles.cover_data(
        oracles.TOY_POINTS, oracles.TOY_WEIGHTS, charts, oracles.AFFINE_1D
    )["triples"][("D1", "D2", "D3")]
    assert any(v != 0 for v in expected)  # the oracle confirms the obstruction

    dataset = tmp_path / "toy.json"
    dataset.write_text(json.dumps(dataset_doc))
    cover = tmp_path / "three.json"
    cover.write_text(json.dumps(cover_doc))
    out_path = tmp_path / "report.json"
    code = cli.main(
        [
            "cocycle",
            "--dataset",
            str(dataset),
            "--cover",
            str(cover),
            "--output",
            str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 3
    doc = json.loads(out_path.read_text())
    record = doc["triples"]["D1|D2|D3"]
    assert record["obstructed"] is True
    assert [F(s) for s in record["defect_constant"]] == expected

    # zero constant defect with nonzero betas: three charts sharing one core
    data = lg.WeightedDataSet.of([(-4, 2), (-1, 1), (1, 2), (2, 4), (5, 6), (7, 3)])
    shared = lg.Cover.of(
        data, [("U1", [1, 2, 3, 4]), ("U2", [1, 2, 3, 5]), ("U3", [1, 2, 3, 6])]
    )
    cochain, report = build_zero_cocycle(shared, lg.affine_features(1))
    (triple_cell,) = cochain.r
    witness = cochain.r[triple_cell]
    assert witness is not None and witness.degree == 2
    assert report.triples[triple_cell].defect_constant.is_zero()
    assert not report.triples[triple_cell].obstructed
    assert report.all_verified()
    assert all(not b.is_zero() for b in cochain.beta.values())
