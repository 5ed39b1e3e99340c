import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsglue as lg
from lsglue.assembly import (
    _l2,
    _max_mean,
    _vector_from_strings,
    assemble_cochain,
    build_zero_cocycle,
    canonical_alpha,
    cochain_from_json,
    discrepancy_metrics,
    fit_all_cells,
    fits_to_json,
    report_to_json,
    verify_cocycle,
)
from lsglue.data import cover_from_json, dataset_from_json
from lsglue.koszul import KoszulElement, LinearizedElement, koszul_diff
from lsglue.model import model_from_json

import oracles
from conftest import make_dataset, rand_nonneg_fraction, rand_points

F = Fraction
SAMPLEDATA = Path(__file__).resolve().parent.parent / "sampledata"


def cell_by_label(cells, label):
    return next(c for c in cells if c.label == label)


def toy_fits(toy_cover, affine1):
    return fit_all_cells(toy_cover, affine1, 2)


def test_fit_all_cells_toy(toy_cover, affine1):
    fits = toy_fits(toy_cover, affine1)
    values = {cell.label: fit.base for cell, fit in fits.items()}
    assert values["D1"] == lg.Vector.of(["11/42", "50/21"])
    assert values["D2"] == lg.Vector.of(["13/15", "26/15"])
    assert values["D1|D2"] == lg.Vector.of(["13/14", "12/7"])


def test_fit_single_chart_cover_equals_global(toy_dataset, affine1):
    cover = lg.Cover.of(toy_dataset, [("all", [1, 2, 3, 4, 5])])
    fits = fit_all_cells(cover, affine1, 2)
    assert len(fits) == 1
    (fit,) = fits.values()
    assert fit.base == lg.Vector.of(["55/113", "306/113"])


def test_fit_singular_overlap_names_cell(toy_dataset, affine1):
    cover = lg.Cover.of(
        toy_dataset, [("A", [1, 2, 3]), ("B", [2, 3, 4]), ("C", [3, 4, 5])]
    )
    with pytest.raises(lg.Singular) as err:
        fit_all_cells(cover, affine1, 2)
    assert err.value.cell == "A|C"  # the overlap holding only point 3


def test_canonical_alpha_values(toy_cover, affine1):
    fits = toy_fits(toy_cover, affine1)
    cell = cell_by_label(fits, "D1")
    alpha = canonical_alpha(fits[cell])
    coeff = alpha.coefficient(())
    assert coeff.c0 == 0
    assert coeff.c == lg.Vector.of(["11/42", "50/21"])
    assert alpha.base == coeff.c

    # a zero solution gives the zero element
    at_zero = lg.LinearizedDifferential(base=lg.Vector.zeros(2), nmat=fits[cell].nmat)
    assert canonical_alpha(at_zero).is_zero()


def test_cech_delta_pair_toy(toy_cover, affine1):
    # the translated alpha discrepancy of the Koszul reference check, and the
    # delta that verify_cocycle reads off the alphas directly
    fits = toy_fits(toy_cover, affine1)
    pair_cell = cell_by_label(fits, "D1|D2")
    pair = fits[pair_cell]
    a1 = canonical_alpha(fits[cell_by_label(fits, "D1")])
    a2 = canonical_alpha(fits[cell_by_label(fits, "D2")])
    target = oracles.cech_delta_pair(a1, a2, pair)
    coeff = target.coefficient(())
    assert coeff.c0 == 0
    assert coeff.c == lg.Vector.of(["127/210", "-68/105"])
    assert target.base == lg.Vector.of(["13/14", "12/7"])
    # same chart twice vanishes; swapping the charts negates
    assert oracles.cech_delta_pair(a1, a1, pair).is_zero()
    assert oracles.cech_delta_pair(a2, a1, pair) == target.scale(-1)
    _, report = assemble_cochain(fits)
    assert report.pairs[pair_cell].delta == coeff.c


def test_build_zero_cocycle_toy(toy_cover, affine1):
    cochain, report = build_zero_cocycle(toy_cover, affine1)
    assert len(cochain.alpha) == 2 and len(cochain.beta) == 1 and not cochain.r
    (beta,) = cochain.beta.values()
    assert beta.coefficient((1,)).c0 == lg.rat("653/5880")
    assert beta.coefficient((2,)).c0 == lg.rat("-1070/5880")
    assert all(check.residual_zero for check in report.pairs.values())
    assert not any(check.obstructed for check in report.triples.values())
    assert report.all_verified()


def test_build_zero_cocycle_single_chart(toy_dataset, affine1):
    cover = lg.Cover.of(toy_dataset, [("all", [1, 2, 3, 4, 5])])
    cochain, report = build_zero_cocycle(cover, affine1)
    assert len(cochain.alpha) == 1 and not cochain.beta and not cochain.r
    assert report.all_verified()
    assert discrepancy_metrics(report) is None


def test_three_chart_obstruction_matches_oracle(toy_dataset, affine1):
    charts = {"D1": {1, 2, 3, 4}, "D2": {2, 3, 4, 5}, "D3": {1, 2, 3, 5}}
    cover = lg.Cover.of(toy_dataset, sorted((k, sorted(v)) for k, v in charts.items()))
    cochain, report = build_zero_cocycle(cover, affine1)

    expected = oracles.cover_data(
        oracles.TOY_POINTS, oracles.TOY_WEIGHTS, charts, oracles.AFFINE_1D
    )
    assert "singular" not in expected

    for cell, check in report.pairs.items():
        ref = expected["pairs"][cell.chart_names]
        assert oracles.as_fractions(check.delta) == ref["delta"]
        assert oracles.as_fractions(check.beta_constants) == ref["beta"]
        assert check.residual_zero

    (triple_cell,) = report.triples
    check = report.triples[triple_cell]
    assert check.obstructed and not check.defect_constant.is_zero()
    assert cochain.r[triple_cell] is None
    assert oracles.as_fractions(check.defect_constant) == expected["triples"][
        ("D1", "D2", "D3")
    ]
    assert not check.residual_zero
    # the residual is -defect on each slot constant, with no linear part
    assert check.linear == {}
    element = check.residual_element(fit_all_cells(cover, affine1, 2)[triple_cell].base)
    residual = [element.coefficient((m,)) for m in (1, 2)]
    assert [c.c0 for c in residual] == [-v for v in oracles.as_fractions(check.defect_constant)]
    assert all(c.c.is_zero() for c in residual)
    assert not report.all_verified()


def shared_core_cover():
    """Three charts meeting pairwise (and triply) in the same core; the
    alternating beta sum then cancels exactly while each beta is nonzero."""
    data = lg.WeightedDataSet.of(
        [(-4, 2), (-1, 1), (1, 2), (2, 4), (5, 6), (7, 3)]
    )
    cover = lg.Cover.of(
        data,
        [("U1", [1, 2, 3, 4]), ("U2", [1, 2, 3, 5]), ("U3", [1, 2, 3, 6])],
    )
    return data, cover


def test_three_chart_zero_defect_witness(affine1):
    _, cover = shared_core_cover()
    cochain, report = build_zero_cocycle(cover, affine1)
    (triple_cell,) = report.triples
    check = report.triples[triple_cell]
    assert not check.obstructed
    assert check.defect_constant.is_zero()
    witness = cochain.r[triple_cell]
    assert witness is not None and witness.degree == 2
    assert check.residual_zero
    assert report.all_verified()
    # betas themselves are nonzero: the cancellation is not vacuous
    assert all(not b.is_zero() for b in cochain.beta.values())


def test_verify_detects_perturbed_beta(toy_cover, affine1):
    fits = toy_fits(toy_cover, affine1)
    cochain, _ = assemble_cochain(fits)
    (pair_cell,) = cochain.beta
    bumped = cochain.beta[pair_cell] + KoszulElement.from_constants(
        1, fits[pair_cell].base, {(1,): 1}
    )
    tampered = lg.TotalCochain(alpha=cochain.alpha, beta={pair_cell: bumped}, r={})
    report = verify_cocycle(tampered, fits)
    check = report.pairs[pair_cell]
    assert not check.residual_zero and not check.residual.is_zero()
    # the residual is exactly iota of the perturbation: the first row of N
    assert check.residual.c == fits[pair_cell].nmat.row(0)
    assert check.residual.c0 == 0
    element = check.residual_element(fits[pair_cell].base)
    assert element.degree == 0 and element.coefficient(()) == check.residual


def test_only_the_cochain_and_witness_images_build_koszul_elements(monkeypatch):
    # a check holds its residual as plain vectors: on sampledata/quad3d (4
    # charts, 6 pairs, 4 glued triples) assembling builds α, β and r, 14
    # elements, and the check only ι of each of the 4 witnesses
    def read(name):
        return json.loads((SAMPLEDATA / name).read_text(encoding="utf-8"))

    data = dataset_from_json(read("quad3d.json"), allow_negative_weights=True)
    cover = cover_from_json(read("cover_quad3d.json"), data)
    features = model_from_json(read("model_quad3d.json"), data.ambient_dim)
    fits = fit_all_cells(cover, features, 2)
    assert [sum(c.degree == d for c in fits) for d in (0, 1, 2)] == [4, 6, 4]

    builds = []
    build = KoszulElement.build.__func__

    def counted(cls, *args, **kwargs):
        builds.append(args[0] if args else kwargs["degree"])
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(KoszulElement, "build", classmethod(counted))
    cochain, report = assemble_cochain(fits)
    assert sorted(builds) == [0] * 4 + [1] * 6 + [2] * 4
    assert all(witness is not None for witness in cochain.r.values())
    builds.clear()
    assert verify_cocycle(cochain, fits) == report
    # ι of a degree-2 witness is of degree 1
    assert builds == [1] * 4


def test_verify_empty_cochain_single_chart(toy_dataset, affine1):
    cover = lg.Cover.of(toy_dataset, [("all", [1, 2, 3, 4, 5])])
    fits = fit_all_cells(cover, affine1, 2)
    report = verify_cocycle(lg.TotalCochain(alpha={}, beta={}, r={}), fits)
    assert report.all_verified() and not report.pairs and not report.triples


def test_verify_cell_mismatch(toy_cover, affine1):
    fits = toy_fits(toy_cover, affine1)
    cochain, _ = assemble_cochain(fits)
    # drop one alpha: the pair equation can no longer be formed
    (pair_cell,) = cochain.beta
    partial = lg.TotalCochain(
        alpha={c: a for c, a in cochain.alpha.items() if c.label != "D1"},
        beta=cochain.beta,
        r={},
    )
    with pytest.raises(lg.CellMismatch):
        verify_cocycle(partial, fits)
    # a cochain keyed by a cell that has no fit is also structural
    with pytest.raises(lg.CellMismatch):
        verify_cocycle(cochain, {c: f for c, f in fits.items() if c != pair_cell})


def test_relabeling_charts_flips_signs(toy_dataset, affine1):
    plain = lg.Cover.of(toy_dataset, [("D1", [1, 2, 3, 4]), ("D2", [2, 3, 4, 5])])
    flipped = lg.Cover.of(toy_dataset, [("Z1", [1, 2, 3, 4]), ("A2", [2, 3, 4, 5])])
    _, report_plain = build_zero_cocycle(plain, affine1)
    _, report_flip = build_zero_cocycle(flipped, affine1)
    (check_plain,) = report_plain.pairs.values()
    (check_flip,) = report_flip.pairs.values()
    # sorted order is now (A2, Z1), i.e. the old (D2, D1): delta and beta negate
    assert check_flip.delta == -check_plain.delta
    assert check_flip.beta_constants == -check_plain.beta_constants
    assert check_flip.residual_zero and check_plain.residual_zero


def test_two_chart_covers_always_glue(affine1):
    rng = random.Random(83)
    built = 0
    while built < 25:
        points = rand_points(rng, rng.randint(4, 10), 1)
        weights = [rand_nonneg_fraction(rng) for _ in points]
        m = len(points)
        cut_lo = rng.randint(1, m - 1)
        cut_hi = rng.randint(cut_lo, m - 1)
        chart1 = list(range(1, cut_hi + 1))
        chart2 = list(range(cut_lo, m + 1))
        charts = {"A": set(chart1), "B": set(chart2)}
        ok = oracles.cover_data(points, weights, charts, oracles.AFFINE_1D)
        if "singular" in ok:
            continue
        data = make_dataset(points, weights)
        cover = lg.Cover.of(data, [("A", chart1), ("B", chart2)])
        cochain, report = build_zero_cocycle(cover, affine1)
        assert report.all_verified()
        assert not report.triples
        built += 1


def test_report_json_shape_and_round_trip(toy_cover, affine1):
    fits = toy_fits(toy_cover, affine1)
    cochain, report = assemble_cochain(fits)
    doc = report_to_json(cochain, fits, report)
    assert set(doc) == {"charts", "pairs", "triples", "metrics"}
    assert doc["pairs"]["D1|D2"]["residual_zero"] is True
    assert doc["pairs"]["D1|D2"]["delta"] == ["127/210", "-68/105"]
    betas = {k: v["c0"] for k, v in doc["pairs"]["D1|D2"]["beta"].items()}
    assert betas == {"[1]": "653/5880", "[2]": "-107/588"}
    # serialization is loadable and reproduces the cochain exactly
    parsed = cochain_from_json(json.loads(json.dumps(doc)), fits)
    assert parsed.alpha == cochain.alpha
    assert parsed.beta == cochain.beta
    assert parsed.r == cochain.r
    re_report = verify_cocycle(parsed, fits)
    assert re_report.all_verified()


def test_float_fields_are_the_floats_of_their_exact_fields(toy_cover, affine1):
    fits = toy_fits(toy_cover, affine1)
    cochain, report = assemble_cochain(fits)
    doc = report_to_json(cochain, fits, report)
    written = 0
    for section in ("charts", "pairs", "triples"):
        for record in doc[section].values():
            for name in [key[: -len("_float")] for key in record if key.endswith("_float")]:
                assert record[f"{name}_float"] == [float(F(s)) for s in record[name]]
                written += 1
    assert written == len(doc["charts"]) + 2 * len(doc["pairs"]) + 2 * len(doc["triples"])


def test_reader_keeps_one_vector_per_distinct_list():
    # a list read before is the same Vector; one that differs anywhere, or
    # spells the same values differently, is parsed as a list of its own
    seen = {}
    first = _vector_from_strings(["1", "2/3"], seen)
    assert _vector_from_strings(["1", "2/3"], seen) is first
    assert _vector_from_strings(["1", "4"], seen) == lg.Vector.of([1, 4])
    respelled = _vector_from_strings(["01", "4/6"], seen)
    assert respelled == first and respelled is not first
    assert list(seen) == [("1", "2/3"), ("1", "4"), ("01", "4/6")]


def test_report_json_deterministic(toy_cover, affine1):
    texts = []
    for _ in range(2):
        fits = toy_fits(toy_cover, affine1)
        cochain, report = assemble_cochain(fits)
        texts.append(
            json.dumps(report_to_json(cochain, fits, report), indent=2, sort_keys=True)
        )
    assert texts[0] == texts[1]


def test_cochain_from_json_unknown_chart(toy_cover, affine1):
    fits = toy_fits(toy_cover, affine1)
    cochain, report = assemble_cochain(fits)
    doc = report_to_json(cochain, fits, report)
    doc["charts"]["D9"] = doc["charts"]["D1"]
    with pytest.raises(lg.LsglueError):
        cochain_from_json(doc, fits)


def test_metrics_toy(toy_cover, affine1):
    _, report = build_zero_cocycle(toy_cover, affine1)
    metrics = discrepancy_metrics(report)
    assert list(metrics) == [
        "max_delta", "mean_delta", "max_beta", "mean_beta", "max_defect", "mean_defect"
    ]
    assert abs(metrics["max_beta"] - 0.2132) < 5e-4
    assert metrics["max_defect"] is None and metrics["mean_defect"] is None
    expected = math.sqrt(float(F(653, 5880) ** 2 + F(-1070, 5880) ** 2))
    assert metrics["max_beta"] == expected == metrics["mean_beta"]


def test_metrics_zero_for_exactly_linear_data(affine1):
    # collinear points: every chart fits the same line, so all deltas vanish
    data = lg.WeightedDataSet.of([(x, 2 * x + 1) for x in range(-2, 4)])
    cover = lg.Cover.of(data, [("L", [1, 2, 3, 4]), ("R", [3, 4, 5, 6])])
    _, report = build_zero_cocycle(cover, affine1)
    metrics = discrepancy_metrics(report)
    assert metrics["max_delta"] == 0.0 and metrics["max_beta"] == 0.0
    assert report.all_verified()


def test_metric_mean_sums_left_to_right():
    # 1e16 + 1 rounds back to 1e16, twice; a compensated sum (math.fsum, and
    # sum() of floats from Python 3.12 on) keeps the 2 and would change the
    # report bytes with the interpreter
    norms = [1e16, 1.0, 1.0]
    assert _max_mean(norms) == (1e16, 1e16 / 3)
    assert math.fsum(norms) / 3 != 1e16 / 3


def _l2_through_the_rational(values) -> float | None:
    """The norm as it was taken through the reduced rational square: its
    float, else the root of square / 4^k times 2^k, else None."""
    square = sum((x * x for x in values), F(0))
    try:
        return math.sqrt(float(square))
    except OverflowError:
        pass
    k = (square.numerator.bit_length() - square.denominator.bit_length()) // 2
    try:
        return math.ldexp(math.sqrt(square / 4**k), k)
    except OverflowError:
        return None


# values from far below the float range to far beyond it, with denominators
# that share factors with the numerators of other entries
_NORM_ENTRIES = st.builds(
    lambda num, den, base, exponent: F(num, den) * F(base) ** exponent,
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**30),
    st.sampled_from([2, 3, 10]),
    st.integers(-1300, 1300),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_NORM_ENTRIES, max_size=6))
@example([F(2) ** 600, F(3, 2) ** 400])
@example([F(2) ** 1100])
@example([F(1, 2) ** 1100, F(-1, 3) ** 700])
@example([])
def test_l2_equals_the_float_of_the_reduced_square(values):
    # int true division of the unreduced Σp²/d² rounds as float() of the
    # reduced rational does, so the norms, and None past the float range,
    # are those of the rational formula
    assert _l2(lg.Vector.of(values)) == _l2_through_the_rational(values)


def test_fits_to_json(toy_cover, affine1):
    doc = fits_to_json(toy_fits(toy_cover, affine1))
    assert doc["cells"]["D1|D2"]["a_hat"] == ["13/14", "12/7"]
    assert doc["cells"]["D1"]["degree"] == 0


def test_cochain_stops_at_triples_even_with_deeper_cells(affine1):
    # four charts sharing one core: the nerve has a degree-3 cell, which is
    # fitted but carries no cochain entry
    data = lg.WeightedDataSet.of(
        [(-4, 2), (-1, 1), (1, 2), (2, 4), (5, 6), (7, 3), (9, 1)]
    )
    cover = lg.Cover.of(
        data,
        [
            ("U1", [1, 2, 3, 4]),
            ("U2", [1, 2, 3, 5]),
            ("U3", [1, 2, 3, 6]),
            ("U4", [1, 2, 3, 7]),
        ],
    )
    fits = fit_all_cells(cover, affine1, 3)
    assert max(cell.degree for cell in fits) == 3
    cochain, report = assemble_cochain(fits)
    assert len(cochain.alpha) == 4
    assert len(cochain.beta) == 6
    assert len(cochain.r) == 4
    assert max(cell.degree for cell in cochain.r) == 2
    assert report.all_verified()
