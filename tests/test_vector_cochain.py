"""The vector cochain and its vector check against the Koszul reference.

Each pair's beta N⁻¹δ comes from the elimination that fits the pair, and
must equal Cramer's rule; ``assemble_cochain`` takes it from there, computes
each triple defect as the alternating sum of beta vectors, and sets r to zero
or None from that sum alone; ``verify_cocycle`` checks the cocycle equations
on the same vectors.
Over random covers, the Koszul check of ``oracles.koszul_verify`` must agree:
the transported defect has no linear part, its constants are the vector
defect, r is the zero element exactly when that defect vanishes, and every
pair residual is zero.  On tampered cochains (alphas, betas and witnesses
changed, fits given non-symmetric matrices) both checks must return the same
report, residuals included, and must reject a beta based away from its pair.

The fits ``verify`` takes from a report's claimed â (the fit loop
``fit_cells`` given the report) must be those of ``fit_all_cells``, with the
same report, whatever the claims say; on a singular cover the loop must
raise the same :class:`Singular`, also when every claim satisfies its
N·â = -ν.  Under the prime 3 in place of 2⁶¹ - 1 the modular rank is often
short, so a right claim is not taken and its cell is solved; the
eliminations (``linalg._row_echelon`` calls) show which cells were solved.
"""

import copy
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import lsglue as lg
from lsglue import linalg
from lsglue.assembly import (
    _cells_by_names,
    assemble_cochain,
    cell_normal_systems,
    cochain_from_json,
    fit_cells,
    report_to_json,
    verify_cocycle,
)
from lsglue.data import cover_from_json, dataset_from_json
from lsglue.koszul import KoszulElement, LinearizedElement, translate

import oracles
from test_atoms import EXAMPLES, build, covers, small

CORE_X = {1: [["0"], ["1"], ["2"]], 2: [["0", "0"], ["1", "0"], ["0", "1"]]}


@st.composite
def cored_covers(draw):
    """A cover from :func:`test_atoms.covers` with three unit-weight points
    added to every chart, placed so that they alone fix every model there:
    most cells up to triples are then fittable, and triples are common."""
    points, charts, features, max_degree = draw(covers())
    core = [(x, draw(small), "1") for x in CORE_X[len(points[0][0])]]
    charts = [[name, [1, 2, 3] + [i + 3 for i in indices]] for name, indices in charts]
    return core + points, charts, features, max_degree


# Three charts sharing one core: nonzero betas whose alternating sum cancels.
SHARED_CORE = (
    [(["-4"], "2", "1"), (["-1"], "1", "1"), (["1"], "2", "1"), (["2"], "4", "1"),
     (["5"], "6", "1"), (["7"], "3", "1")],
    [["U1", [1, 2, 3, 4]], ["U2", [1, 2, 3, 5]], ["U3", [1, 2, 3, 6]]],
    "affine",
    2,
)
# The three-chart toy cover: an obstructed triple.
TOY_THREE = (
    [(["-4"], "2", "1"), (["-1"], "1", "1"), (["1"], "2", "1"), (["2"], "4", "1"),
     (["5"], "6", "1")],
    [["D1", [1, 2, 3, 4]], ["D2", [2, 3, 4, 5]], ["D3", [1, 2, 3, 5]]],
    "affine",
    2,
)
FIXED = [SHARED_CORE, TOY_THREE, *EXAMPLES]
any_cover = st.one_of(covers(), cored_covers(), st.sampled_from(FIXED))
scalars = small.map(lg.rat)


def with_examples(test):
    for case in FIXED:
        test = example(case)(test)
    return test


def fit_cover(case):
    """The cell fits of a drawn cover, or None when a cell is singular."""
    points, charts, features, _ = case
    _, cover, feature_map = build(points, charts, features)
    try:
        return lg.fit_all_cells(cover, feature_map, 2)
    except lg.Singular:
        return None


def _rows(matrix):
    return [oracles.as_fractions(row) for row in matrix.rows]


@settings(max_examples=150, deadline=None)
@with_examples
@given(st.one_of(covers(), cored_covers()))
def test_vector_cochain_matches_koszul_transport(case):
    fits = fit_cover(case)
    if fits is None:
        return
    cochain, report = assemble_cochain(fits)
    reference = oracles.koszul_verify(cochain, fits)
    by_names = _cells_by_names(fits)

    for checks in (report.pairs, reference.pairs):
        assert all(check.residual_zero for check in checks.values())
    beta = {}
    for cell in cochain.beta:
        name_i, name_j = cell.chart_names
        delta = fits[by_names[(name_j,)]].base - fits[by_names[(name_i,)]].base
        beta[cell.chart_names] = lg.Vector.of(
            oracles.cramer_solve(_rows(fits[cell].nmat), oracles.as_fractions(delta))
        )

    for cell, witness in cochain.r.items():
        base = fits[cell].base
        n = base.dim
        defect = lg.Vector.zeros(n)
        for sign, face in zip((1, -1, 1), cell.faces()):
            defect = defect + beta[face].scale(sign)
        # r is zero or absent, so the Koszul residual is minus the defect
        transported = reference.triples[cell].residual.scale(-1)
        for m in range(1, n + 1):
            assert transported.coefficient((m,)).c.is_zero(), cell.label
        assert [transported.coefficient((m,)).c0 for m in range(1, n + 1)] == list(defect)
        if defect.is_zero():
            assert witness == KoszulElement.zero(2, base), cell.label
            assert report.triples[cell].residual_zero
        else:
            assert witness is None, cell.label
            assert report.triples[cell].obstructed


@settings(max_examples=150, deadline=None)
@with_examples
@given(st.one_of(covers(), cored_covers()))
def test_pair_beta_from_its_fit_is_the_cramer_solution(case):
    # each pair is eliminated once, against -ν and δ: the β that elimination
    # gives must be N⁻¹δ, and on a singular cover the loop must stop at the
    # first singular cell in (degree, names) order with the pivot count of N
    points, charts, features, _ = case
    _, cover, feature_map = build(points, charts, features)
    systems = cell_normal_systems(cover, feature_map, 2)
    try:
        fits = lg.fit_all_cells(cover, feature_map, 2)
    except lg.Singular as err:
        event("singular cover")
        cell, system = next(
            (cell, system)
            for cell, system in systems.items()
            if oracles.det(_rows(system.nmat)) == 0
        )
        rank, n = oracles.rank(_rows(system.nmat)), system.param_dim
        assert (str(err), err.cell, err.rank) == (
            f"normal matrix is singular on {cell.label} (rank {rank} < {n})",
            cell.label,
            rank,
        )
        return
    by_names = _cells_by_names(fits)
    pairs = [cell for cell in fits if cell.degree == 1]
    assert set(fits.betas) == set(pairs)
    cochain, _ = assemble_cochain(fits)
    for cell in pairs:
        name_i, name_j = cell.chart_names
        delta = fits[by_names[(name_j,)]].base - fits[by_names[(name_i,)]].base
        expected = oracles.cramer_solve(_rows(fits[cell].nmat), oracles.as_fractions(delta))
        assert oracles.as_fractions(fits.betas[cell]) == expected, cell.label
        constants = [cochain.beta[cell].coefficient((m,)).c0 for m in range(1, fits[cell].n + 1)]
        assert oracles.as_fractions(constants) == expected, cell.label


def _vector(draw, n):
    return lg.Vector(tuple(draw(scalars) for _ in range(n)))


def _element(draw, degree, base, slots):
    """A degree-``degree`` element at ``base`` with drawn (c0, c) on some of
    ``slots``; c0 or c may be zero."""
    n = base.dim
    coeffs = {}
    for idx in slots:
        if draw(st.booleans()):
            c0 = draw(scalars) if draw(st.booleans()) else lg.rat(0)
            c = _vector(draw, n) if draw(st.booleans()) else lg.Vector.zeros(n)
            coeffs[idx] = LinearizedElement(c0, c)
    return KoszulElement.build(degree, base, coeffs)


def tamper(draw, fits, cochain):
    """Change some alphas (c0 and c), betas (β₀ and linear parts) and triple
    witnesses (a nonzero r, the zero r, or None on zero and nonzero defects),
    and give some fits a non-symmetric matrix in place of N."""
    n = next(iter(fits.values())).n
    slots = [(m,) for m in range(1, n + 1)]
    wedges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    alpha = {
        cell: _element(draw, 0, fits[cell].base, [()]) if draw(st.booleans()) else a
        for cell, a in cochain.alpha.items()
    }
    beta = {
        cell: b + _element(draw, 1, fits[cell].base, slots) if draw(st.booleans()) else b
        for cell, b in cochain.beta.items()
    }
    r = {}
    for cell, witness in cochain.r.items():
        base = fits[cell].base
        choice = draw(st.sampled_from(["keep", "none", "zero", "drawn"]))
        r[cell] = {
            "keep": witness,
            "none": None,
            "zero": KoszulElement.zero(2, base),
            "drawn": _element(draw, 2, base, wedges),
        }[choice]
    fits = {
        cell: lg.LinearizedDifferential(
            base=fit.base, nmat=lg.Matrix(tuple(_vector(draw, n).entries for _ in range(n)), n)
        )
        if draw(st.booleans())
        else fit
        for cell, fit in fits.items()
    }
    return fits, lg.TotalCochain(alpha=alpha, beta=beta, r=r)


@settings(max_examples=150, deadline=None)
@given(any_cover, st.data())
def test_vector_verify_matches_koszul_verify(case, data):
    fits = fit_cover(case)
    if fits is None:
        return
    cochain, _ = assemble_cochain(fits)
    assert verify_cocycle(cochain, fits) == oracles.koszul_verify(cochain, fits)
    fits, tampered = tamper(data.draw, fits, cochain)
    assert verify_cocycle(tampered, fits) == oracles.koszul_verify(tampered, fits)


@settings(max_examples=50, deadline=None)
@given(any_cover, st.data())
def test_beta_based_away_from_its_pair_is_rejected(case, data):
    fits = fit_cover(case)
    if fits is None:
        return
    cochain, _ = assemble_cochain(fits)
    if not cochain.beta:
        return
    cell = data.draw(st.sampled_from(sorted(cochain.beta, key=lambda c: c.chart_names)))
    n = fits[cell].n
    moved = translate(cochain.beta[cell], fits[cell].base + _vector(data.draw, n))
    if moved.base == fits[cell].base:
        return
    tampered = lg.TotalCochain(
        alpha=cochain.alpha, beta={**cochain.beta, cell: moved}, r=cochain.r
    )
    for check in (verify_cocycle, oracles.koszul_verify):
        with pytest.raises(lg.BaseMismatch):
            check(tampered, fits)


CLAIMS = {
    "keep": lambda a_hat: a_hat,
    "wrong": lambda a_hat: ["1" if a_hat[0] != "1" else "0", *a_hat[1:]],
    "short": lambda a_hat: a_hat[1:],
    "letter": lambda a_hat: ["x"] * len(a_hat),
    "not_a_list": lambda a_hat: ",".join(a_hat),
}


def spoil_claims(draw, doc) -> dict:
    """Spoil or drop each record's ``"a_hat"`` in a report, as drawn."""
    for section in ("charts", "pairs", "triples"):
        for record in doc[section].values():
            how = draw(st.sampled_from([*CLAIMS, "missing"]))
            if how == "missing":
                del record["a_hat"]
            else:
                record["a_hat"] = CLAIMS[how](record["a_hat"])
    return doc


def solution_claims(systems) -> dict:
    """A report whose records claim, for each cell, some solution of
    N·â = -ν, and "0"s where there is none."""
    doc = {section: {} for section in ("charts", "pairs", "triples")}
    for cell, system in systems.items():
        rows = [oracles.as_fractions(row) for row in system.nmat.rows]
        rhs = [-v for v in oracles.as_fractions(system.nu)]
        a_hat = oracles.some_solution(rows, rhs) or [0] * system.param_dim
        section = ("charts", "pairs", "triples")[cell.degree]
        doc[section][cell.label] = {"a_hat": [str(v) for v in a_hat]}
    return doc


def count_eliminations(patch) -> list:
    """Record, from now on, the normal matrix of every elimination
    (``linalg._row_echelon`` call), as a tuple of rows."""
    calls = []
    original = linalg._row_echelon

    def counting(rows, columns):
        calls.append(rows)
        return original(rows, columns)

    patch.setattr(linalg, "_row_echelon", counting)
    return calls


@pytest.mark.parametrize("prime", [2**61 - 1, 3], ids=["mersenne61", "three"])
@settings(max_examples=100, deadline=None)
@given(any_cover, st.data())
def test_certified_fits_equal_fit_all_cells(prime, case, data):
    points, charts, features, _ = case
    _, cover, feature_map = build(points, charts, features)
    systems = cell_normal_systems(cover, feature_map, 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "RANK_PRIME", prime)
        try:
            fits = lg.fit_all_cells(cover, feature_map, 2)
        except lg.Singular as expected:
            event("singular cover")
            claims = spoil_claims(data.draw, solution_claims(systems))
            with pytest.raises(lg.Singular) as raised:
                fit_cells(systems, claims)
            assert (str(raised.value), raised.value.cell, raised.value.rank) == (
                str(expected),
                expected.cell,
                expected.rank,
            )
            return
        cochain, report = assemble_cochain(fits)
        doc = report_to_json(cochain, fits, report)
        claims = spoil_claims(data.draw, copy.deepcopy(doc))
        eliminations = count_eliminations(patch)
        certified = fit_cells(systems, claims)
        event("a cell solved" if eliminations else "no cell solved")
    assert certified == fits
    for cell, system in systems.items():
        expected_a_hat = oracles.cramer_solve(
            [oracles.as_fractions(row) for row in system.nmat.rows],
            [-v for v in oracles.as_fractions(system.nu)],
        )
        assert oracles.as_fractions(certified[cell].base) == expected_a_hat, cell.label
    rechecked = verify_cocycle(cochain_from_json(claims, certified), certified)
    assert rechecked == report
    assert json.dumps(report_to_json(cochain, certified, rechecked)) == json.dumps(doc)


def test_small_prime_falls_back_to_elimination():
    # the toy normal matrices have even entries, so their rank mod 2 is 0:
    # no claim is taken, and the fit loop eliminates every cell once, with
    # right claims, with wrong claims and with betas; under 2**61 - 1 right
    # claims are all taken
    points, charts, features, _ = TOY_THREE
    _, cover, feature_map = build(points, charts, features)
    systems = cell_normal_systems(cover, feature_map, 2)
    fits = lg.fit_all_cells(cover, feature_map, 2)
    cochain, report = assemble_cochain(fits)
    doc = report_to_json(cochain, fits, report)
    wrong = copy.deepcopy(doc)
    for section in ("charts", "pairs", "triples"):
        for record in wrong[section].values():
            record["a_hat"] = CLAIMS["wrong"](record["a_hat"])
    once = Counter(system.nmat.rows for system in systems.values())
    assert sum(once.values()) == 7
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "RANK_PRIME", 2)
        eliminations = count_eliminations(patch)
        for claims, betas in ((doc, False), (wrong, False), (doc, True)):
            eliminations.clear()
            assert fit_cells(systems, claims, betas=betas) == fits
            assert Counter(eliminations) == once
    with pytest.MonkeyPatch.context() as patch:
        eliminations = count_eliminations(patch)
        assert fit_cells(systems, doc, betas=False) == fits
    assert eliminations == []


def test_claims_that_solve_a_singular_cell_are_not_taken():
    # A has one point, so its N is singular, and both claims satisfy their
    # N·â = -ν; the loop must still stop at A as fit_all_cells does
    data = lg.WeightedDataSet.of([(1, 2), (2, 3), (3, 5)])
    cover = lg.Cover.of(data, [("A", [1]), ("B", [1, 2, 3])])
    features = lg.affine_features(1)
    systems = cell_normal_systems(cover, features, 2)
    a_hats = {"A": ["2", "0"], "A|B": ["0", "2"]}
    for cell, system in systems.items():
        if cell.label in a_hats:
            assert system.nmat.matvec(lg.Vector.of(a_hats[cell.label])) == -system.nu
    claims = {
        "charts": {"A": {"a_hat": a_hats["A"]}},
        "pairs": {"A|B": {"a_hat": a_hats["A|B"]}},
    }
    with pytest.raises(lg.Singular) as expected:
        lg.fit_all_cells(cover, features, 2)
    for betas in (False, True):
        with pytest.raises(lg.Singular) as raised:
            fit_cells(systems, claims, betas=betas)
        assert (str(raised.value), raised.value.cell, raised.value.rank) == (
            "normal matrix is singular on A (rank 1 < 2)",
            "A",
            1,
        )
        assert str(raised.value) == str(expected.value)


def test_claims_with_betas_give_the_cocycle():
    # a pair solved for its β takes no claim, so every pair keeps its β even
    # when the report claims every â correctly
    root = Path(__file__).resolve().parent.parent
    data = dataset_from_json(json.loads((root / "sampledata/toy5.json").read_text()))
    cover_doc = json.loads((root / "sampledata/cover_three_charts.json").read_text())
    cover = cover_from_json(cover_doc, data)
    doc = json.loads((root / "tests/golden/cocycle_three_charts.json").read_text())
    features = lg.affine_features(1)
    cochain, report = lg.build_zero_cocycle(cover, features)
    fits = fit_cells(cell_normal_systems(cover, features, 2), doc)
    claimed, claimed_report = assemble_cochain(fits)
    assert (claimed.alpha, claimed.beta, claimed.r) == (cochain.alpha, cochain.beta, cochain.r)
    assert claimed_report == report
    assert report_to_json(claimed, fits, claimed_report) == doc
