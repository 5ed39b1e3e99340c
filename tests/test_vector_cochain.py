"""The vector construction of the cochain against its Koszul verification.

``assemble_cochain`` computes each beta as N⁻¹δ and each triple defect as the
alternating sum of beta vectors, and sets r to zero or None from that sum
alone.  Over random covers, the Koszul transport of the betas must agree:
the transported defect has no linear part, its constants are the vector
defect, r is the zero element exactly when that defect vanishes, and every
pair residual is zero.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsglue as lg
from lsglue.assembly import _cells_by_names, _transported_defect, assemble_cochain
from lsglue.koszul import KoszulElement

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


def with_examples(test):
    for case in [SHARED_CORE, TOY_THREE, *EXAMPLES]:
        test = example(case)(test)
    return test


@settings(max_examples=150, deadline=None)
@with_examples
@given(st.one_of(covers(), cored_covers()))
def test_vector_cochain_matches_koszul_transport(case):
    points, charts, features, _ = case
    _, cover, feature_map = build(points, charts, features)
    try:
        fits = lg.fit_all_cells(cover, feature_map, 2)
    except lg.Singular:
        return
    cochain, report = assemble_cochain(fits)
    by_names = _cells_by_names(fits)

    assert report.all_pairs_zero()
    beta = {}
    for cell in cochain.beta:
        name_i, name_j = cell.chart_names
        delta = fits[by_names[(name_j,)]].base - fits[by_names[(name_i,)]].base
        beta[cell.chart_names] = lg.solve_square(fits[cell].nmat, delta)

    for cell, witness in cochain.r.items():
        base = fits[cell].base
        n = base.dim
        defect = lg.Vector.zeros(n)
        for sign, face in zip((1, -1, 1), cell.faces()):
            defect = defect + beta[face].scale(sign)
        transported = _transported_defect(cell, cochain.beta, fits, by_names)
        for m in range(1, n + 1):
            assert transported.coefficient((m,)).c.is_zero(), cell.label
        assert [transported.coefficient((m,)).c0 for m in range(1, n + 1)] == list(defect)
        if defect.is_zero():
            assert witness == KoszulElement.zero(n, 2, base), cell.label
            assert report.triples[cell].residual_zero
        else:
            assert witness is None, cell.label
            assert report.triples[cell].obstructed
