"""Assembling and verifying the total-degree-0 cochain over a cover.

The cochain has three layers, one per overlap depth:

* ``alpha``  -- on each chart, the degree-0 element â·(a - â) encoding that
  chart's least-squares fit to first order;
* ``beta``   -- on each pairwise overlap, a degree-1 element with constant
  coefficients N⁻¹δ (N the overlap's normal matrix, δ = â_j - â_i) whose
  differential reproduces the transported discrepancy of the two chart fits;
* ``r``      -- on each triple overlap, a degree-2 element whose differential
  must reproduce the alternating sum of the three transported betas.

Construction and verification both work on vectors.  Translation carries
coefficients over verbatim, and every component η^m = N_m·(a - â) of a
cell's differential has zero constant term, so:

* ι of a degree-1 element depends only on its slot constants β₀:
  ι(β) = Σ_m β₀_m η^m = (Nᵀβ₀)·(a - â), which is (N·β₀)·(a - â) since N is
  symmetric (accumulated on the upper triangle and mirrored); the linear
  parts of β are annihilated;
* ι(r) has no constant term, for every degree-2 r;
* every triple defect is the alternating sum of the face betas, slot by slot.

So a witness r exists exactly when the defect vector is zero, and then r = 0
does.  A cell's fit is its differential: the :class:`LinearizedDifferential`
at the cell's least-squares point â, with the cell's normal matrix N.  Koszul
elements are built only to serialize the cochain, for the residuals a check
returns, and for ι of a supplied triple witness.  All residuals are exact;
floats appear only in advisory metrics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isfinite, ldexp, sqrt

from .data import Cover, NerveCell, WeightedDataSet, enumerate_nerve, validate_cover
from .errors import BaseMismatch, CellMismatch, LsglueError
from .koszul import (
    KoszulElement,
    LinearizedDifferential,
    LinearizedElement,
    koszul_diff,
    koszul_from_json,
    koszul_to_json,
)
from .linalg import Vector, solve_square
from .model import (
    FeatureMap,
    build_normal_system,
    solve_least_squares,
    sum_normal_systems,
)
from .scalars import rat_float


@dataclass(frozen=True)
class TotalCochain:
    """(alpha, beta, r) keyed by nerve cell; an obstructed triple maps to None."""

    alpha: dict
    beta: dict
    r: dict


@dataclass(frozen=True)
class PairCheck:
    """Exact verification data for one pairwise overlap."""

    delta: Vector
    beta_constants: Vector
    residual: KoszulElement

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero()


@dataclass(frozen=True)
class TripleCheck:
    """Exact verification data for one triple overlap.

    ``outcome`` is "ok" (witness supplied), "constant_defect" (nonzero
    constant part, rigorously un-witnessable), or "inconsistent" (no witness
    supplied although the constant part vanishes: a false obstruction claim,
    which only an external cochain can make and which fails verification).
    """

    defect_constant: Vector
    witness: KoszulElement | None
    residual: KoszulElement
    outcome: str

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero()

    @property
    def obstructed(self) -> bool:
        return self.outcome != "ok"


@dataclass(frozen=True)
class ObstructionReport:
    pairs: dict
    triples: dict

    def all_pairs_zero(self) -> bool:
        return all(check.residual_zero for check in self.pairs.values())

    def any_obstructed(self) -> bool:
        return any(check.obstructed for check in self.triples.values())

    def all_verified(self) -> bool:
        """Every residual is zero, and no triple claims an obstruction that
        its zero defect constant contradicts."""
        return self.all_pairs_zero() and all(
            check.residual_zero and check.outcome != "inconsistent"
            for check in self.triples.values()
        )


@dataclass(frozen=True)
class DiscrepancyMetrics:
    """Float summaries for triage; never consumed by exact computations.

    A field is None when there is nothing to summarize (no triples) or when
    the value lies beyond the float range.
    """

    max_delta: float | None
    mean_delta: float | None
    max_beta: float | None
    mean_beta: float | None
    max_defect: float | None
    mean_defect: float | None


def cell_normal_systems(cover: Cover, features: FeatureMap, max_degree: int) -> dict:
    """The normal system of every nerve cell up to ``max_degree``, in
    (degree, names) order.

    Each membership atom of the cover (:attr:`Cover.atoms`) is evaluated once,
    over its own points; a cell's system is the sum of the systems of the
    atoms its points fall in.  Equals ``build_normal_system`` of the base
    restricted to the cell's indices.
    """
    validate_cover(cover)
    base = cover.base
    atom_systems = {}
    atom_of = {}
    for signature, indices in cover.atoms.items():
        points = tuple(base.points[i - 1] for i in indices)
        atom_systems[signature] = build_normal_system(
            WeightedDataSet(points, base.ambient_dim), features
        )
        atom_of.update(dict.fromkeys(indices, signature))
    return {
        cell: sum_normal_systems(
            atom_systems[signature]
            for signature in dict.fromkeys(atom_of[i] for i in sorted(cell.indices))
        )
        for cell in enumerate_nerve(cover, max_degree)
    }


def fit_all_cells(cover: Cover, features: FeatureMap, max_degree: int) -> dict:
    """Fit every nerve cell up to ``max_degree``: ``{cell: differential}``.

    Each cell solves the normal equations of its index intersection
    (:func:`cell_normal_systems`); its fit is the differential with base the
    solution â and matrix the cell's N.  Raises :class:`lsglue.errors.Singular`
    naming the first degenerate cell in (degree, names) order.
    """
    fits = {}
    for cell, system in cell_normal_systems(cover, features, max_degree).items():
        solution = solve_least_squares(system, chart=cell.label)
        fits[cell] = LinearizedDifferential(base=solution.a_hat, nmat=system.nmat)
    return fits


def canonical_alpha(fit: LinearizedDifferential) -> KoszulElement:
    """Degree-0 element â·(a - â): zero constant part, linear part â."""
    base = fit.base
    return KoszulElement.build(
        base.dim,
        0,
        base,
        {(): LinearizedElement.linear(base, base)},
    )


def _cells_by_names(fits: dict) -> dict:
    return {cell.chart_names: cell for cell in fits}


def _sorted_cells(cells) -> list:
    return sorted(cells, key=lambda cell: (cell.degree, cell.chart_names))


def _slot_constants(beta: KoszulElement) -> Vector:
    """β₀: the constant parts of a degree-1 element on slots 1..n."""
    return Vector(tuple(beta.coefficient((m,)).c0 for m in range(1, beta.n + 1)))


def _face_sum(terms: list, n: int) -> Vector:
    """Σ_j (-1)^j terms[j]: the alternating sum of vectors given for a cell's
    faces in drop-position order.  Zero terms are skipped."""
    total = Vector.zeros(n)
    for position, term in enumerate(terms):
        if not term.is_zero():
            total = total - term if position % 2 else total + term
    return total


def build_zero_cocycle(
    cover: Cover, features: FeatureMap, max_degree: int = 2
) -> tuple[TotalCochain, ObstructionReport]:
    """Construct (alpha, beta, r) over the cover's nerve and verify it.

    Pairs always solve exactly (the overlap's normal matrix is invertible
    whenever its fit exists).  A triple glues (r = 0) when its beta defect
    vanishes and is recorded as obstructed (never raised) otherwise.  The
    returned report is the verification of the constructed cochain.
    """
    return assemble_cochain(fit_all_cells(cover, features, max_degree))


def assemble_cochain(fits: dict) -> tuple[TotalCochain, ObstructionReport]:
    """The cell-level cochain construction behind :func:`build_zero_cocycle`.

    Everything is computed on vectors (module docstring): β = N⁻¹δ with
    δ = â_j - â_i, each triple's defect is the alternating sum of its face β
    vectors, and r is the zero element when that sum vanishes and None
    otherwise.  The cochain is then rechecked by :func:`verify_cocycle`.
    """
    by_names = _cells_by_names(fits)

    alpha = {
        cell: canonical_alpha(fits[cell]) for cell in fits if cell.degree == 0
    }
    beta_vectors = {}
    for cell in _sorted_cells(c for c in fits if c.degree == 1):
        name_i, name_j = cell.chart_names
        delta = fits[by_names[(name_j,)]].base - fits[by_names[(name_i,)]].base
        beta_vectors[cell] = solve_square(fits[cell].nmat, delta)
    beta = {
        cell: KoszulElement.from_constants(
            1, fits[cell].base, {(m + 1,): value for m, value in enumerate(vector)}
        )
        for cell, vector in beta_vectors.items()
    }

    r = {}
    for cell in _sorted_cells(c for c in fits if c.degree == 2):
        base = fits[cell].base
        defect = _face_sum([beta_vectors[by_names[face]] for face in cell.faces()], base.dim)
        r[cell] = KoszulElement.zero(base.dim, 2, base) if defect.is_zero() else None

    cochain = TotalCochain(alpha=alpha, beta=beta, r=r)
    return cochain, verify_cocycle(cochain, fits)


def verify_cocycle(cochain: TotalCochain, fits: dict) -> ObstructionReport:
    """Recheck every supplied cocycle equation exactly, on vectors.

    Pairs: ι(β) = (N·β₀)·(a - â) must equal the alphas' discrepancy
    (α_j.c0 - α_i.c0) + δ·(a - â), δ = α_j.c - α_i.c, so the residual has
    constant α_i.c0 - α_j.c0 and linear part N·β₀ - δ (taken as Nᵀβ₀, the
    form ι has for any N).  Triples: ι(r), zero when r is absent and computed
    only for a supplied witness, must equal the alternating face sum of the
    betas, slot by slot; ι(r) has no constant term, so slot m of the residual
    is (-defect_m, ι(r).c_m - Σ±β.c_m).  Residuals are exact.  A cell without
    a fit or a lower layer raises :class:`CellMismatch`; a beta or witness
    based away from its cell's fit raises :class:`BaseMismatch`.
    """
    by_names = _cells_by_names(fits)
    pairs = {}
    for cell in _sorted_cells(cochain.beta):
        if cell not in fits:
            raise CellMismatch(f"no fit for pair cell {cell.label}")
        name_i, name_j = cell.chart_names
        missing = [
            name
            for name in (name_i, name_j)
            if by_names.get((name,)) not in cochain.alpha
        ]
        if missing:
            raise CellMismatch(f"pair {cell.label} lacks alpha on {missing}")
        fit, beta = fits[cell], cochain.beta[cell]
        if beta.base != fit.base:
            raise BaseMismatch("element and differential have different base points")
        alpha_i = cochain.alpha[by_names[(name_i,)]].coefficient(())
        alpha_j = cochain.alpha[by_names[(name_j,)]].coefficient(())
        delta = alpha_j.c - alpha_i.c
        beta_constants = _slot_constants(beta)
        residual = LinearizedElement(
            fit.base,
            alpha_i.c0 - alpha_j.c0,
            fit.nmat.transpose().matvec(beta_constants) - delta,
        )
        pairs[cell] = PairCheck(
            delta=delta,
            beta_constants=beta_constants,
            residual=KoszulElement.build(fit.n, 0, fit.base, {(): residual}),
        )

    triples = {}
    for cell in _sorted_cells(cochain.r):
        if cell not in fits:
            raise CellMismatch(f"no fit for triple cell {cell.label}")
        faces = [by_names.get(face) for face in cell.faces()]
        for face, face_cell in zip(cell.faces(), faces):
            if face_cell is None or face_cell not in cochain.beta:
                raise CellMismatch(
                    f"triple {cell.label} needs a beta on face {'|'.join(face)}"
                )
        fit, witness = fits[cell], cochain.r[cell]
        constants = _face_sum([pairs[face].beta_constants for face in faces], fit.n)
        if witness is None:
            image = KoszulElement.zero(fit.n, 1, fit.base)
            outcome = "constant_defect" if not constants.is_zero() else "inconsistent"
        else:
            image = koszul_diff(witness, fit)
            outcome = "ok"
        residual = {}
        for m in range(1, fit.n + 1):
            linear = _face_sum(
                [cochain.beta[face].coefficient((m,)).c for face in faces], fit.n
            )
            residual[(m,)] = LinearizedElement(
                fit.base, -constants[m - 1], image.coefficient((m,)).c - linear
            )
        triples[cell] = TripleCheck(
            defect_constant=constants,
            witness=witness,
            residual=KoszulElement.build(fit.n, 1, fit.base, residual),
            outcome=outcome,
        )
    return ObstructionReport(pairs=pairs, triples=triples)


def discrepancy_metrics(report: ObstructionReport) -> DiscrepancyMetrics | None:
    """Float max/mean of the pair and triple discrepancy norms; None when the
    cover has no pairwise overlaps."""
    if not report.pairs:
        return None
    max_delta, mean_delta = _max_mean([_l2(check.delta) for check in report.pairs.values()])
    max_beta, mean_beta = _max_mean(
        [_l2(check.beta_constants) for check in report.pairs.values()]
    )
    max_defect, mean_defect = _max_mean(
        [_l2(check.defect_constant) for check in report.triples.values()]
    )
    return DiscrepancyMetrics(
        max_delta=max_delta,
        mean_delta=mean_delta,
        max_beta=max_beta,
        mean_beta=mean_beta,
        max_defect=max_defect,
        mean_defect=mean_defect,
    )


def _max_mean(norms: list) -> tuple:
    """(max, mean) of float norms: both None when there are none or one lies
    beyond the float range, the mean None when their sum overflows.

    The sum is taken left to right: ``sum()`` of floats rounds differently
    from Python 3.12 on, and the mean is part of the report bytes.
    """
    if not norms or None in norms:
        return None, None
    total = 0.0
    for norm in norms:
        total += norm
    mean = total / len(norms)
    return max(norms), mean if isfinite(mean) else None


def _l2(vec: Vector) -> float | None:
    """Float Euclidean norm; None when it lies beyond the float range."""
    square = vec.norm_sq()
    value = rat_float(square)
    if value is not None:
        return sqrt(value)
    # The square overflows but the norm may not: root of square / 4^k, times 2^k.
    k = (square.numerator.bit_length() - square.denominator.bit_length()) // 2
    try:
        return ldexp(sqrt(square / 4**k), k)
    except OverflowError:
        return None


def _exact(name: str, vec: Vector) -> dict:
    """A vector's report fields: exact `p/q` strings under ``name``, advisory
    floats under ``name_float``."""
    return {name: vec.to_strings(), f"{name}_float": vec.to_floats()}


def _cell_record(cell: NerveCell, fit: LinearizedDifferential) -> dict:
    """The fields every cell record starts with: its indices and its â."""
    return {"indices": sorted(cell.indices), **_exact("a_hat", fit.base)}


def report_to_json(cochain: TotalCochain, fits: dict, report: ObstructionReport) -> dict:
    """Serialize the cochain and its verification; rationals as `p/q` strings,
    float companions advisory only."""
    charts = {
        cell.label: {
            **_cell_record(cell, fits[cell]),
            "alpha": koszul_to_json(cochain.alpha[cell]),
        }
        for cell in _sorted_cells(cochain.alpha)
    }
    pairs = {
        cell.label: {
            **_cell_record(cell, fits[cell]),
            **_exact("delta", check.delta),
            "beta": koszul_to_json(cochain.beta[cell]),
            "residual_zero": check.residual_zero,
        }
        for cell, check in report.pairs.items()
    }
    triples = {
        cell.label: {
            **_cell_record(cell, fits[cell]),
            **_exact("defect_constant", check.defect_constant),
            "r": None if check.witness is None else koszul_to_json(check.witness),
            "obstructed": check.obstructed,
            "residual_zero": check.residual_zero,
        }
        for cell, check in report.triples.items()
    }
    metrics = discrepancy_metrics(report)
    return {
        "charts": charts,
        "pairs": pairs,
        "triples": triples,
        "metrics": None if metrics is None else asdict(metrics),
    }


def cochain_from_json(doc: dict, fits: dict) -> TotalCochain:
    """Parse a report produced by :func:`report_to_json` back into a cochain.

    Cells are resolved by label against ``fits``; unknown labels, elements
    based away from their cell's fit, and a chart, pair or triple of ``fits``
    without a record are structural errors (:class:`LsglueError`), not
    verification failures.
    """
    if not isinstance(doc, dict):
        raise LsglueError("cochain JSON must be an object")
    by_label = {cell.label: cell for cell in fits}

    def resolve(label: str, degree: int) -> NerveCell:
        cell = by_label.get(label)
        if cell is None or cell.degree != degree:
            raise LsglueError(f"cochain references unknown degree-{degree} cell {label!r}")
        return cell

    def records(section: str, field: str, required: bool):
        entries = doc.get(section, {})
        if not isinstance(entries, dict):
            raise LsglueError(f"cochain {section!r} must be an object keyed by cell label")
        for label, record in entries.items():
            if not isinstance(record, dict):
                raise LsglueError(f"cochain {section!r} entry {label!r} must be an object")
            if required and field not in record:
                raise LsglueError(f"cochain {section!r} entry {label!r} lacks {field!r}")
            yield label, record.get(field)

    alpha = {}
    for label, element in records("charts", "alpha", required=True):
        cell = resolve(label, 0)
        base = fits[cell].base
        alpha[cell] = koszul_from_json(element, base.dim, 0, base)
    beta = {}
    for label, element in records("pairs", "beta", required=True):
        cell = resolve(label, 1)
        base = fits[cell].base
        beta[cell] = koszul_from_json(element, base.dim, 1, base)
    r = {}
    for label, witness in records("triples", "r", required=False):
        cell = resolve(label, 2)
        base = fits[cell].base
        r[cell] = (
            None if witness is None else koszul_from_json(witness, base.dim, 2, base)
        )
    sections = (("charts", alpha), ("pairs", beta), ("triples", r))
    for cell in _sorted_cells(fits):
        if cell.degree < len(sections):
            section, parsed = sections[cell.degree]
            if cell not in parsed:
                raise LsglueError(
                    f"cochain {section!r} lacks a record for cell {cell.label!r}"
                )
    return TotalCochain(alpha=alpha, beta=beta, r=r)


def fits_to_json(fits: dict) -> dict:
    """Serialize per-cell least-squares solutions (the `fit` command payload)."""
    return {
        "cells": {
            cell.label: {"degree": cell.degree, **_cell_record(cell, fits[cell])}
            for cell in _sorted_cells(fits)
        }
    }
