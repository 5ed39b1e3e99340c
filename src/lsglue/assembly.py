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
does.  They also fix the report of the cochain built here, so
:func:`assemble_cochain` derives it and only ``verify`` runs the check
:func:`verify_cocycle`: β solves N·β = δ and α has constant 0, so every pair
residual is zero, and a triple's residual is -defect on the slot constants.
A cell's fit is its differential: the :class:`LinearizedDifferential` at the
cell's least-squares point â, with the cell's normal matrix N.  Koszul
elements are built only to serialize the cochain, for the residuals of a
report, and for ι of a supplied triple witness; each is based at its cell's
â and holds bare (c0, c) coefficients.  A beta or witness based away from
its cell's fit is refused (:class:`BaseMismatch`).  All residuals are
exact; floats appear only in advisory metrics.

One loop fits every cell (:func:`fit_cells`): a cell takes the ``"a_hat"``
its record in a report claims when N·â = -ν holds exactly and N has full
rank modulo a prime (``linalg.modular_rank``), which proves N nonsingular
and so the claim the unique solution; any other cell is solved by
elimination, so a degenerate cell raises :class:`Singular` whatever the
report claims.  ``cocycle`` passes no report (:func:`fit_all_cells`);
``verify`` passes the report it checks.  The loop visits cells in (degree,
names) order, so both charts of a pair are fitted before the pair and
δ = â_j - â_i is known: the pair's N is eliminated once, against -ν and δ
together, and β = N⁻¹δ comes from that elimination; so a pair solved for its
β takes no claim, which would save no elimination.  :func:`assemble_cochain`
eliminates nothing.  A claim that is missing, unparsable or wrong is ignored,
so the fits, and every byte of the report, never depend on the claims.

Every cell map keeps the (degree, names) order of ``data.enumerate_nerve``,
and every check and writer iterates what it is given.  A triple's verdict is
derived: ``TripleCheck.outcome`` follows from its witness and defect.
"""

from __future__ import annotations

from math import isfinite, ldexp, sqrt

from .data import Cover, NerveCell, WeightedDataSet, enumerate_nerve, validate_cover
from .errors import BaseMismatch, CellMismatch, LsglueError, excerpt
from .koszul import (
    KoszulElement,
    LinearizedDifferential,
    LinearizedElement,
    koszul_diff,
    koszul_from_json,
    koszul_to_json,
)
from .linalg import Value, Vector, modular_rank
from .model import (
    FeatureMap,
    build_normal_system,
    integer_system,
    solve_least_squares,
    sum_normal_systems,
)
from .scalars import rat_float, rational_from_string

# The report section of each cell degree.
_SECTIONS = ("charts", "pairs", "triples")


class TotalCochain(Value):
    """(alpha, beta, r) keyed by nerve cell; an obstructed triple maps to None.
    Each layer holds its cells in the (degree, names) order of the fits."""

    __slots__ = ("alpha", "beta", "r")
    __hash__ = None

    def __init__(self, alpha: dict, beta: dict, r: dict):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "r", r)


class PairCheck(Value):
    """Exact verification data for one pairwise overlap."""

    __slots__ = ("delta", "beta_constants", "residual")
    __hash__ = None

    def __init__(self, delta: Vector, beta_constants: Vector, residual: KoszulElement):
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "beta_constants", beta_constants)
        object.__setattr__(self, "residual", residual)

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero()


class TripleCheck(Value):
    """Exact verification data for one triple overlap.

    ``outcome`` is "ok" (witness supplied), "constant_defect" (nonzero
    constant part, rigorously un-witnessable), or "inconsistent" (no witness
    supplied although the constant part vanishes: a false obstruction claim,
    which only an external cochain can make and which fails verification).
    """

    __slots__ = ("defect_constant", "witness", "residual")
    __hash__ = None

    def __init__(
        self, defect_constant: Vector, witness: KoszulElement | None, residual: KoszulElement
    ):
        object.__setattr__(self, "defect_constant", defect_constant)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "residual", residual)

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero()

    @property
    def obstructed(self) -> bool:
        return self.witness is None

    @property
    def outcome(self) -> str:
        if self.witness is not None:
            return "ok"
        return "inconsistent" if self.defect_constant.is_zero() else "constant_defect"


class ObstructionReport(Value):
    __slots__ = ("pairs", "triples")
    __hash__ = None

    def __init__(self, pairs: dict, triples: dict):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "triples", triples)

    def all_verified(self) -> bool:
        """Every residual is zero, and no triple claims an obstruction that
        its zero defect constant contradicts.  An obstructed triple never
        passes: its residual carries -defect, or it is "inconsistent"."""
        return all(check.residual_zero for check in self.pairs.values()) and all(
            check.residual_zero and check.outcome != "inconsistent"
            for check in self.triples.values()
        )


class CellFits(dict):
    """``{cell: differential}`` from :func:`fit_cells`, in (degree, names)
    order, with ``betas``: ``{pair: N⁻¹δ}`` for each pair cell the loop
    solved when asked for betas, from the elimination that gave its â."""

    def __init__(self):
        super().__init__()
        self.betas = {}


def cell_normal_systems(cover: Cover, features: FeatureMap, max_degree: int) -> dict:
    """The normal system of every nerve cell up to ``max_degree``, in
    (degree, names) order.

    The nerve is enumerated first, so a refused nerve costs no evaluation.
    Each membership atom of the cover (:attr:`Cover.atoms`) is then evaluated
    once, over its own points; a cell of one atom takes that atom's system,
    and a cell of several the sum of their systems, each atom written as
    integers once (``model.integer_system``).  Equals ``build_normal_system``
    of the base restricted to the cell's indices.
    """
    validate_cover(cover)
    cells = enumerate_nerve(cover, max_degree)
    base = cover.base
    atom_systems = {}
    atom_of = {}
    for signature, indices in cover.atoms.items():
        points = tuple(base.points[i - 1] for i in indices)
        atom_systems[signature] = build_normal_system(
            WeightedDataSet(points, base.ambient_dim), features
        )
        atom_of.update(dict.fromkeys(indices, signature))
    integers = {}
    systems = {}
    for cell in cells:
        # the sums are exact, so the order of the atoms does not matter
        signatures = list(dict.fromkeys(atom_of[i] for i in cell.indices))
        if len(signatures) == 1:
            systems[cell] = atom_systems[signatures[0]]
            continue
        for signature in signatures:
            if signature not in integers:
                integers[signature] = integer_system(atom_systems[signature])
        systems[cell] = sum_normal_systems([integers[s] for s in signatures])
    return systems


def fit_all_cells(cover: Cover, features: FeatureMap, max_degree: int) -> CellFits:
    """Fit every nerve cell up to ``max_degree`` by elimination, ``{cell:
    differential}``, with every pair's β: :func:`fit_cells` of
    :func:`cell_normal_systems`, which raises :class:`lsglue.errors.Singular`
    on the first degenerate cell."""
    return fit_cells(cell_normal_systems(cover, features, max_degree))


def fit_cells(systems: dict, doc=None, betas: bool = True) -> CellFits:
    """The fits of ``systems`` (:func:`cell_normal_systems`): for each cell
    the differential with base the cell's least-squares point â and matrix
    the cell's N.

    The cells come in (degree, names) order, so a pair's charts are fitted
    before it and δ = â_j - â_i is known: with ``betas``, a pair is solved
    against -ν and δ in one elimination, and its β = N⁻¹δ is kept in
    ``fits.betas``; without, it is solved against -ν alone.  Any other cell
    takes the ``"a_hat"`` of its record in the report ``doc`` when N·â = -ν
    holds exactly and N has full rank modulo ``linalg.RANK_PRIME``, so that
    the claim is the one solution; the equation is checked first, so a wrong
    claim costs no rank.  A cell without such a claim is solved, which raises
    :class:`lsglue.errors.Singular` naming the first degenerate cell in that
    order, whatever ``doc`` claims.
    """
    fits = CellFits()
    bases = {}
    for cell, system in systems.items():
        also = ()
        if betas and cell.degree == 1:
            name_i, name_j = cell.chart_names
            also = (bases[(name_j,)] - bases[(name_i,)],)
        # a cell that needs β is eliminated anyway, so its claim would save nothing
        a_hat = None if also else _claimed_a_hat(doc, cell, system.param_dim)
        if (
            a_hat is None
            or system.nmat.matvec(a_hat) != -system.nu
            or modular_rank(system.nmat) < system.param_dim
        ):
            solution = solve_least_squares(system, chart=cell.label, also=also)
            a_hat = solution.a_hat
            if also:
                fits.betas[cell] = solution.also[0]
        bases[cell.chart_names] = a_hat
        fits[cell] = LinearizedDifferential(base=a_hat, nmat=system.nmat)
    return fits


def _claimed_a_hat(doc, cell: NerveCell, dim: int) -> Vector | None:
    """The ``"a_hat"`` of the cell's record in a report, or None when there
    is none that parses as a vector of dimension ``dim``."""
    if not isinstance(doc, dict) or cell.degree >= len(_SECTIONS):
        return None
    section = doc.get(_SECTIONS[cell.degree])
    record = section.get(cell.label) if isinstance(section, dict) else None
    claim = record.get("a_hat") if isinstance(record, dict) else None
    if not isinstance(claim, list) or len(claim) != dim:
        return None
    try:
        return Vector(tuple(rational_from_string(s) for s in claim))
    except LsglueError:
        return None


def canonical_alpha(fit: LinearizedDifferential) -> KoszulElement:
    """Degree-0 element â·(a - â): zero constant part, linear part â."""
    return KoszulElement.build(0, fit.base, {(): LinearizedElement.linear(fit.base)})


def _cells_by_names(fits: dict) -> dict:
    return {cell.chart_names: cell for cell in fits}


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
    cover: Cover, features: FeatureMap
) -> tuple[TotalCochain, ObstructionReport]:
    """Construct (alpha, beta, r) over the cover's nerve, with its report.

    Pairs always solve exactly (the overlap's normal matrix is invertible
    whenever its fit exists).  A triple glues (r = 0) when its beta defect
    vanishes and is recorded as obstructed (never raised) otherwise.  The
    report is derived from the construction, not checked (module docstring).
    """
    return assemble_cochain(fit_all_cells(cover, features, 2))


def assemble_cochain(fits: CellFits) -> tuple[TotalCochain, ObstructionReport]:
    """The cochain of :func:`build_zero_cocycle` from the fits of
    :func:`fit_all_cells`, and the report :func:`verify_cocycle` would give
    it, in one loop (module docstring): β is the pair's ``fits.betas``, a
    triple's defect the alternating sum of its face βs, and r is zero when
    that sum vanishes, None otherwise.  Nothing is eliminated or rechecked."""
    by_names = _cells_by_names(fits)
    alpha, beta, r, pairs, triples = {}, {}, {}, {}, {}
    for cell, fit in fits.items():
        if cell.degree == 0:
            alpha[cell] = canonical_alpha(fit)
        elif cell.degree == 1:
            name_i, name_j = cell.chart_names
            delta = fits[by_names[(name_j,)]].base - fits[by_names[(name_i,)]].base
            slots = {(m + 1,): value for m, value in enumerate(fits.betas[cell])}
            beta[cell] = KoszulElement.from_constants(1, fit.base, slots)
            pairs[cell] = PairCheck(delta, fits.betas[cell], KoszulElement.zero(0, fit.base))
        elif cell.degree == 2:
            defect = _face_sum([fits.betas[by_names[f]] for f in cell.faces()], fit.n)
            r[cell] = KoszulElement.zero(2, fit.base) if defect.is_zero() else None
            slots = {(m + 1,): -value for m, value in enumerate(defect)}
            residual = KoszulElement.from_constants(1, fit.base, slots)
            triples[cell] = TripleCheck(defect, r[cell], residual)
    cochain = TotalCochain(alpha=alpha, beta=beta, r=r)
    return cochain, ObstructionReport(pairs=pairs, triples=triples)


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
    for cell in cochain.beta:
        if cell not in fits:
            raise CellMismatch(f"no fit for pair cell {cell.label}")
        name_i, name_j = cell.chart_names
        missing = [n for n in cell.chart_names if by_names.get((n,)) not in cochain.alpha]
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
            alpha_i.c0 - alpha_j.c0, fit.nmat.transpose().matvec(beta_constants) - delta
        )
        pairs[cell] = PairCheck(
            delta=delta,
            beta_constants=beta_constants,
            residual=KoszulElement.build(0, fit.base, {(): residual}),
        )

    triples = {}
    for cell in cochain.r:
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
            image = KoszulElement.zero(1, fit.base)
        else:
            image = koszul_diff(witness, fit)
        residual = {}
        for m in range(1, fit.n + 1):
            linear = _face_sum(
                [cochain.beta[face].coefficient((m,)).c for face in faces], fit.n
            )
            residual[(m,)] = LinearizedElement(
                -constants[m - 1], image.coefficient((m,)).c - linear
            )
        triples[cell] = TripleCheck(
            defect_constant=constants,
            witness=witness,
            residual=KoszulElement.build(1, fit.base, residual),
        )
    return ObstructionReport(pairs=pairs, triples=triples)


def discrepancy_metrics(report: ObstructionReport) -> dict | None:
    """Float max/mean of the pair and triple discrepancy norms, the report's
    ``"metrics"``: ``max_delta``, ``mean_delta``, ``max_beta``, ``mean_beta``,
    ``max_defect`` and ``mean_defect``, in that order; None when the cover
    has no pairwise overlaps.

    Float summaries for triage; never consumed by exact computations.  A
    value is None when there is nothing to summarize (no triples) or when it
    lies beyond the float range.
    """
    if not report.pairs:
        return None
    pairs, triples = report.pairs.values(), report.triples.values()
    metrics = {}
    for name, norms in (
        ("delta", [_l2(check.delta) for check in pairs]),
        ("beta", [_l2(check.beta_constants) for check in pairs]),
        ("defect", [_l2(check.defect_constant) for check in triples]),
    ):
        metrics[f"max_{name}"], metrics[f"mean_{name}"] = _max_mean(norms)
    return metrics


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
    """Serialize the cochain and its report, derived or checked; rationals as
    `p/q` strings, float companions advisory only."""
    charts = {
        cell.label: {
            **_cell_record(cell, fits[cell]),
            "alpha": koszul_to_json(cochain.alpha[cell]),
        }
        for cell in cochain.alpha
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
    return {"charts": charts, "pairs": pairs, "triples": triples, "metrics": metrics}


def cochain_from_json(doc: dict, fits: dict) -> TotalCochain:
    """Parse a report produced by :func:`report_to_json` back into a cochain,
    each layer in the order of ``fits``.

    Cells are resolved by label against ``fits``; unknown labels, elements
    based away from their cell's fit, and a chart, pair or triple of ``fits``
    without a record (the first in the order of ``fits``) are structural
    errors (:class:`LsglueError`), not verification failures.
    """
    if not isinstance(doc, dict):
        raise LsglueError("cochain JSON must be an object")
    by_label = {cell.label: cell for cell in fits}

    def elements(degree: int, field: str):
        """(cell, element) for each record of the degree's section; an
        optional field (``"r"``) that is absent or null gives None.  A parse
        error is prefixed with the section and the cell label."""
        section, required = _SECTIONS[degree], field != "r"
        entries = doc.get(section, {})
        if not isinstance(entries, dict):
            raise LsglueError(f"cochain {section!r} must be an object keyed by cell label")
        for label, record in entries.items():
            entry = f"cochain {section!r} entry {excerpt(repr(label))}"
            if not isinstance(record, dict):
                raise LsglueError(f"{entry} must be an object")
            if required and field not in record:
                raise LsglueError(f"{entry} lacks {field!r}")
            cell = by_label.get(label)
            if cell is None or cell.degree != degree:
                raise LsglueError(
                    f"cochain references unknown degree-{degree} cell {excerpt(repr(label))}"
                )
            element = record.get(field)
            if element is not None or required:
                try:
                    element = koszul_from_json(element, degree, fits[cell].base)
                except LsglueError as err:
                    err.args = (f"{entry}: {err}",)
                    raise
            yield cell, element

    parsed = [dict(elements(d, field)) for d, field in enumerate(("alpha", "beta", "r"))]
    layers = ({}, {}, {})
    for cell in fits:
        if cell.degree < len(_SECTIONS):
            if cell not in parsed[cell.degree]:
                raise LsglueError(
                    f"cochain {_SECTIONS[cell.degree]!r} lacks a record for cell"
                    f" {excerpt(repr(cell.label))}"
                )
            layers[cell.degree][cell] = parsed[cell.degree][cell]
    return TotalCochain(*layers)


def fits_to_json(fits: dict) -> dict:
    """Serialize per-cell least-squares solutions (the `fit` command payload)."""
    return {
        "cells": {
            cell.label: {"degree": cell.degree, **_cell_record(cell, fits[cell])}
            for cell in fits
        }
    }
