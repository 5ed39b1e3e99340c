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
A check holds its residual as plain data: a pair's (c0, c), a triple's
nonzero slot linear parts.  A cell's fit is its differential: the
:class:`LinearizedDifferential` at the cell's least-squares point â, with
the cell's normal matrix N.  Koszul elements are built only to serialize the
cochain, for ι of a supplied triple witness, and for a failed pair's
residual in ``verify``'s failure dump (``residual_element``); each is based
at its cell's â and holds bare (c0, c) coefficients.  A failed triple's
residual is dumped in the same JSON form, spelled from the report's
strings of its defect (``TripleCheck.residual_to_json``), so the defect's
entries are not reduced a second time.  A beta or witness
based away from its cell's fit is refused (:class:`BaseMismatch`).  All
residuals are exact; floats appear only in advisory metrics.

A cell's system depends only on its point set, and one loop fits each
distinct system once (:func:`fit_cells`), at its first cell in (degree,
names) order, by one rule for every command.  It takes a candidate â only
when N·â = -ν holds exactly, checked by cross-multiplying integers
(:func:`_solves`), and N has full rank modulo a prime
(:func:`_full_modular_rank`), which proves the candidate the one solution;
otherwise it is solved, so a degenerate cell raises :class:`Singular`
whatever the candidate, and the report never depends on it.  ``verify``'s
candidate is the â its report claims for the cell
(:func:`claims_from_json`); ``cocycle``'s, and ``verify``'s where the
report claims none, is the â of the cell just before, so on a cover that
glues, where every cell has the same fit, one elimination fits them all.
``verify`` solves only the systems the rank cannot prove when its report
cannot be read (:func:`raise_if_singular`).  The pairs of one system are
settled together from their δ = â_j - â_i: when every δ is zero, so is
every β = N⁻¹δ, and nothing is eliminated for them; otherwise the system is
eliminated against -ν and each δ.  The loop keeps each (δ, β) under the
pair's chart names, where :func:`assemble_cochain` reads them.  Every exact
object is integers over one denominator (a
``linalg.Vector``, N's ``linalg.Matrix``, ν), so δ, the cocycle sums and
the claim check are integer arithmetic on the fields: a triple's face sum
over one lcm (:func:`_face_sum`), and a pair's Nᵀβ₀ = δ
(:func:`_pair_linear`) and N·â = -ν (:func:`_solves`) by one cross-multiplied
residual (:func:`_residual`).  A Koszul
coefficient is integers too (``koszul.LinearizedElement``): c0 its
numerator and denominator, c a Vector; a β and a triple's residual are
built slot by slot from their constants' integers (:func:`_slot_element`),
and the pair check reads them, so no rational is built.  An entry is reduced on its own only where it is written or becomes
a Koszul c0 (a β slot constant).

The report's JSON form is this module's, Koszul elements included
(:func:`koszul_to_json`, :func:`koszul_from_json`): the exact `p/q` strings
and advisory floats of a vector are written here, and a ``Vector`` holds
neither.  A report is mostly â's list of literals, repeated, so each list is
converted once each way.  The writer converts through one
:class:`ReportStrings` per report: a vector's strings are kept by the vector
object, so â's one list serves ``a_hat``, α's ``c`` and ``base`` and every
β slot's ``base``; ``verify`` hands the same strings to its failure dump.
It reduces each entry once, by its gcd with the vector's denominator, and
writes each float as numerator over denominator unreduced
(``scalars.pair_float``).  A Koszul ``c0`` is held in lowest terms, and
spelled from its integers (``scalars.pair_str``).  The reader parses through
one ``seen`` dict per document (:func:`_vector_from_strings`), shared by
:func:`claims_from_json` and :func:`cochain_from_json`: each distinct list
of literals is lifted over one denominator once (``scalars.literal_row``),
with no rational built per entry, and a list read before is the same
Vector, so a slot's ``base`` spelled as its cell's claimed â is that â.
Every ``base`` is still compared with its cell's fit by value, any spelling
the grammar admits (``26/28``, ``000``) is read, and what is written is
canonical.

Every cell map keeps the (degree, names) order of ``data.enumerate_nerve``,
and every check and writer iterates what it is given.  A triple's verdict is
its witness and its residual (:meth:`ObstructionReport.all_verified`).
"""

from __future__ import annotations

from math import gcd, isfinite, ldexp, sqrt
from operator import mul

from .data import Cover, NerveCell, WeightedDataSet, enumerate_nerve, validate_cover
from .errors import BaseMismatch, CellMismatch, LsglueError, excerpt
from .koszul import KoszulElement, LinearizedDifferential, LinearizedElement, koszul_diff
from .linalg import Matrix, Value, Vector, add_rows, modular_rank, over_lcm
from .model import FeatureMap, build_normal_system, solve_least_squares, sum_normal_systems
from .scalars import literal_row, pair_float, pair_str

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
    """Exact verification data for one pairwise overlap: δ, β's slot
    constants β₀, and the (c0, c) of the residual ι(β) - (α_j - α_i)."""

    __slots__ = ("delta", "beta_constants", "residual")
    __hash__ = None

    def __init__(self, delta: Vector, beta_constants: Vector, residual: LinearizedElement):
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "beta_constants", beta_constants)
        object.__setattr__(self, "residual", residual)

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero()

    def residual_element(self, base: Vector) -> KoszulElement:
        """The residual as the degree-0 Koszul element at ``base``, the pair's â."""
        return KoszulElement.build(0, base, {(): self.residual})


class TripleCheck(Value):
    """Exact verification data for one triple overlap: its defect constant,
    its witness (None when obstructed) and ``linear``, the nonzero
    ``{m: ι(r).c_m - Σ±β.c_m}``; the residual's slot constants are -defect.
    Without a witness the residual is zero only for a false obstruction
    claim (zero defect, no witness), which fails verification."""

    __slots__ = ("defect_constant", "witness", "linear")
    __hash__ = None

    def __init__(self, defect_constant: Vector, witness: KoszulElement | None, linear: dict):
        object.__setattr__(self, "defect_constant", defect_constant)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "linear", linear)

    @property
    def residual_zero(self) -> bool:
        return not self.linear and self.defect_constant.is_zero()

    @property
    def obstructed(self) -> bool:
        return self.witness is None

    def residual_element(self, base: Vector) -> KoszulElement:
        """The residual as the degree-1 Koszul element at ``base``, the
        triple's â: slot m holds (-defect_m, ``linear`` at m)."""
        return _slot_element(base, -self.defect_constant, self.linear)

    def residual_to_json(self, base: Vector, strings: "ReportStrings") -> dict:
        """``koszul_to_json(self.residual_element(base), strings)``, without
        building the element: slot m's constant is spelled from the
        defect's string, so no entry of the defect is reduced a second
        time, and a slot whose constant and linear part are both zero is
        left out, as ``KoszulElement.build`` leaves it out."""
        zero = Vector.zeros(base.dim)
        slots = [
            ((m,), _negated(text), self.linear.get(m, zero))
            for m, text in enumerate(strings.vector(self.defect_constant), 1)
            if text != "0" or m in self.linear
        ]
        return _slots_to_json(slots, base, strings)


class ObstructionReport(Value):
    __slots__ = ("pairs", "triples")
    __hash__ = None

    def __init__(self, pairs: dict, triples: dict):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "triples", triples)

    def all_verified(self) -> bool:
        """Every pair residual is zero, and every triple has a witness and a
        zero residual: an obstructed triple never passes."""
        return all(check.residual_zero for check in self.pairs.values()) and all(
            not check.obstructed and check.residual_zero for check in self.triples.values()
        )


class CellFits(dict):
    """``{cell: differential}`` from :func:`fit_cells`, in (degree, names)
    order, with ``pairs``: ``{chart names: (δ, β)}`` for each pair cell when
    the loop was asked for betas, δ = â_j - â_i and β = N⁻¹δ: zero when
    every δ of the pair's system is, else from the one elimination of that
    system against its pairs' δs."""

    def __init__(self):
        super().__init__()
        self.pairs = {}


def cell_normal_systems(cover: Cover, features: FeatureMap, max_degree: int) -> dict:
    """The normal system of every nerve cell up to ``max_degree``, in
    (degree, names) order.

    The nerve is enumerated first, so a refused nerve costs no evaluation.
    Each membership atom of the cover (:attr:`Cover.atoms`) is then evaluated
    once, over its own points.  A cell's points are a union of atoms, and
    every cell with one set of atoms holds one :class:`NormalSystem` object:
    the atom's, or the sum of theirs on the integer rows of their N
    (``model.sum_normal_systems``).  Equals ``build_normal_system`` of the
    base restricted to the cell's indices.
    """
    validate_cover(cover)
    cells = enumerate_nerve(cover, max_degree)
    base = cover.base
    row = (None, *base.rows).__getitem__  # by 1-based index
    shared = {}
    atom_of = {}
    for signature, indices in cover.atoms.items():
        shared[frozenset((signature,))] = build_normal_system(
            WeightedDataSet(tuple(map(row, indices)), base.ambient_dim), features
        )
        atom_of.update(dict.fromkeys(indices, signature))
    systems = {}
    for cell in cells:
        signatures = frozenset(map(atom_of.__getitem__, cell.indices))
        system = shared.get(signatures)
        if system is None:
            # the sums are exact, so the order of the atoms does not matter
            system = shared[signatures] = sum_normal_systems(
                [shared[frozenset((s,))] for s in signatures]
            )
        systems[cell] = system
    return systems


def fit_all_cells(cover: Cover, features: FeatureMap, max_degree: int) -> CellFits:
    """Fit every nerve cell up to ``max_degree`` by elimination, ``{cell:
    differential}``, with every pair's β: :func:`fit_cells` of
    :func:`cell_normal_systems`, which raises :class:`lsglue.errors.Singular`
    on the first degenerate cell."""
    return fit_cells(cell_normal_systems(cover, features, max_degree))


def fit_cells(systems: dict, claims=None, betas: bool = True) -> CellFits:
    """The fits of ``systems`` (:func:`cell_normal_systems`): for each cell
    the differential with base the cell's least-squares point â and matrix
    the cell's N.

    The work is keyed by the system object: each is fitted at its first cell
    in (degree, names) order, and later cells take that â, the same vector.
    One rule fits a system, for every command: its candidate â is the one in
    ``claims``, ``{cell: Vector}``, when there is one, else the â of the
    cell just before it in that order; the candidate is the fit when
    N·â = -ν holds exactly (checked first, so a wrong candidate costs no
    rank) and :func:`_full_modular_rank`, else the solution, which raises
    :class:`lsglue.errors.Singular` naming the first degenerate cell in that
    order, whatever the candidates are.  With ``betas``, the pairs of a
    system are settled once, at its first pair, from their δ = â_j - â_i
    (every chart is fitted by then), and (δ, β = N⁻¹δ) is kept in
    ``fits.pairs`` under the pair's chart names: when every δ is zero, every
    β is zero once the system is fitted, and no elimination is run for them;
    otherwise the system is eliminated against -ν and each δ.
    """
    claims = claims or {}
    fits = CellFits()
    pending = {}
    for cell, system in systems.items():
        if betas and cell.degree == 1:
            pending.setdefault(id(system), []).append(cell.chart_names)
    bases, a_hats, last = {}, {}, None
    for cell, system in systems.items():
        key = id(system)
        a_hat = a_hats.get(key)
        pairs = pending.pop(key, ()) if cell.degree == 1 else ()
        deltas = tuple(bases[(j,)] - bases[(i,)] for i, j in pairs)
        glued = all(delta.is_zero() for delta in deltas)
        if a_hat is None and glued:
            # a group with a nonzero δ is eliminated for its βs, which gives â too
            candidate = claims.get(cell, last)
            if candidate is not None and _solves(system, candidate) and _full_modular_rank(system):
                a_hat = candidate
        if a_hat is not None and glued:
            # N is nonsingular, so every β = N⁻¹δ is zero, as every δ is
            fits.pairs.update(zip(pairs, zip(deltas, deltas)))
        else:
            solution = solve_least_squares(system, chart=cell.label, also=deltas)
            fits.pairs.update(zip(pairs, zip(deltas, solution.also)))
            if a_hat is None:
                a_hat = solution.a_hat
        a_hats[key] = bases[cell.chart_names] = last = a_hat
        fits[cell] = LinearizedDifferential(base=a_hat, nmat=system.nmat)
    return fits


def _residual(rows, den: int, x: Vector, b: tuple):
    """The numerators of M·x - b over den·x.den·d, row by row: M the integer
    ``rows`` over ``den``, b = nums / d for (nums, d) = ``b`` (a negated d
    stands for -b), cross-multiplied on integers."""
    a, (nums, d) = x.nums, b
    scale = den * x.den
    for row, v in zip(rows, nums):
        yield sum(map(mul, row, a)) * d - v * scale


def _solves(system, a_hat: Vector) -> bool:
    """Whether N·â = -ν holds exactly, row by row (:func:`_residual`), up
    to the first row that fails."""
    nmat, nu = system.nmat, system.nu
    return not any(_residual(nmat.nums, nmat.den, a_hat, (nu.nums, -nu.den)))


def _full_modular_rank(system) -> bool:
    """The rank rule: a full rank of N modulo ``linalg.RANK_PRIME`` proves N
    nonsingular (``linalg.modular_rank``); a short one proves nothing."""
    return modular_rank(system.nmat) == system.param_dim


def raise_if_singular(systems: dict) -> None:
    """Raise the :class:`lsglue.errors.Singular` that :func:`fit_cells` of
    ``systems`` would, solving only the cells without :func:`_full_modular_rank`."""
    fit_cells({c: s for c, s in systems.items() if not _full_modular_rank(s)}, betas=False)


def claims_from_json(doc, systems: dict, seen: dict | None = None) -> dict:
    """``{cell: â}`` for each cell of ``systems`` whose record in the report
    ``doc`` has an ``"a_hat"`` that parses as a vector of the cell's
    dimension; any other claim is left out, and nothing is raised.  The
    lists are read through ``seen`` (:func:`_vector_from_strings`)."""
    sections = doc if isinstance(doc, dict) else {}
    if seen is None:
        seen = {}
    claims = {}
    for cell, system in systems.items():
        section = sections.get(_SECTIONS[cell.degree]) if cell.degree < len(_SECTIONS) else None
        record = section.get(cell.label) if isinstance(section, dict) else None
        claim = record.get("a_hat") if isinstance(record, dict) else None
        if isinstance(claim, list) and len(claim) == system.param_dim:
            try:
                claims[cell] = _vector_from_strings(claim, seen)
            except LsglueError:
                pass
    return claims


def canonical_alpha(fit: LinearizedDifferential) -> KoszulElement:
    """Degree-0 element â·(a - â): zero constant part, linear part â."""
    return KoszulElement.build(0, fit.base, {(): LinearizedElement.linear(fit.base)})


def _slot_element(base: Vector, constants: Vector, linear: dict) -> KoszulElement:
    """The degree-1 element at ``base`` whose slot m holds the constant
    ``constants``_m and the linear part ``linear[m]``, or zero if none."""
    zero, den = Vector.zeros(base.dim), constants.den
    coeffs = {
        (m,): LinearizedElement.of_parts(num, den, linear.get(m, zero))
        for m, num in enumerate(constants.nums, 1)
    }
    return KoszulElement.build(1, base, coeffs)


def _cells_by_names(fits: dict) -> dict:
    return {cell.chart_names: cell for cell in fits}


def _face_sum(terms: list, n: int) -> Vector:
    """Σ_j (-1)^j terms[j]: the alternating sum of vectors given for a cell's
    faces in drop-position order.  The nonzero terms are added in one signed
    sum of their integer rows (``linalg.add_rows``, an odd face over its
    negated denominator); no rational is built."""
    signed = [
        (term.nums, -term.den if j % 2 else term.den)
        for j, term in enumerate(terms)
        if not term.is_zero()
    ]
    return Vector(*add_rows(signed)) if signed else Vector.zeros(n)


def _pair_linear(nmat: Matrix, beta_constants: Vector, delta: Vector) -> Vector:
    """Nᵀβ₀ - δ, the linear part of a pair residual: the residual of N's
    columns against β₀ and δ (:func:`_residual`)."""
    diffs = list(_residual(zip(*nmat.nums), nmat.den, beta_constants, (delta.nums, delta.den)))
    return Vector(diffs, nmat.den * beta_constants.den * delta.den)


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
    it, in one loop (module docstring): a pair's δ and β are its entry of
    ``fits.pairs``, a triple's defect the alternating sum of the βs there
    under its faces' chart names, and r is zero when that sum vanishes, None
    otherwise.  Nothing is eliminated, subtracted again or rechecked."""
    alpha, beta, r, pairs, triples = {}, {}, {}, {}, {}
    for cell, fit in fits.items():
        if cell.degree == 0:
            alpha[cell] = canonical_alpha(fit)
        elif cell.degree == 1:
            delta, constants = fits.pairs[cell.chart_names]
            beta[cell] = _slot_element(fit.base, constants, {})
            pairs[cell] = PairCheck(delta, constants, LinearizedElement(0, Vector.zeros(fit.n)))
        elif cell.degree == 2:
            defect = _face_sum([fits.pairs[face][1] for face in cell.faces()], fit.n)
            r[cell] = KoszulElement.zero(2, fit.base) if defect.is_zero() else None
            triples[cell] = TripleCheck(defect, r[cell], {})
    cochain = TotalCochain(alpha=alpha, beta=beta, r=r)
    return cochain, ObstructionReport(pairs=pairs, triples=triples)


def verify_cocycle(cochain: TotalCochain, fits: dict) -> ObstructionReport:
    """Recheck every supplied cocycle equation exactly, on vectors.

    Pairs: ι(β) = (N·β₀)·(a - â) must equal the alphas' discrepancy
    α_j - α_i = (α_j.c0 - α_i.c0) + δ·(a - â), so the residual has constant
    -(α_j - α_i).c0 and linear part N·β₀ - δ, taken as Nᵀβ₀ - δ (the form ι
    has for any N) on integers (:func:`_pair_linear`).  Triples: ι(r), zero
    when r is absent and computed only for a supplied witness, must equal
    the alternating face sum of the betas, slot by slot; ι(r) has no
    constant term, so slot m of the residual is (-defect_m, ι(r).c_m -
    Σ±β.c_m), of which the nonzero linear parts are kept.  A cell without a
    fit or a lower layer raises :class:`CellMismatch`; a beta or witness
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
        discrepancy = alpha_j - alpha_i
        slots = [beta.coefficient((m,)) for m in range(1, fit.n + 1)]
        den, nums = over_lcm([slot.num for slot in slots], [slot.den for slot in slots])
        beta_constants = Vector(nums, den)
        linear = _pair_linear(fit.nmat, beta_constants, discrepancy.c)
        residual = LinearizedElement.of_parts(-discrepancy.num, discrepancy.den, linear)
        pairs[cell] = PairCheck(discrepancy.c, beta_constants, residual)

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
        image = {} if witness is None else koszul_diff(witness, fit).coeffs
        linear = {}
        for m in range(1, fit.n + 1):
            betas = _face_sum([cochain.beta[face].coefficient((m,)).c for face in faces], fit.n)
            coeff = image.get((m,))
            part = -betas if coeff is None else coeff.c - betas
            if not part.is_zero():
                linear[m] = part
        triples[cell] = TripleCheck(constants, witness, linear)
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
    """Float Euclidean norm; None when it lies beyond the float range.

    The square is Σ pᵢ² / d² over the vector's denominator d, and int true
    division rounds that ratio correctly, as ``float`` of the reduced
    rational would, so no gcd is taken."""
    nums, den = vec.nums, vec.den
    # ints, as Fraction.__float__ takes them: int true division on either backend
    square, den_sq = int(sum(map(mul, nums, nums))), int(den * den)
    try:
        return sqrt(square / den_sq)
    except OverflowError:
        pass
    # The square overflows but the norm may not: root of square / 4^k, times 2^k.
    k = (square.bit_length() - den_sq.bit_length()) // 2
    try:
        return ldexp(sqrt(square / (den_sq << 2 * k)), k)
    except OverflowError:
        return None


def _index_key(idx) -> str:
    """A slot key: the entries of ``idx`` as canonical JSON integers, no spaces."""
    return "[" + ",".join(map(str, idx)) + "]"


class ReportStrings:
    """The `p/q` strings (``scalars.pair_str``) of one report's vectors, each
    vector converted once.

    A vector's list is kept by the vector object, so every field that writes
    that vector holds the one list; the vector is kept with it, so that its
    ``id`` cannot be reused while the strings are.  Its entries are reduced
    here, each by one gcd with the vector's denominator.
    """

    __slots__ = ("_vectors",)

    def __init__(self):
        self._vectors = {}

    def vector(self, vec: Vector) -> list:
        key = id(vec)
        held = self._vectors.get(key)
        if held is None:
            den = vec.den
            texts = []
            for num in vec.nums:
                common = gcd(num, den)
                texts.append(pair_str(num // common, den // common))
            held = self._vectors[key] = (vec, texts)
        return held[1]


def _negated(text: str) -> str:
    """The spelling of the negative of the value spelled ``text``."""
    if text.startswith("-"):
        return text[1:]
    return text if text == "0" else "-" + text


def koszul_to_json(element: KoszulElement, strings: ReportStrings | None = None) -> dict:
    """Serialize as a map from index tuples (e.g. ``"[1,2]"``) to coefficients,
    each written with the element's base; the vectors are converted by
    ``strings``, a fresh :class:`ReportStrings` when None, and each ``c0``
    from its integers by ``scalars.pair_str``."""
    if strings is None:
        strings = ReportStrings()
    slots = [
        (idx, pair_str(coeff.num, coeff.den), coeff.c)
        for idx, coeff in sorted(element.coeffs.items())
    ]
    return _slots_to_json(slots, element.base, strings)


def _slots_to_json(slots: list, base: Vector, strings: ReportStrings) -> dict:
    """The JSON form of Koszul coefficients given as (index tuple, spelled
    c0, linear part c), in order, each written with ``base``."""
    base_text = strings.vector(base)
    return {
        _index_key(idx): {"c0": c0, "c": strings.vector(c), "base": base_text}
        for idx, c0, c in slots
    }


def koszul_from_json(
    doc: dict, degree: int, base: Vector, seen: dict | None = None
) -> KoszulElement:
    """Parse the :func:`koszul_to_json` format, enforcing the expected shape.

    A key is read only when written as the writer writes it: its entries
    are read by ``int`` and must spell the key again by :func:`_index_key`
    (``"[1,2]"``: no spaces, no sign but ``-``, no leading zero, no ``-0``,
    ASCII digits only, no entry past the digit limit), so two keys can
    never name the same wedge slot.  Every coefficient's ``"base"`` must
    equal ``base``.  The ``"base"`` and ``"c"`` lists are read through
    ``seen`` (:func:`_vector_from_strings`), and each ``"c0"`` as a list of
    one literal (``scalars.literal_row``), so no rational is built."""
    if not isinstance(doc, dict):
        raise LsglueError("Koszul element JSON must be an object")
    if seen is None:
        seen = {}
    coeffs = {}
    for key, record in doc.items():
        try:
            idx = tuple(map(int, key[1:-1].split(","))) if key != "[]" else ()
            if _index_key(idx) != key:
                raise ValueError
        except ValueError:
            raise LsglueError(f"bad index tuple key {excerpt(repr(key))}") from None
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("c0"), str)
            or not isinstance(record.get("c"), list)
            or not isinstance(record.get("base"), list)
        ):
            raise LsglueError(
                f"coefficient at {excerpt(key)} needs string 'c0' and arrays 'c' and 'base'"
            )
        parsed_base = _vector_from_strings(record["base"], seen)
        if parsed_base != base:
            raise LsglueError(
                f"coefficient at {excerpt(key)} is based at"
                f" {excerpt(str(ReportStrings().vector(parsed_base)))},"
                f" expected {excerpt(str(ReportStrings().vector(base)))}"
            )
        # a row of one literal, unreduced: of_parts reduces it
        [num], den = literal_row([record["c0"]])
        coeffs[idx] = LinearizedElement.of_parts(num, den, _vector_from_strings(record["c"], seen))
    return KoszulElement.build(degree, base, coeffs)


def _vector_from_strings(strings: list, seen: dict) -> Vector:
    """A report vector: its literals lifted over one denominator
    (``scalars.literal_row``), brought to lowest terms by the ``Vector``.

    ``seen`` is one document's ``{tuple of literals: Vector}``, filled as the
    document is read.  So each distinct list is parsed once, and a list of
    strings equal to one read before, â's in a slot's ``base`` say, is that
    same Vector without a parse."""
    if not all(isinstance(s, str) for s in strings):
        # the list is refused: the reader names its first bad entry
        return Vector(*literal_row(strings))
    key = tuple(strings)
    vector = seen.get(key)
    if vector is None:
        vector = seen[key] = Vector(*literal_row(strings))
    return vector


def _exact(name: str, vec: Vector, strings: ReportStrings) -> dict:
    """A vector's report fields: exact `p/q` strings under ``name``, advisory
    floats under ``name_float``, each entry's numerator divided by the
    vector's denominator unreduced (``scalars.pair_float``)."""
    den = vec.den
    return {
        name: strings.vector(vec),
        f"{name}_float": [pair_float(num, den) for num in vec.nums],
    }


def _cell_record(cell: NerveCell, fit: LinearizedDifferential, strings: ReportStrings) -> dict:
    """The fields every cell record starts with: its indices and its â."""
    return {"indices": sorted(cell.indices), **_exact("a_hat", fit.base, strings)}


def report_to_json(
    cochain: TotalCochain,
    fits: dict,
    report: ObstructionReport,
    strings: ReportStrings | None = None,
) -> dict:
    """Serialize the cochain and its report, derived or checked; rationals as
    `p/q` strings, float companions advisory only.  The values are converted
    by ``strings``, a fresh :class:`ReportStrings` when None, so the fields
    that write one vector, â in ``a_hat``, in α and in every slot's ``base``,
    hold one list object."""
    if strings is None:
        strings = ReportStrings()
    charts = {
        cell.label: {
            **_cell_record(cell, fits[cell], strings),
            "alpha": koszul_to_json(cochain.alpha[cell], strings),
        }
        for cell in cochain.alpha
    }
    pairs = {
        cell.label: {
            **_cell_record(cell, fits[cell], strings),
            **_exact("delta", check.delta, strings),
            "beta": koszul_to_json(cochain.beta[cell], strings),
            "residual_zero": check.residual_zero,
        }
        for cell, check in report.pairs.items()
    }
    triples = {
        cell.label: {
            **_cell_record(cell, fits[cell], strings),
            **_exact("defect_constant", check.defect_constant, strings),
            "r": None if check.witness is None else koszul_to_json(check.witness, strings),
            "obstructed": check.obstructed,
            "residual_zero": check.residual_zero,
        }
        for cell, check in report.triples.items()
    }
    metrics = discrepancy_metrics(report)
    return {"charts": charts, "pairs": pairs, "triples": triples, "metrics": metrics}


def cochain_from_json(doc: dict, fits: dict, seen: dict | None = None) -> TotalCochain:
    """Parse a report produced by :func:`report_to_json` back into a cochain,
    each layer in the order of ``fits``, every list read through ``seen``
    (:func:`_vector_from_strings`; pass the one :func:`claims_from_json` of
    the same document filled, and â's lists are not parsed again).

    Cells are resolved by label against ``fits``; unknown labels, elements
    based away from their cell's fit, and a chart, pair or triple of ``fits``
    without a record (the first in the order of ``fits``) are structural
    errors (:class:`LsglueError`), not verification failures.
    """
    if not isinstance(doc, dict):
        raise LsglueError("cochain JSON must be an object")
    if seen is None:
        seen = {}
    by_label = {cell.label: cell for cell in fits}
    # each record's element, or None for an optional field (``"r"``) that is
    # absent or null; a parse error is prefixed with the section and label
    parsed = {}
    for degree, (section, field) in enumerate(zip(_SECTIONS, ("alpha", "beta", "r"))):
        required = field != "r"
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
                    element = koszul_from_json(element, degree, fits[cell].base, seen)
                except LsglueError as err:
                    err.args = (f"{entry}: {err}",)
                    raise
            parsed[cell] = element
    layers = ({}, {}, {})
    for cell in fits:
        if cell.degree < len(_SECTIONS):
            if cell not in parsed:
                raise LsglueError(
                    f"cochain {_SECTIONS[cell.degree]!r} lacks a record for cell"
                    f" {excerpt(repr(cell.label))}"
                )
            layers[cell.degree][cell] = parsed[cell]
    return TotalCochain(*layers)


def fits_to_json(fits: dict) -> dict:
    """Serialize per-cell least-squares solutions (the `fit` command payload)."""
    strings = ReportStrings()
    return {
        "cells": {
            cell.label: {"degree": cell.degree, **_cell_record(cell, fits[cell], strings)}
            for cell in fits
        }
    }
