"""Independent brute-force reference implementations used by the tests.

Everything here works on plain ``fractions.Fraction`` lists and recomputes
every weighted sum from scratch.  Determinants, ranks and solutions come from
Gauss-Jordan elimination on Fraction rows, which imports nothing from the
package, and inverses from adjugates and Cramer's rule on those
determinants -- a deliberately different path from the package's integer
forward elimination with back-substitution, its modular rank and its
integer-numerator accumulation of the normal sums, so agreement between the
two is meaningful.

The one exception is :func:`koszul_verify`, the cocycle check written with
the package's Koszul arithmetic (``translate``, ``koszul_diff``, element
subtraction), as the paper states the equations; ``verify_cocycle`` checks
the same equations on plain vectors.  :func:`slot_key_accepted` decides a
wedge-slot key by a JSON round trip instead of the package's grammar, and
:func:`two_pattern_rational` reads a rational literal with two patterns, one
for ``p`` and ``p/q`` and one for decimals, where the package has one.
"""

import json
import re
from fractions import Fraction
from itertools import combinations

from lsglue.assembly import ObstructionReport, PairCheck, TripleCheck
from lsglue.errors import CellMismatch, MalformedNumber, ZeroDenominator, excerpt
from lsglue.koszul import KoszulElement, koszul_diff, translate
from lsglue.linalg import Vector
from lsglue.scalars import Rational, over_digit_limit

F = Fraction


def phi_eval(x, exponents):
    """Monomial features of a point; ``x`` is a tuple of Fractions."""
    values = []
    for mono in exponents:
        term = F(1)
        for coord, exp in zip(x, mono):
            term *= coord**exp
        values.append(term)
    return values


def normal_sums(points, weights, exponents):
    """(nu, N) by direct summation: nu_k = -2 Σ w y φ_k, N_kl = 2 Σ w φ_k φ_l."""
    n = len(exponents)
    nu = [F(0)] * n
    nmat = [[F(0)] * n for _ in range(n)]
    for (x, y), w in zip(points, weights):
        phi = phi_eval(x, exponents)
        for k in range(n):
            nu[k] += F(-2) * y * phi[k] * w
            for l in range(n):
                nmat[k][l] += F(2) * phi[k] * w * phi[l]
    return nu, nmat


def _gauss_jordan(m):
    """(rows, pivots, factor): ``m`` in reduced row echelon form by
    Gauss-Jordan elimination over Fractions, pivoting on the first nonzero
    entry of each column, the pivot column of each nonzero row, and the
    product of the pivots as found, negated once per row swap."""
    rows = [[F(v) for v in row] for row in m]
    pivots, factor = [], F(1)
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        hit = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if hit is None:
            continue
        if hit != top:
            rows[top], rows[hit] = rows[hit], rows[top]
            factor = -factor
        pivot = rows[top][col]
        factor *= pivot
        # every entry of the pivot row left of its pivot is zero
        tail = [v / pivot for v in rows[top][col:]]
        rows[top][col:] = tail
        for r, row in enumerate(rows):
            f = row[col]
            if r != top and f:
                row[col:] = [a - f * b if b else a for a, b in zip(row[col:], tail)]
        pivots.append(col)
    return rows, pivots, factor


def det(m):
    """Determinant: the signed product of the pivots, 0 short of full rank."""
    _, pivots, factor = _gauss_jordan(m)
    return factor if len(pivots) == len(m) else F(0)


def rank(m):
    """Rank as the number of pivots."""
    return len(_gauss_jordan(m)[1])


def adjugate_inverse(m):
    """Inverse via adjugate / determinant; None when singular."""
    size = len(m)
    d = det(m)
    if d == 0:
        return None
    inv = [[F(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            minor = [
                [m[r][c] for c in range(size) if c != j] for r in range(size) if r != i
            ]
            cof = det(minor)
            if (i + j) % 2:
                cof = -cof
            inv[j][i] = cof / d
    return inv


def cramer_solve(m, b):
    """Solve m x = b by Cramer's rule; None when singular."""
    d = det(m)
    if d == 0:
        return None
    size = len(m)
    out = []
    for j in range(size):
        replaced = [[m[i][c] if c != j else b[i] for c in range(size)] for i in range(size)]
        out.append(det(replaced) / d)
    return out


def some_solution(m, b):
    """A solution of m x = b, None when there is none: the reduced echelon
    form of [m | b], every unknown without a pivot zero."""
    ncols = len(m[0])
    rows, pivots, _ = _gauss_jordan([list(row) + [v] for row, v in zip(m, b)])
    if ncols in pivots:
        return None
    solution = [F(0)] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = row[ncols]
    return solution


def matvec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def restrict_weights(weights, keep):
    keep_set = set(keep)
    return [w if (i + 1) in keep_set else F(0) for i, w in enumerate(weights)]


def chart_fit(points, weights, keep, exponents):
    """Least-squares parameters on a chart: solve N a = -nu by Cramer."""
    nu, nmat = normal_sums(points, restrict_weights(weights, keep), exponents)
    return cramer_solve(nmat, [-v for v in nu])


def cover_data(points, weights, charts, exponents):
    """Recompute every fit, pair witness, and triple defect from scratch.

    ``charts`` maps chart name -> set of 1-based indices.  Returns a dict with
    ``fits`` (name -> a),  ``pairs`` ((ni, nj) -> {"delta", "nmat", "beta",
    "a"}) and ``triples`` ((ni, nj, nk) -> defect vector); any singular cell
    is returned under ``singular`` instead.
    """
    names = sorted(charts)
    fits = {}
    for name in names:
        a = chart_fit(points, weights, charts[name], exponents)
        if a is None:
            return {"singular": (name,)}
        fits[name] = a

    pairs = {}
    for ni, nj in combinations(names, 2):
        common = set(charts[ni]) & set(charts[nj])
        if not common:
            continue
        a = chart_fit(points, weights, common, exponents)
        if a is None:
            return {"singular": (ni, nj)}
        _, nmat = normal_sums(points, restrict_weights(weights, common), exponents)
        delta = [fj - fi for fi, fj in zip(fits[ni], fits[nj])]
        beta = matvec(adjugate_inverse(nmat), delta)
        pairs[(ni, nj)] = {"a": a, "delta": delta, "nmat": nmat, "beta": beta}

    triples = {}
    for ni, nj, nk in combinations(names, 3):
        common = set(charts[ni]) & set(charts[nj]) & set(charts[nk])
        if not common:
            continue
        a = chart_fit(points, weights, common, exponents)
        if a is None:
            return {"singular": (ni, nj, nk)}
        b_jk = pairs[(nj, nk)]["beta"]
        b_ik = pairs[(ni, nk)]["beta"]
        b_ij = pairs[(ni, nj)]["beta"]
        triples[(ni, nj, nk)] = [
            jk - ik + ij for jk, ik, ij in zip(b_jk, b_ik, b_ij)
        ]
    return {"fits": fits, "pairs": pairs, "triples": triples}


def nerve(charts, max_degree):
    """Nerve cells by brute force over all C(k, d+1) chart tuples.

    ``charts`` maps chart name -> set of 1-based indices.  Returns
    ``(names, indices)`` pairs, names sorted, in (degree, names) order, for
    every tuple of at most ``max_degree + 1`` charts with a nonempty common
    intersection.
    """
    names = sorted(charts)
    cells = []
    for degree in range(max_degree + 1):
        for combo in combinations(names, degree + 1):
            common = frozenset.intersection(*(frozenset(charts[n]) for n in combo))
            if common:
                cells.append((combo, common))
    return cells


def as_fractions(vec) -> list:
    """Convert package rationals (any backend) to plain Fractions."""
    return [F(int(v.numerator), int(v.denominator)) for v in vec]


TOY_POINTS = [
    ((F(-4),), F(2)),
    ((F(-1),), F(1)),
    ((F(1),), F(2)),
    ((F(2),), F(4)),
    ((F(5),), F(6)),
]
TOY_WEIGHTS = [F(1)] * 5
AFFINE_1D = [(1,), (0,)]


def cech_delta_pair(alpha_i, alpha_j, pair):
    """Translate both chart elements to the overlap's base and take j - i.

    For canonical alphas the result is δ·(a - â_pair) with δ = â_j - â_i;
    swapping the charts negates it.
    """
    return translate(alpha_j, pair.base) - translate(alpha_i, pair.base)


def _ordered(cells):
    return sorted(cells, key=lambda cell: (cell.degree, cell.chart_names))


def _slot_constants(element):
    return Vector(
        tuple(element.coefficient((m,)).c0 for m in range(1, element.n + 1))
    )


def koszul_verify(cochain, fits):
    """The exact cocycle check in Koszul arithmetic, with the same report,
    residuals and structural errors as ``assembly.verify_cocycle``.

    Pairs: ι(β) - (translated α_j - translated α_i), whose one coefficient
    is the check's residual.  Triples: ι(r) (zero without a witness) minus
    the alternating sum of the face betas translated to the triple's base;
    its slot constants must be -defect, and its nonzero slot linear parts
    are the check's ``linear``.
    """
    by_names = {cell.chart_names: cell for cell in fits}
    pairs = {}
    for cell in _ordered(cochain.beta):
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
        target = cech_delta_pair(
            cochain.alpha[by_names[(name_i,)]],
            cochain.alpha[by_names[(name_j,)]],
            fits[cell],
        )
        image = koszul_diff(cochain.beta[cell], fits[cell])
        pairs[cell] = PairCheck(
            delta=target.coefficient(()).c,
            beta_constants=_slot_constants(cochain.beta[cell]),
            residual=(image - target).coefficient(()),
        )

    triples = {}
    for cell in _ordered(cochain.r):
        if cell not in fits:
            raise CellMismatch(f"no fit for triple cell {cell.label}")
        base = fits[cell].base
        defect = KoszulElement.zero(1, base)
        for position, face in enumerate(cell.faces()):
            face_cell = by_names.get(face)
            if face_cell is None or face_cell not in cochain.beta:
                raise CellMismatch(
                    f"triple {cell.label} needs a beta on face {'|'.join(face)}"
                )
            term = translate(cochain.beta[face_cell], base)
            defect = defect - term if position % 2 else defect + term
        constants = _slot_constants(defect)
        witness = cochain.r[cell]
        if witness is None:
            image = KoszulElement.zero(1, base)
        else:
            image = koszul_diff(witness, fits[cell])
        residual = image - defect
        coeffs = [residual.coefficient((m,)) for m in range(1, residual.n + 1)]
        assert [c.c0 for c in coeffs] == [-v for v in constants]
        triples[cell] = TripleCheck(
            defect_constant=constants,
            witness=witness,
            linear={m: c.c for m, c in enumerate(coeffs, 1) if not c.c.is_zero()},
        )
    return ObstructionReport(pairs=pairs, triples=triples)


def slot_key_accepted(key):
    """Whether ``key`` is a wedge-slot key as ``koszul_to_json`` writes it:
    it decodes as a JSON array of integers (no booleans) and encodes back to
    itself without spaces."""
    try:
        raw = json.loads(key)
    except (ValueError, RecursionError):
        return False
    return (
        isinstance(raw, list)
        and all(isinstance(i, int) and not isinstance(i, bool) for i in raw)
        and key == json.dumps(raw, separators=(",", ":"))
    )


_FRACTION_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")
_DECIMAL_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?\Z")


def two_pattern_rational(text):
    """``scalars.rational_from_string`` as written with two patterns: the
    same values, and the same error classes and messages, are expected."""
    if not isinstance(text, str):
        raise MalformedNumber(f"expected string, got {type(text).__name__}")
    body = text.strip()
    try:
        if _FRACTION_RE.match(body):
            if "/" in body:
                num_s, den_s = body.split("/")
                den = int(den_s)
                if den == 0:
                    raise ZeroDenominator(f"zero denominator in {excerpt(repr(text))}")
                return Rational(int(num_s), den)
            return Rational(int(body))
        if _DECIMAL_RE.match(body):
            return Rational(Fraction(body))
    except ValueError:
        what = f"rational literal {excerpt(repr(body))}"
        raise MalformedNumber(over_digit_limit(what)) from None
    raise MalformedNumber(f"cannot parse rational literal {excerpt(repr(text))}")
