"""Feature maps, exact weighted normal systems, and least-squares solving.

The model is f(x, a) = φ(x)·a with φ a monomial feature map, so the weighted
squared-error gradient in a is affine:  η = ν + N·a  with

    ν_k = -2 Σ_j w_j y_j φ(x_j)_k          N_{kl} = 2 Σ_j w_j φ(x_j)_k φ(x_j)_l.

Both are sums of per-point terms, exactly linear in the weights, so the
system of a union of disjoint point groups is the sum of the groups' systems
(:func:`sum_normal_systems`).  A :class:`NormalSystem` is just the pair
(ν, N); restricting to a chart is a map on the data (``data.restrict`` zeroes
the weights outside it) followed by :func:`build_normal_system`.  The fit path
evaluates each membership atom of the cover once and sums the atoms of every
cell.  N is symmetric, and positive semidefinite whenever all weights are
nonnegative; the minimizer solves N·â = -ν.

The sums are accumulated on integers, read from the integer rows of the
data set (``data.WeightedDataSet.rows``); no rational is built per point or
per monomial.  The points of weight 0 are dropped, and each remaining
coordinate is a (numerator, denominator) pair.  For a point with
coordinates x_i = p_i/q_i, E_i the largest exponent of coordinate i over the
monomials, the features are φ_k = P_k/D with P_k = Π_i p_i^e_ki·q_i^(E_i - e_ki)
and D = Π_i q_i^E_i.  Divided by gcd(D, P_1, ..., P_n), D is the least common
denominator of φ and P = D·φ: exactly the integers ``linalg.over_lcm``
lifts φ to.  They are computed column by column over an atom's points, one
power table per coordinate and exponent (:func:`_integer_features`).  The
term 2wφ_kφ_l of a point is 2w_num·P_kP_l over w_den·D², and -2wyφ_k is
-2w_num·y_num·P_k over w_den·y_den·D.  One lcm of those denominators is taken
per atom, for N and for ν, and each term is lifted over it (``linalg.over_lcm``);
every entry of the upper triangle of N and of ν is then one integer dot
product over the points.  N is the mirrored triangle's integer rows over its
lcm (``linalg.Matrix``), and ν integers over its lcm (``linalg.Vector``),
both brought to lowest terms by their constructors, so the result does not
depend on the order of the points.  A power longer than the interpreter's
limit on decimal integer strings is refused before any power of the point is
computed: the length of p^e grows with e and with |p|, so the widest
numerator and denominator of each coordinate at E_i clear every point at
once, and only when they do not are the points tested one by one, every
monomial of each on its (p_i, q_i) pairs (:func:`_refuse_long_powers`, the
guard :meth:`FeatureMap.evaluate` runs too), which raises the error naming
the first offending monomial of the first such point.

A :class:`NormalSystem` holds ν as a ``linalg.Vector`` and N as a
``linalg.Matrix``: integers over one positive denominator in lowest terms.
The systems of a cell's atoms are added on those integers
(:func:`sum_normal_systems`): their ν are added over the lcm of their
denominators, and so are the integer rows of their N (``linalg.add_rows``).
Only ``.numerator``, ``.denominator`` and ``scalars.rat`` are used, so every
scalar backend takes the same path.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import floordiv, getitem, mul

from .errors import DimensionMismatch, LsglueError, Singular, excerpt
from .linalg import (
    Matrix,
    Value,
    Vector,
    add_rows,
    over_lcm,
    solve_square,
)
from .scalars import digit_limit, over_digit_limit, rat


class FeatureMap(Value):
    """Monomial features: one exponent vector over the ambient coordinates per
    parameter slot."""

    __slots__ = ("monomials",)

    def __init__(self, monomials: tuple):
        object.__setattr__(self, "monomials", monomials)
        if not self.monomials:
            raise LsglueError("feature map needs at least one monomial")
        width = len(self.monomials[0])
        for mono in self.monomials:
            if len(mono) != width:
                raise DimensionMismatch("monomial exponent vectors have mixed lengths")
            if any((not isinstance(e, int)) or e < 0 for e in mono):
                raise LsglueError("monomial exponents must be nonnegative integers")

    @classmethod
    def of(cls, exponents) -> "FeatureMap":
        return cls(tuple(tuple(int(e) for e in mono) for mono in exponents))

    @property
    def param_dim(self) -> int:
        return len(self.monomials)

    @property
    def ambient_dim(self) -> int:
        return len(self.monomials[0])

    def evaluate(self, x: Vector) -> Vector:
        """φ(x).  A power whose numerator or denominator would be longer than
        the interpreter's limit on decimal integer strings is refused before
        it is computed (no bound when that limit is off)."""
        if x.dim != self.ambient_dim:
            raise DimensionMismatch(
                f"feature map over {self.ambient_dim} coordinates applied to dim-{x.dim} point"
            )
        _refuse_long_powers([[(v.numerator, v.denominator) for v in x]], self.monomials)
        values = []
        for mono in self.monomials:
            term = rat(1)
            for coord, exp in zip(x, mono):
                if exp:
                    term = term * coord**exp
            values.append(term)
        return Vector.of(values)


def _refuse_long_powers(points, monomials) -> None:
    """Raise the error naming the first monomial of the first point, each
    point its coordinates' (numerator, denominator) pairs in lowest terms,
    that holds a power longer than the digit limit (:func:`_too_long`)."""
    max_bits = _max_bits(digit_limit())
    if not max_bits:
        return
    for x in points:
        for mono in monomials:
            if any(
                _too_long(num, exp, max_bits) or _too_long(den, exp, max_bits)
                for (num, den), exp in zip(x, mono)
            ):
                raise LsglueError(
                    over_digit_limit(f"a power in monomial {excerpt(str(list(mono)))}")
                )


# _max_bits by digit limit, computed once each.
_MAX_BITS = {}


def _max_bits(digits: int) -> int:
    """The bit length of the largest ``digits``-digit integer; 0 for no limit."""
    bits = _MAX_BITS.get(digits)
    if bits is None:
        bits = _MAX_BITS[digits] = (10**digits - 1).bit_length() if digits else 0
    return bits


def _too_long(value: int, exp: int, max_bits: int) -> bool:
    """Whether value**exp has more than ``max_bits`` bits.  It has between
    exp·(b - 1) + 1 and exp·b bits, b the bit length of |value|; only in that
    band is the power computed, and it then has fewer than 2·max_bits bits."""
    bits = abs(value).bit_length()
    if bits <= 1 or exp * bits <= max_bits:
        return False
    return exp * (bits - 1) + 1 > max_bits or (abs(value) ** exp).bit_length() > max_bits


def affine_features(ambient_dim: int) -> FeatureMap:
    """φ(x) = (x_1, ..., x_N, 1); param_dim = ambient_dim + 1."""
    if ambient_dim < 1:
        raise LsglueError("ambient_dim must be >= 1")
    coords = [
        tuple(1 if j == i else 0 for j in range(ambient_dim)) for i in range(ambient_dim)
    ]
    return FeatureMap(tuple(coords) + ((0,) * ambient_dim,))


class NormalSystem(Value):
    """The pair (ν, N) of one weighted data set, each in one exact form: ν a
    :class:`~lsglue.linalg.Vector` and N a :class:`~lsglue.linalg.Matrix`,
    both integers over one positive denominator in lowest terms, so equal
    systems have equal fields."""

    __slots__ = ("nu", "nmat")

    def __init__(self, nu: Vector, nmat: Matrix):
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "nmat", nmat)

    @property
    def param_dim(self) -> int:
        return self.nu.dim


def _evaluate(rows, features: FeatureMap) -> NormalSystem:
    # Per point j, with P = D·φ integer and D the lcm of the denominators of
    # φ: 2wφ_kφ_l = 2w·P_kP_l / D² and -2wyφ_k = -2wy·P_k / D.  Every term
    # of N is lifted over L, the lcm of their denominators w_den·D², and
    # every term of ν likewise (linalg.over_lcm); each entry is then one
    # integer dot product over the points.
    n = features.param_dim
    live = [row for row in rows if row[2][0]]
    if not live:
        return NormalSystem(Vector.zeros(n), Matrix(((0,) * n,) * n, 1, n))
    used, levels, exponents = _plan(features.monomials)
    xs, ys, ws = zip(*live)
    (y_nums, y_dens), (w_nums, w_dens) = zip(*ys), zip(*ws)
    coords = [tuple(zip(*(x[i] for x in xs))) for i in used]
    max_bits = _max_bits(digit_limit())
    # _too_long grows with the exponent and with |value|, so the top
    # exponents and the widest values decide; only then is each point tested
    if max_bits and any(
        exps[-1] * max(max(nums), -min(nums), max(dens)).bit_length() > max_bits
        for (nums, dens), exps in zip(coords, levels)
    ):
        _refuse_long_powers(xs, features.monomials)
    p, d = _integer_features(coords, levels, exponents, len(xs))
    n_den, c = over_lcm([2 * w for w in w_nums], list(map(mul, w_dens, map(mul, d, d))))
    upper = []
    for k in range(n):
        ck = list(map(mul, c, p[k]))
        upper.append([sum(map(mul, ck, p[l])) for l in range(k, n)])
    nmat = Matrix(
        tuple(tuple(upper[l][k - l] for l in range(k)) + tuple(upper[k]) for k in range(n)),
        n_den,
        n,
    )
    nu_den, c = over_lcm(
        [-2 * w * y for w, y in zip(w_nums, y_nums)],
        list(map(mul, map(mul, w_dens, y_dens), d)),
    )
    return NormalSystem(Vector([sum(map(mul, c, column)) for column in p], nu_den), nmat)


# _plan by monomials, computed once each.
_PLANS = {}


def _plan(monomials: tuple) -> tuple:
    """(used, levels, exponents) of a feature map's monomials: the indices
    of the coordinates some monomial raises to a positive power, the sorted
    exponents each of them takes over the monomials (the top one last), and
    each monomial's exponents of those coordinates."""
    plan = _PLANS.get(monomials)
    if plan is None:
        levels = [sorted(set(column)) for column in zip(*monomials)]
        used = [i for i, exps in enumerate(levels) if exps[-1]]
        plan = _PLANS[monomials] = (
            used,
            [levels[i] for i in used],
            [[mono[i] for i in used] for mono in monomials],
        )
    return plan


def _integer_features(coords: list, levels: list, exponents: list, m: int) -> tuple:
    """(P, D): φ of m points as ``over_lcm`` lifts each, column by
    column, from each coordinate a monomial uses, given as the tuples of the
    m points' numerators and denominators, the sorted exponents the
    monomials give it (its top exponent E_i last) and each monomial's
    exponents of those coordinates.  P holds one list of m integers per
    monomial, D one of m denominators.

    With x_i = p_i/q_i, φ_k = P_k/D for P_k = Π p_i^e_ki·q_i^(E_i - e_ki) and
    D = Π q_i^E_i; divided by g = gcd(D, *P), D is the least integer that
    clears every φ_k, the lcm of their denominators, and P = D·φ.  Only the
    powers at the exponents in ``levels``, and at 0, are taken.
    """
    tables = []
    for (nums, dens), exps in zip(coords, levels):
        top = exps[-1]
        tables.append({e: _powers(nums, dens, e, top) for e in {0, *exps}})
    d = _product([table[0] for table in tables], m)
    p = [_product(list(map(getitem, tables, mono)), m) for mono in exponents]
    g = list(map(gcd, d, *p))
    if max(g) > 1:
        d = list(map(floordiv, d, g))
        p = [list(map(floordiv, column, g)) for column in p]
    return p, d


def _powers(nums: tuple, dens: tuple, e: int, top: int):
    """p^e·q^(top - e) for each numerator p and denominator q."""
    if e == top:
        return nums if e == 1 else [v**e for v in nums]
    if e == 0:
        return dens if top == 1 else [v**top for v in dens]
    return [a**e * b ** (top - e) for a, b in zip(nums, dens)]


def _product(columns: list, m: int):
    """The entrywise product of ``columns``, lists of m integers; m ones for
    none."""
    if not columns:
        return [1] * m
    out = columns[0]
    for column in columns[1:]:
        out = list(map(mul, out, column))
    return out


def build_normal_system(data, features: FeatureMap) -> NormalSystem:
    """Evaluate the weighted normal system of ``data`` under ``features``."""
    if data.ambient_dim != features.ambient_dim:
        raise DimensionMismatch(
            f"features over {features.ambient_dim} coordinates vs ambient dim {data.ambient_dim}"
        )
    return _evaluate(data.rows, features)


def sum_normal_systems(systems: list) -> NormalSystem:
    """The normal system of the union of disjoint point groups, one
    :class:`NormalSystem` each: the sum of their ν and the sum of their N,
    each added as integers over the lcm of the groups' denominators
    (``linalg.add_rows``; N's rows read end to end)."""
    nu = Vector(*add_rows((s.nu.nums, s.nu.den) for s in systems))
    flat, den = add_rows((chain.from_iterable(s.nmat.nums), s.nmat.den) for s in systems)
    n = len(nu)
    nmat = Matrix([flat[k * n : k * n + n] for k in range(n)], den, n)
    return NormalSystem(nu, nmat)


class LSSolution(Value):
    """Exact least-squares parameters; ν + N·â = 0 at the solved weights.
    ``also`` holds N⁻¹v for each further right-hand side v the system was
    solved against, in order."""

    __slots__ = ("a_hat", "also")

    def __init__(self, a_hat: Vector, also: tuple = ()):
        object.__setattr__(self, "a_hat", a_hat)
        object.__setattr__(self, "also", also)


def solve_least_squares(
    system: NormalSystem, chart: str | None = None, also: tuple = ()
) -> LSSolution:
    """Solve N·â = -ν exactly, and N·x = v for each v in ``also``, in one
    elimination of N; raises :class:`Singular` carrying rank(N) when the
    chart has too few effective points for the parameter dimension."""
    try:
        a_hat, *rest = solve_square(system.nmat, -system.nu, *also)
    except Singular as err:
        raise Singular(
            f"normal matrix is singular on {excerpt(chart or 'chart')}"
            f" (rank {err.rank} < {system.param_dim})",
            rank=err.rank,
            cell=chart,
        ) from None
    return LSSolution(a_hat=a_hat, also=tuple(rest))


def loss_eval(data, features: FeatureMap, a: Vector):
    """Exact weighted sum of squared residuals Σ w_j (y_j - φ(x_j)·a)²."""
    if a.dim != features.param_dim:
        raise DimensionMismatch(
            f"parameter dim {a.dim} vs feature count {features.param_dim}"
        )
    total = rat(0)
    for p in data.points:
        if p.weight == 0:
            continue
        residual = p.y - features.evaluate(p.x).dot(a)
        total += p.weight * residual * residual
    return total


def model_from_json(doc: dict, ambient_dim: int) -> FeatureMap:
    """Parse ``{"features": "affine"}`` or
    ``{"features": "monomials", "exponents": [[1],[0]]}``."""
    if not isinstance(doc, dict) or "features" not in doc:
        raise LsglueError("model JSON must be an object with a 'features' field")
    kind = doc["features"]
    if kind == "affine":
        return affine_features(ambient_dim)
    if kind == "monomials":
        exponents = doc.get("exponents")
        if not isinstance(exponents, list) or not exponents:
            raise LsglueError("monomial model needs a nonempty 'exponents' array")
        for mono in exponents:
            if not isinstance(mono, list) or any(type(e) is not int for e in mono):
                raise LsglueError(
                    f"monomial exponents must be arrays of integers, got {excerpt(repr(mono))}"
                )
        features = FeatureMap.of(exponents)
        if features.ambient_dim != ambient_dim:
            raise DimensionMismatch(
                f"model exponents cover {features.ambient_dim} coordinates,"
                f" dataset has {ambient_dim}"
            )
        return features
    raise LsglueError(f"unknown feature kind {excerpt(repr(kind))}")
