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

The sums are accumulated on integers, and no rational is built per
monomial.  For a point with coordinates x_i = p_i/q_i, E_i the largest
exponent of coordinate i over the monomials, the features are φ_k = P_k/D
with P_k = Π_i p_i^e_ki·q_i^(E_i - e_ki) and D = Π_i q_i^E_i, read from a
table of the powers the monomials use.  Divided by gcd(D, P_1, ..., P_n), D is
the least common denominator of φ and P = D·φ: exactly the integers
``linalg.integer_row`` makes of φ, so the accumulation holds the same
integers that rational features would give it.  The terms are added as
integer numerators over a running common denominator of N (and another of
ν), and one rational per entry is built at the end, on the upper triangle of
N only.  A power longer than the interpreter's limit on decimal integer
strings is refused before any power of the point is computed: the length of
p^e grows with e, so testing p_i and q_i at E_i refuses exactly the points
that testing every monomial would, and :meth:`FeatureMap.evaluate` then
raises the error naming the first offending monomial.

The systems of a cell's atoms are added the same way: each atom's ν and N
are written once as integers over one denominator each
(:func:`integer_system`), and a cell adds them over the lcm of those
denominators, with one rational per entry (:func:`sum_normal_systems`).
Only ``.numerator``, ``.denominator`` and the backend's ``Rational``
constructor are used, so every scalar backend takes the same path.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from math import gcd, lcm, prod
from operator import getitem, mul

from .errors import DimensionMismatch, LsglueError, Singular, excerpt
from .linalg import Matrix, Value, Vector, integer_row, solve_square
from .scalars import ONE, ZERO, Rational, digit_limit, over_digit_limit


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
    def of(cls, exponents: Iterable[Iterable[int]]) -> "FeatureMap":
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
        max_bits = _max_bits(digit_limit())
        values = []
        for mono in self.monomials:
            term = ONE
            for coord, exp in zip(x, mono):
                if exp:
                    if max_bits and (
                        _too_long(coord.numerator, exp, max_bits)
                        or _too_long(coord.denominator, exp, max_bits)
                    ):
                        raise LsglueError(
                            over_digit_limit(f"a power in monomial {excerpt(str(list(mono)))}")
                        )
                    term = term * coord**exp
            values.append(term)
        return Vector(tuple(values))


@cache
def _max_bits(digits: int) -> int:
    """The bit length of the largest ``digits``-digit integer; 0 for no limit."""
    return (10**digits - 1).bit_length() if digits else 0


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
    """The pair (ν, N) of one weighted data set."""

    __slots__ = ("nu", "nmat")

    def __init__(self, nu: Vector, nmat: Matrix):
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "nmat", nmat)

    @property
    def param_dim(self) -> int:
        return self.nu.dim


def _evaluate(points, features: FeatureMap) -> NormalSystem:
    # Per point, with P = D·φ integer and D the lcm of the denominators of φ:
    # 2wφ_kφ_l = 2w·P_kP_l / D² and -2wyφ_k = -2wy·P_k / D.
    n = features.param_dim
    # the exponents each coordinate takes over the monomials, the top one last
    levels = [sorted(set(column)) for column in zip(*features.monomials)]
    used = [i for i, exps in enumerate(levels) if exps[-1]]
    levels = [levels[i] for i in used]
    exponents = [[mono[i] for i in used] for mono in features.monomials]
    max_bits = _max_bits(digit_limit())
    upper = [[0] * (n - k) for k in range(n)]
    nu_sum = [0] * n
    n_den = nu_den = 1
    for point in points:
        w = point.weight
        if w == 0:
            continue
        x = point.x.entries
        coords = [(x[i].numerator, x[i].denominator) for i in used]
        # _too_long grows with the exponent, so the top exponents decide
        if max_bits and any(
            _too_long(num, exps[-1], max_bits) or _too_long(den, exps[-1], max_bits)
            for (num, den), exps in zip(coords, levels)
        ):
            features.evaluate(point.x)  # raises, naming the first such monomial
        p, d = _integer_features(coords, levels, exponents)
        w_num, w_den = w.numerator, w.denominator
        n_den, lift = _grow(n_den, w_den * d * d, upper)
        c = 2 * w_num * lift
        for k in range(n):
            ck = c * p[k]
            if ck:
                upper[k] = [a + ck * b for a, b in zip(upper[k], p[k:])]
        y = point.y
        if y != 0:
            nu_den, lift = _grow(nu_den, w_den * y.denominator * d, [nu_sum])
            c = -2 * w_num * y.numerator * lift
            nu_sum[:] = [a + c * b for a, b in zip(nu_sum, p)]
    return _system(nu_sum, nu_den, [v for row in upper for v in row], n_den)


def _integer_features(coords: list, levels: list, exponents: list) -> tuple:
    """(P, D): φ of one point as ``integer_row`` writes it, from the
    (numerator, denominator) of each coordinate a monomial uses, the sorted
    exponents the monomials give it (its top exponent E_i last) and each
    monomial's exponents of those coordinates.

    With x_i = p_i/q_i, φ_k = P_k/D for P_k = Π p_i^e_ki·q_i^(E_i - e_ki) and
    D = Π q_i^E_i; divided by g = gcd(D, *P), D is the least integer that
    clears every φ_k, the lcm of their denominators, and P = D·φ.  Only the
    powers at the exponents in ``levels`` are taken.
    """
    tables = []
    d = 1
    for (num, den), exps in zip(coords, levels):
        top = exps[-1]
        tables.append({e: num**e * den ** (top - e) for e in exps})
        d *= den**top
    p = [prod(map(getitem, tables, mono)) for mono in exponents]
    g = gcd(d, *p)
    if g != 1:
        d //= g
        p = [v // g for v in p]
    return p, d


def _grow(den: int, term_den: int, rows: list) -> tuple:
    """Bring the running denominator ``den`` to a multiple of ``term_den``.

    Returns the new denominator and the factor that lifts a numerator over
    ``term_den`` to it; the integer rows in ``rows`` are rescaled in place
    when the denominator grows.
    """
    common = den // gcd(den, term_den) * term_den
    if common != den:
        scale = common // den
        for row in rows:
            row[:] = [v * scale for v in row]
    return common, common // term_den


def build_normal_system(data, features: FeatureMap) -> NormalSystem:
    """Evaluate the weighted normal system of ``data`` under ``features``."""
    if data.ambient_dim != features.ambient_dim:
        raise DimensionMismatch(
            f"features over {features.ambient_dim} coordinates vs ambient dim {data.ambient_dim}"
        )
    return _evaluate(data.points, features)


def integer_system(system: NormalSystem) -> tuple:
    """(ν', d_ν, N', d_N): the system's ν as integers ν' over their least
    common denominator d_ν, and the upper triangle of N, row by row, as
    integers N' over theirs; the form :func:`sum_normal_systems` adds."""
    nu, nu_den = integer_row(system.nu.entries)
    upper, n_den = integer_row(
        [v for k, row in enumerate(system.nmat.rows) for v in row[k:]]
    )
    return nu, nu_den, upper, n_den


def sum_normal_systems(parts: list) -> NormalSystem:
    """The normal system of the union of disjoint point groups, each given
    by its :func:`integer_system`: ν and N add, each over the lcm of the
    groups' denominators, with one rational per entry."""
    nus, nu_dens, uppers, n_dens = zip(*parts)
    return _system(*_add(nus, nu_dens), *_add(uppers, n_dens))


def _add(rows: tuple, dens: tuple) -> tuple:
    """(Σ_j rows[j]·(d/dens[j]), d), d = lcm(dens): integer rows, each over
    its own denominator, added over one."""
    den = lcm(*dens)
    lifts = [den // d for d in dens]
    return [sum(map(mul, column, lifts)) for column in zip(*rows)], den


def _system(nu: list, nu_den: int, upper: list, n_den: int) -> NormalSystem:
    """(ν, N) from ν = nu / nu_den and the upper triangle of N, row by row,
    as upper / n_den; N is symmetric, so the triangle is mirrored."""
    n = len(nu)
    flat = [Rational(v, n_den) for v in upper]
    starts = [k * n - k * (k - 1) // 2 for k in range(n + 1)]
    rows = tuple(
        tuple(flat[starts[l] + k - l] for l in range(k))
        + tuple(flat[starts[k] : starts[k + 1]])
        for k in range(n)
    )
    return NormalSystem(
        nu=Vector(tuple(Rational(v, nu_den) for v in nu)), nmat=Matrix(rows, n)
    )


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
    total = ZERO
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
