"""Linearized coefficients, Koszul elements, the differential, and translation.

Coefficients live in the quotient of the parameter polynomial ring by the
square of the ideal at a base point â: every element is determined by a
constant ``c0`` and a linear part ``c`` against (a - â), and products of two
linear parts vanish.  A degree-p Koszul element is the base point â together
with such a coefficient on each strictly increasing p-tuple of wedge slots
e^{i_1} ∧ ... ∧ e^{i_p}; â belongs to the element, so a coefficient is the
bare pair (c0, c) and the rank n of the element is the dimension of â.

A coefficient is held as integers (:class:`LinearizedElement`): c0 as its
numerator and positive denominator in lowest terms, ``num`` and ``den``, and
c as a ``linalg.Vector``, integers over one denominator.  Sums, negation,
scaling and the ring product are integer operations; ``c0`` is a rational
only where it is read, and the cochain's assembly, verification and JSON
form read ``num`` and ``den``, so they build no rational.

The differential is interior multiplication against the components
η^i = N_i·(a - â), the rows of a cell's normal matrix N taken at the cell's
least-squares point â; a :class:`LinearizedDifferential` (â, N) is all a
fitted cell carries.  Because every η^i has zero constant term, images of the
differential never carry constant terms; that fact is what makes a nonzero
constant triple defect a genuine obstruction.

Translation is the substitution a ↦ a - (b - â): the element moves to base b
with its coefficients (c0, c) unchanged, which is a chain isomorphism (it is
NOT a Taylor re-expansion).  Base points are compared only where an element
meets another element or a differential.  The module holds only the
algebra: the report's JSON form of an element is ``assembly``'s.
"""

from __future__ import annotations

from math import gcd

from .errors import BaseMismatch, DegreeZero, DimensionMismatch, LsglueError, excerpt
from .linalg import Matrix, Value, Vector
from .scalars import rat


class LinearizedElement(Value):
    """c0 + c·(a - â), taken modulo quadratic terms in (a - â), for the base
    point â of the element it belongs to.

    The constant is held as its integers, c0 = ``num / den`` in lowest terms
    with ``den`` > 0, and ``c0`` is its rational view, built where it is
    read; the linear part ``c`` is a :class:`Vector`.  The arithmetic runs on
    the integers and builds no rational."""

    __slots__ = ("num", "den", "c")

    def __init__(self, c0, c: Vector):
        # c0 is an int or a rational: its numerator and denominator are in
        # lowest terms, the denominator positive
        self._hold(c0.numerator, c0.denominator, c)

    def _hold(self, num: int, den: int, c: Vector) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "c", c)

    @classmethod
    def of_parts(cls, num: int, den: int, c: Vector) -> "LinearizedElement":
        """The element with c0 = ``num / den``, ``den`` > 0, brought to lowest
        terms here, and linear part ``c``."""
        common = gcd(num, den)
        element = cls.__new__(cls)
        element._hold(num // common, den // common, c)
        return element

    @classmethod
    def constant(cls, n: int, value) -> "LinearizedElement":
        return cls(rat(value), Vector.zeros(n))

    @classmethod
    def linear(cls, c: Vector) -> "LinearizedElement":
        return cls(0, c)

    @property
    def c0(self):
        return rat(self.num, self.den)

    def is_zero(self) -> bool:
        return not self.num and self.c.is_zero()

    def __add__(self, other: "LinearizedElement") -> "LinearizedElement":
        num = self.num * other.den + other.num * self.den
        return LinearizedElement.of_parts(num, self.den * other.den, self.c + other.c)

    def __sub__(self, other: "LinearizedElement") -> "LinearizedElement":
        num = self.num * other.den - other.num * self.den
        return LinearizedElement.of_parts(num, self.den * other.den, self.c - other.c)

    def __neg__(self) -> "LinearizedElement":
        return LinearizedElement.of_parts(-self.num, self.den, -self.c)

    def scale(self, s) -> "LinearizedElement":
        s = rat(s)
        num, den = s.numerator * self.num, s.denominator * self.den
        return LinearizedElement.of_parts(num, den, self.c.scale(s))


def ring_mul(u: LinearizedElement, v: LinearizedElement) -> LinearizedElement:
    """Product in the truncated ring: the linear×linear cross term vanishes,
    so (u0 + u·t)(v0 + v·t) = u0·v0 + (u0·v + v0·u)·t, on the integers."""
    linear = _times(v.c, u) + _times(u.c, v)
    return LinearizedElement.of_parts(u.num * v.num, u.den * v.den, linear)


def _times(vec: Vector, factor: LinearizedElement) -> Vector:
    """``vec`` times the constant of ``factor``."""
    return Vector([factor.num * x for x in vec.nums], factor.den * vec.den)


class KoszulElement(Value):
    """Degree-p element at ``base``: coefficients on strictly increasing
    p-tuples of the wedge slots 1..n, n = base.dim; absent tuples are zero."""

    __slots__ = ("degree", "base", "coeffs")

    def __init__(self, degree: int, base: Vector, coeffs: dict):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.base.dim

    @classmethod
    def build(cls, degree: int, base: Vector, coeffs: dict) -> "KoszulElement":
        """Validate and normalize (exact zero coefficients are dropped).

        Degrees above n are allowed only for the zero element (the exterior
        power is the zero module there, and no index tuple can exist).
        """
        if degree < 0:
            raise LsglueError(f"degree {degree} is negative")
        n = base.dim
        cleaned = {}
        for idx, coeff in coeffs.items():
            idx = tuple(idx)
            if coeff.c.dim != n:
                raise DimensionMismatch(f"linear part dim {coeff.c.dim} vs base dim {n}")
            if len(idx) != degree:
                raise LsglueError(
                    f"index tuple {excerpt(str(idx))} has length != degree {degree}"
                )
            if any(not 1 <= i <= n for i in idx):
                raise LsglueError(f"index tuple {excerpt(str(idx))} outside 1..{n}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise LsglueError(f"index tuple {excerpt(str(idx))} is not strictly increasing")
            if not coeff.is_zero():
                cleaned[idx] = coeff
        return cls(degree=degree, base=base, coeffs=cleaned)

    @classmethod
    def zero(cls, degree: int, base: Vector) -> "KoszulElement":
        return cls.build(degree, base, {})

    @classmethod
    def from_constants(cls, degree: int, base: Vector, values: dict) -> "KoszulElement":
        """Element with constant coefficients: ``values`` maps index tuples to scalars."""
        return cls.build(
            degree,
            base,
            {idx: LinearizedElement.constant(base.dim, v) for idx, v in values.items()},
        )

    def coefficient(self, idx) -> LinearizedElement:
        coeff = self.coeffs.get(tuple(idx))
        return LinearizedElement(0, Vector.zeros(self.n)) if coeff is None else coeff

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "KoszulElement") -> "KoszulElement":
        if self.n != other.n or self.degree != other.degree:
            raise DimensionMismatch("Koszul elements of different rank or degree")
        if self.base != other.base:
            raise BaseMismatch("Koszul elements have different base points")
        merged = dict(self.coeffs)
        for idx, coeff in other.coeffs.items():
            merged[idx] = merged[idx] + coeff if idx in merged else coeff
        return KoszulElement.build(self.degree, self.base, merged)

    def __sub__(self, other: "KoszulElement") -> "KoszulElement":
        return self + other.scale(-1)

    def scale(self, s) -> "KoszulElement":
        return KoszulElement.build(
            self.degree, self.base, {idx: coeff.scale(s) for idx, coeff in self.coeffs.items()}
        )


class LinearizedDifferential(Value):
    """Interior multiplication data: component i is η^i = N_i·(a - base)."""

    __slots__ = ("base", "nmat")

    def __init__(self, base: Vector, nmat: Matrix):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "nmat", nmat)
        if not self.nmat.is_square or self.nmat.nrows != self.base.dim:
            raise DimensionMismatch("differential matrix must be n x n at an n-dim base")

    @property
    def n(self) -> int:
        return self.base.dim

    def component(self, i: int) -> LinearizedElement:
        """η^i for slot i in 1..n."""
        return LinearizedElement.linear(self.nmat.row(i - 1))


def koszul_diff(xi: KoszulElement, eta: LinearizedDifferential) -> KoszulElement:
    """Interior multiplication: each wedge slot i_j is contracted against
    η^{i_j} with sign (-1)^j, extended linearly over the coefficients."""
    if xi.degree < 1:
        raise DegreeZero("differential is undefined in degree 0")
    if xi.base != eta.base:
        raise BaseMismatch("element and differential have different base points")
    acc: dict = {}
    for idx, coeff in xi.coeffs.items():
        for j, slot in enumerate(idx):
            term = ring_mul(coeff, eta.component(slot))
            if j % 2:
                term = -term
            key = idx[:j] + idx[j + 1 :]
            acc[key] = acc[key] + term if key in acc else term
    return KoszulElement.build(xi.degree - 1, xi.base, acc)


def translate(xi: KoszulElement, new_base: Vector) -> KoszulElement:
    """Rebase to ``new_base``: every coefficient keeps (c0, c) verbatim, with
    c·(a - old) read as c·(a - new).  Inverse to translating back."""
    if new_base.dim != xi.n:
        raise DimensionMismatch(f"new base dim {new_base.dim} for rank-{xi.n} element")
    return KoszulElement(degree=xi.degree, base=new_base, coeffs=xi.coeffs)
