"""Linearized coefficients, Koszul elements, the differential, and translation.

Coefficients live in the quotient of the parameter polynomial ring by the
square of the ideal at a base point â: every element is determined by a
constant ``c0`` and a linear part ``c`` against (a - â), and products of two
linear parts vanish.  A degree-p Koszul element is the base point â together
with such a coefficient on each strictly increasing p-tuple of wedge slots
e^{i_1} ∧ ... ∧ e^{i_p}; â belongs to the element, so a coefficient is the
bare pair (c0, c) and the rank n of the element is the dimension of â.

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

from collections.abc import Mapping

from .errors import BaseMismatch, DegreeZero, DimensionMismatch, LsglueError, excerpt
from .linalg import Matrix, Value, Vector
from .scalars import ZERO, rat


class LinearizedElement(Value):
    """c0 + c·(a - â), taken modulo quadratic terms in (a - â), for the base
    point â of the element it belongs to."""

    __slots__ = ("c0", "c")

    def __init__(self, c0, c: Vector):
        # c0 is a rational
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c", c)

    @classmethod
    def constant(cls, n: int, value) -> "LinearizedElement":
        return cls(rat(value), Vector.zeros(n))

    @classmethod
    def linear(cls, c: Vector) -> "LinearizedElement":
        return cls(ZERO, c)

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c.is_zero()

    def __add__(self, other: "LinearizedElement") -> "LinearizedElement":
        return LinearizedElement(self.c0 + other.c0, self.c + other.c)

    def __sub__(self, other: "LinearizedElement") -> "LinearizedElement":
        return LinearizedElement(self.c0 - other.c0, self.c - other.c)

    def __neg__(self) -> "LinearizedElement":
        return LinearizedElement(-self.c0, -self.c)

    def scale(self, s) -> "LinearizedElement":
        s = rat(s)
        return LinearizedElement(s * self.c0, self.c.scale(s))


def ring_mul(u: LinearizedElement, v: LinearizedElement) -> LinearizedElement:
    """Product in the truncated ring: the linear×linear cross term vanishes."""
    return LinearizedElement(u.c0 * v.c0, v.c.scale(u.c0) + u.c.scale(v.c0))


class KoszulElement(Value):
    """Degree-p element at ``base``: coefficients on strictly increasing
    p-tuples of the wedge slots 1..n, n = base.dim; absent tuples are zero."""

    __slots__ = ("degree", "base", "coeffs")

    def __init__(self, degree: int, base: Vector, coeffs: Mapping):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.base.dim

    @classmethod
    def build(cls, degree: int, base: Vector, coeffs: Mapping) -> "KoszulElement":
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
    def from_constants(cls, degree: int, base: Vector, values: Mapping) -> "KoszulElement":
        """Element with constant coefficients: ``values`` maps index tuples to scalars."""
        return cls.build(
            degree,
            base,
            {idx: LinearizedElement.constant(base.dim, v) for idx, v in values.items()},
        )

    def coefficient(self, idx) -> LinearizedElement:
        coeff = self.coeffs.get(tuple(idx))
        return LinearizedElement.constant(self.n, 0) if coeff is None else coeff

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
