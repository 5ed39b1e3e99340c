"""Exact rational vectors, matrices, a deterministic square solver, and a
modular rank.

All arithmetic is over the scalar backend from :mod:`lsglue.scalars`; nothing
here ever touches floats, and a :class:`Vector` holds its exact entries
only: the report's `p/q` strings and advisory floats are ``assembly``'s.
:func:`solve_square` brings a square system augmented by any number of
right-hand sides to row echelon form in one forward-elimination pass and
counts the pivots; a count short of n is the rank carried by
:class:`Singular`, and a full-rank system is solved by back-substitution,
every right-hand side at once.  Pivoting takes the first nonzero entry
scanning rows top-down (exact arithmetic needs no magnitude pivoting), which
makes the solver deterministic; the solution of an invertible system is
unique and rationals are canonical, so it does not depend on the elimination
order anyway.

The elimination runs on integer rows; no rational is built until the
solutions are.  Each right-hand side b is written as integers D·b over its
own common denominator D, so the system solved is A·x' = D·b, and x = x'/D.
Row i of [A | D₁b₁ ... D_kb_k] is multiplied by the least common denominator
of row i of A alone and divided by the gcd of its entries.  A row below a
pivot p, with f in the pivot column, becomes (p/g)·row - (f/g)·pivot row,
g = gcd(p, f), and is again divided by the gcd of its entries.  Invariant:
at every step, on every column still read, each integer row is a nonzero
multiple of the row that elimination of [A | D₁b₁ ... D_kb_k] over the
rationals would hold.  So the two have the same zero pattern, hence the
same pivots, the same pivot count and the same unique solutions, and the
output cannot differ by a byte from rational elimination.  A wide
right-hand side does not widen the rows of A, and no gcd is taken per
arithmetic operation.

Dot products (:meth:`Matrix.matvec`) write each operand as integers over
one common denominator (:func:`integer_row`) and sum integer products,
building one rational per result instead of one per term.
:func:`modular_rank` is the rank of a matrix modulo the prime
:data:`RANK_PRIME` once every row is cleared of its denominators.  It
never exceeds the rank over the rationals, so a full modular rank proves a
square matrix nonsingular; a short one proves nothing.

Every immutable record of the package is a :class:`Value`: a subclass names
its fields in ``__slots__``, sets them once in ``__init__``, and two objects
are equal exactly when they are of the same class and their fields are
equal, in slot order.  Equal values hash equal (a class never to be hashed
sets ``__hash__ = None``), and the repr is ``ClassName(field!r, ...)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import gcd, lcm
from operator import attrgetter, mul

from .errors import DimensionMismatch, Singular
from .scalars import ZERO, Rational, rat

# The prime of :func:`modular_rank`.  Residues stay below 2**61, so every
# product in its elimination is small, however wide the matrix entries are.
RANK_PRIME = 2**61 - 1


def integer_row(values) -> tuple:
    """(numerators, d): ``values`` written as integers over their least
    common denominator d, so value k is numerators[k] / d."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class Value:
    """Base of the package's immutable records: equal when of the same class
    with equal fields, the names in the subclass's ``__slots__``, compared in
    order; equal values hash equal.  The hash is that of the fields, so it
    raises :class:`TypeError` when one is unhashable (a dict, say); a
    subclass that is never to be hashed sets ``__hash__ = None``.  A subclass
    sets its fields once, in ``__init__``, through ``object.__setattr__``;
    any later assignment or deletion raises :class:`AttributeError`."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # built once per class: one field gives the bare value, more a tuple
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(repr(getattr(self, name)) for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Vector(Value):
    """Immutable exact vector; entries are backend rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        object.__setattr__(self, "entries", entries)

    @classmethod
    def of(cls, values: Iterable) -> "Vector":
        return cls(tuple(rat(v) for v in values))

    @classmethod
    def zeros(cls, dim: int) -> "Vector":
        return cls((ZERO,) * dim)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    def __getitem__(self, i: int):
        return self.entries[i]

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vector":
        return Vector(tuple(-a for a in self.entries))

    def scale(self, s) -> "Vector":
        s = rat(s)
        return Vector(tuple(s * a for a in self.entries))

    def dot(self, other: "Vector"):
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), ZERO)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def _check_dim(self, other: "Vector") -> None:
        if len(self.entries) != len(other.entries):
            raise DimensionMismatch(
                f"vector dims {len(self.entries)} and {len(other.entries)} differ"
            )


class Matrix(Value):
    """Immutable exact matrix, row-major; ``ncols`` is explicit so zero-row
    matrices keep their width."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: tuple, ncols: int):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", ncols)
        for row in self.rows:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def of(cls, rows: Iterable[Iterable], ncols: int | None = None) -> "Matrix":
        converted = tuple(tuple(rat(v) for v in row) for row in rows)
        if ncols is None:
            if not converted:
                raise DimensionMismatch("cannot infer ncols of an empty matrix")
            ncols = len(converted[0])
        return cls(converted, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def matvec(self, v: Vector) -> Vector:
        """A·v; entry i is the integer dot product of row i's and v's
        numerators over the product of their common denominators."""
        if self.ncols != v.dim:
            raise DimensionMismatch(f"matvec: {self.ncols} columns vs dim-{v.dim} vector")
        v_nums, v_den = integer_row(v.entries)
        out = []
        for row in self.rows:
            nums, den = integer_row(row)
            out.append(Rational(sum(map(mul, nums, v_nums)), den * v_den))
        return Vector(tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(
            tuple(tuple(row[j] for row in self.rows) for j in range(self.ncols)),
            self.nrows,
        )


def _row_echelon(rows, columns) -> tuple[int, list]:
    """Forward elimination of the n x n matrix with rows ``rows`` augmented
    by the integer right-hand sides ``columns``, on integer rows.

    Row i of the work starts as L_i times row i of [A | columns], L_i the
    least common denominator of row i of A, divided by its content (the gcd
    of its entries).  Pivot choice: first nonzero entry scanning rows
    top-down, leftmost column first.  Each row r below a pivot p in column k,
    with f = r[k], becomes (p/g)·r - (f/g)·pivot row, g = gcd(p, f), on the
    columns right of k, and is divided by its content; entries at and left
    of a pivot column are left as they are, since nothing reads them again.
    Returns the number of pivots, the rank of A, and the work rows; at full
    rank, pivot i sits at (i, i).
    """
    nrows = len(rows)
    work = []
    for i, row in enumerate(rows):
        nums, den = integer_row(row)
        work.append(_primitive(nums + [den * column[i] for column in columns]))
    pivot_row = 0
    for col in range(nrows):
        hit = next((r for r in range(pivot_row, nrows) if work[r][col]), None)
        if hit is None:
            continue
        work[pivot_row], work[hit] = work[hit], work[pivot_row]
        pivot = work[pivot_row][col]
        tail = work[pivot_row][col + 1 :]
        for row in work[pivot_row + 1 :]:
            factor = row[col]
            if factor:
                g = gcd(pivot, factor)
                p, f = pivot // g, factor // g
                row[col + 1 :] = _primitive(
                    [p * a - f * b for a, b in zip(row[col + 1 :], tail)]
                )
        pivot_row += 1
    return pivot_row, work


def _primitive(row: list) -> list:
    """``row`` divided by its content; a zero row is returned as it is."""
    content = gcd(*row)
    return [v // content for v in row] if content > 1 else row


def _back_substitute(rows: list, n: int, col: int, den: int) -> tuple:
    """Solve the upper-triangular integer system left by :func:`_row_echelon`
    on a full-rank n x n block, against column ``col`` of the work rows, and
    divide by ``den``, the denominator that column was cleared of.

    The unknowns found so far are kept as integers over their least common
    denominator q, so each step is one integer dot product, one gcd and one
    lcm; one rational per unknown is built at the end.
    """
    x = [0] * n
    q = 1
    for i in range(n - 1, -1, -1):
        row = rows[i]
        num = row[col] * q - sum(map(mul, row[i + 1 : n], x[i + 1 :]))
        d = row[i] * q
        g = gcd(num, d)
        num, d = num // g, d // g
        common = lcm(q, d)
        if common != q:
            scale = common // q
            x[i + 1 :] = [v * scale for v in x[i + 1 :]]
            q = common
        x[i] = num * (q // d)
    return tuple(Rational(v, q * den) for v in x)


def solve_square(a: Matrix, *columns: Vector) -> tuple:
    """Solve A x = b exactly for square invertible A and each right-hand side
    b in ``columns``, in one elimination; the solutions come back in the
    order of ``columns``.  Raises :class:`Singular` carrying the rank of A
    when A is singular."""
    if not a.is_square:
        raise DimensionMismatch(f"solve_square needs a square matrix, got {a.nrows}x{a.ncols}")
    n = a.nrows
    for b in columns:
        if b.dim != n:
            raise DimensionMismatch(f"rhs dim {b.dim} does not match {n} rows")
    cleared = [integer_row(b.entries) for b in columns]
    found, work = _row_echelon(a.rows, [nums for nums, _ in cleared])
    if found < n:
        raise Singular(f"matrix is singular (rank {found} < {n})", rank=found)
    return tuple(
        Vector(_back_substitute(work, n, n + k, den)) for k, (_, den) in enumerate(cleared)
    )


def modular_rank(a: Matrix) -> int:
    """The rank modulo :data:`RANK_PRIME` of A with each row multiplied by the
    least common denominator of its entries.

    Scaling a row by a nonzero integer keeps the rank, and a nonzero minor
    modulo a prime is a nonzero minor over the integers, so the result is at
    most rank(A); when it equals the size of a square A, A is nonsingular.
    Elimination as in :func:`_row_echelon`, on residues.
    """
    p = RANK_PRIME
    rows = [[x % p for x in integer_row(row)[0]] for row in a.rows]
    rank = 0
    for col in range(a.ncols):
        hit = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        tail = rows[rank][col + 1 :]
        inverse = pow(rows[rank][col], -1, p)
        for row in rows[rank + 1 :]:
            factor = row[col] * inverse % p
            if factor:
                row[col + 1 :] = [(x - factor * y) % p for x, y in zip(row[col + 1 :], tail)]
        rank += 1
    return rank
