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

Every exact object is integers over one denominator.  A :class:`Vector` is
integer numerators ``nums`` over one positive denominator ``den``, and a
:class:`Matrix` integer rows ``nums`` over one ``den``, each in lowest terms
(gcd(den, every numerator) = 1), so equal objects have equal fields; their
rational entries are a derived view, built only where they are read.  A
vector is brought to lowest terms by one gcd chain over its whole row, not
entry by entry: an entry is reduced on its own only where it is written to a
report or becomes a Koszul ``c0``.  Vector sums, negation and equality are
integer and tuple operations.  The elimination runs on integer rows; no
rational is built at all.  Each right-hand side b is its integers D·b over
its denominator D, so A·x' = D·b is solved, and x = x'/D; with
A = nums/den that is nums·x' = den·D·b.  Row i of
[nums | den·D₁b₁ ... den·D_kb_k] is divided by the gcd of its entries.  A row
below a pivot p, with f in the pivot column, becomes (p/g)·row - (f/g)·pivot
row, g = gcd(p, f), and is again divided by the gcd of its entries.
Invariant: at every step, on every column still read, each integer row is a
nonzero multiple of the row that elimination of [A | D₁b₁ ... D_kb_k] over
the rationals would hold.  So the two have the same zero pattern, hence the
same pivots, the same pivot count and the same unique solutions, and the
output cannot differ by a byte from rational elimination.  A wide
right-hand side does not widen the rows of A, and no gcd is taken per
arithmetic operation.

Common-denominator arithmetic has one implementation, here:
:func:`add_rows` adds integer rows, each over its own denominator, over
their lcm (a negated denominator subtracts its row), which is also how
vectors add; :func:`over_lcm` lifts terms, each over its own denominator,
over their lcm, which is also how :meth:`Vector.of` and :meth:`Matrix.of`
write rationals; and :func:`lowest_terms_divisor` brings integers over one
denominator to lowest terms.  :func:`modular_rank` is the rank of ``nums``
modulo the prime :data:`RANK_PRIME`.  It never exceeds the rank over the
rationals, so a full modular rank proves a square matrix nonsingular; a
short one proves nothing.

Every immutable record of the package is a :class:`Value`: a subclass names
its fields in ``__slots__``, sets them once in ``__init__``, and two objects
are equal exactly when they are of the same class and their fields are
equal, in slot order.  Equal values hash equal (a class never to be hashed
sets ``__hash__ = None``), and the repr is ``ClassName(field!r, ...)``.
"""

from __future__ import annotations

from itertools import chain, islice
from math import gcd, lcm
from operator import attrgetter, mul

from .errors import DimensionMismatch, Singular, ZeroDenominator
from .scalars import rat

# The prime of :func:`modular_rank`.  Residues stay below 2**61, so every
# product in its elimination is small, however wide the matrix entries are.
RANK_PRIME = 2**61 - 1


def add_rows(terms) -> tuple:
    """(Σ_j nums_j·(d/d_j), d) for the pairs (nums_j, d_j) of ``terms``, d
    the lcm of the d_j: integer rows, each over its own denominator, added
    over one.  Row j stands for nums_j / d_j, so a row over a negated
    denominator is subtracted."""
    rows, dens = zip(*terms)
    den = lcm(*dens)
    lifts = [den // d for d in dens]
    return [sum(map(mul, column, lifts)) for column in zip(*rows)], den


def over_lcm(nums: list, dens: list) -> tuple:
    """(L, lifted): the terms nums[j] / dens[j] as integers over L, the lcm
    of the denominators of the nonzero terms; lifted[j] = nums[j]·(L //
    dens[j]), 0 for a zero term."""
    den = lcm(*(t for v, t in zip(nums, dens) if v))
    return den, [v * (den // t) if v else 0 for v, t in zip(nums, dens)]


def lowest_terms_divisor(den: int, nums, what: str) -> int:
    """The divisor that brings integers ``nums`` over ``den`` to lowest
    terms with a positive denominator: their gcd with ``den``, negated when
    ``den`` < 0.  Raises :class:`ZeroDenominator` for ``den`` = 0, naming
    ``what``."""
    if not den:
        raise ZeroDenominator(f"{what} denominator is zero")
    g = gcd(den, *nums)
    return -g if den < 0 else g


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
    """Immutable exact vector: integer numerators ``nums`` over one positive
    denominator ``den``, so entry k is nums[k] / den.  The constructor brings
    (nums, den) to lowest terms with one gcd chain, so equal vectors have
    equal fields and the zero vector is 0/1.  :meth:`of` builds one from
    rationals, and :attr:`entries`, indexing and iteration are the rational
    views, one rational built per entry read."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: int):
        g = lowest_terms_divisor(den, nums, "vector")
        if g != 1:
            nums, den = [v // g for v in nums], den // g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def of(cls, values) -> "Vector":
        values = [rat(v) for v in values]
        den, nums = over_lcm([v.numerator for v in values], [v.denominator for v in values])
        return cls(nums, den)

    @classmethod
    def zeros(cls, dim: int) -> "Vector":
        return cls((0,) * dim, 1)

    @property
    def entries(self) -> tuple:
        den = self.den
        return tuple(rat(v, den) for v in self.nums)

    @property
    def dim(self) -> int:
        return len(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int):
        return rat(self.nums[i], self.den)

    def __add__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(*add_rows([(self.nums, self.den), (other.nums, other.den)]))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_dim(other)
        return Vector(*add_rows([(self.nums, self.den), (other.nums, -other.den)]))

    def __neg__(self) -> "Vector":
        return Vector([-v for v in self.nums], self.den)

    def scale(self, s) -> "Vector":
        s = rat(s)
        return Vector([s.numerator * v for v in self.nums], s.denominator * self.den)

    def dot(self, other: "Vector"):
        self._check_dim(other)
        return rat(sum(map(mul, self.nums, other.nums)), self.den * other.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _check_dim(self, other: "Vector") -> None:
        if len(self.nums) != len(other.nums):
            raise DimensionMismatch(
                f"vector dims {len(self.nums)} and {len(other.nums)} differ"
            )


class Matrix(Value):
    """Immutable exact matrix: integer rows ``nums`` over one positive
    denominator ``den``, so entry (i, j) is nums[i][j] / den.  The
    constructor brings (nums, den) to lowest terms, so equal matrices have
    equal fields; ``ncols`` is explicit so zero-row matrices keep their
    width.  :meth:`of` builds one from rationals, and :attr:`rows` and
    :meth:`row` are the rational views."""

    __slots__ = ("nums", "den", "ncols")

    def __init__(self, nums, den: int, ncols: int):
        g = lowest_terms_divisor(den, chain.from_iterable(nums), "matrix")
        if g != 1:
            nums = [[v // g for v in row] for row in nums]
        object.__setattr__(self, "nums", tuple(map(tuple, nums)))
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "ncols", ncols)
        for row in self.nums:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def of(cls, rows, ncols: int | None = None) -> "Matrix":
        converted = tuple(tuple(rat(v) for v in row) for row in rows)
        if ncols is None:
            if not converted:
                raise DimensionMismatch("cannot infer ncols of an empty matrix")
            ncols = len(converted[0])
        entries = [v for row in converted for v in row]
        den, nums = over_lcm([v.numerator for v in entries], [v.denominator for v in entries])
        flat = iter(nums)
        return cls(tuple(tuple(islice(flat, len(row))) for row in converted), den, ncols)

    @property
    def nrows(self) -> int:
        return len(self.nums)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def rows(self) -> tuple:
        den = self.den
        return tuple(tuple(rat(v, den) for v in row) for row in self.nums)

    def row(self, i: int) -> Vector:
        return Vector(self.nums[i], self.den)


def _row_echelon(rows, columns) -> tuple[int, list]:
    """Forward elimination of the n x n integer matrix with rows ``rows``
    augmented by the integer right-hand sides ``columns``.

    Row i of the work starts as row i of [rows | columns] divided by its
    content (the gcd of its entries).  Pivot choice: first nonzero entry
    scanning rows top-down, leftmost column first.  Each row r below a pivot
    p in column k, with f = r[k], becomes (p/g)·r - (f/g)·pivot row,
    g = gcd(p, f), on the columns right of k, and is divided by its content;
    entries at and left of a pivot column are left as they are, since
    nothing reads them again.  Returns the number of pivots, the rank of the
    matrix, and the work rows; at full rank, pivot i sits at (i, i).
    """
    nrows = len(rows)
    work = [
        _primitive([*row, *(column[i] for column in columns)]) for i, row in enumerate(rows)
    ]
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


def _back_substitute(rows: list, n: int, col: int, den: int) -> Vector:
    """Solve the upper-triangular integer system left by :func:`_row_echelon`
    on a full-rank n x n block, against column ``col`` of the work rows, and
    divide by ``den``, the denominator that column was cleared of.

    The unknowns found so far are kept as integers over their least common
    denominator q, so each step is one integer dot product, one gcd and one
    lcm; when the new unknown's denominator grows q, the others are rescaled
    to the new q.  The vector is built once, at the end.
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
            x = [v * scale for v in x]
            q = common
        x[i] = num * (q // d)
    return Vector(x, q * den)


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
    found, work = _row_echelon(a.nums, [[a.den * v for v in b.nums] for b in columns])
    if found < n:
        raise Singular(f"matrix is singular (rank {found} < {n})", rank=found)
    return tuple(_back_substitute(work, n, n + k, b.den) for k, b in enumerate(columns))


def modular_rank(a: Matrix) -> int:
    """The rank modulo :data:`RANK_PRIME` of the integer rows of A.

    They are A times its denominator, which keeps the rank, and a nonzero
    minor modulo a prime is a nonzero minor over the integers, so the result
    is at most rank(A); when it equals the size of a square A, A is
    nonsingular.  Elimination as in :func:`_row_echelon`, on residues and
    fraction-free: a row below a pivot p, with f in the pivot column,
    becomes p·row - f·pivot row; p is a unit modulo the prime, so no
    inverse is taken.
    """
    p = RANK_PRIME
    rows = [[x % p for x in row] for row in a.nums]
    nrows = len(rows)
    rank = 0
    for col in range(a.ncols):
        for hit in range(rank, nrows):
            if rows[hit][col]:
                break
        else:
            continue
        top = rows[hit]
        rows[hit] = rows[rank]
        rows[rank] = top
        pivot, tail = top[col], top[col + 1 :]
        for r in range(rank + 1, nrows):
            row = rows[r]
            f = row[col]
            if f:
                row[col + 1 :] = [(pivot * x - f * y) % p for x, y in zip(row[col + 1 :], tail)]
        rank += 1
    return rank
