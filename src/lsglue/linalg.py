"""Exact rational vectors, matrices, and deterministic square solvers.

All arithmetic is over the scalar backend from :mod:`lsglue.scalars`; nothing
here ever touches floats.  One forward-elimination pass brings a matrix to row
echelon form and counts its pivots; that count is the rank, and a square
system of full rank is then solved by back-substitution, once per right-hand
side.  Pivoting takes the first nonzero entry scanning rows top-down (exact
arithmetic needs no magnitude pivoting), which makes every solver
deterministic; the solution of an invertible system is unique and rationals
are canonical, so the results do not depend on the elimination order anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionMismatch, Singular
from .scalars import ONE, ZERO, Rational, rat, rat_float, rat_str


@dataclass(frozen=True)
class Vector:
    """Immutable exact vector; entries are backend rationals."""

    entries: tuple

    @classmethod
    def of(cls, values: Iterable) -> "Vector":
        return cls(tuple(rat(v) for v in values))

    @classmethod
    def zeros(cls, dim: int) -> "Vector":
        return cls((ZERO,) * dim)

    @classmethod
    def unit(cls, dim: int, k: int) -> "Vector":
        """Standard basis vector e_k (0-based position)."""
        return cls(tuple(ONE if i == k else ZERO for i in range(dim)))

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

    def norm_sq(self):
        return sum((a * a for a in self.entries), ZERO)

    def to_strings(self) -> list[str]:
        return [rat_str(a) for a in self.entries]

    def to_floats(self) -> list[float | None]:
        return [rat_float(a) for a in self.entries]

    def _check_dim(self, other: "Vector") -> None:
        if len(self.entries) != len(other.entries):
            raise DimensionMismatch(
                f"vector dims {len(self.entries)} and {len(other.entries)} differ"
            )


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix, row-major; ``ncols`` is explicit so zero-row
    matrices keep their width."""

    rows: tuple
    ncols: int

    def __post_init__(self):
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

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(Vector.unit(n, i).entries for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(((ZERO,) * ncols,) * nrows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def col(self, j: int) -> Vector:
        return Vector(tuple(row[j] for row in self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(
            tuple(tuple(a - b for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)),
            self.ncols,
        )

    def scale(self, s) -> "Matrix":
        s = rat(s)
        return Matrix(tuple(tuple(s * a for a in row) for row in self.rows), self.ncols)

    def matvec(self, v: Vector) -> Vector:
        if self.ncols != v.dim:
            raise DimensionMismatch(f"matvec: {self.ncols} columns vs dim-{v.dim} vector")
        return Vector(tuple(Vector(row).dot(v) for row in self.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("matmul: inner dimensions differ")
        cols = other.transpose().rows
        return Matrix(
            tuple(tuple(Vector(row).dot(Vector(c)) for c in cols) for row in self.rows),
            other.ncols,
        )

    def transpose(self) -> "Matrix":
        return Matrix(
            tuple(tuple(row[j] for row in self.rows) for j in range(self.ncols)),
            self.nrows,
        )

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def to_strings(self) -> list[list[str]]:
        return [[rat_str(a) for a in row] for row in self.rows]

    def _check_shape(self, other: "Matrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("matrix shapes differ")


def _row_echelon(rows: list[list], width: int) -> int:
    """In-place forward elimination over the leading ``width`` columns.

    Pivot choice: first nonzero entry scanning rows top-down, leftmost column
    first.  Each row below a pivot p in column k loses ``r[k] / p`` times the
    pivot row on the columns right of k, the trailing augmented columns
    included; entries at and left of a pivot column are left as they are,
    since nothing reads them again.  Returns the number of pivots, the rank of
    the leading ``width`` columns; when a square system has full rank, pivot
    i sits at (i, i).
    """
    nrows = len(rows)
    pivot_row = 0
    for col in range(width):
        if pivot_row == nrows:
            break
        hit = next((r for r in range(pivot_row, nrows) if rows[r][col] != 0), None)
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        pivot = rows[pivot_row][col]
        tail = rows[pivot_row][col + 1 :]
        for r in range(pivot_row + 1, nrows):
            row = rows[r]
            if row[col] != 0:
                factor = row[col] / pivot
                row[col + 1 :] = [
                    a - factor * b if b else a for a, b in zip(row[col + 1 :], tail)
                ]
        pivot_row += 1
    return pivot_row


def _back_substitute(rows: list[list], n: int, col: int) -> tuple:
    """Solve the upper-triangular system left by :func:`_row_echelon` on a
    full-rank n x n block, with right-hand side column ``col``."""
    x = [ZERO] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = row[col]
        for j in range(i + 1, n):
            if row[j] != 0:
                acc -= row[j] * x[j]
        x[i] = acc / row[i]
    return tuple(x)


def _singular(found: int, n: int) -> Singular:
    return Singular(f"matrix is singular (rank {found} < {n})", rank=found)


def rank(a: Matrix) -> int:
    return _row_echelon([list(row) for row in a.rows], a.ncols)


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises :class:`Singular` carrying the
    rank on rank loss."""
    if not a.is_square:
        raise DimensionMismatch(f"inverse of non-square {a.nrows}x{a.ncols} matrix")
    n = a.nrows
    eye = Matrix.identity(n)
    work = [list(a.rows[i]) + list(eye.rows[i]) for i in range(n)]
    found = _row_echelon(work, n)
    if found < n:
        raise _singular(found, n)
    columns = [_back_substitute(work, n, n + c) for c in range(n)]
    return Matrix(tuple(zip(*columns)), n)


def solve_square(a: Matrix, b: Vector) -> Vector:
    """Solve A x = b exactly for square invertible A; raises :class:`Singular`
    carrying the rank otherwise."""
    if not a.is_square:
        raise DimensionMismatch(f"solve_square needs a square matrix, got {a.nrows}x{a.ncols}")
    if b.dim != a.nrows:
        raise DimensionMismatch(f"rhs dim {b.dim} does not match {a.nrows} rows")
    n = a.nrows
    work = [list(row) + [be] for row, be in zip(a.rows, b.entries)]
    found = _row_echelon(work, n)
    if found < n:
        raise _singular(found, n)
    return Vector(_back_substitute(work, n, n))
