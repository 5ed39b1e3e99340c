"""Exact rational vectors, matrices, and deterministic square solvers.

All arithmetic is over the scalar backend from :mod:`lsglue.scalars`; nothing
here ever touches floats.  Elimination pivots on the first nonzero entry
scanning rows top-down (exact arithmetic needs no magnitude pivoting), which
makes every solver deterministic.
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

    def to_floats(self) -> list[float]:
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


def _reduced_echelon(rows: list[list], width: int) -> list[int]:
    """In-place Gauss-Jordan over the leading ``width`` columns.

    Pivot choice: first nonzero entry scanning rows top-down, leftmost column
    first.  Returns the pivot columns in order; after the call, pivot entries
    are 1 and are the only nonzero entries of their columns (the trailing
    augmented columns are carried along).
    """
    pivots: list[int] = []
    pivot_row = 0
    for col in range(width):
        hit = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                hit = r
                break
        if hit is None:
            continue
        if hit != pivot_row:
            rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        inv = ONE / rows[pivot_row][col]
        rows[pivot_row] = [inv * a for a in rows[pivot_row]]
        for r in range(len(rows)):
            if r == pivot_row:
                continue
            factor = rows[r][col]
            if factor == 0:
                continue
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return pivots


def rank(a: Matrix) -> int:
    work = [list(row) for row in a.rows]
    return len(_reduced_echelon(work, a.ncols))


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises :class:`Singular` on rank loss."""
    if not a.is_square:
        raise DimensionMismatch(f"inverse of non-square {a.nrows}x{a.ncols} matrix")
    n = a.nrows
    eye = Matrix.identity(n)
    work = [list(a.rows[i]) + list(eye.rows[i]) for i in range(n)]
    pivots = _reduced_echelon(work, n)
    if len(pivots) < n:
        raise Singular(f"matrix is singular (rank {len(pivots)} < {n})", rank=len(pivots))
    return Matrix(tuple(tuple(row[n:]) for row in work), n)


def solve_square(a: Matrix, b: Vector) -> Vector:
    """Solve A x = b exactly for square invertible A."""
    if not a.is_square:
        raise DimensionMismatch(f"solve_square needs a square matrix, got {a.nrows}x{a.ncols}")
    if b.dim != a.nrows:
        raise DimensionMismatch(f"rhs dim {b.dim} does not match {a.nrows} rows")
    n = a.nrows
    work = [list(row) + [be] for row, be in zip(a.rows, b.entries)]
    pivots = _reduced_echelon(work, n)
    if len(pivots) < n:
        raise Singular(f"matrix is singular (rank {len(pivots)} < {n})", rank=len(pivots))
    return Vector(tuple(row[n] for row in work))
