"""Exact rational vectors, matrices, and a deterministic square solver.

All arithmetic is over the scalar backend from :mod:`lsglue.scalars`; nothing
here ever touches floats.  :func:`solve_square` brings the system augmented by
its right-hand side to row echelon form in one forward-elimination pass and
counts the pivots; a count short of n is the rank carried by
:class:`Singular`, and a full-rank system is solved by back-substitution.
Pivoting takes the first nonzero entry scanning rows top-down (exact
arithmetic needs no magnitude pivoting), which makes the solver
deterministic; the solution of an invertible system is unique and rationals
are canonical, so it does not depend on the elimination order anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionMismatch, Singular
from .scalars import ZERO, rat, rat_float, rat_str


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

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def matvec(self, v: Vector) -> Vector:
        if self.ncols != v.dim:
            raise DimensionMismatch(f"matvec: {self.ncols} columns vs dim-{v.dim} vector")
        return Vector(tuple(Vector(row).dot(v) for row in self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(
            tuple(tuple(row[j] for row in self.rows) for j in range(self.ncols)),
            self.nrows,
        )


def _row_echelon(rows: list[list]) -> int:
    """In-place forward elimination of an n x n system augmented by its
    right-hand side in column n.

    Pivot choice: first nonzero entry scanning rows top-down, leftmost column
    first.  Each row below a pivot p in column k loses ``r[k] / p`` times the
    pivot row on the columns right of k, the right-hand side included;
    entries at and left of a pivot column are left as they are, since nothing
    reads them again.  Returns the number of pivots, the rank of the n x n
    block; at full rank, pivot i sits at (i, i).
    """
    nrows = len(rows)
    pivot_row = 0
    for col in range(nrows):
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


def _back_substitute(rows: list[list], n: int) -> tuple:
    """Solve the upper-triangular system left by :func:`_row_echelon` on a
    full-rank n x n block, with the right-hand side in column n."""
    x = [ZERO] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = row[n]
        for j in range(i + 1, n):
            if row[j] != 0:
                acc -= row[j] * x[j]
        x[i] = acc / row[i]
    return tuple(x)


def solve_square(a: Matrix, b: Vector) -> Vector:
    """Solve A x = b exactly for square invertible A; raises :class:`Singular`
    carrying the rank otherwise."""
    if not a.is_square:
        raise DimensionMismatch(f"solve_square needs a square matrix, got {a.nrows}x{a.ncols}")
    if b.dim != a.nrows:
        raise DimensionMismatch(f"rhs dim {b.dim} does not match {a.nrows} rows")
    n = a.nrows
    work = [list(row) + [be] for row, be in zip(a.rows, b.entries)]
    found = _row_echelon(work)
    if found < n:
        raise Singular(f"matrix is singular (rank {found} < {n})", rank=found)
    return Vector(_back_substitute(work, n))
