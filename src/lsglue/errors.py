"""Exception types shared across the package.

Every error raised by lsglue derives from :class:`LsglueError`, so callers can
catch one base class at API boundaries (the CLI maps subclasses to exit codes).
A message echoes an input value through :func:`excerpt`, so it stays short.
"""

from __future__ import annotations


def excerpt(text: str) -> str:
    """``text``, an input value as a message writes it; when longer than 80
    characters, its first 80 and then its full length."""
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


class LsglueError(Exception):
    """Base class for all lsglue errors."""


class MalformedNumber(LsglueError):
    """A rational literal was outside ``[-]?digits(/digits|.digits)?`` or the digit limit."""


class ZeroDenominator(LsglueError):
    """A rational literal had denominator zero."""


class DimensionMismatch(LsglueError):
    """Vector/matrix/feature dimensions are incompatible."""


class Singular(LsglueError):
    """A square system has no unique solution.

    ``rank`` carries the rank of the offending matrix when known; ``cell``
    names the chart or overlap cell whose normal matrix degenerated.
    """

    def __init__(self, message: str, rank: int | None = None, cell: str | None = None):
        super().__init__(message)
        self.rank = rank
        self.cell = cell


class IndexOutOfRange(LsglueError):
    """A point index fell outside 1..m for the data set at hand."""


class NotACover(LsglueError):
    """The union of chart index sets misses part of the base data set."""

    def __init__(self, missing):
        self.missing = frozenset(missing)
        super().__init__(f"charts do not cover base indices {excerpt(str(sorted(self.missing)))}")


class BaseMismatch(LsglueError):
    """A Koszul element met another element, or a differential, based at a
    different point: in ``+``/``-`` of elements, :func:`koszul_diff`, and the
    pair and triple checks of :func:`verify_cocycle`."""


class DegreeZero(LsglueError):
    """The interior-multiplication differential was applied in degree 0."""


class CellMismatch(LsglueError):
    """A cochain references cells that do not match the supplied chart fits."""
