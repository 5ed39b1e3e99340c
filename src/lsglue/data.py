"""Weighted finite data sets, chart restrictions, covers, and nerve cells.

Points are addressed by stable 1-based indices.  Restricting to a chart never
deletes points: it zeroes the weights outside the chart, so repeated
restrictions compose literally (restrict through A then B equals restricting
through A ∩ B) and all index bookkeeping stays trivial.

A cover partitions its points into membership atoms: the points that lie in
exactly the same charts.  A set of charts meets exactly when some atom's
signature (its sorted chart names) contains it, and its common points are
the union of those atoms, so the nerve is enumerated from the atoms in time
proportional to its size rather than by testing every chart tuple.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable

from .errors import DimensionMismatch, IndexOutOfRange, LsglueError, NotACover
from .linalg import Vector
from .scalars import ZERO, rat, rational_from_string


@dataclass(frozen=True)
class WeightedPoint:
    x: Vector
    y: object  # Rational
    weight: object  # Rational


@dataclass(frozen=True)
class WeightedDataSet:
    points: tuple
    ambient_dim: int

    def __post_init__(self):
        for p in self.points:
            if p.x.dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"point with dim {p.x.dim} in data set of ambient dim {self.ambient_dim}"
                )

    @classmethod
    def of(cls, rows: Iterable, ambient_dim: int | None = None) -> "WeightedDataSet":
        """Build from ``(x, y)`` or ``(x, y, weight)`` tuples; x may be a scalar."""
        points = []
        for row in rows:
            x, y = row[0], row[1]
            w = row[2] if len(row) > 2 else 1
            xs = x if isinstance(x, (tuple, list)) else (x,)
            points.append(WeightedPoint(x=Vector.of(xs), y=rat(y), weight=rat(w)))
        if ambient_dim is None:
            if not points:
                raise DimensionMismatch("cannot infer ambient_dim of an empty data set")
            ambient_dim = points[0].x.dim
        return cls(tuple(points), ambient_dim)

    @property
    def size(self) -> int:
        return len(self.points)

    def point(self, index: int) -> WeightedPoint:
        """1-based access."""
        self._check_index(index)
        return self.points[index - 1]

    def indices(self) -> frozenset:
        return frozenset(range(1, self.size + 1))

    def _check_index(self, index: int) -> None:
        if not 1 <= index <= self.size:
            raise IndexOutOfRange(f"index {index} outside 1..{self.size}")


def restrict(data: WeightedDataSet, keep: Iterable[int]) -> WeightedDataSet:
    """Zero the weights of every point outside ``keep`` (1-based indices).

    Indexing is preserved, so this realizes the pullback of weights along the
    chart inclusion: kept weights pass through, the rest map to 0.
    """
    keep_set = frozenset(keep)
    for i in keep_set:
        data._check_index(i)
    points = tuple(
        p if (i + 1) in keep_set else WeightedPoint(p.x, p.y, ZERO)
        for i, p in enumerate(data.points)
    )
    return WeightedDataSet(points, data.ambient_dim)


@dataclass(frozen=True)
class Cover:
    base: WeightedDataSet
    charts: tuple  # of (name, frozenset of 1-based indices) pairs, file order

    def __post_init__(self):
        names = [name for name, _ in self.charts]
        if len(set(names)) != len(names):
            raise LsglueError("duplicate chart names in cover")
        for name in names:
            if not name or "|" in name:
                raise LsglueError(
                    f"chart name {name!r} must be nonempty and free of '|'"
                    " (reserved for cell labels)"
                )
        for name, chart in self.charts:
            for i in sorted(chart):
                if not 1 <= i <= self.base.size:
                    raise IndexOutOfRange(
                        f"chart {name!r} references index {i} outside 1..{self.base.size}"
                    )

    @classmethod
    def of(cls, base: WeightedDataSet, charts: Iterable) -> "Cover":
        return cls(base, tuple((name, frozenset(int(i) for i in idx)) for name, idx in charts))

    @cached_property
    def atoms(self) -> dict:
        """Membership atoms: sorted chart-name signature -> sorted 1-based indices
        of the points lying in exactly those charts.

        Atoms are disjoint; points in no chart belong to none.  Built once per
        cover in one pass over the chart index lists.
        """
        signatures = [[] for _ in range(self.base.size + 1)]
        for name, chart in sorted(self.charts, key=lambda item: item[0]):
            for i in chart:
                signatures[i].append(name)
        atoms = {}
        for i in range(1, self.base.size + 1):
            if signatures[i]:
                atoms.setdefault(tuple(signatures[i]), []).append(i)
        return {signature: tuple(indices) for signature, indices in atoms.items()}


def validate_cover(cover: Cover) -> None:
    """Check that the chart index sets jointly exhaust the base data set."""
    union = frozenset().union(*(chart for _, chart in cover.charts))
    missing = cover.base.indices() - union
    if missing:
        raise NotACover(missing)


@dataclass(frozen=True)
class NerveCell:
    """k+1 charts with nonempty common index intersection (degree k)."""

    chart_names: tuple
    indices: frozenset

    @property
    def degree(self) -> int:
        return len(self.chart_names) - 1

    @property
    def label(self) -> str:
        return "|".join(self.chart_names)

    def faces(self) -> list[tuple]:
        """Chart-name tuples of the codimension-1 faces, in drop-position order."""
        names = self.chart_names
        return [names[:j] + names[j + 1 :] for j in range(len(names))]


def enumerate_nerve(cover: Cover, max_degree: int) -> list[NerveCell]:
    """All nerve cells of degree <= max_degree, sorted by (degree, names).

    A tuple of charts is a cell only if the intersection of their index sets
    is nonempty; orientation signs downstream come from the sorted name order.
    The cells are the subsets of the atom signatures (:attr:`Cover.atoms`), and
    a cell's indices are the union of the atoms whose signature contains it.
    """
    if max_degree < 0:
        raise LsglueError("max_degree must be >= 0")
    members = {}
    for signature, indices in cover.atoms.items():
        for size in range(1, min(max_degree + 1, len(signature)) + 1):
            for names in combinations(signature, size):
                members.setdefault(names, []).append(indices)
    return [
        NerveCell(chart_names=names, indices=frozenset(chain.from_iterable(members[names])))
        for names in sorted(members, key=lambda names: (len(names), names))
    ]


def ensure_nonnegative_weights(data: WeightedDataSet) -> None:
    """Default ingestion policy; loaders skip this when negatives are allowed."""
    bad = [i + 1 for i, p in enumerate(data.points) if p.weight < 0]
    if bad:
        raise LsglueError(
            f"negative weights at indices {bad}; pass allow_negative_weights to accept"
        )


def dataset_from_json(doc: dict, allow_negative_weights: bool = False) -> WeightedDataSet:
    """Parse ``{"ambient_dim": n, "points": [{"x": [...], "y": ..., "weight": ...}]}``.

    Coordinates, responses, and weights are rational literals (strings or
    ints); ``weight`` defaults to 1.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise LsglueError("dataset JSON must be an object with a 'points' array")
    ambient = doc.get("ambient_dim")
    points = []
    for record in doc["points"]:
        if not isinstance(record, dict) or "x" not in record or "y" not in record:
            raise LsglueError("each point needs an 'x' array and a 'y' value")
        xs = record["x"]
        if not isinstance(xs, list):
            raise LsglueError("point 'x' must be an array of rational literals")
        x = Vector.of(_lit(v) for v in xs)
        y = _lit(record["y"])
        w = _lit(record.get("weight", 1))
        points.append(WeightedPoint(x=x, y=y, weight=w))
    if ambient is None:
        if not points:
            raise LsglueError("empty dataset needs an explicit ambient_dim")
        ambient = points[0].x.dim
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 1:
        raise LsglueError(f"ambient_dim must be a positive integer, got {ambient!r}")
    data = WeightedDataSet(tuple(points), ambient)
    if not allow_negative_weights:
        ensure_nonnegative_weights(data)
    return data


def dataset_from_csv(text: str, allow_negative_weights: bool = False) -> WeightedDataSet:
    """Parse CSV with header ``x1,...,xN,y,weight``."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise LsglueError("empty CSV dataset") from None
    header = [h.strip() for h in header]
    if len(header) < 3 or header[-1] != "weight" or header[-2] != "y":
        raise LsglueError("CSV header must be x1,...,xN,y,weight")
    ambient = len(header) - 2
    points = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise LsglueError(f"CSV row has {len(row)} fields, expected {len(header)}")
        x = Vector.of(rational_from_string(v) for v in row[:ambient])
        points.append(
            WeightedPoint(
                x=x,
                y=rational_from_string(row[ambient]),
                weight=rational_from_string(row[ambient + 1]),
            )
        )
    data = WeightedDataSet(tuple(points), ambient)
    if not allow_negative_weights:
        ensure_nonnegative_weights(data)
    return data


def cover_from_json(doc: dict, base: WeightedDataSet) -> Cover:
    """Parse ``{"charts": [{"name": ..., "indices": [...]}, ...]}`` (1-based)."""
    if not isinstance(doc, dict) or not isinstance(doc.get("charts"), list):
        raise LsglueError("cover JSON must be an object with a 'charts' array")
    charts = []
    for record in doc["charts"]:
        name = record.get("name") if isinstance(record, dict) else None
        indices = record.get("indices") if isinstance(record, dict) else None
        if not isinstance(name, str) or not isinstance(indices, list):
            raise LsglueError("each chart needs a string 'name' and an 'indices' array")
        if any(not isinstance(i, int) or isinstance(i, bool) for i in indices):
            raise LsglueError(f"chart {name!r} indices must be integers")
        charts.append((name, indices))
    cover = Cover.of(base, charts)
    validate_cover(cover)
    return cover


def _lit(value):
    if isinstance(value, str):
        return rational_from_string(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise LsglueError(f"rational literals must be strings or ints, got {value!r}")
    return rat(value)
