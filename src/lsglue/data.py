"""Weighted finite data sets, chart restrictions, covers, and nerve cells.

Points are addressed by stable 1-based indices.  Restricting to a chart never
deletes points: it zeroes the weights outside the chart, so repeated
restrictions compose literally (restrict through A then B equals restricting
through A ∩ B) and all index bookkeeping stays trivial.

A cover partitions its points into membership atoms: the points that lie in
exactly the same charts.  The atoms are found once, when the cover is
constructed.  A set of charts meets exactly when some atom's signature (its
sorted chart names) contains it, and its common points are the union of
those atoms, so the nerve is enumerated from the atoms in time proportional
to its size rather than by testing every chart tuple.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, combinations
from math import comb

from .errors import DimensionMismatch, IndexOutOfRange, LsglueError, NotACover, excerpt
from .linalg import Value, Vector
from .scalars import ZERO, rat, rational_from_string

# The most chart subsets enumerate_nerve may visit; the wide_nerve benchmark visits 1392.
MAX_NERVE_VISITS = 10**6


class WeightedPoint(Value):
    __slots__ = ("x", "y", "weight")

    def __init__(self, x: Vector, y, weight):
        # y and weight are rationals
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weight", weight)


class WeightedDataSet(Value):
    __slots__ = ("points", "ambient_dim")

    def __init__(self, points: tuple, ambient_dim: int):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "ambient_dim", ambient_dim)
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


class Cover(Value):
    """A base data set, its named charts, and their membership ``atoms``:
    sorted chart-name signature -> sorted 1-based indices of the points lying
    in exactly those charts.  Atoms are disjoint; points in no chart belong to
    none.  Built once, in one pass over the chart index lists."""

    __slots__ = ("base", "charts", "atoms")
    __hash__ = None

    def __init__(self, base: WeightedDataSet, charts: tuple):
        # charts: (name, frozenset of 1-based indices) pairs, in file order
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "charts", charts)
        names = [name for name, _ in self.charts]
        if len(set(names)) != len(names):
            raise LsglueError("duplicate chart names in cover")
        for name in names:
            if not name or "|" in name:
                raise LsglueError(
                    f"chart name {excerpt(repr(name))} must be nonempty and free of '|'"
                    " (reserved for cell labels)"
                )
            if any("\ud800" <= c <= "\udfff" for c in name):  # a surrogate: JSON can spell one
                raise LsglueError(f"chart name {excerpt(repr(name))} is not encodable as UTF-8")
        for name, chart in self.charts:
            for i in sorted(chart):
                if not 1 <= i <= self.base.size:
                    raise IndexOutOfRange(
                        f"chart {excerpt(repr(name))} references index {excerpt(repr(i))}"
                        f" outside 1..{self.base.size}"
                    )
        signatures = [[] for _ in range(self.base.size + 1)]
        for name, chart in sorted(self.charts, key=lambda item: item[0]):
            for i in chart:
                signatures[i].append(name)
        atoms = {}
        for i in range(1, self.base.size + 1):
            if signatures[i]:
                atoms.setdefault(tuple(signatures[i]), []).append(i)
        object.__setattr__(self, "atoms", {key: tuple(ix) for key, ix in atoms.items()})

    @classmethod
    def of(cls, base: WeightedDataSet, charts: Iterable) -> "Cover":
        return cls(base, tuple((name, frozenset(int(i) for i in idx)) for name, idx in charts))


def validate_cover(cover: Cover) -> None:
    """Check that the chart index sets jointly exhaust the base data set."""
    union = frozenset().union(*(chart for _, chart in cover.charts))
    missing = cover.base.indices() - union
    if missing:
        raise NotACover(missing)


class NerveCell(Value):
    """k+1 charts with nonempty common index intersection (degree k)."""

    __slots__ = ("chart_names", "indices")

    def __init__(self, chart_names: tuple, indices: frozenset):
        object.__setattr__(self, "chart_names", chart_names)
        object.__setattr__(self, "indices", indices)

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
    Those subsets are first counted, Σ_atoms Σ_{s <= max_degree + 1}
    C(|signature|, s), without listing them; a count past
    :data:`MAX_NERVE_VISITS` raises :class:`LsglueError` as soon as it is seen.
    """
    if max_degree < 0:
        raise LsglueError("max_degree must be >= 0")
    visits = 0
    for signature in cover.atoms:
        for size in range(1, min(max_degree + 1, len(signature)) + 1):
            visits += comb(len(signature), size)
            if visits > MAX_NERVE_VISITS:
                raise LsglueError(
                    f"the nerve up to degree {max_degree} would visit more than"
                    f" {MAX_NERVE_VISITS} chart subsets"
                )
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
            f"negative weights at indices {excerpt(str(bad))};"
            " pass allow_negative_weights to accept"
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
        x = Vector(tuple(_lit(v) for v in xs))
        y = _lit(record["y"])
        w = _lit(record.get("weight", 1))
        points.append(WeightedPoint(x=x, y=y, weight=w))
    if ambient is None:
        if not points:
            raise LsglueError("empty dataset needs an explicit ambient_dim")
        ambient = points[0].x.dim
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 1:
        raise LsglueError(f"ambient_dim must be a positive integer, got {excerpt(repr(ambient))}")
    data = WeightedDataSet(tuple(points), ambient)
    if not allow_negative_weights:
        ensure_nonnegative_weights(data)
    return data


def dataset_from_csv(text: str, allow_negative_weights: bool = False) -> WeightedDataSet:
    """Parse CSV with header ``x1,...,xN,y,weight``."""
    rows = _csv_rows(text)
    _, header = next(rows, (0, None))
    if header is None:
        raise LsglueError("empty CSV dataset")
    header = [h.strip() for h in header]
    if len(header) < 3 or header[-1] != "weight" or header[-2] != "y":
        raise LsglueError("CSV header must be x1,...,xN,y,weight")
    ambient = len(header) - 2
    points = []
    for line, row in rows:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise LsglueError(f"CSV row has {len(row)} fields, expected {len(header)}")
            values = tuple(rational_from_string(v) for v in row)
        except LsglueError as err:
            err.args = (f"CSV line {line}: {err}",)
            raise
        points.append(WeightedPoint(Vector(values[:ambient]), *values[ambient:]))
    data = WeightedDataSet(tuple(points), ambient)
    if not allow_negative_weights:
        ensure_nonnegative_weights(data)
    return data


def _csv_rows(text: str):
    """``(line, row)`` for each row of CSV ``text``, ``line`` the number of
    the row's last line; a row the ``csv`` module refuses (a field over its
    size limit, say) raises :class:`LsglueError` naming its line."""
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as err:
        raise LsglueError(f"CSV line {reader.line_num}: {err}") from None


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
            raise LsglueError(f"chart {excerpt(repr(name))} indices must be integers")
        charts.append((name, indices))
    cover = Cover.of(base, charts)
    validate_cover(cover)
    return cover


def _lit(value):
    if isinstance(value, str):
        return rational_from_string(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise LsglueError(
            f"rational literals must be strings or ints, got {excerpt(repr(value))}"
        )
    return rat(value)
