"""Weighted finite data sets, chart restrictions, covers, and nerve cells.

A data set is integer rows: each point is its coordinates, response and
weight as (numerator, denominator) pairs in lowest terms, read straight from
the literals (``scalars.literal_pair``) by the JSON and CSV readers, so no
rational is built per literal.  ``points`` and :class:`WeightedPoint` are a
view for the library, built when read.

Points are addressed by stable 1-based indices.  Restricting to a chart
never deletes points: it zeroes the weights outside the chart, so repeated
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
from .linalg import Value, Vector, over_lcm
from .scalars import Rational, literal_pair, rat

# The most chart subsets enumerate_nerve may visit; the wide_nerve benchmark visits 1392.
MAX_NERVE_VISITS = 10**6


class WeightedPoint(Value):
    """One point as rationals: coordinates ``x``, response ``y`` and
    ``weight``; the view :attr:`WeightedDataSet.points` builds."""

    __slots__ = ("x", "y", "weight")

    def __init__(self, x: Vector, y, weight):
        # y and weight are rationals
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weight", weight)


class WeightedDataSet(Value):
    """Points as integers: ``rows`` holds one ``(x, y, weight)`` per point,
    x a tuple of one (numerator, denominator) pair per coordinate and y and
    weight one pair each, every pair in lowest terms with a positive
    denominator, so equal data sets have equal fields.  :meth:`of` builds one
    from rationals, and :attr:`points` and :meth:`point` are the rational
    views."""

    __slots__ = ("rows", "ambient_dim")

    def __init__(self, rows: tuple, ambient_dim: int):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        for x, _, _ in rows:
            if len(x) != ambient_dim:
                raise DimensionMismatch(
                    f"point with dim {len(x)} in data set of ambient dim {ambient_dim}"
                )

    @classmethod
    def of(cls, rows: Iterable, ambient_dim: int | None = None) -> "WeightedDataSet":
        """Build from ``(x, y)`` or ``(x, y, weight)`` tuples; x may be a scalar."""
        converted = []
        for row in rows:
            x, y = row[0], row[1]
            w = row[2] if len(row) > 2 else 1
            xs = x if isinstance(x, (tuple, list)) else (x,)
            converted.append((tuple(map(_rat_pair, xs)), _rat_pair(y), _rat_pair(w)))
        if ambient_dim is None:
            if not converted:
                raise DimensionMismatch("cannot infer ambient_dim of an empty data set")
            ambient_dim = len(converted[0][0])
        return cls(tuple(converted), ambient_dim)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def points(self) -> tuple:
        """One :class:`WeightedPoint` per row, built when read."""
        return tuple(map(_point, self.rows))

    def point(self, index: int) -> WeightedPoint:
        """1-based access."""
        self._check_index(index)
        return _point(self.rows[index - 1])

    def indices(self) -> frozenset:
        return frozenset(range(1, self.size + 1))

    def _check_index(self, index: int) -> None:
        if not 1 <= index <= self.size:
            raise IndexOutOfRange(f"index {index} outside 1..{self.size}")


def _rat_pair(value) -> tuple:
    """(numerator, denominator) of ``value`` as :func:`scalars.rat` reads it."""
    value = rat(value)
    return value.numerator, value.denominator


def _point(row: tuple) -> WeightedPoint:
    x, y, w = row
    den, nums = over_lcm(*zip(*x))
    return WeightedPoint(Vector(nums, den), Rational(*y), Rational(*w))


_ZERO_WEIGHT = (0, 1)


def restrict(data: WeightedDataSet, keep: Iterable[int]) -> WeightedDataSet:
    """Zero the weights of every point outside ``keep`` (1-based indices).

    Indexing is preserved, so this realizes the pullback of weights along the
    chart inclusion: kept weights pass through, the rest map to 0.
    """
    keep_set = frozenset(keep)
    for i in keep_set:
        data._check_index(i)
    rows = tuple(
        row if i in keep_set else (row[0], row[1], _ZERO_WEIGHT)
        for i, row in enumerate(data.rows, 1)
    )
    return WeightedDataSet(rows, data.ambient_dim)


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
        size = self.base.size
        for name, chart in self.charts:
            if chart and not 1 <= min(chart) <= max(chart) <= size:
                i = next(i for i in sorted(chart) if not 1 <= i <= size)
                raise IndexOutOfRange(
                    f"chart {excerpt(repr(name))} references index {excerpt(repr(i))}"
                    f" outside 1..{size}"
                )
        signatures = [[] for _ in range(size + 1)]
        for name, chart in sorted(self.charts, key=lambda item: item[0]):
            for i in chart:
                signatures[i].append(name)
        atoms = {}
        for i in range(1, size + 1):
            if signatures[i]:
                atoms.setdefault(tuple(signatures[i]), []).append(i)
        object.__setattr__(self, "atoms", {key: tuple(ix) for key, ix in atoms.items()})

    @classmethod
    def of(cls, base: WeightedDataSet, charts: Iterable) -> "Cover":
        return cls(base, tuple((name, frozenset(int(i) for i in idx)) for name, idx in charts))


def validate_cover(cover: Cover) -> None:
    """Check that the chart index sets jointly exhaust the base data set.

    The membership atoms are disjoint and hold every point of some chart, so
    they cover the set exactly when their sizes sum to its size; only
    otherwise are the missing indices found."""
    if sum(map(len, cover.atoms.values())) != cover.base.size:
        covered = frozenset(chain.from_iterable(cover.atoms.values()))
        raise NotACover(cover.base.indices() - covered)


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
    bad = [i for i, (_, _, (w, _)) in enumerate(data.rows, 1) if w < 0]
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
    rows = []
    for record in doc["points"]:
        if not isinstance(record, dict) or "x" not in record or "y" not in record:
            raise LsglueError("each point needs an 'x' array and a 'y' value")
        xs = record["x"]
        if not isinstance(xs, list):
            raise LsglueError("point 'x' must be an array of rational literals")
        rows.append((tuple(map(_pair, xs)), _pair(record["y"]), _pair(record.get("weight", 1))))
    if ambient is None:
        if not rows:
            raise LsglueError("empty dataset needs an explicit ambient_dim")
        ambient = len(rows[0][0])
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 1:
        raise LsglueError(f"ambient_dim must be a positive integer, got {excerpt(repr(ambient))}")
    data = WeightedDataSet(tuple(rows), ambient)
    if not allow_negative_weights:
        ensure_nonnegative_weights(data)
    return data


def dataset_from_csv(text: str, allow_negative_weights: bool = False) -> WeightedDataSet:
    """Parse CSV with header ``x1,...,xN,y,weight``."""
    records = _csv_rows(text)
    _, header = next(records, (0, None))
    if header is None:
        raise LsglueError("empty CSV dataset")
    header = [h.strip() for h in header]
    if len(header) < 3 or header[-1] != "weight" or header[-2] != "y":
        raise LsglueError("CSV header must be x1,...,xN,y,weight")
    ambient = len(header) - 2
    rows = []
    for line, row in records:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise LsglueError(f"CSV row has {len(row)} fields, expected {len(header)}")
            values = tuple(map(literal_pair, row))
        except LsglueError as err:
            err.args = (f"CSV line {line}: {err}",)
            raise
        rows.append((values[:ambient], *values[ambient:]))
    data = WeightedDataSet(tuple(rows), ambient)
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


def _pair(value) -> tuple:
    """(numerator, denominator) of a JSON literal: a string as
    :func:`scalars.literal_pair` reads it, or an int."""
    if isinstance(value, str):
        return literal_pair(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise LsglueError(
            f"rational literals must be strings or ints, got {excerpt(repr(value))}"
        )
    return value, 1
