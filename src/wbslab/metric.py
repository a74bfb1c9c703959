"""Finite metric spaces and separated pair families.

A finite metric space is the desk-scale stand-in for a general one:
labeled points plus a validated distance matrix.  A separated pair
family is a list of point pairs (x_n, y_n) with a constant K in (0, 1]
such that no x_m enters any open ball B(y_n, K*d(x_n, y_n)) and the
balls are pairwise disjoint over the point set.  Ball membership is
strict (open balls) throughout; this makes the separation conditions
easiest to satisfy on finite spaces and keeps bump supports inside the
balls exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import islice
from numbers import Integral, Real
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import tolerances
from .errors import InvalidInputError
from .inputs import json_type, load_json, parse_count, parse_floats

__all__ = [
    "FiniteMetricSpace",
    "MetricViolation",
    "ValidationReport",
    "validate_metric",
    "SeparatedPairFamily",
    "PairFamilyReport",
    "verify_pair_family",
    "find_pair_family",
    "validate_separation",
    "load_space",
    "space_input",
]


@dataclass(frozen=True)
class MetricViolation:
    kind: str  # "shape" | "nan" | "diagonal" | "symmetry" | "positivity" | "triangle"
    points: tuple[str, ...]
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "points": list(self.points), "detail": self.detail}


@dataclass
class ValidationReport:
    violations: list[MetricViolation] = field(default_factory=list)
    checked_triples: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked_triples": self.checked_triples,
            "violations": [v.to_json() for v in self.violations],
        }


def validate_metric(
    dist,
    labels: Sequence[str] | None = None,
    max_reported: int = 50,
) -> ValidationReport:
    """Check the metric axioms on a raw square matrix.

    Non-square input, NaN or infinite entries and labels that are not
    one distinct name per row raise.  Otherwise the report lists the
    first max_reported violations (a count, 1 or more) in one order:
    diagonal; symmetry, then positivity, for i < j row-major; triangle,
    k-major, then row-major with i < j.  The stages run only as far as
    the report has room, so once diagonal, symmetry and positivity fill
    it the O(n^3) triangle pass is skipped.  checked_triples is n**3 by
    definition, the report's field either way, not a count of work done.

    A triangle violation is d_ij - b > triangle_rel * max(b, 1) for some
    b = d_ik + d_kj (the slack spares float Euclidean clouds).  Only
    pairs i < j are reported, so `_best_detours` builds best_ij = min
    over k not in {i, j} of d_ik + d_kj for j > i alone, one row i at a
    time, and the slack test runs once on the result.  The result is
    exact: float addition commutes, float min picks one of the same
    sums in any order (up to the sign of a zero, which changes neither
    test side), the float d - b never increases as b grows and
    rel * max(b, 1) never decreases, so some k violates iff the minimum
    does.  Only failing pairs are then rescanned per k, in report order.
    A sum or difference past the float range is inf, which keeps every
    test's answer.
    """
    return _check_metric(*_metric_input(dist, labels), parse_count(max_reported, "max_reported"))


def _check_metric(arr: np.ndarray, labels: tuple[str, ...], max_reported: int = 50) -> ValidationReport:
    """validate_metric's report on the matrix and labels _metric_input returned."""
    found = islice(_violations(arr), min(max_reported, sys.maxsize))  # islice takes no larger stop
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range; rel = 0 times inf where no k exists
        violations = [MetricViolation(kind, tuple(labels[i] for i in idx), detail) for kind, idx, detail in found]
    return ValidationReport(violations, checked_triples=arr.shape[0] ** 3)


def _violations(arr: np.ndarray) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """(kind, point indices, detail) of each broken axiom, in report order.

    A stage builds its arrays only when the consumer asks past the one
    before, and a clean stage costs one n x n comparison.  Symmetry and
    positivity walk only the rows that hold a candidate, so a full
    report stops at its last row.  The errstate is the consumer's, so no
    yield sits inside one.  The slack rel is never negative.
    """
    rel = tolerances.DEFAULT_TOLERANCES.triangle_rel
    for i in np.nonzero(np.abs(np.diagonal(arr)) > rel)[0]:
        yield "diagonal", (int(i),), f"d(x,x) = {arr[i, i]!r} != 0"
    unequal = arr != arr.T  # |a - a| = 0 passes every slack
    for i in np.flatnonzero(unequal.any(axis=1)):
        js = i + 1 + np.flatnonzero(unequal[i, i + 1 :])
        a, b = arr[i, js], arr[js, i]
        for j in js[np.abs(a - b) > rel * np.maximum(np.abs(a), 1.0)]:
            yield "symmetry", (int(i), int(j)), f"{arr[i, j]!r} vs {arr[j, i]!r}"
    del unequal
    low = arr <= 0
    np.fill_diagonal(low, False)
    for i in np.flatnonzero(low.any(axis=1)):
        for j in i + 1 + np.flatnonzero(low[i, i + 1 :]):
            yield "positivity", (int(i), int(j)), f"d = {arr[i, j]!r} <= 0 for distinct points"
    del low
    best = _best_detours(arr)
    # d - b > rel * max(b, 1) >= 0 needs d > b, so only pairs with d > b are tested
    rows, cols = np.nonzero(arr > best)
    b = best[rows, cols]
    fails = arr[rows, cols] - b > rel * np.maximum(b, 1.0)
    rows, cols = rows[fails], cols[fails]
    del best
    for k in range(len(arr) if len(rows) else 0):  # no failing pair, no rescan
        bound = arr[rows, k] + arr[k, cols]
        hit = (arr[rows, cols] - bound > rel * np.maximum(bound, 1.0)) & (rows != k) & (cols != k)
        for i, j in zip(rows[hit], cols[hit]):
            yield "triangle", (int(i), k, int(j)), f"d = {arr[i, j]!r} > {arr[i, k]!r} + {arr[k, j]!r}"


# Integer matrices with every |d| below _NARROW_BOUND run the detour pass
# in int16: a sum of two entries is at most 2**14 - 2 in size, so it is
# exact.  _NARROW_FILL stands where inf stands in float64: fill plus an
# entry lies in (2**14, 2**15), within int16 and above every real sum,
# so a detour sum of at least 2**14 means no k.
_NARROW_BOUND = 2**13
_NARROW_FILL = 3 * _NARROW_BOUND

def _best_detours(arr: np.ndarray) -> np.ndarray:
    """best[i, j] = min over k not in {i, j} of d_ik + d_kj for i < j; inf elsewhere.

    Both summands are contiguous rows: cols[j, k] = d_kj is one transposed
    copy whose fill diagonal drops k = j, and column i of each row's block
    drops k = i.  The scratch dies on return.

    A matrix of integers below 2**13 in size, none of them -0.0, runs in
    int16 (see _NARROW_BOUND) and returns the same bits as float64: each
    sum is exact in both, and a float sum of two such entries is -0.0
    only if both are, so no minimum is -0.0.
    """
    n = arr.shape[0]
    narrow = _as_int16(arr)
    work, fill = (arr, np.inf) if narrow is None else (narrow, _NARROW_FILL)
    best = np.full((n, n), fill, dtype=work.dtype)
    cols = work.T.copy()
    np.fill_diagonal(cols, fill)
    flat = np.empty(n * n, work.dtype)
    for i in range(n - 1):
        via = flat[: (n - i - 1) * n].reshape(n - i - 1, n)  # via[j - i - 1, k] = d_ik + d_kj
        np.add(work[i], cols[i + 1 :], out=via)
        via[:, i] = fill
        np.minimum.reduce(via, axis=1, out=best[i, i + 1 :])  # np.min without its Python wrapper
    return best if narrow is None else np.where(best < 2 * _NARROW_BOUND, best, np.inf)


def _as_int16(arr: np.ndarray) -> np.ndarray | None:
    """arr in int16 if every entry is an integer below _NARROW_BOUND in size and none is -0.0."""
    first = arr[:1]
    if not np.array_equal(first, np.trunc(first)):  # before any whole-matrix pass
        return None
    if not (np.abs(arr) < _NARROW_BOUND).all():  # NaN and inf fail here, before any cast
        return None
    narrow = arr.astype(np.int16)
    exact = (narrow == arr).all() and not np.signbit(arr[narrow == 0]).any()
    return narrow if exact else None


def _relax(dist: np.ndarray, fill) -> None:
    """Floyd-Warshall in place, with fill for "no path".

    Step k sets d_ij = min(d_ij, d_ik + d_kj) only in rows with
    d_ik != fill: elsewhere the sum is at least fill.  In int16 the edge
    weights are integers >= 0 summing below _NARROW_BOUND, so a real
    d_ik is below 2**13, a sum is at most 2**13 - 1 + _NARROW_FILL =
    2**15 - 1, and "no path" stays exactly _NARROW_FILL.
    """
    for k in range(dist.shape[0]):
        rows = np.nonzero(dist[:, k] != fill)[0]
        dist[rows] = np.minimum(dist[rows], dist[rows, k, None] + dist[k])


def _is_point(u, n: int) -> bool:
    """An index 0..n-1 given as a Python or numpy integer (a bool is not one)."""
    return isinstance(u, Integral) and not isinstance(u, bool) and 0 <= u < n


def _float_array(data) -> np.ndarray:
    """data as floats; a boolean entry, which float() would read as 0 or 1, is refused."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # non-numeric, ragged or too large
        raise InvalidInputError(f"expected an array of numbers: {exc}") from None
    if _holds_bool(data):
        raise InvalidInputError("expected an array of numbers: got JSON boolean")
    return arr


def _holds_bool(data) -> bool:
    """Whether data holds a bool: an array by its dtype, nested lists (as np.asarray took them) row by row."""
    if isinstance(data, np.ndarray):
        return data.dtype.kind == "b"
    kinds = set(map(type, data)) if isinstance(data, (list, tuple)) else {type(data)}
    return bool in kinds or not kinds.isdisjoint((list, tuple)) and any(map(_holds_bool, data))


def default_labels(n: int) -> tuple[str, ...]:
    width = len(str(max(n - 1, 0)))
    return tuple(f"p{str(i).zfill(width)}" for i in range(n))


def _metric_input(dist, labels) -> tuple[np.ndarray, tuple[str, ...]]:
    """A finite, square float matrix and one distinct name per row."""
    arr = _float_array(dist)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(f"distance matrix must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        kind = "NaN" if np.isnan(arr).any() else "infinite"
        raise InvalidInputError(f"distance matrix contains {kind} entries")
    if labels is None:
        return arr, default_labels(arr.shape[0])
    if isinstance(labels, (str, bytes, Mapping)) or not np.iterable(labels):
        raise InvalidInputError(f"labels must be a list of names, got {labels!r}")
    labels = tuple(str(l) for l in labels)
    if len(labels) != arr.shape[0]:
        raise InvalidInputError(f"{len(labels)} labels for {arr.shape[0]} points")
    if len(set(labels)) != len(labels):
        raise InvalidInputError("labels must be distinct")
    return arr, labels


def _point_distances(points, metric: str = "euclidean") -> np.ndarray:
    """The distance matrix of a point cloud under the euclidean, l1 or linf metric.

    Up to seven coordinates the table is built one coordinate at a time,
    in itself and one scratch table: 2 n^2 floats rather than the
    (2d + 1) n^2 of an n x n x d difference array.  numpy sums fewer than
    eight terms in order, as this loop does, so the bits are the same.
    From eight coordinates on numpy sums pairwise, and an l1 or euclidean
    entry of the loop could differ in its last bit, so those clouds keep
    the difference array.
    """
    pts = _float_array(points)
    if pts.ndim not in (1, 2):
        raise InvalidInputError(
            f"points must be numbers or coordinate lists, got shape {pts.shape}"
        )
    if pts.ndim == 1:
        pts = pts[:, None]
    if metric not in ("euclidean", "l1", "linf"):
        raise InvalidInputError(f"unknown metric {metric!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN entries are refused later
        if pts.shape[1] >= 8:
            diff = np.abs(pts[:, None, :] - pts[None, :, :])
            if metric == "linf":
                return diff.max(axis=2)
            return np.sqrt((diff**2).sum(axis=2)) if metric == "euclidean" else diff.sum(axis=2)
        n = len(pts)
        table, scratch = np.zeros((n, n)), np.empty((n, n))
        for x in pts.T:
            np.subtract(x[:, None], x, out=scratch)
            (np.square if metric == "euclidean" else np.abs)(scratch, out=scratch)
            (np.maximum if metric == "linf" else np.add)(table, scratch, out=table)
        return np.sqrt(table, out=table) if metric == "euclidean" else table


def space_input(data) -> tuple:
    """The (matrix, labels) a space JSON object describes, unchecked."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"space JSON must be an object, got {json_type(data)}")
    labels = data.get("labels")
    if "matrix" in data:
        return data["matrix"], labels
    if "points" in data:
        return _point_distances(data["points"], data.get("metric", "euclidean")), labels
    raise InvalidInputError("space JSON needs a 'matrix' or 'points' key")


class FiniteMetricSpace:
    """Labeled points with an immutable distance matrix; every instance passed `validate_metric`."""

    def __init__(self, dist, labels: Sequence[str] | None = None):
        arr, labels = _metric_input(dist, labels)
        report = _check_metric(arr, labels)
        if not report.ok:
            first = report.violations[0]
            raise InvalidInputError(
                f"not a metric: {len(report.violations)}+ violation(s), "
                f"first: {first.kind} at {first.points} ({first.detail})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        self.labels = labels
        self.dist = arr
        self._index = {label: i for i, label in enumerate(labels)}

    # ---- basic queries --------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidInputError(f"unknown point label {label!r}") from None

    def d(self, a: str, b: str) -> float:
        return float(self.dist[self.index(a), self.index(b)])

    def balls(self, centers: Sequence[str], radii: Sequence[float]) -> np.ndarray:
        """m x n mask: row i marks the points strictly inside B(centers[i], radii[i])."""
        rows = self.dist.take([self.index(c) for c in centers], axis=0)
        return rows < np.asarray(radii, dtype=float).reshape(-1, 1)

    # ---- constructors ---------------------------------------------------

    @classmethod
    def from_points(
        cls,
        points,
        metric: str = "euclidean",
        labels: Sequence[str] | None = None,
    ) -> "FiniteMetricSpace":
        return cls(_point_distances(points, metric), labels)

    @classmethod
    def from_graph(
        cls, n: int, edges: Iterable[tuple[int, int, float]], labels=None
    ) -> "FiniteMetricSpace":
        """Shortest-path metric of a weighted undirected graph."""
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for u, v, w in edges:
            try:  # an int or Fraction past the float range overflows; a bool is no weight
                weight = float(w) if isinstance(w, Real) and not isinstance(w, bool) else math.nan
            except OverflowError:
                weight = math.inf
            if not (_is_point(u, n) and _is_point(v, n) and math.isfinite(weight)):
                raise InvalidInputError(
                    f"edge ({u!r}, {v!r}, {w!r}) needs endpoints in 0..{n - 1} and a finite weight"
                )
            dist[u, v] = dist[v, u] = min(dist[u, v], weight)
        kept = dist[np.isfinite(dist)]  # each kept weight twice, and the zero diagonal
        with np.errstate(over="ignore"):  # a sum past the float range is inf: not narrow
            narrow = (
                not np.signbit(kept).any()  # no weight below 0, none -0.0
                and np.array_equal(kept, np.trunc(kept))
                and kept.sum() < 2 * _NARROW_BOUND  # so every path is shorter than 2**13
            )
        if narrow:  # the same integers as the float loop, in a quarter of the bytes
            paths = np.where(np.isinf(dist), _NARROW_FILL, dist).astype(np.int16)
            _relax(paths, _NARROW_FILL)
            dist = np.where(paths == _NARROW_FILL, np.inf, paths)
        else:
            _relax(dist, np.inf)
        if np.isinf(dist).any():
            raise InvalidInputError("graph is not connected")
        return cls(dist, labels)

    @classmethod
    def from_json(cls, data: dict) -> "FiniteMetricSpace":
        return cls(*space_input(data))

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "matrix": self.dist.tolist()}


def load_space(source) -> FiniteMetricSpace:
    """Build a space from a dict, a JSON string, or a file path."""
    if isinstance(source, FiniteMetricSpace):
        return source
    if isinstance(source, dict):
        return FiniteMetricSpace.from_json(source)
    return FiniteMetricSpace.from_json(load_json(source))


def validate_separation(K: float) -> float:
    """K itself if it is a separation constant, in (0, 1]."""
    parse_floats((K,))  # refuses a bool, which would compare as 0 or 1
    if not 0 < K <= 1:  # NaN included
        raise InvalidInputError(f"separation constant must be in (0, 1], got {K}")
    return K


@dataclass(frozen=True)
class SeparatedPairFamily:
    """Pairs (x_n, y_n) with a separation constant K in (0, 1]."""

    pairs: tuple[tuple[str, str], ...]
    K: float

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", tuple((str(x), str(y)) for x, y in self.pairs)
        )
        validate_separation(self.K)

    def __len__(self) -> int:
        return len(self.pairs)

    def radii(self, space: FiniteMetricSpace) -> list[float]:
        return [space.d(x, y) * self.K for x, y in self.pairs]

    def to_json(self) -> dict:
        return {"K": self.K, "pairs": [list(p) for p in self.pairs]}

    @classmethod
    def from_json(cls, data: dict) -> "SeparatedPairFamily":
        try:
            pairs, (K,) = tuple((p[0], p[1]) for p in data["pairs"]), parse_floats([data["K"]])
        except (KeyError, IndexError, TypeError, ValueError, OverflowError):
            raise InvalidInputError('family JSON needs "K" and "pairs": [[x, y], ...]') from None
        return cls(pairs, K)


@dataclass
class PairFamilyReport:
    violations: list[dict] = field(default_factory=list)
    ok = ValidationReport.ok  # no violation

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": self.violations}


def verify_pair_family(
    space: FiniteMetricSpace, family: SeparatedPairFamily
) -> PairFamilyReport:
    """Check the three separation conditions over the finite point set.

    (distinct)    x_n != y_n for every pair;
    (separation)  d(x_m, y_n) >= K * d(x_n, y_n) for all n, m, i.e. no
                  x-point lies strictly inside any ball;
    (disjoint)    no point of the space lies strictly inside two balls.
    """
    violations: list[dict] = []
    pairs = family.pairs
    ends = np.array([(space.index(x), space.index(y)) for x, y in pairs], dtype=int).reshape(-1, 2)
    for n, (x, y) in enumerate(pairs):
        if x == y:
            violations.append({"condition": "distinct", "pair": n, "detail": f"{x} == {y}"})

    radii = family.radii(space)
    # close[n, m] iff d(x_m, y_n) < r_n; nonzero walks it n-major, m-minor
    close = space.dist[np.ix_(ends[:, 0], ends[:, 1])].T < np.reshape(radii, (-1, 1))
    for n, m in zip(*np.nonzero(close)):
        x_m, y_n, d = pairs[m][0], pairs[n][1], float(space.dist[ends[m, 0], ends[n, 1]])
        detail = f"d({x_m}, {y_n}) = {d!r} < {radii[n]!r}"
        violations.append({"condition": "separation", "pair": int(n), "other": int(m), "detail": detail})

    membership = space.balls([y for _, y in pairs], radii)
    counts = membership.sum(axis=0)
    for p in np.nonzero(counts > 1)[0]:
        inside = np.nonzero(membership[:, p])[0]
        violations.append(
            {
                "condition": "disjoint",
                "point": space.labels[int(p)],
                "balls": [int(i) for i in inside],
                "detail": f"point lies in {int(counts[p])} balls",
            }
        )
    return PairFamilyReport(violations)


_PREFIX = 4096  # a matrix of at most this many entries is sorted in one round by find_pair_family


def _conflicts(dist, xs, ys, radii, x, y, r, reach) -> np.ndarray:
    """Candidates that conflict with (x, y, r); reach[p] = d(p, B(y, r))."""
    shared = (xs == x) | (xs == y) | (ys == x) | (ys == y)
    return shared | (dist[xs, y] < r) | (dist[x, ys] < radii) | (reach[ys] < radii)


def find_pair_family(
    space: FiniteMetricSpace, K: float, target_count: int
) -> SeparatedPairFamily:
    """Greedy search for a separated pair family of up to target_count pairs.

    Candidates are all ordered pairs of distinct points, visited by
    distance ascending (small balls are the easiest to keep disjoint),
    ties broken by the label order of the space: the order of a stable
    argsort of the row-major matrix.  It is sorted lazily: a matrix of
    at most _PREFIX entries in one round, a larger one n + 8 *
    target_count entries first (the n diagonal zeros, then 8 candidates
    per pair sought, where a greedy on a fresh space reaches 2 to 4),
    then prefixes four times longer.  Each round takes every tie at its
    threshold, so the rounds concatenate to the full sort whatever
    their sizes.  The first live candidate is accepted, and every
    candidate (x_c, y_c, r_c) that conflicts with the accepted (x, y, r)
    is masked out: it shares a point, d(x_c, y) < r, d(x, y_c) < r_c,
    or its ball meets B(y, r), i.e. y_c is closer than r_c to some
    point of B(y, r).  So a candidate is accepted iff it passes against every pair
    accepted before it.  Points are used at most once, so s points give
    at most floor(s/2) pairs.  The family is returned as found, possibly
    short of the target; it always re-verifies cleanly.
    """
    validate_separation(K)
    target_count = parse_count(target_count, "target_count")
    dist = space.dist
    flat = dist.ravel()
    accepted: list[tuple] = []  # (x, y, r, reach)
    lo, size = -np.inf, flat.size if flat.size <= _PREFIX else len(space) + 8 * target_count
    while len(accepted) < target_count and lo < np.inf:
        thr = np.partition(flat, size - 1)[size - 1] if size < flat.size else np.inf
        idx = np.nonzero((flat > lo) & (flat <= thr))[0]
        idx = idx[idx % (len(space) + 1) != 0]  # off the diagonal
        xs, ys = np.divmod(idx[np.argsort(flat[idx], kind="stable")], len(space))
        lo, size = thr, 4 * size
        radii = K * dist[xs, ys]
        for pair in accepted:
            alive = ~_conflicts(dist, xs, ys, radii, *pair)
            xs, ys, radii = xs[alive], ys[alive], radii[alive]
        while len(xs) and len(accepted) < target_count:
            x, y, r = xs[0], ys[0], radii[0]
            accepted.append((x, y, r, dist[:, dist[y] < r].min(axis=1, initial=np.inf)))
            alive = ~_conflicts(dist, xs, ys, radii, *accepted[-1])
            xs, ys, radii = xs[alive], ys[alive], radii[alive]
    labels = space.labels
    return SeparatedPairFamily(tuple((labels[x], labels[y]) for x, y, *_ in accepted), K)
