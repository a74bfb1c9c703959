"""Embedding operators with certified two-sided norm bounds.

Three constructions, one per target:

* ``embed_holder`` sends a finite coefficient vector into the Holder
  functions over a separated pair family: coordinate n rides the n-th
  pair bump.  The Holder norm of the image is sandwiched between the
  sup of the coefficients and ``(2 / K**alpha + 1)`` times it.
  ``distortion_report`` and ``verify_sandwich`` certify both on batches
  of concrete inputs, with norms from ``HolderEmbedding.apply_batch``,
  whose docstring gives why its support-restricted seminorm is exact.
  It scans the pairs inside the support in blocks of bounded size, one
  gather per block, never one Python step per point or per vector.
  The images of the unit vectors are the pair bumps themselves, so a
  batch of the identity matrix gives every bump's norms.  The battery
  of ``structured_vectors`` is built once per length and kept under
  ``_BATTERY_BYTES``.
* ``embed_cb`` sends coefficients onto disjoint tent bumps; the sup norm
  of the image reproduces the coefficient sup exactly.  ``tent_images``
  builds the tents once and sends a whole batch; ``embed_cb`` is its
  batch of one.
* ``embed_linf`` sends coefficients onto the indicators of a positive-
  mass partition; the essential sup is again exact.

The operators act on finite truncations: a vector of length m is paired
with exactly m pairs / centers / cells.

Each verified operator is built once per space and then reused: the
tent map of ``tent_images`` (owner, columns and tent values, after the
radius and overlap checks) keyed by its centers and radii, and the
tables of ``build_support_map`` (after ``verify_pair_family``), the
support's pair tables among them, keyed by the family and alpha.  The
memo is weakly keyed on the space and holds only read-only tables,
never the space, so its entries die with their space; each space keeps
at most ``_MEMO_BYTES`` of table bytes (the arrays' ``nbytes``), least
recently used out first.  A build that raises stores nothing, and
creates no entry for its space, so a refused input is refused again on
every call.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import tolerances
from ._lru import ByteLRU
from .errors import (
    CertificateViolationError,
    InconsistentFamilyError,
    InvalidInputError,
)
# perfbench/tracing.py wraps holder_norm and tent_bump under this module's names
from .holder import ScalarField, holder_norm, pair_bump, tent_bump, validate_alpha, validate_radius  # noqa: F401
from .inputs import cell_masses, parse_floats
from .metric import FiniteMetricSpace, SeparatedPairFamily, verify_pair_family

__all__ = [
    "FiniteSequence",
    "HolderEmbedding",
    "SandwichCheck",
    "EmbeddingReport",
    "StepFunction",
    "build_support_map",
    "embed_holder",
    "verify_sandwich",
    "distortion_report",
    "structured_vectors",
    "embed_cb",
    "tent_images",
    "embed_linf",
]

# Bytes of operator tables kept per space, tent maps and Holder tables
# alike: the pair tables of three 1600-point spaces that are all support
# (16 bytes per pair, 20 MB each).
_MEMO_BYTES = 64 << 20
_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# Elements of one block of apply_batch's pair scan, both gathered ends
# together: 1 MiB, half a 2 MiB L2 cache.  A quarter of this ran
# embed-batch 25% slower; twice this raised its peak RSS by 1.5 MB.
_BLOCK = 1 << 17

# Bytes of test batteries kept, each sized by sys.getsizeof: a battery
# of length m takes about 8 * m**2 bytes, so lengths up to about 300 fit.
_BATTERY_BYTES = 1 << 20
_batteries = ByteLRU(_BATTERY_BYTES)


def _memoized(space: FiniteMetricSpace, key, build):
    """build()'s tables for key on space, built once while space lives.

    build must not return anything that refers to space, or the entry
    would keep its own key alive.
    """
    cache = _memo.get(space)
    tables = None if cache is None else cache.get(key)
    if tables is None:
        tables = build()
        for table in tables:
            table.setflags(write=False)
        _memo.setdefault(space, ByteLRU(_MEMO_BYTES)).put(key, tables, sum(t.nbytes for t in tables))
    return tables


def _matrix(vectors: list[FiniteSequence], m: int) -> np.ndarray:
    """The V x m matrix of V vectors of length m, filled in one pass."""
    entries = chain.from_iterable(a.entries for a in vectors)
    return np.fromiter(entries, float, len(vectors) * m).reshape(len(vectors), m)


@dataclass(frozen=True)
class FiniteSequence:
    """A finite real coefficient vector, a truncation of a bounded one."""

    entries: tuple[float, ...]

    def __post_init__(self):
        vals = parse_floats(self.entries)
        if not all(map(math.isfinite, vals)):
            raise InvalidInputError("entries must be finite")
        object.__setattr__(self, "entries", vals)

    @property
    def sup_value(self) -> float:
        return max(map(abs, self.entries), default=0.0)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def unit(cls, k: int, length: int) -> "FiniteSequence":
        if not 0 <= k < length:
            raise InvalidInputError(f"unit index {k} out of range for length {length}")
        zeros = (0.0,) * length
        return cls(zeros[:k] + (1.0,) + zeros[k + 1 :])

    @classmethod
    def alternating(cls, length: int) -> "FiniteSequence":
        return cls(tuple(1.0 if i % 2 == 0 else -1.0 for i in range(length)))

    def to_json(self) -> list[float]:
        return list(self.entries)


@dataclass(frozen=True)
class HolderEmbedding:
    """The operator a -> sum_n a_n * phi_n over a verified pair family.

    Every image vanishes off S, the union of the family's disjoint open
    balls.  ``support`` lists S in ascending order; ``owner[i]`` is the
    pair whose ball holds ``support[i]`` and ``weight[i]`` its bump value
    there.  The pairs i < j of S, row by row, are ``pair_i[k]``,
    ``pair_j[k]`` (int32) with ``den[k]`` = d(S[i], S[j])**alpha: 16
    bytes per pair, under the 8 * |S|**2 of a square table.
    ``off_min[i]`` is the least d(S[i], q)**alpha over q off S (inf when
    S is the whole space).
    So a seminorm scans only pairs inside S: pairs off S give exact 0,
    and IEEE division is monotone in its divisor, so the largest
    |f(p)| / d(p, q)**alpha over q off S is |f(p)| / ``off_min`` bit for
    bit.  The minimum is over powered values, as rounded powers need not
    be monotone; distances are read as d[min(p, q), max(p, q)] and
    powered as arrays, exactly as ``holder_seminorm`` does.
    """

    space: FiniteMetricSpace
    family: SeparatedPairFamily
    alpha: float
    support: np.ndarray
    owner: np.ndarray
    weight: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    den: np.ndarray
    off_min: np.ndarray

    @property
    def bound_upper(self) -> float:
        """The operator norm bound: ||T(a)|| <= (2 / K**alpha + 1) * sup(a)."""
        return 2.0 / self.family.K**self.alpha + 1.0

    def coefficients(self, vectors: list[FiniteSequence]) -> np.ndarray:
        """The V x m matrix of V vectors, each one coefficient per pair."""
        m = len(self.family)
        for a in vectors:
            if len(a) != m:
                raise InvalidInputError(f"vector length {len(a)} != family size {m}")
        return _matrix(vectors, m)

    def apply_batch(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sup norms and seminorms (inf past the float range) of the V rows' images.

        The pair scan gathers both ends of a block of pairs from one
        |S| x V copy of the image values and takes each column's largest
        ratio; a block holds at most ``_BLOCK`` elements.  So the
        temporaries are two |S| x V arrays, then one and a block, however
        many pairs S has.  Each ratio is the row-by-row scan's
        |v_j - v_i| / den, and max does not depend on the order, so the
        result is the same bit for bit.
        """
        values = coeffs.T[self.owner]  # values[i, v]: image v at S[i]
        values *= self.weight[:, None]
        with np.errstate(over="ignore"):
            mag = np.abs(values)
            sups = mag.max(axis=0, initial=0.0)
            seminorms = np.divide(mag, self.off_min[:, None], out=mag).max(axis=0, initial=0.0)
            del mag
            step = max(1, min(len(self.den), _BLOCK // (2 * len(sups) or 1)))  # pairs per block
            ends = np.empty((2, step, len(sups)))
            for lo in range(0, len(self.den), step):
                den = self.den[lo : lo + step, None]
                far, near = ends[:, : len(den)]
                # indices built with the tables: no bounds check, no buffered copy
                np.take(values, self.pair_j[lo : lo + step], axis=0, out=far, mode="clip")
                np.take(values, self.pair_i[lo : lo + step], axis=0, out=near, mode="clip")
                np.subtract(far, near, out=far)
                np.abs(far, out=far)
                np.divide(far, den, out=far)
                np.maximum(seminorms, far.max(axis=0), out=seminorms)
        return sups, seminorms


def build_support_map(
    space: FiniteMetricSpace,
    family: SeparatedPairFamily,
    alpha: float,
) -> HolderEmbedding:
    """Verify the family, build every pair bump and the seminorm tables, once per space.

    The support of the n-th pair bump is exactly the open ball around
    y_n, so each point takes its profile value from the one bump whose
    ball holds it.  Later calls with the same family and alpha reuse the
    tables.  A bound 2 / K**alpha + 1 past the float range is refused:
    an upper test against inf would pass without testing anything.
    """
    alpha = validate_alpha(alpha)
    tables = _memoized(space, ("holder", family, alpha), lambda: _holder_tables(space, family, alpha))
    embedding = HolderEmbedding(space, family, alpha, *tables)
    with np.errstate(over="ignore"):  # a numpy K overflows with a warning
        bound = embedding.bound_upper
    if not math.isfinite(bound):
        raise InvalidInputError(f"bound 2 / K**alpha + 1 overflows for K = {float(family.K)!r}, alpha = {alpha!r}")
    return embedding


def _holder_tables(space: FiniteMetricSpace, family: SeparatedPairFamily, alpha: float) -> tuple:
    report = verify_pair_family(space, family)
    if not report.ok:
        raise InconsistentFamilyError(
            f"family fails separation: {report.violations[:3]}"
        )
    members = space.balls([y for _, y in family.pairs], family.radii(space))
    owner = np.full(len(space), -1)
    profile = np.zeros(len(space))
    for n, (pair, mask) in enumerate(zip(family.pairs, members)):
        profile[mask] = pair_bump(space, pair, family.K, alpha).values[mask]
        owner[mask] = n
    support = np.flatnonzero(owner >= 0)
    later = support[:, None] < np.arange(len(space))
    powered = np.where(later, space.dist[support], space.dist[:, support].T) ** alpha
    off_min = powered[:, owner < 0].min(axis=1, initial=np.inf)
    pair_i, pair_j = np.triu_indices(len(support), 1)
    den = powered[pair_i, support[pair_j]]
    pair_i, pair_j = pair_i.astype(np.int32), pair_j.astype(np.int32)
    return support, owner[support], profile[support], pair_i, pair_j, den, off_min


def embed_holder(a: FiniteSequence, embedding: HolderEmbedding) -> ScalarField:
    """Image of the coefficient vector: a(n(x)) times the n(x)-th bump.

    Points carried by no ball get value 0; since every bump vanishes off
    its own ball, this agrees pointwise with any fallback-index reading.
    """
    values = np.zeros(len(embedding.space))
    values[embedding.support] = embedding.coefficients([a])[0, embedding.owner] * embedding.weight
    return ScalarField(embedding.space, values)


@dataclass(frozen=True)
class SandwichCheck:
    """Both norm inequalities for one concrete coefficient vector."""

    vector_sup: float
    image_holder_norm: float
    ratio: float | None  # image norm / vector sup; None for the zero vector
    bound_upper: float
    lower_ok: bool
    upper_ok: bool

    def to_json(self) -> dict:
        return {
            "vector_sup": self.vector_sup,
            "image_holder_norm": self.image_holder_norm,
            "ratio": self.ratio,
            "bound_upper": self.bound_upper,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
        }


def verify_sandwich(vectors: list[FiniteSequence], embedding: HolderEmbedding) -> list[SandwichCheck]:
    """Certify sup(a) <= ||T(a)|| <= (2/K**alpha + 1) * sup(a) for each a.

    One record per vector from the arrays of ``_certify``, for the sandwich
    suite.  A violation is returned in its vector's check, so the suite
    collects failures rather than aborting; ``distortion_report`` raises.
    """
    norm, sup_a, lower_ok, upper_ok = _certify(vectors, embedding)
    bound_upper = embedding.bound_upper
    return [
        SandwichCheck(s, n, (n / s) if s > 0 else None, bound_upper, lo, up)
        for s, n, lo, up in zip(sup_a.tolist(), norm.tolist(), lower_ok.tolist(), upper_ok.tolist())
    ]


def _certify(vectors: list[FiniteSequence], embedding: HolderEmbedding) -> tuple:
    """Image norms, coefficient sups and both sandwich tests of a batch, as arrays.

    Each test, with relative slack, is one array expression with the
    scalar test's operands in its order, so each flag is the scalar
    test's bit for bit, inf and NaN from overflow included (silent, as
    with Python floats).
    """
    coeffs = embedding.coefficients(vectors)
    sups, seminorms = embedding.apply_batch(coeffs)
    sup_a = np.abs(coeffs).max(axis=1, initial=0.0)
    bound_upper = embedding.bound_upper
    slack = tolerances.DEFAULT_TOLERANCES.sandwich_rel
    with np.errstate(over="ignore", invalid="ignore"):
        norm = sups + seminorms
        lower_ok = sup_a <= norm * (1.0 + slack) + slack * np.maximum(1.0, sup_a)
        upper_ok = norm <= bound_upper * sup_a * (1.0 + slack) + slack
    return norm, sup_a, lower_ok, upper_ok


@dataclass(frozen=True)
class EmbeddingReport:
    """Distortion summary over a batch of coefficient vectors."""

    lower: float  # smallest observed ratio
    upper: float  # largest observed ratio
    bound_upper: float
    samples: int
    worst_vector: FiniteSequence  # attains the largest ratio

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "bound_upper": self.bound_upper,
            "samples": self.samples,
            "worst_vector": self.worst_vector.to_json(),
        }


def structured_vectors(length: int) -> list[FiniteSequence]:
    """The deterministic extremal battery: unit vectors and the +-1 wave.

    Built once per length while it fits ``_BATTERY_BYTES``; every call
    returns a new list, which the caller may extend.
    """
    battery = _batteries.get(length)
    if battery is None:
        battery = [FiniteSequence.unit(k, length) for k in range(length)]
        battery.append(FiniteSequence.alternating(length))
        nbytes = sum(sys.getsizeof(a) + sys.getsizeof(vars(a)) + sys.getsizeof(a.entries) for a in battery)
        _batteries.put(length, battery, nbytes)
    return list(battery)


def distortion_report(
    space: FiniteMetricSpace,
    family: SeparatedPairFamily,
    alpha: float,
    vectors: list[FiniteSequence],
) -> EmbeddingReport:
    """Measure the embedding's distortion over the given nonzero vectors.

    The ratios are read from the arrays of ``_certify``, the kernel of
    ``verify_sandwich``.  The first failing vector raises: InvalidInputError if
    its norm overflowed, else CertificateViolationError with it as witness.
    """
    nonzero = [a for a in vectors if any(a.entries)]  # finite entries: exactly sup_value != 0
    if not nonzero:
        raise InvalidInputError("no nonzero vectors supplied")
    embedding = build_support_map(space, family, alpha)
    norm, sup_a, lower_ok, upper_ok = _certify(nonzero, embedding)
    ok = lower_ok & upper_ok & np.isfinite(norm)
    if not ok.all():
        i = int(ok.argmin())  # the first False
        if not math.isfinite(norm[i]):  # no bound holds on an overflowed norm
            raise InvalidInputError(f"image norm overflows the float range at sup(a)={float(sup_a[i])!r}")
        side = "lower" if not lower_ok[i] else "upper"
        raise CertificateViolationError(
            f"{side} embedding bound violated: sup(a)={float(sup_a[i])!r}, "
            f"norm={float(norm[i])!r}, upper bound {embedding.bound_upper!r}",
            witness=nonzero[i],
        )
    ratios = norm / sup_a
    worst = int(ratios.argmax())  # the first maximum
    return EmbeddingReport(
        lower=float(ratios.min()),
        upper=float(ratios[worst]),
        bound_upper=embedding.bound_upper,
        samples=len(nonzero),
        worst_vector=nonzero[worst],
    )


def tent_images(
    vectors: list[FiniteSequence],
    space: FiniteMetricSpace,
    centers: list[str],
    radii: list[float],
) -> np.ndarray:
    """V x n values: row v is the sum of vectors[v]-scaled tents over disjoint balls.

    The balls, their owners and the tent values are built once per space
    and reused for the same centers and radii; every row is then one
    gather of its coefficients times the tents.
    """
    for m in [len(a) for a in vectors] or [len(centers)]:
        if m != len(centers) or len(centers) != len(radii):
            raise InvalidInputError(
                f"lengths disagree: {m} coefficients, {len(centers)} centers, "
                f"{len(radii)} radii"
            )
    # radii are checked on a miss only: a stored key holds accepted radii, a refused one is never stored
    key = ("tent", tuple(centers), tuple(radii))
    owner, cols, tents = _memoized(space, key, lambda: _tent_map(space, centers, radii))
    coeffs = _matrix(vectors, len(centers))
    values = np.zeros((len(vectors), len(space)))
    values[:, cols] = coeffs[:, owner] * tents
    return values


def _tent_map(space: FiniteMetricSpace, centers: list[str], radii: list[float]) -> tuple:
    """The owner, column and tent value of every point inside a ball; the balls must be disjoint."""
    radii = tuple(map(validate_radius, radii))
    members = space.balls(centers, radii)
    clash = np.nonzero(members.sum(axis=0) > 1)[0]
    if clash.size:
        raise InvalidInputError(
            f"balls overlap at point {space.labels[int(clash[0])]!r}"
        )
    owner, cols = np.nonzero(members)
    rows = np.array([space.index(c) for c in centers], dtype=int)[owner]
    tents = np.maximum(1.0 - space.dist[rows, cols] / np.take(radii, owner), 0.0)
    return owner, cols, tents


def embed_cb(
    a: FiniteSequence,
    space: FiniteMetricSpace,
    centers: list[str],
    radii: list[float],
) -> ScalarField:
    """Sum of coefficient-scaled tents over pairwise disjoint balls.

    Exactly isometric: each center carries its own coefficient with tent
    value exactly 1, every other point value is a product with a factor
    in [0, 1), so the sup norm of the image equals the coefficient sup
    bit for bit.  The batch of one of ``tent_images``.
    """
    return ScalarField(space, tent_images([a], space, centers, radii)[0])


@dataclass(frozen=True)
class StepFunction:
    """A simple function on a positive-mass partition: one value per cell."""

    cell_values: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        vals, masses = parse_floats(self.cell_values), tuple(self.masses)
        if len(vals) != len(masses):
            raise InvalidInputError(f"vector length {len(vals)} != partition size {len(masses)}")
        object.__setattr__(self, "cell_values", vals)
        object.__setattr__(self, "masses", cell_masses(masses))

    @property
    def ess_sup(self) -> float:
        # every cell has positive mass, so no value is negligible
        return max((abs(v) for v in self.cell_values), default=0.0)

    def to_json(self) -> dict:
        return {"cell_values": list(self.cell_values), "masses": list(self.masses)}


def embed_linf(a: FiniteSequence, masses: list[float]) -> StepFunction:
    """Coefficients onto partition indicators; an exact isometry.

    Every cell mass must be positive: a null cell would make its
    coefficient invisible to the essential sup.
    """
    return StepFunction(cell_values=a.entries, masses=masses)
