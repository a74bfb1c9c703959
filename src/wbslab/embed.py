"""Embedding operators with certified two-sided norm bounds.

Three constructions, one per target:

* ``embed_holder`` sends a finite coefficient vector into the Holder
  functions over a separated pair family: coordinate n rides the n-th
  pair bump.  The Holder norm of the image is sandwiched between the
  sup of the coefficients and ``(2 / K**alpha + 1)`` times it.
  ``distortion_report`` and ``verify_sandwich`` certify both on batches
  of concrete inputs, with norms from ``HolderEmbedding.apply_batch``,
  whose docstring gives why its support-restricted seminorm is exact.
  The images of the unit vectors are the pair bumps themselves, so a
  batch of the identity matrix gives every bump's norms.
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
tables of ``build_support_map`` (after ``verify_pair_family``) keyed by
the family and alpha.  The memo is weakly keyed on the space and holds
only read-only tables, never the space, so its entries die with their
space; each space keeps at most ``_MEMO_PER_SPACE`` of them, least
recently used out first.  A build that raises stores nothing, so a
refused input is refused again on every call.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import tolerances
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

# Verified operator tables kept per space, tent maps and Holder tables alike.
_MEMO_PER_SPACE = 8
_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memoized(space: FiniteMetricSpace, key, build):
    """build()'s tables for key on space, built once while space lives.

    build must not return anything that refers to space, or the entry
    would keep its own key alive.
    """
    entries = _memo.get(space)
    tables = None if entries is None else entries.get(key)
    if tables is not None:
        entries.move_to_end(key)
        return tables
    tables = build()
    for table in tables:
        table.setflags(write=False)
    entries = _memo.setdefault(space, OrderedDict())
    entries[key] = tables
    if len(entries) > _MEMO_PER_SPACE:
        entries.popitem(last=False)
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
        return cls(tuple(1.0 if i == k else 0.0 for i in range(length)))

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
    there.  ``den[i, j]`` is d(S[i], S[j])**alpha, and ``off_min[i]`` the
    least d(S[i], q)**alpha over q off S (inf when S is the whole space).
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
        """Sup norms and seminorms of the V rows' images; temporaries hold V * |S| values."""
        values = coeffs[:, self.owner] * self.weight
        mag = np.abs(values)
        seminorms = (mag / self.off_min).max(axis=1, initial=0.0)
        for i in range(len(self.support) - 1):
            ratios = np.abs(values[:, i + 1 :] - values[:, i, None]) / self.den[i, i + 1 :]
            np.maximum(seminorms, ratios.max(axis=1), out=seminorms)
        return mag.max(axis=1, initial=0.0), seminorms


def build_support_map(
    space: FiniteMetricSpace,
    family: SeparatedPairFamily,
    alpha: float,
) -> HolderEmbedding:
    """Verify the family, build every pair bump and the seminorm tables, once per space.

    The support of the n-th pair bump is exactly the open ball around
    y_n, so each point takes its profile value from the one bump whose
    ball holds it.  Later calls with the same family and alpha reuse the
    tables.
    """
    alpha = validate_alpha(alpha)
    tables = _memoized(space, ("holder", family, alpha), lambda: _holder_tables(space, family, alpha))
    return HolderEmbedding(space, family, alpha, *tables)


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
    return support, owner[support], profile[support], powered[:, support], off_min


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


def verify_sandwich(
    vectors: list[FiniteSequence],
    embedding: HolderEmbedding,
    raise_on_violation: bool = True,
) -> list[SandwichCheck]:
    """Certify sup(a) <= ||T(a)|| <= (2/K**alpha + 1) * sup(a) for each a.

    One record per vector from the arrays of ``_certify``, for the sandwich
    suite and the CLI.  A violation raises CertificateViolationError
    carrying the first offending vector (or is returned in its check when
    raise_on_violation is False, so suites can collect rather than abort).
    """
    norm, sup_a, lower_ok, upper_ok = _certify(vectors, embedding, raise_on_violation)
    bound_upper = embedding.bound_upper
    return [
        SandwichCheck(s, n, (n / s) if s > 0 else None, bound_upper, lo, up)
        for s, n, lo, up in zip(sup_a.tolist(), norm.tolist(), lower_ok.tolist(), upper_ok.tolist())
    ]


def _certify(vectors: list[FiniteSequence], embedding: HolderEmbedding, raise_on_violation: bool) -> tuple:
    """Image norms, coefficient sups and both sandwich tests of a batch, as arrays.

    Each test, with relative slack, is one array expression with the
    scalar test's operands in its order, so each flag is the scalar
    test's bit for bit, inf and NaN from overflow included (silent, as
    with Python floats).  The first vector failing a test is the witness.
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
    ok = lower_ok & upper_ok
    if raise_on_violation and not ok.all():
        i = int(ok.argmin())  # the first False
        side = "lower" if not lower_ok[i] else "upper"
        raise CertificateViolationError(
            f"{side} embedding bound violated: sup(a)={float(sup_a[i])!r}, "
            f"norm={float(norm[i])!r}, upper bound {bound_upper!r}",
            witness=vectors[i],
        )
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
    """The deterministic extremal battery: unit vectors and the +-1 wave."""
    vecs = [FiniteSequence.unit(k, length) for k in range(length)]
    vecs.append(FiniteSequence.alternating(length))
    return vecs


def distortion_report(
    space: FiniteMetricSpace,
    family: SeparatedPairFamily,
    alpha: float,
    vectors: list[FiniteSequence],
) -> EmbeddingReport:
    """Measure the embedding's distortion over the given nonzero vectors.

    The ratios are read from the arrays of ``_certify``, the kernel of
    ``verify_sandwich``; the first vector failing a bound is the witness.
    """
    nonzero = [a for a in vectors if a.sup_value != 0]
    if not nonzero:
        raise InvalidInputError("no nonzero vectors supplied")
    embedding = build_support_map(space, family, alpha)
    norm, sup_a, _, _ = _certify(nonzero, embedding, True)
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
