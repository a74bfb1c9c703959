"""Embedding operators with certified two-sided norm bounds.

Three constructions, one per target:

* ``embed_holder`` sends a finite coefficient vector into the Holder
  functions over a separated pair family: coordinate n rides the n-th
  pair bump.  The Holder norm of the image is sandwiched between the
  sup of the coefficients and ``(2 / K**alpha + 1)`` times it.
  ``distortion_report`` and ``verify_sandwich`` certify both on batches
  of concrete inputs, with norms from ``HolderEmbedding.apply_batch``,
  whose docstring gives why its support-restricted seminorm is exact.
* ``embed_cb`` sends coefficients onto disjoint tent bumps; the sup norm
  of the image reproduces the coefficient sup exactly.
* ``embed_linf`` sends coefficients onto the indicators of a positive-
  mass partition; the essential sup is again exact.

The operators act on finite truncations: a vector of length m is paired
with exactly m pairs / centers / cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateViolationError,
    InconsistentFamilyError,
    InvalidInputError,
)
# perfbench/tracing.py wraps holder_norm and tent_bump under this module's names
from .holder import ScalarField, holder_norm, pair_bump, tent_bump, validate_alpha  # noqa: F401
from .metric import FiniteMetricSpace, SeparatedPairFamily, verify_pair_family
from .tolerances import DEFAULT_TOLERANCES, Tolerances

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
    "embed_linf",
]


@dataclass(frozen=True)
class FiniteSequence:
    """A finite real coefficient vector, a truncation of a bounded one."""

    entries: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.entries)
        if not all(np.isfinite(vals)):
            raise InvalidInputError("entries must be finite")
        object.__setattr__(self, "entries", vals)

    @property
    def sup_value(self) -> float:
        return max((abs(v) for v in self.entries), default=0.0)

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
    """Verify the family, build every pair bump and the seminorm tables, once.

    The support of the n-th pair bump is exactly the open ball around
    y_n, so each point takes its profile value from the one bump whose
    ball holds it.
    """
    alpha = validate_alpha(alpha)
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
    tables = support, owner[support], profile[support], powered[:, support], off_min
    for table in tables:
        table.setflags(write=False)
    return HolderEmbedding(space, family, alpha, *tables)


def embed_holder(a: FiniteSequence, embedding: HolderEmbedding) -> ScalarField:
    """Image of the coefficient vector: a(n(x)) times the n(x)-th bump.

    Points carried by no ball get value 0; since every bump vanishes off
    its own ball, this agrees pointwise with any fallback-index reading.
    """
    if len(a) != len(embedding.family):
        raise InvalidInputError(
            f"vector length {len(a)} != family size {len(embedding.family)}"
        )
    values = np.zeros(len(embedding.space))
    values[embedding.support] = np.take(a.entries, embedding.owner) * embedding.weight
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


def _sandwich_checks(vectors, embedding, tolerances, raise_on_violation) -> list[SandwichCheck]:
    """Certify sup(a) <= ||T(a)|| <= (2/K**alpha + 1) * sup(a) for each a.

    The norms come from one ``apply_batch`` call; both inequalities are
    checked with relative slack.  A violation raises
    CertificateViolationError carrying the first offending vector (or is
    returned in its check when raise_on_violation is False, so suites can
    collect rather than abort).
    """
    m = len(embedding.family)
    for a in vectors:
        if len(a) != m:
            raise InvalidInputError(f"vector length {len(a)} != family size {m}")
    sups, seminorms = embedding.apply_batch(np.array([a.entries for a in vectors]).reshape(len(vectors), m))
    bound_upper = 2.0 / embedding.family.K**embedding.alpha + 1.0
    slack = tolerances.sandwich_rel
    checks = []
    for a, sup_f, seminorm in zip(vectors, sups.tolist(), seminorms.tolist()):
        norm, sup_a = sup_f + seminorm, a.sup_value
        lower_ok = sup_a <= norm * (1.0 + slack) + slack * max(1.0, sup_a)
        upper_ok = norm <= bound_upper * sup_a * (1.0 + slack) + slack
        if raise_on_violation and not (lower_ok and upper_ok):
            side = "lower" if not lower_ok else "upper"
            raise CertificateViolationError(
                f"{side} embedding bound violated: sup(a)={sup_a!r}, "
                f"norm={norm!r}, upper bound {bound_upper!r}",
                witness=a,
            )
        ratio = (norm / sup_a) if sup_a > 0 else None
        checks.append(SandwichCheck(sup_a, norm, ratio, bound_upper, lower_ok, upper_ok))
    return checks


def verify_sandwich(
    a: FiniteSequence,
    embedding: HolderEmbedding,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    raise_on_violation: bool = True,
) -> SandwichCheck:
    """Certify both embedding bounds for one vector: the batch of one."""
    return _sandwich_checks([a], embedding, tolerances, raise_on_violation)[0]


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
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> EmbeddingReport:
    """Measure the embedding's distortion over the given nonzero vectors."""
    nonzero = [a for a in vectors if a.sup_value != 0]
    if not nonzero:
        raise InvalidInputError("no nonzero vectors supplied")
    embedding = build_support_map(space, family, alpha)
    ratios = [c.ratio for c in _sandwich_checks(nonzero, embedding, tolerances, True)]
    worst = ratios.index(max(ratios))  # the first maximum
    return EmbeddingReport(
        lower=min(ratios),
        upper=ratios[worst],
        bound_upper=2.0 / family.K**alpha + 1.0,
        samples=len(ratios),
        worst_vector=nonzero[worst],
    )


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
    bit for bit.
    """
    if len(a) != len(centers) or len(centers) != len(radii):
        raise InvalidInputError(
            f"lengths disagree: {len(a)} coefficients, {len(centers)} centers, "
            f"{len(radii)} radii"
        )
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii):
        raise InvalidInputError("all radii must be positive")
    members = space.balls(centers, radii)
    clash = np.nonzero(members.sum(axis=0) > 1)[0]
    if clash.size:
        raise InvalidInputError(
            f"balls overlap at point {space.labels[int(clash[0])]!r}"
        )
    owner, cols = np.nonzero(members)
    rows = space.dist[[space.index(c) for c in centers]]
    tents = np.maximum(1.0 - rows[owner, cols] / np.take(radii, owner), 0.0)
    values = np.zeros(len(space))
    values[cols] = np.take(a.entries, owner) * tents
    return ScalarField(space, values)


@dataclass(frozen=True)
class StepFunction:
    """A simple function on a positive-mass partition: one value per cell."""

    cell_values: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.cell_values)
        masses = tuple(float(m) for m in self.masses)
        if len(vals) != len(masses):
            raise InvalidInputError("one value per cell required")
        object.__setattr__(self, "cell_values", vals)
        object.__setattr__(self, "masses", masses)

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
    masses = [float(m) for m in masses]
    if len(a) != len(masses):
        raise InvalidInputError(
            f"vector length {len(a)} != partition size {len(masses)}"
        )
    if any(not np.isfinite(m) or m <= 0 for m in masses):
        raise InvalidInputError("all cell masses must be positive and finite")
    return StepFunction(cell_values=a.entries, masses=tuple(masses))
