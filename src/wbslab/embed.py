"""Embedding operators with certified two-sided norm bounds.

Three constructions, one per target:

* ``embed_holder`` sends a finite coefficient vector into the Holder
  functions over a separated pair family: coordinate n rides the n-th
  pair bump.  The Holder norm of the image is sandwiched between the
  sup of the coefficients and ``(2 / K**alpha + 1)`` times it, and
  ``verify_sandwich`` certifies both inequalities on concrete inputs.
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
from .holder import ScalarField, holder_norm, pair_bump, tent_bump, validate_alpha
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

    ``assignment[p]`` is the 0-based index of the pair whose open ball
    contains point p, or None when p lies outside every ball; the balls
    are disjoint, so the index is unique.  ``profile[p]`` is the value
    at p of that pair's bump, 0.0 off every ball.  Built once by
    ``build_support_map`` and applied to many vectors by ``embed_holder``.
    """

    space: FiniteMetricSpace
    family: SeparatedPairFamily
    alpha: float
    assignment: tuple[int | None, ...]
    profile: np.ndarray


def build_support_map(
    space: FiniteMetricSpace,
    family: SeparatedPairFamily,
    alpha: float,
) -> HolderEmbedding:
    """Verify the family and build every pair bump, once.

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
    assignment: list[int | None] = [None] * len(space)
    profile = np.zeros(len(space))
    for n, (pair, mask) in enumerate(zip(family.pairs, members)):
        profile[mask] = pair_bump(space, pair, family.K, alpha).values[mask]
        for p in np.nonzero(mask)[0]:
            assignment[p] = n
    profile.setflags(write=False)
    return HolderEmbedding(space, family, alpha, tuple(assignment), profile)


def embed_holder(a: FiniteSequence, embedding: HolderEmbedding) -> ScalarField:
    """Image of the coefficient vector: a(n(x)) times the n(x)-th bump.

    Points carried by no ball get value 0; since every bump vanishes off
    its own ball, this agrees pointwise with any fallback-index reading.
    """
    if len(a) != len(embedding.family):
        raise InvalidInputError(
            f"vector length {len(a)} != family size {len(embedding.family)}"
        )
    coeffs = [0.0 if n is None else a.entries[n] for n in embedding.assignment]
    return ScalarField(embedding.space, np.multiply(coeffs, embedding.profile))


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
    a: FiniteSequence,
    embedding: HolderEmbedding,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
    raise_on_violation: bool = True,
) -> SandwichCheck:
    """Certify sup(a) <= ||T(a)|| <= (2/K**alpha + 1) * sup(a).

    Both inequalities are checked with relative slack.  A violation
    raises CertificateViolationError carrying the offending vector
    (or is returned in the check when raise_on_violation is False, so
    suites can collect rather than abort).
    """
    alpha = embedding.alpha
    norm = holder_norm(embed_holder(a, embedding), alpha)
    sup_a = a.sup_value
    bound_upper = 2.0 / embedding.family.K**alpha + 1.0
    slack = tolerances.sandwich_rel
    lower_ok = sup_a <= norm * (1.0 + slack) + slack * max(1.0, sup_a)
    upper_ok = norm <= bound_upper * sup_a * (1.0 + slack) + slack
    check = SandwichCheck(
        vector_sup=sup_a,
        image_holder_norm=norm,
        ratio=(norm / sup_a) if sup_a > 0 else None,
        bound_upper=bound_upper,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
    )
    if raise_on_violation and not (lower_ok and upper_ok):
        side = "lower" if not lower_ok else "upper"
        raise CertificateViolationError(
            f"{side} embedding bound violated: sup(a)={sup_a!r}, "
            f"norm={norm!r}, upper bound {bound_upper!r}",
            witness=a,
        )
    return check


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
    ratios = [(verify_sandwich(a, embedding, tolerances=tolerances).ratio, a) for a in nonzero]
    lower = min(r for r, _ in ratios)
    upper, worst = max(ratios, key=lambda t: t[0])
    return EmbeddingReport(
        lower=lower,
        upper=upper,
        bound_upper=2.0 / family.K**alpha + 1.0,
        samples=len(ratios),
        worst_vector=worst,
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
    values = np.zeros(len(space))
    for coeff, center, r, mask in zip(a.entries, centers, radii, members):
        tent = tent_bump(space, center, r)
        values[mask] = coeff * tent.values[mask]
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
