"""Holder norms and bump functions on finite metric spaces.

For a real function f on a finite metric space and an exponent
0 < alpha <= 1:

* the sup norm is ``max |f(x)|``;
* the Holder seminorm is ``max |f(x) - f(y)| / d(x, y)**alpha`` over
  distinct pairs, computed by an exhaustive pair scan (no sampling).
  ``embed.HolderEmbedding.apply_batch`` gets the same bits for images
  that vanish off a known support S from the pairs inside S and, per p
  in S, |f(p)| over the least powered distance to a point off S;
* the Holder norm is their sum.

Two bump constructions live here as well: the pair bump supported on the
open ball around y_n that a separated pair family provides, clipped so
its seminorm is at most ``1 / K**alpha``, and the tent bump of height 1
vanishing outside a ball of chosen radius.  Both clamp to exact 0.0
outside their balls, so supports are exact point sets, not epsilon-fuzzy
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .inputs import parse_floats
from .metric import FiniteMetricSpace, _float_array, validate_separation

__all__ = [
    "ScalarField",
    "validate_alpha",
    "sup_norm",
    "holder_seminorm",
    "holder_norm",
    "pair_bump",
    "tent_bump",
]


def validate_alpha(alpha: float) -> float:
    (alpha,) = parse_floats((alpha,))
    if not 0 < alpha <= 1:
        raise InvalidInputError(f"exponent must satisfy 0 < alpha <= 1, got {alpha}")
    return alpha


def validate_radius(radius: float) -> float:
    (radius,) = parse_floats((radius,))
    if not radius > 0:  # NaN included
        raise InvalidInputError(f"radius must be positive, got {radius}")
    return radius


@dataclass(frozen=True)
class ScalarField:
    """A real value per point of a finite metric space."""

    space: FiniteMetricSpace
    values: np.ndarray

    def __post_init__(self):
        vals = _float_array(self.values)
        if vals.shape != (len(self.space),):
            raise InvalidInputError(
                f"need one value per point: {vals.shape} vs {len(self.space)} points"
            )
        if not np.isfinite(vals).all():
            raise InvalidInputError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def value_at(self, label: str) -> float:
        return float(self.values[self.space.index(label)])

    def support(self) -> tuple[str, ...]:
        """Labels where the field is nonzero (exact comparison)."""
        return tuple(
            self.space.labels[i] for i in np.nonzero(self.values != 0.0)[0]
        )

    def to_json(self) -> dict:
        return {"labels": list(self.space.labels), "values": self.values.tolist()}


def sup_norm(f: ScalarField) -> float:
    return float(np.abs(f.values).max(initial=0.0))


def holder_seminorm(f: ScalarField, alpha: float) -> float:
    """Exact maximum of |f(x)-f(y)| / d(x,y)**alpha over distinct pairs.

    Defined as 0 on singleton spaces (the sup over an empty pair set); inf on overflow.
    """
    alpha = validate_alpha(alpha)
    n = len(f.space)
    if n < 2:
        return 0.0
    iu, ju = np.triu_indices(n, k=1)
    den = f.space.dist[iu, ju] ** alpha
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(f.values[iu] - f.values[ju]) / den))


def holder_norm(f: ScalarField, alpha: float) -> float:
    return sup_norm(f) + holder_seminorm(f, alpha)


def pair_bump(
    space: FiniteMetricSpace,
    pair: tuple[str, str],
    K: float,
    alpha: float,
) -> ScalarField:
    """The clipped bump attached to one separated pair.

    Pointwise ``max(min(1, d(x_n, y_n)**a - d(x, y_n)**a / K**a), 0)``
    with a = alpha.  The support is exactly the set of points strictly
    inside the open ball around y_n of radius K*d(x_n, y_n): values at
    and beyond the boundary are masked to exact 0.0 rather than trusting
    power rounding there.  At y_n the value is min(1, d(x_n, y_n)**a);
    at x_n it is 0 because K <= 1.
    """
    alpha = validate_alpha(alpha)
    validate_separation(K)
    x_n, y_n = pair
    d_pair = space.d(x_n, y_n)
    if d_pair == 0.0:
        raise InvalidInputError(f"pair points must be distinct: {x_n!r}, {y_n!r}")
    d_to_center = space.dist[space.index(y_n)]
    raw = np.minimum(1.0, d_pair**alpha - d_to_center**alpha / K**alpha)
    inside = space.balls([y_n], [K * d_pair])[0]
    return ScalarField(space, np.where(inside, np.maximum(raw, 0.0), 0.0))


def tent_bump(space: FiniteMetricSpace, center: str, epsilon: float) -> ScalarField:
    """Height-1 tent at the center, vanishing outside B(center, epsilon).

    Pointwise ``max(1 - d(x, center)/epsilon, 0)``; the single division
    makes the clamp exact at the boundary, so no masking is needed.
    """
    epsilon = validate_radius(epsilon)
    d = space.dist[space.index(center)]
    return ScalarField(space, np.maximum(1.0 - d / epsilon, 0.0))
