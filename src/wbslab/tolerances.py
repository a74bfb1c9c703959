"""Single home for every floating-point tolerance used by the package.

Each float check reads its slack from `DEFAULT_TOLERANCES` when it runs;
no caller, flag or parameter overrides them.  Exact certificates
(rational Cesaro means, big-integer ranks) use none.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # relative slack when validating the triangle inequality of an
    # ingested distance matrix
    triangle_rel: float = 1e-9
    # absolute slack, scaled by magnitude, for scalar inequality checks
    # (seminorm bounds, power difference inequality)
    float_slack: float = 1e-12
    # relative slack on the two-sided embedding norm bounds
    sandwich_rel: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()
