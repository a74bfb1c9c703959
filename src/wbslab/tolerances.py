"""Single home for every floating-point tolerance used by the package.

All comparisons that involve floats go through one of these knobs; exact
certificates (rational Cesaro means, big-integer ranks) use none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidInputError


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

    def with_overrides(self, **kwargs: float) -> "Tolerances":
        unknown = set(kwargs) - set(self.__dataclass_fields__)
        if unknown:
            raise InvalidInputError(
                f"unknown tolerance name(s): {sorted(unknown)}; "
                f"choose from {sorted(self.__dataclass_fields__)}"
            )
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()
