"""Exception types shared across the package."""


class WbsLabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(WbsLabError, ValueError):
    """An argument violates a documented precondition or type invariant."""


class NeedsMoreDataError(WbsLabError):
    """A finite prefix was too short for the requested computation.

    Carries how much data would have been required so the caller can
    extend the input and retry.
    """

    def __init__(self, message: str, required: int, available: int):
        super().__init__(f"{message} (required {required}, available {available})")
        self.required = required
        self.available = available


class CertificateViolationError(WbsLabError):
    """An internal certified inequality failed.

    This must never fire on honest inputs; if it does, the offending
    witness is attached for inspection.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InconsistentFamilyError(WbsLabError):
    """A pair family claimed disjoint balls but two supports overlap."""

