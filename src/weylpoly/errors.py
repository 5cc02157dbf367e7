"""Exception types shared across the package."""


class WeylPolyError(Exception):
    """Base class for all package-specific errors."""


class UsageError(WeylPolyError):
    """Bad arguments: wrong kind, empty input, unknown identifier."""


class DivisibilityError(WeylPolyError):
    """Exact division failed; carries the nonzero remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class DomainError(WeylPolyError):
    """Input outside the documented domain of a statistic or map."""


class PreconditionError(WeylPolyError):
    """A documented precondition (real-rootedness, sign pattern, ...) fails."""


class PackingError(WeylPolyError):
    """A coefficient does not fit a field of the packed integer carrier."""


class EnumerationCapError(WeylPolyError):
    """Requested enumeration size exceeds the configured cap."""


class StabilityInapplicableError(WeylPolyError):
    """The even/odd split criterion does not apply to this input."""
