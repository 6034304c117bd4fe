"""Exception types raised across the library.

Everything derives from ValueError so generic callers can treat any of
these as a bad-input condition, while the detector can catch the specific
recoverable one (NotPositiveDefiniteError, on which it refuses the point).
"""


class InvalidInputError(ValueError):
    """Input violates a shape, range, or finiteness requirement."""


class NotPositiveDefiniteError(ValueError):
    """Matrix could not be factorized even after jitter escalation."""


class DegenerateDirectionError(ValueError):
    """Update direction has (near-)zero norm; the update must be skipped."""


class SingularUpdateError(ValueError):
    """Rank-one inverse update hit a vanishing denominator."""


class InvalidFactorError(ValueError):
    """Triangular factor has a non-positive or non-finite diagonal."""


class InsufficientDataError(ValueError):
    """Not enough samples to fit or segment the data."""


class UninitializedStateError(ValueError):
    """Detector state was used before initialization."""


class DegenerateTruthError(ValueError):
    """Every ground-truth entry was too close to zero to define an error."""
