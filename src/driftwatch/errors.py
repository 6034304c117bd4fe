"""Exception types raised across the library, both ValueErrors.

A separate type exists only where a caller recovers differently. Any bad
input is an InvalidInputError; the detector catches NotPositiveDefiniteError
and refuses the point whose update cannot be factorized.
"""


class InvalidInputError(ValueError):
    """Input violates a shape, range, finiteness, or sample-size requirement."""


class NotPositiveDefiniteError(ValueError):
    """Matrix could not be factorized even after jitter escalation."""
