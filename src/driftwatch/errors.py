"""The one exception type the library raises, a ValueError.

Every caller recovers from bad input the same way, so one type serves:
the CLI reports it as a usage error or a fatal stream error, and the
detector refuses a point whose rebuild cannot be factorized.
"""


class InvalidInputError(ValueError):
    """Input violates a shape, range, finiteness, or sample-size requirement,
    or rows could not be factorized even with the one jitter step."""
