"""Exception types shared across the package.

The CLI maps these onto exit codes: config problems exit 2, data problems
exit 3, numeric failures exit 4.
"""


class PeotError(Exception):
    """Base class for all package errors."""


class InvalidInputError(PeotError, ValueError):
    """An operation was called with arguments violating its preconditions."""


class ConfigError(PeotError):
    """A configuration document or option set is unusable."""


class DataError(PeotError):
    """An input file or dataset could not be parsed or is unusable."""


class NumericError(PeotError):
    """A numeric failure (NaN/Inf) was detected during computation."""
