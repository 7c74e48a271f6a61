"""Exception hierarchy shared across the package."""


class DengueWatchError(Exception):
    """Base class for all package errors."""


class IngestionError(DengueWatchError):
    """Malformed or inconsistent input file content."""


class AlignmentError(DengueWatchError):
    """Series cannot be placed on a common monthly grid."""


class ParameterError(DengueWatchError):
    """A numeric parameter violates its precondition."""


class CalibrationError(DengueWatchError):
    """Lag/cutoff/exponent calibration failed."""


class CorrelationUndefinedError(CalibrationError):
    """Too few paired observations or zero variance."""


class MissingDataError(DengueWatchError):
    """A required value is absent for a specific (region, month)."""


class UnderdeterminedError(DengueWatchError):
    """Not enough complete rows to fit the baseline regression."""


class SingularDesignError(DengueWatchError):
    """Design matrix is rank deficient."""


class PipelineError(DengueWatchError):
    """A pipeline stage produced no usable output."""


class ConfigError(DengueWatchError):
    """Invalid run or synthesis configuration."""


class UsageError(DengueWatchError):
    """A command-line argument that cannot be used."""
