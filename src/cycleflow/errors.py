"""Exception types shared across the package.

Each class carries the exit code the command line returns for it.  Library
functions raise them where a value enters, so the CLI repeats no check.
"""


class CycleflowError(Exception):
    """Base class for package-specific errors."""
    exit_code = 1


class ConfigError(CycleflowError, ValueError):
    """Invalid configuration key, parameter value, or command-line usage."""
    exit_code = 2


class FormatError(CycleflowError):
    """Malformed input file: bad magic, truncated payload, bad records."""
    exit_code = 3


class ValidationError(CycleflowError):
    """Data violates a documented invariant."""
    exit_code = 3


class NumericalError(CycleflowError):
    """Non-finite values encountered during optimization or integration."""
    exit_code = 4
