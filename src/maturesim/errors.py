"""Exception taxonomy shared by all maturesim modules, and the one bounds
check of the parameter blocks."""

import sys


class MaturesimError(Exception):
    """Base class for all package errors."""


class ParameterError(MaturesimError, ValueError):
    """A parameter is outside its admissible domain."""


def check_range(params, names, low, what, high=sys.float_info.max, closed=False):
    """Raise ParameterError unless low < v <= high, or low <= v <= high
    with `closed`, for each field v of `params` named in `names`.

    Each comparison is one that NaN fails, and the default `high`, the
    largest finite float, fails infinities.  `what` states the range in
    the error message.
    """
    for name in names:
        v = getattr(params, name)
        if not ((low <= v if closed else low < v) and v <= high):
            raise ParameterError(f"{name} must be {what}, got {v}")


class DeformationError(MaturesimError, ValueError):
    """A deformation state is non-physical (e.g. det F <= 0)."""


class StateError(MaturesimError, ValueError):
    """An internal state record is corrupt (e.g. negative density)."""


class SolverError(MaturesimError, RuntimeError):
    """An iterative solve failed; carries diagnostics for postmortems."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConfigError(MaturesimError, ValueError):
    """A run configuration is invalid; `path` locates the offending key."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class MeshError(MaturesimError, ValueError):
    """A mesh definition is inconsistent."""


class FitError(MaturesimError, ValueError):
    """A calibration problem is ill-posed or its evaluation failed."""
