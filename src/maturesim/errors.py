"""Exception taxonomy shared by all maturesim modules, and the one range
check of scalar inputs."""

import sys

import numpy as np


class MaturesimError(Exception):
    """Base class for all package errors."""


class ParameterError(MaturesimError, ValueError):
    """A parameter is outside its admissible domain."""


def check_range(values, low, what, high=sys.float_info.max, closed=False,
                integer=False, error=ParameterError):
    """Raise `error` unless each value v in the mapping `values` (a scalar,
    or an array taken entry by entry) lies in low < v <= high, or in
    low <= v <= high with `closed`, and is a whole number with `integer`.

    The package's one range check of a scalar input.  Each comparison is one
    that NaN fails, and the default `high`, the largest finite float, fails
    infinities.  The message names the value by its key and states its
    range as `what`.
    """
    for name, v in values.items():
        ok = (low <= v if closed else low < v) & (v <= high)
        if integer and np.all(ok):
            ok = v % 1 == 0     # of values in the range only, which are finite
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise error(f"{name} must be {what}, got {v}")


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
