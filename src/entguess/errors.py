"""Exception types, and the integer and size checks of outside input, shared across the package."""

import math
import operator

import numpy as np


class EntguessError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(EntguessError):
    """Operands have incompatible or non-factorizable dimensions."""


class NotPositiveError(EntguessError):
    """A matrix required to be Hermitian positive semidefinite is not."""


class ParameterError(EntguessError):
    """A scalar argument is outside its documented range."""


class UnsupportedDimensionError(EntguessError):
    """No construction is available for the requested dimension."""


class DesignDefectError(EntguessError):
    """The measurement family failed 2-design certification."""


class FormatError(EntguessError):
    """An input document or probability table violates its schema."""


class InfiniteDivergence(EntguessError):
    """The Renyi-0 relative entropy diverges (supports are orthogonal)."""


def exact_int(x) -> int:
    """x as an int; TypeError for a bool or a non-integer type, such as 2.7 or 2.0."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise TypeError(f"{x!r} is not an integer")


def _require_addressable(shape, what: str) -> None:
    """UnsupportedDimensionError if a complex array of `shape` is too large for numpy to address.

    numpy sizes an array in bytes by a signed pointer-sized integer, so an
    array beyond np.iinfo(np.intp).max bytes cannot exist whatever the memory.
    """
    limit = np.iinfo(np.intp).max
    if np.dtype(complex).itemsize * math.prod(shape) > limit:
        raise UnsupportedDimensionError(
            f"{what} takes more than the {limit} bytes numpy can address"
        )
