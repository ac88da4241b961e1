"""Exception types, and the integer check of outside input, shared across the package."""

import operator


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


class UnsupportedFamilyError(EntguessError):
    """The measurement family does not have the structure the operation needs."""


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
