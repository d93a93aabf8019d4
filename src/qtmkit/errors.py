"""Exception hierarchy for qtmkit.

Validation failures (bad temperatures, inadmissible sign patterns, values
outside a machine design's operating interval, ...) derive from
:class:`ValidationError`, which is also a ``ValueError``.  I/O failures while
writing sweep output derive from :class:`EmitIOError`.  Every number a
caller or a sweep config gives qtmkit is checked by :func:`require_finite`:
it must be finite, or finite and above a floor, and a ``bool`` is not a
number.  It returns the ``float`` the caller computes with, whatever its type.
"""

import math

__all__ = [
    "QtmError", "ValidationError", "InvalidThetaError",
    "InvalidTemperatureError", "InvalidRhoError", "DegenerateExchangeError",
    "InvalidSignsError", "UnclassifiableExchangeError", "BoundaryRegionError",
    "OutOfRegionError", "SingularEfficiencyError", "DegenerateMediumError",
    "InvalidRingError", "InvalidGapError", "EmptyGridError", "EmitIOError",
]


class QtmError(Exception):
    """Base class for all qtmkit errors."""


class ValidationError(QtmError, ValueError):
    """Invalid argument or physically inadmissible input."""


class InvalidThetaError(ValidationError):
    """Temperature ratio must be strictly greater than one."""


class InvalidTemperatureError(ValidationError):
    """Absolute temperature must be strictly positive."""


class InvalidRhoError(ValidationError):
    """Compression ratio outside its admissible range."""


class DegenerateExchangeError(ValidationError):
    """Energy exchange with a reservoir is exactly zero."""


class UnclassifiableExchangeError(ValidationError):
    """Sign/magnitude pattern matches no operational region."""


class InvalidSignsError(UnclassifiableExchangeError):
    """Reservoir exchanges share a sign; no cyclic operation matches."""


class BoundaryRegionError(ValidationError):
    """Operation undefined on a region-boundary marker."""


class OutOfRegionError(ValidationError):
    """Energy ratio lies outside the design's region interval."""


class SingularEfficiencyError(ValidationError):
    """Energy ratio sits exactly on a region-interval endpoint, where the
    efficiency diverges or only tends to a value."""


class DegenerateMediumError(ValidationError):
    """Working-medium spectrum has a non-positive or missing gap."""


class InvalidRingError(ValidationError):
    """Ring radius is non-positive, or its levels leave the float range."""


class InvalidGapError(ValidationError):
    """Explicit gap construction received a non-positive gap or ratio."""


class EmptyGridError(ValidationError):
    """Sweep grid contains no points."""


class EmitIOError(QtmError):
    """Failed to write sweep output; message carries the path."""


def require_finite(
    name: str, value: float, error_cls: type, floor: float = -math.inf
) -> float:
    """The ``float`` of ``value`` if it is a finite number above ``floor``;
    else raise ``error_cls``, quoting ``value`` as given.  A ``bool`` is not
    a number here."""
    try:  # math.isfinite first: float() alone would read a numeric string
        if (type(value) is not bool  # bool has no subclasses
                and math.isfinite(value) and (number := float(value)) > floor):
            return number
    except (TypeError, ValueError, OverflowError):
        pass  # not a real number, a signaling NaN, or an int past the floats
    above = "" if floor == -math.inf else f" and above {floor:g}"
    raise error_cls(f"{name} must be finite{above}, got {value!r}")
