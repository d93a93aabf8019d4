"""Exception hierarchy for qtmkit.

Validation failures (bad temperatures, inadmissible sign patterns, values
outside a machine design's operating interval, ...) derive from
:class:`ValidationError`, which is also a ``ValueError``.  I/O failures while
writing sweep output derive from :class:`EmitIOError`.  A number that must
be finite, or finite and above a floor, is checked by :func:`require_finite`.
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
) -> None:
    """Raise ``error_cls`` unless ``value`` is a finite number above ``floor``."""
    try:
        ok = math.isfinite(value) and value > floor
    except (TypeError, OverflowError):  # not a real number, or an int past floats
        ok = False
    if not ok:
        above = "" if floor == -math.inf else f" and above {floor:g}"
        raise error_cls(f"{name} must be finite{above}, got {value!r}")
