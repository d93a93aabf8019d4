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
    "SpectrumMismatchError", "OccupationMismatchError", "InvalidRingError",
    "InvalidGapError", "EmptyGridError", "EmitIOError",
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


class InvalidSignsError(ValidationError):
    """Reservoir exchanges share a sign; no cyclic operation matches."""


class UnclassifiableExchangeError(ValidationError):
    """Sign/magnitude pattern matches no operational region."""


class BoundaryRegionError(ValidationError):
    """Operation undefined on a region-boundary marker."""


class OutOfRegionError(ValidationError):
    """Energy ratio lies outside the design's region interval."""


class SingularEfficiencyError(ValidationError):
    """Energy ratio sits exactly on a region-interval endpoint."""


class DegenerateMediumError(ValidationError):
    """Working-medium spectrum has a non-positive or missing gap."""


class SpectrumMismatchError(ValidationError):
    """An isolation stroke's two spectra differ in length."""


class OccupationMismatchError(ValidationError):
    """Occupations do not match the length of their spectrum."""


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
    """Raise ``error_cls`` unless ``value`` is finite and above ``floor``."""
    if not (math.isfinite(value) and value > floor):
        above = "" if floor == -math.inf else f" and above {floor:g}"
        raise error_cls(f"{name} must be finite{above}, got {value!r}")
