"""Energy-exchange bookkeeping and operational-region classification.

A thermal machine couples a working medium to a hot reservoir, a cold
reservoir, and everything else ("the outside").  Per cycle it exchanges three
signed energies, under the convention

* absorbed from a reservoir  > 0,  released to a reservoir  < 0,
* generated to the outside   > 0,  received from the outside < 0,

with conservation forcing ``e_out = e_high + e_low``.  Only three
sign/magnitude patterns are compatible with the second law, and they are
separated by thresholds of the dimensionless ratio ``alpha_sq = -e_high/e_low``
at ``1/theta_sq``, ``1`` and ``theta_sq``, where ``theta_sq = t_high/t_low``.
This module holds the value types and the classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique

from .errors import (
    DegenerateExchangeError,
    InvalidReservoirError,
    InvalidSignsError,
    InvalidThetaError,
    UnclassifiableExchangeError,
    ValidationError,
    require_finite,
)

__all__ = [
    "ReservoirPair",
    "ExchangeTriple",
    "OperationalRegion",
    "AlphaSquared",
    "theta_squared",
    "alpha_squared",
    "classify_region",
    "DEFAULT_CLASSIFY_TOL",
]

#: Relative half-width of the band around each alpha_sq threshold inside
#: which a triple is reported as a boundary marker instead of a region.
DEFAULT_CLASSIFY_TOL = 1e-9


def in_boundary_band(
    alpha_sq: float, threshold: float, tol: float = DEFAULT_CLASSIFY_TOL
) -> bool:
    """Whether ``alpha_sq`` lies within ``tol * alpha_sq`` of a threshold."""
    return abs(alpha_sq - threshold) <= tol * alpha_sq


@dataclass(frozen=True)
class ReservoirPair:
    """Hot/cold reservoir temperatures, ``0 < t_low < t_high``.

    Units are the caller's choice (kelvin or reduced); only the ratio matters
    downstream.
    """

    t_low: float
    t_high: float

    def __post_init__(self) -> None:
        require_finite("t_low", self.t_low, ValidationError)
        require_finite("t_high", self.t_high, ValidationError)
        if self.t_low <= 0.0:
            raise InvalidReservoirError(f"t_low must be positive, got {self.t_low!r}")
        if self.t_high <= self.t_low:
            raise InvalidReservoirError(
                f"t_high must exceed t_low, got t_low={self.t_low!r}, "
                f"t_high={self.t_high!r}"
            )


def theta_squared(res: ReservoirPair) -> float:
    """High-low temperature ratio ``t_high / t_low`` (always > 1)."""
    return res.t_high / res.t_low


@dataclass(frozen=True)
class ExchangeTriple:
    """Per-cycle signed energies exchanged with both reservoirs.

    Only the two reservoir exchanges are stored; the outside exchange is
    derived, so conservation cannot be violated by construction.  Sign
    conventions are module-level (absorbed/generated positive).  Arbitrary
    sign combinations are accepted here; physical admissibility is judged by
    :func:`classify_region`.
    """

    e_high: float
    e_low: float

    def __post_init__(self) -> None:
        require_finite("e_high", self.e_high, ValidationError)
        require_finite("e_low", self.e_low, ValidationError)

    @property
    def e_out(self) -> float:
        """Energy exchanged with the outside, ``e_high + e_low``."""
        return self.e_high + self.e_low


@unique
class OperationalRegion(Enum):
    """The three operational regions, the 2Acquirers subregions, and the
    markers emitted when a triple sits on a region boundary within tolerance.
    """

    TWO_ACQUIRERS_OUT = "TwoAcquirersOut"
    TWO_ACQUIRERS_HIGH = "TwoAcquirersHigh"
    OUT_TRANSFERS = "OutTransfers"
    PUMPERS = "Pumpers"
    BOUNDARY_2ACQ_SUBREGIONS = "Boundary2AcqSubregions"
    BOUNDARY_2ACQ_OUTT = "Boundary2AcqOutT"
    BOUNDARY_OUTT_PUMP = "BoundaryOutTPump"

    @property
    def is_boundary(self) -> bool:
        return self in (
            OperationalRegion.BOUNDARY_2ACQ_SUBREGIONS,
            OperationalRegion.BOUNDARY_2ACQ_OUTT,
            OperationalRegion.BOUNDARY_OUTT_PUMP,
        )


@dataclass(frozen=True)
class AlphaSquared:
    """Thermal high-low energy ratio ``-e_high/e_low`` of a valid triple."""

    value: float

    def __post_init__(self) -> None:
        require_finite("alpha_sq", self.value, ValidationError, 0.0)

    def __float__(self) -> float:
        return self.value


def alpha_squared(ex: ExchangeTriple) -> AlphaSquared:
    """Thermal high-low energy ratio of a triple.

    Requires both reservoir exchanges nonzero and of opposite sign, which
    makes the ratio positive in every operational region.
    """
    if ex.e_high == 0.0 or ex.e_low == 0.0:
        raise DegenerateExchangeError(
            f"both reservoir exchanges must be nonzero, got "
            f"e_high={ex.e_high!r}, e_low={ex.e_low!r}"
        )
    if (ex.e_high > 0.0) == (ex.e_low > 0.0):
        raise InvalidSignsError(
            f"reservoir exchanges must have opposite signs, got "
            f"e_high={ex.e_high!r}, e_low={ex.e_low!r}"
        )
    return AlphaSquared(-ex.e_high / ex.e_low)


def classify_region(
    ex: ExchangeTriple, theta_sq: float, tol: float = DEFAULT_CLASSIFY_TOL
) -> OperationalRegion:
    """Assign an exchange triple to its operational region.

    For the forward orientation (absorb hot, release cold) the regions are,
    in increasing ``alpha_sq``: TwoAcquirersOut below ``1/theta_sq``,
    TwoAcquirersHigh up to ``1``, OutTransfers up to ``theta_sq``.  The
    reversed orientation (release hot, absorb cold) is admissible only above
    ``theta_sq``, where it is the Pumpers region.  Anything else -- equal
    signs, or an orientation whose ratio would beat the Carnot bound -- is
    rejected as physically inadmissible.

    Parameters
    ----------
    ex : ExchangeTriple
        The per-cycle energies.
    theta_sq : float
        Reservoir temperature ratio, > 1.
    tol : float, optional
        Relative half-width (w.r.t. ``alpha_sq``) of the band around each
        threshold that maps to a boundary marker.

    Returns
    -------
    OperationalRegion
        A region, subregion, or boundary marker.
    """
    require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"tol must be finite and non-negative, got {tol!r}")
    if ex.e_high == 0.0 or ex.e_low == 0.0:
        raise DegenerateExchangeError(
            f"cannot classify a triple with a zero reservoir exchange: "
            f"e_high={ex.e_high!r}, e_low={ex.e_low!r}"
        )
    forward = ex.e_high > 0.0
    if forward == (ex.e_low > 0.0):
        raise UnclassifiableExchangeError(
            f"reservoir exchanges share a sign (e_high={ex.e_high!r}, "
            f"e_low={ex.e_low!r}); no operational region matches"
        )

    a = -ex.e_high / ex.e_low
    if forward and in_boundary_band(a, 1.0 / theta_sq, tol):
        return OperationalRegion.BOUNDARY_2ACQ_SUBREGIONS
    if forward and in_boundary_band(a, 1.0, tol):
        return OperationalRegion.BOUNDARY_2ACQ_OUTT
    if in_boundary_band(a, theta_sq, tol):
        # Reversible Carnot limit: both orientations degenerate here.
        return OperationalRegion.BOUNDARY_OUTT_PUMP

    if forward:
        if a < 1.0 / theta_sq:
            return OperationalRegion.TWO_ACQUIRERS_OUT
        if a < 1.0:
            return OperationalRegion.TWO_ACQUIRERS_HIGH
        if a < theta_sq:
            return OperationalRegion.OUT_TRANSFERS
    elif a > theta_sq:
        return OperationalRegion.PUMPERS
    side, kind = (
        ("exceeds", "an absorb-hot/release-cold")
        if forward
        else ("is below", "a release-hot/absorb-cold")
    )
    raise UnclassifiableExchangeError(
        f"alpha_sq={a!r} {side} theta_sq={theta_sq!r} for {kind} triple; "
        f"this would beat the Carnot bound and is inadmissible"
    )
