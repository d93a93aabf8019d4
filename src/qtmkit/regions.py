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
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum, unique
from operator import attrgetter

from .errors import (
    DegenerateExchangeError,
    InvalidSignsError,
    InvalidThetaError,
    UnclassifiableExchangeError,
    ValidationError,
    require_finite,
)

__all__ = [
    "ExchangeTriple",
    "OperationalRegion",
    "alpha_squared",
    "classify_region",
    "DEFAULT_CLASSIFY_TOL",
]

#: Relative half-width of the band around each alpha_sq threshold inside
#: which a triple is reported as a boundary marker instead of a region.
DEFAULT_CLASSIFY_TOL = 1e-9


def in_boundary_band(alpha_sq, threshold: float, tol: float = DEFAULT_CLASSIFY_TOL):
    """Whether a finite ``alpha_sq`` lies within ``tol * alpha_sq`` of a
    threshold; elementwise on arrays."""
    return (abs(alpha_sq - threshold) <= tol * alpha_sq) & (alpha_sq < math.inf)


def _edges(theta_sq: float) -> tuple[float, ...]:
    """The ``alpha_sq`` region edges ``(0, 1/theta_sq, 1, theta_sq, inf)``;
    the inner three are the thresholds of :data:`_BANDS`."""
    return (0.0, 1.0 / theta_sq, 1.0, theta_sq, math.inf)


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

    # The names :func:`qtmkit.otto.otto_cycle_energies` gives the exchanges.
    e_high_gamma = property(attrgetter("e_high"))
    e_low_gamma = property(attrgetter("e_low"))

    def as_exchange_triple(self) -> "ExchangeTriple":
        return self


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
        return self in _MARKERS


#: Regions by classifier index, in the enum's order: the four ``alpha_sq``
#: intervals between the thresholds, then the boundary marker of each.
_REGIONS = tuple(OperationalRegion)
#: Per threshold of ``_edges(theta_sq)[1:4]``: its boundary marker, and
#: whether its band applies to forward (absorb-hot) triples only.  Outside
#: the bands a ratio lies in interval ``bisect_right(thresholds, a)``; the
#: forward orientation is admissible below ``theta_sq``, the reversed one
#: only above it.
_BANDS = (
    (OperationalRegion.BOUNDARY_2ACQ_SUBREGIONS, True),
    (OperationalRegion.BOUNDARY_2ACQ_OUTT, True),
    # Reversible Carnot limit: both orientations degenerate here.
    (OperationalRegion.BOUNDARY_OUTT_PUMP, False),
)
_MARKERS = tuple(marker for marker, _ in _BANDS)


def alpha_squared(ex: ExchangeTriple) -> float:
    """Thermal high-low energy ratio ``-e_high/e_low`` of a triple.

    Requires both reservoir exchanges nonzero and of opposite sign, which
    makes the ratio positive in every operational region, and the ratio
    finite and nonzero in floating point.
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
    ratio = -ex.e_high / ex.e_low
    require_finite("alpha_sq", ratio, ValidationError, 0.0)
    return ratio


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
    rejected as physically inadmissible.  A finite ratio within
    ``tol * alpha_sq`` of a threshold whose band applies to the triple's
    orientation (:data:`_BANDS`) gives that boundary's marker instead.
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
    thresholds = _edges(theta_sq)[1:4]
    for threshold, (marker, forward_only) in zip(thresholds, _BANDS):
        if (forward or not forward_only) and in_boundary_band(a, threshold, tol):
            return marker
    side = bisect_right(thresholds, a)
    if forward == (side < 3):
        return _REGIONS[side]
    side, kind = (
        ("exceeds", "an absorb-hot/release-cold")
        if forward
        else ("is below", "a release-hot/absorb-cold")
    )
    raise UnclassifiableExchangeError(
        f"alpha_sq={a!r} {side} theta_sq={theta_sq!r} for {kind} triple; "
        f"this would beat the Carnot bound and is inadmissible"
    )
