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


def _edges(theta_sq: float) -> tuple[float, ...]:
    """The ``alpha_sq`` region edges ``(0, 1/theta_sq, 1, theta_sq, inf)``;
    the inner three are the thresholds of :func:`_region_index`."""
    return (0.0, 1.0 / theta_sq, 1.0, theta_sq, math.inf)


def _unchecked(cls, **fields):
    """Frozen dataclass ``cls`` with ``fields`` (declared order) as its ``__dict__``;
    sound only for fields that already are what its ``__init__`` would store."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        for name in ("e_high", "e_low"):
            object.__setattr__(self, name, require_finite(
                name, getattr(self, name), ValidationError))

    @property
    def e_out(self) -> float:
        """Energy exchanged with the outside, ``e_high + e_low``."""
        return self.e_high + self.e_low

    # The names :func:`qtmkit.otto.otto_cycle_energies` gives the exchanges.
    e_high_gamma = property(attrgetter("e_high"))
    e_low_gamma = property(attrgetter("e_low"))

    def as_exchange_triple(self) -> "ExchangeTriple":
        return self


class _Enum(Enum):
    """Base of the package enums: identity hash and ``value`` getter, in C."""
    __hash__ = object.__hash__
    value = property(attrgetter("_value_"))


@unique
class OperationalRegion(_Enum):
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
_MARKERS = _REGIONS[4:]


def _region_index(a, forward, theta_sq: float, tol: float = DEFAULT_CLASSIFY_TOL):
    """Region index of ratio ``a`` with orientation ``forward`` (absorb hot),
    elementwise: ``4 + k`` if finite and within ``tol * a`` of threshold ``k``
    of ``(1/theta_sq, 1, theta_sq)`` (the first band that holds; the lower two
    for forward ratios only), else the count of thresholds at or below ``a``
    if the orientation is admissible (forward below ``theta_sq``, reversed
    above), or ``-1`` where the ratio would beat the Carnot bound."""
    t = _edges(theta_sq)
    width, finite = tol * a, a < math.inf
    # Start from an int: numpy adds two bool arrays as a logical or.
    side = 0 + (t[1] <= a) + (t[2] <= a) + (t[3] <= a)
    index = side - (side + 1) * (forward == (side == 3))
    for k in (3, 2, 1):  # edge k is threshold k - 1; the first band wins, so last
        # Both orientations meet at theta_sq, the reversible Carnot limit.
        band = (abs(a - t[k]) <= width) & finite & (forward | (k == 3))
        index = index + band * (3 + k - index)
    return index


def in_boundary_band(alpha_sq, theta_sq: float, tol: float = DEFAULT_CLASSIFY_TOL):
    """In the ``theta_sq`` band, elementwise: a reversed ratio's only band, index 6."""
    return _region_index(alpha_sq, False, theta_sq, tol) == 6


def _pair_ratio(ex: ExchangeTriple) -> float:
    """``-e_high/e_low`` of two nonzero reservoir exchanges of opposite sign;
    it may overflow to inf or underflow to 0."""
    if ex.e_high == 0.0 or ex.e_low == 0.0:
        raise DegenerateExchangeError(
            f"both reservoir exchanges must be nonzero, got "
            f"e_high={ex.e_high!r}, e_low={ex.e_low!r}"
        )
    if (ex.e_high > 0.0) == (ex.e_low > 0.0):
        raise InvalidSignsError(
            f"reservoir exchanges share a sign (e_high={ex.e_high!r}, "
            f"e_low={ex.e_low!r}); no operational region matches"
        )
    return -ex.e_high / ex.e_low


def alpha_squared(ex: ExchangeTriple) -> float:
    """Thermal high-low energy ratio ``-e_high/e_low`` of a triple.

    Requires both reservoir exchanges nonzero and of opposite sign, which
    makes the ratio positive in every operational region, and the ratio
    finite and nonzero in floating point.
    """
    return require_finite("alpha_sq", _pair_ratio(ex), ValidationError, 0.0)


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
    orientation (:func:`_region_index`) gives that boundary's marker instead.
    """
    theta_sq = require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    if (tol := require_finite("tol", tol, ValidationError)) < 0.0:
        raise ValidationError(f"tol must be finite and non-negative, got {tol!r}")
    a = _pair_ratio(ex)
    forward = ex.e_high > 0.0
    index = _region_index(a, forward, theta_sq, tol)
    if index >= 0:
        return _REGIONS[index]
    where, kind = (("exceeds", "an absorb-hot/release-cold") if forward
                   else ("is below", "a release-hot/absorb-cold"))
    raise UnclassifiableExchangeError(
        f"alpha_sq={a!r} {where} theta_sq={theta_sq!r} for {kind} triple; "
        f"this would beat the Carnot bound and is inadmissible"
    )
