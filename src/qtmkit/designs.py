"""Catalog of the eight thermal-machine designs.

Each operational region (or 2Acquirers subregion) hosts two designs, told
apart by which energy exchange they prioritize (target) versus which one
funds it (source).  Efficiency is |target|/|source|, which collapses to a
one-parameter function of ``alpha_sq = -e_high/e_low``:

====== ================== ================= ================ ================
design region             target            source           efficiency(a)
====== ================== ================= ================ ================
QCO    TwoAcquirersOut    absorb high       receive outside  a / (1 - a)
QHT    TwoAcquirersOut    release low       receive outside  1 / (1 - a)
QDP    TwoAcquirersHigh   receive outside   absorb high      (1 - a) / a
QHO    TwoAcquirersHigh   release low       absorb high      1 / a
QEN    OutTransfers       generate outside  absorb high      (a - 1) / a
QLL    OutTransfers       release low       absorb high      1 / a
QRE    Pumpers            absorb low        receive outside  1 / (a - 1)
QHP    Pumpers            release high      receive outside  a / (a - 1)
====== ================== ================= ================ ================

Operating a design in the reversible limit pins ``alpha_sq`` at ``1/theta_sq``
(2Acquirers designs) or ``theta_sq`` (the rest), which turns the efficiency
into the design's Carnot value.  That value caps the efficiency for every
design except QLL, where it is a floor.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum, unique
from typing import Callable, NamedTuple, Optional

from .errors import (
    BoundaryRegionError,
    InvalidRhoError,
    InvalidThetaError,
    OutOfRegionError,
    SingularEfficiencyError,
    ValidationError,
    require_finite,
)
from .regions import OperationalRegion

__all__ = [
    "QtmDesign",
    "EnergyRole",
    "CarnotLimitKind",
    "AlphaBounds",
    "IntersectionSet",
    "RelationResiduals",
    "admissible_designs",
    "efficiency",
    "carnot_efficiency",
    "alpha_bounds",
    "intersections",
    "relation_residuals",
    "classical_otto_efficiency",
]


@unique
class EnergyRole(Enum):
    """One of the six per-cycle energy exchanges a design can prioritize."""

    ABSORB_HIGH = "absorb_high"
    RELEASE_HIGH = "release_high"
    ABSORB_LOW = "absorb_low"
    RELEASE_LOW = "release_low"
    GENERATE_OUTSIDE = "generate_outside"
    RECEIVE_OUTSIDE = "receive_outside"


@unique
class QtmDesign(Enum):
    """The eight machine designs: cooler, heater, damper, heating optimizer,
    engine, laser-like, refrigerator, heat pumper."""

    QCO = "QCO"
    QHT = "QHT"
    QDP = "QDP"
    QHO = "QHO"
    QEN = "QEN"
    QLL = "QLL"
    QRE = "QRE"
    QHP = "QHP"

    @property
    def region(self) -> OperationalRegion:
        return CATALOG[self].region

    @property
    def target(self) -> EnergyRole:
        """Exchange the design prioritizes (efficiency numerator)."""
        return CATALOG[self].target

    @property
    def source(self) -> EnergyRole:
        """Exchange that funds the design (efficiency denominator)."""
        return CATALOG[self].source


@unique
class CarnotLimitKind(Enum):
    """Whether the Carnot value caps the efficiency or floors it."""

    MAXIMUM = "maximum"
    MINIMUM = "minimum"


def _edges(theta_sq: float) -> tuple[float, ...]:
    """The ``alpha_sq`` region edges ``(0, 1/theta_sq, 1, theta_sq, inf)``."""
    return (0.0, 1.0 / theta_sq, 1.0, theta_sq, math.inf)


class DesignRow(NamedTuple):
    """Every catalog fact of one design.

    ``lo``, ``hi`` and ``carnot_end`` index :func:`_edges`: the design's
    ``alpha_sq`` interval and the endpoint where the efficiency meets its
    Carnot value.  ``far_limit`` is the efficiency's limit at the other end.
    """

    region: OperationalRegion
    target: EnergyRole
    source: EnergyRole
    efficiency: Callable[[float], float]
    carnot: Callable[[float], float]
    lo: int
    hi: int
    carnot_end: int
    limit: CarnotLimitKind
    far_limit: float


_R, _C = OperationalRegion, EnergyRole
_MAX, _MIN = CarnotLimitKind.MAXIMUM, CarnotLimitKind.MINIMUM

# The efficiency forms share denominators within each region pair, so the
# exact pairwise identities (difference or sum equal to one) hold to machine
# precision rather than merely to algebraic equivalence.  QLL's efficiency
# falls with alpha_sq, so its Carnot value at the upper endpoint is a floor.
CATALOG = {
    QtmDesign.QCO: DesignRow(
        _R.TWO_ACQUIRERS_OUT, _C.ABSORB_HIGH, _C.RECEIVE_OUTSIDE,
        lambda a: a / (1.0 - a), lambda t: 1.0 / (t - 1.0), 0, 1, 1, _MAX, 0.0),
    QtmDesign.QHT: DesignRow(
        _R.TWO_ACQUIRERS_OUT, _C.RELEASE_LOW, _C.RECEIVE_OUTSIDE,
        lambda a: 1.0 / (1.0 - a), lambda t: t / (t - 1.0), 0, 1, 1, _MAX, 1.0),
    QtmDesign.QDP: DesignRow(
        _R.TWO_ACQUIRERS_HIGH, _C.RECEIVE_OUTSIDE, _C.ABSORB_HIGH,
        lambda a: (1.0 - a) / a, lambda t: t - 1.0, 1, 2, 1, _MAX, 0.0),
    QtmDesign.QHO: DesignRow(
        _R.TWO_ACQUIRERS_HIGH, _C.RELEASE_LOW, _C.ABSORB_HIGH,
        lambda a: 1.0 / a, lambda t: t, 1, 2, 1, _MAX, 1.0),
    QtmDesign.QEN: DesignRow(
        _R.OUT_TRANSFERS, _C.GENERATE_OUTSIDE, _C.ABSORB_HIGH,
        lambda a: (a - 1.0) / a, lambda t: (t - 1.0) / t, 2, 3, 3, _MAX, 0.0),
    QtmDesign.QLL: DesignRow(
        _R.OUT_TRANSFERS, _C.RELEASE_LOW, _C.ABSORB_HIGH,
        lambda a: 1.0 / a, lambda t: 1.0 / t, 2, 3, 3, _MIN, 1.0),
    QtmDesign.QRE: DesignRow(
        _R.PUMPERS, _C.ABSORB_LOW, _C.RECEIVE_OUTSIDE,
        lambda a: 1.0 / (a - 1.0), lambda t: 1.0 / (t - 1.0), 3, 4, 3, _MAX, 0.0),
    QtmDesign.QHP: DesignRow(
        _R.PUMPERS, _C.RELEASE_HIGH, _C.RECEIVE_OUTSIDE,
        lambda a: a / (a - 1.0), lambda t: t / (t - 1.0), 3, 4, 3, _MAX, 1.0),
}


def admissible_designs(region: OperationalRegion) -> frozenset[QtmDesign]:
    """The two designs that can operate in the given (sub)region."""
    if region.is_boundary:
        raise BoundaryRegionError(
            f"no design operates on a region boundary ({region.value})"
        )
    return frozenset(d for d, row in CATALOG.items() if row.region is region)


def efficiency(design: QtmDesign, alpha_sq: float) -> float:
    """Efficiency (or coefficient of performance) at the given energy ratio.

    Defined on the open interval of the design's region: (0, 1) for the
    2Acquirers designs, (1, inf) for the rest.  Interval endpoints are the
    reversible/degenerate limits and raise instead of returning a value.
    """
    require_finite("alpha_sq", alpha_sq, OutOfRegionError)
    row = CATALOG[design]
    # The efficiency form holds on the whole side of alpha_sq = 1 (edge 2).
    lo, hi = (0.0, 1.0) if row.hi <= 2 else (1.0, math.inf)
    if alpha_sq == lo or alpha_sq == hi:
        raise SingularEfficiencyError(
            f"{design.value} efficiency is singular at alpha_sq={alpha_sq!r}"
        )
    if not lo < alpha_sq < hi:
        raise OutOfRegionError(
            f"{design.value} requires alpha_sq in ({lo:g}, {hi:g}), "
            f"got {alpha_sq!r}"
        )
    return row.efficiency(alpha_sq)


def _efficiencies(design: QtmDesign, alpha_sq):
    """:func:`efficiency` over an ascending ``alpha_sq`` array, by one
    evaluation of the catalog expression.  The values it accepts form an
    interval, so checking both ends with :func:`efficiency` checks them all."""
    for end in alpha_sq[:1].tolist() + alpha_sq[-1:].tolist():
        efficiency(design, end)
    return CATALOG[design].efficiency(alpha_sq)


def carnot_efficiency(design: QtmDesign, theta_sq: float) -> float:
    """Carnot-limit efficiency, a function of the temperature ratio only.

    Equals ``efficiency(design, a*)`` at the design's reversible ratio
    ``a* = 1/theta_sq`` (2Acquirers designs) or ``a* = theta_sq`` (others).
    """
    require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    return CATALOG[design].carnot(theta_sq)


@dataclass(frozen=True)
class AlphaBounds:
    """Admissible ``alpha_sq`` interval of a design at a fixed theta_sq.

    ``carnot_alpha_sq`` is the endpoint where the efficiency meets its Carnot
    value; it is the only physically reachable endpoint (in the reversible
    limit).  ``carnot_limit_kind`` records whether that value is the maximum
    of the efficiency over the interval or -- uniquely for QLL -- the minimum.
    """

    alpha_sq_min: float
    alpha_sq_max: float
    carnot_limit_kind: CarnotLimitKind
    carnot_alpha_sq: float

    def __post_init__(self) -> None:
        if not self.alpha_sq_min < self.alpha_sq_max:
            raise ValidationError(
                f"alpha_sq_min must be below alpha_sq_max, got "
                f"{self.alpha_sq_min!r} >= {self.alpha_sq_max!r}"
            )

    def contains(self, alpha_sq: float) -> bool:
        """Strict interior test."""
        return self.alpha_sq_min < alpha_sq < self.alpha_sq_max


def alpha_bounds(design: QtmDesign, theta_sq: float) -> AlphaBounds:
    """Admissible ``alpha_sq`` interval for the design between reservoirs
    with the given temperature ratio."""
    require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    row = CATALOG[design]
    edges = _edges(theta_sq)
    return AlphaBounds(
        edges[row.lo], edges[row.hi], row.limit, edges[row.carnot_end]
    )


@dataclass(frozen=True)
class IntersectionSet:
    """The three ``alpha_sq`` thresholds separating adjacent (sub)regions."""

    alpha_sq_subregion: float
    alpha_sq_2acq_outt: float
    alpha_sq_outt_pump: float

    def __post_init__(self) -> None:
        if not (
            self.alpha_sq_subregion
            < self.alpha_sq_2acq_outt
            < self.alpha_sq_outt_pump
        ):
            raise ValidationError("intersection thresholds must be increasing")

    def as_tuple(self) -> tuple[float, float, float]:
        return astuple(self)


def intersections(theta_sq: float) -> IntersectionSet:
    """Region-boundary ratios ``(1/theta_sq, 1, theta_sq)``."""
    require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    return IntersectionSet(*_edges(theta_sq)[1:4])


class RelationResiduals(NamedTuple):
    """Residuals of the four in-region pairwise identities, each zero to
    machine precision where its pair is defined and ``None`` elsewhere."""

    qht_minus_qco: Optional[float]  # QHT - QCO - 1 on (0, 1)
    qho_minus_qdp: Optional[float]  # QHO - QDP - 1 on (0, 1)
    qen_plus_qll: Optional[float]  # QEN + QLL - 1 on (1, inf)
    qhp_minus_qre: Optional[float]  # QHP - QRE - 1 on (1, inf)


def relation_residuals(
    alpha_sq: float, theta_sq: Optional[float] = None
) -> RelationResiduals:
    """Evaluate the pairwise efficiency identities at one energy ratio.

    The identities are independent of the temperature ratio; ``theta_sq`` is
    accepted (and validated) for signature symmetry with the rest of the
    catalog but does not influence applicability.
    """
    if theta_sq is not None:
        require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    low = high = (None, None)
    if 0.0 < alpha_sq < 1.0:
        low = (
            efficiency(QtmDesign.QHT, alpha_sq)
            - efficiency(QtmDesign.QCO, alpha_sq)
            - 1.0,
            efficiency(QtmDesign.QHO, alpha_sq)
            - efficiency(QtmDesign.QDP, alpha_sq)
            - 1.0,
        )
    elif alpha_sq > 1.0 and math.isfinite(alpha_sq):
        high = (
            efficiency(QtmDesign.QEN, alpha_sq)
            + efficiency(QtmDesign.QLL, alpha_sq)
            - 1.0,
            efficiency(QtmDesign.QHP, alpha_sq)
            - efficiency(QtmDesign.QRE, alpha_sq)
            - 1.0,
        )
    return RelationResiduals(low[0], low[1], high[0], high[1])


def classical_otto_efficiency(rho: float) -> float:
    """Otto-cycle efficiency of a monatomic ideal gas at compression ratio
    ``rho``: ``1 - rho**(-2/3)``."""
    require_finite("compression ratio rho", rho, InvalidRhoError, 1.0)
    return 1.0 - rho ** (-2.0 / 3.0)
