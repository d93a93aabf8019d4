"""Catalog of the eight thermal-machine designs.

Each operational region (or 2Acquirers subregion) hosts two designs, told
apart by which energy exchange they prioritize (target) versus which one
funds it (source).  Efficiency is |target|/|source|, which collapses to a
one-parameter function of ``alpha_sq = -e_high/e_low``.  The paper's table:

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

Each efficiency takes the design's Carnot value at one edge of its interval:
``alpha_sq = theta_sq`` for QEN, QLL, QRE and QHP, where the cycle is
reversible, and the subregion edge ``alpha_sq = 1/theta_sq`` for the
2Acquirers designs, where it is not (``sigma * t_low = |e_low| *
(1 - theta_sq**-2) > 0``).  That value caps the efficiency for every design
except QLL, where it is a floor.

:data:`CATALOG` holds region and roles; the efficiency, Carnot value,
``alpha_sq`` interval and limit kind are derived from them at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import unique
from typing import NamedTuple

from .errors import (
    BoundaryRegionError,
    InvalidRhoError,
    InvalidThetaError,
    OutOfRegionError,
    SingularEfficiencyError,
    ValidationError,
    require_finite,
)
from .regions import _REGIONS, OperationalRegion, _edges, _Enum, _unchecked

__all__ = [
    "QtmDesign",
    "EnergyRole",
    "CarnotLimitKind",
    "AlphaBounds",
    "admissible_designs",
    "efficiency",
    "carnot_efficiency",
    "alpha_bounds",
    "classical_otto_efficiency",
]


@unique
class EnergyRole(_Enum):
    """One of the six per-cycle energy exchanges a design can prioritize."""

    ABSORB_HIGH = "absorb_high"
    RELEASE_HIGH = "release_high"
    ABSORB_LOW = "absorb_low"
    RELEASE_LOW = "release_low"
    GENERATE_OUTSIDE = "generate_outside"
    RECEIVE_OUTSIDE = "receive_outside"


@unique
class QtmDesign(_Enum):
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

    region = property(lambda self: CATALOG[self].region,
                      doc="Operational region (or subregion) the design runs in.")
    target = property(lambda self: CATALOG[self].target,
                      doc="Exchange the design prioritizes (efficiency numerator).")
    source = property(lambda self: CATALOG[self].source,
                      doc="Exchange that funds the design (efficiency denominator).")


@unique
class CarnotLimitKind(_Enum):
    """Whether the Carnot value caps the efficiency or floors it."""

    MAXIMUM = "maximum"
    MINIMUM = "minimum"


class DesignRow(NamedTuple):
    """The paper's definition of one design: its region, and the exchange it
    prioritizes (target) and the one that funds it (source)."""

    region: OperationalRegion
    target: EnergyRole
    source: EnergyRole


_R, _C = OperationalRegion, EnergyRole

CATALOG = {
    QtmDesign.QCO: DesignRow(_R.TWO_ACQUIRERS_OUT, _C.ABSORB_HIGH, _C.RECEIVE_OUTSIDE),
    QtmDesign.QHT: DesignRow(_R.TWO_ACQUIRERS_OUT, _C.RELEASE_LOW, _C.RECEIVE_OUTSIDE),
    QtmDesign.QDP: DesignRow(_R.TWO_ACQUIRERS_HIGH, _C.RECEIVE_OUTSIDE, _C.ABSORB_HIGH),
    QtmDesign.QHO: DesignRow(_R.TWO_ACQUIRERS_HIGH, _C.RELEASE_LOW, _C.ABSORB_HIGH),
    QtmDesign.QEN: DesignRow(_R.OUT_TRANSFERS, _C.GENERATE_OUTSIDE, _C.ABSORB_HIGH),
    QtmDesign.QLL: DesignRow(_R.OUT_TRANSFERS, _C.RELEASE_LOW, _C.ABSORB_HIGH),
    QtmDesign.QRE: DesignRow(_R.PUMPERS, _C.ABSORB_LOW, _C.RECEIVE_OUTSIDE),
    QtmDesign.QHP: DesignRow(_R.PUMPERS, _C.RELEASE_HIGH, _C.RECEIVE_OUTSIDE),
}

#: Each region's two designs in :class:`QtmDesign` order; regions in ``_REGIONS`` order.
_PAIRS = {r: tuple(d for d in CATALOG if d.region is r) for r in _REGIONS[:4]}

#: Each exchange as ``c_high*e_high + c_low*e_low``: positive when it takes
#: place, under the sign convention of :mod:`qtmkit.regions`.
_ROLES = {
    _C.ABSORB_HIGH: (1, 0), _C.RELEASE_HIGH: (-1, 0),
    _C.ABSORB_LOW: (0, 1), _C.RELEASE_LOW: (0, -1),
    _C.GENERATE_OUTSIDE: (1, 1), _C.RECEIVE_OUTSIDE: (-1, -1),
}


def _ratio(row: DesignRow, slope, offset):
    """``v -> |target|/|source|`` at the triple ``v*slope + offset``, on
    floats or arrays.  Each exchange is affine in ``v`` with coefficients in
    {-1, 0, 1}, so the form rounds as the closed form with those operations."""
    def affine(role: EnergyRole) -> list[float]:
        c_high, c_low = _ROLES[role]
        return [float(c_high * h + c_low * l) for h, l in (slope, offset)]

    (tp, tq), (sp, sq) = affine(row.target), affine(row.source)
    return lambda v: abs(tp * v + tq) / abs(sp * v + sq)


def _derive(row: DesignRow):
    """What the functions below read of one design, by ``_edges`` index.

    The efficiency is the ratio at ``(alpha_sq, -1)`` on the design's side of
    ``alpha_sq = 1``.  The Carnot value is the ratio at ``(1, -theta_sq)``,
    edge 1, for the 2Acquirers designs and at ``(theta_sq, -1)``, edge 3, for
    the rest.  The interval is the region's two edges, and the far-end limit
    the ratio at the other one; the Carnot value is a floor if below it."""
    i = _REGIONS.index(row.region)
    low = i < 2
    form = _ratio(row, (1, 0), (0, -1))
    carnot = _ratio(row, (0, -1), (1, 0)) if low else form
    end, side = (1, (0.0, 1.0)) if low else (3, (1.0, math.inf))
    # The triple at alpha_sq = 0, 1 and inf, by edge.
    far_triple = {0: (0, -1), 2: (1, -1), 4: (1, 0)}[2 * i + 1 - end]
    far = _ratio(row, (0, 0), far_triple)(0)
    # Every theta_sq > 1 puts the Carnot value on the same side of ``far``.
    limit = CarnotLimitKind.MINIMUM if carnot(2.0) < far else CarnotLimitKind.MAXIMUM
    return (form, *side), carnot, (i, i + 1, limit, end), far


#: Per design: efficiency form and side, Carnot form, interval and Carnot
#: end with the limit kind, and the efficiency's far-end limit.
_EFFICIENCY, _CARNOT, _BOUNDS, _FAR_LIMIT = (
    dict(zip(CATALOG, column)) for column in zip(*map(_derive, CATALOG.values()))
)


def _not_a_design(design) -> ValidationError:
    """The error of a catalog lookup by anything but a :class:`QtmDesign`."""
    return ValidationError(f"design must be a QtmDesign, got {design!r}")


def admissible_designs(region: OperationalRegion) -> frozenset[QtmDesign]:
    """The two designs that can operate in the given (sub)region."""
    try:
        return frozenset(_PAIRS[region])
    except (KeyError, TypeError):
        if not isinstance(region, OperationalRegion):
            raise ValidationError(
                f"region must be an OperationalRegion, got {region!r}") from None
    raise BoundaryRegionError(
        f"no design operates on a region boundary ({region.value})")


def efficiency(design: QtmDesign, alpha_sq: float) -> float:
    """Efficiency (or coefficient of performance) at the given energy ratio.

    Defined on the open interval of the design's region: (0, 1) for the
    2Acquirers designs, (1, inf) for the rest.  The endpoints are region
    edges, where one exchange vanishes (e_high at 0, e_out at 1, e_low at
    inf), and raise instead of returning a value, saying whether the form
    diverges there or what it tends to.  None of them is reversible: the
    reversible ratio theta_sq lies inside (1, inf).
    """
    alpha_sq = require_finite("alpha_sq", alpha_sq, OutOfRegionError)
    try:
        form, lo, hi = _EFFICIENCY[design]
    except (KeyError, TypeError):
        raise _not_a_design(design) from None
    if alpha_sq == lo or alpha_sq == hi:
        try:
            limit = f"tends to {form(alpha_sq)!r}"
        except ZeroDivisionError:
            limit = "diverges"
        raise SingularEfficiencyError(f"{design.value} efficiency is undefined at the "
                                      f"region edge alpha_sq={alpha_sq!r}, where it {limit}")
    if not lo < alpha_sq < hi:
        raise OutOfRegionError(
            f"{design.value} requires alpha_sq in ({lo:g}, {hi:g}), "
            f"got {alpha_sq!r}"
        )
    return form(alpha_sq)


def _efficiencies(design: QtmDesign, alpha_sq):
    """:func:`efficiency` over an ascending ``alpha_sq`` array, by one
    evaluation of the catalog expression.  The values it accepts form an
    interval, so checking both ends with :func:`efficiency` checks them all."""
    for end in alpha_sq[:1].tolist() + alpha_sq[-1:].tolist():
        efficiency(design, end)
    return _EFFICIENCY[design][0](alpha_sq)


def carnot_efficiency(design: QtmDesign, theta_sq: float) -> float:
    """Carnot-limit efficiency, a function of the temperature ratio only.

    Equals ``efficiency(design, a*)`` at the edge where the efficiency meets
    it: the subregion edge ``a* = 1/theta_sq`` (2Acquirers designs, reached
    with positive entropy production) or the reversible ratio
    ``a* = theta_sq`` (others).
    """
    theta_sq = require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    try:
        form = _CARNOT[design]
    except (KeyError, TypeError):
        raise _not_a_design(design) from None
    return form(theta_sq)


@dataclass(frozen=True)
class AlphaBounds:
    """Admissible ``alpha_sq`` interval of a design at a fixed theta_sq.

    ``carnot_alpha_sq`` is the endpoint where the efficiency meets its Carnot
    value; the other is a singular or degenerate limit.  Only the
    ``theta_sq``-end designs reach their Carnot endpoint reversibly; at the
    2Acquirers edge ``1/theta_sq`` the cycle still produces entropy.
    ``carnot_limit_kind`` records whether that value is the maximum
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
    theta_sq = require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    try:
        lo, hi, limit, end = _BOUNDS[design]
    except (KeyError, TypeError):
        raise _not_a_design(design) from None
    edges = _edges(theta_sq)  # ascending for every theta_sq > 1, as checked
    return _unchecked(AlphaBounds, alpha_sq_min=edges[lo], alpha_sq_max=edges[hi],
                      carnot_limit_kind=limit, carnot_alpha_sq=edges[end])


def classical_otto_efficiency(rho: float) -> float:
    """Otto-cycle efficiency of a monatomic ideal gas at compression ratio
    ``rho``: ``1 - rho**(-2/3)``."""
    rho = require_finite("compression ratio rho", rho, InvalidRhoError, 1.0)
    return 1.0 - rho ** (-2.0 / 3.0)
