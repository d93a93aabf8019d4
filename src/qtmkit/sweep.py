"""Compression-ratio sweeps, boundary reports, and record serialization.

A sweep walks a grid of compression ratios ``rho``, builds the working medium
at each point (``alpha_sq = rho**2``), runs the Otto cycle, classifies the
resulting exchange triple, and attaches the efficiencies of the two designs
admissible there.  Output goes to CSV (fixed column order, 12 significant
digits) or JSON (exact floats, round-trippable).

Every grid point is independent and every function here is pure, so callers
may evaluate points concurrently; records are always ordered by ascending
``rho`` regardless of evaluation order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum, unique
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .designs import (
    CarnotLimitKind,
    QtmDesign,
    admissible_designs,
    alpha_bounds,
    carnot_efficiency,
    efficiency,
    intersections,
)
from .errors import (
    DegenerateExchangeError,
    EmitIOError,
    EmptyGridError,
    InvalidTemperatureError,
    InvalidThetaError,
    ValidationError,
    require_finite,
)
from .media import CODATA, PhysicalConstants, RingOttoSetup, gap_medium, ring_medium
from .otto import TwoLevelMedium, otto_cycle_energies
from .regions import OperationalRegion, classify_region, in_boundary_band

__all__ = [
    "MediumKind",
    "Normalization",
    "SweepSpec",
    "DesignEfficiency",
    "SweepRecord",
    "BoundaryReport",
    "EfficiencyCurve",
    "CSV_COLUMNS",
    "region_boundaries_rho",
    "default_rho_grid",
    "boundary_report",
    "run_sweep",
    "efficiency_curves",
    "emit",
    "emit_curves",
    "parse_records",
]

CSV_COLUMNS = (
    "rho",
    "alpha_sq",
    "e_high",
    "e_low",
    "e_out",
    "e_high_norm",
    "e_low_norm",
    "e_out_norm",
    "region",
    "design1",
    "eff1",
    "design2",
    "eff2",
    "carnot1",
    "carnot2",
)
#: The float fields of a :class:`SweepRecord`, in column order.
_FLOAT_COLUMNS = CSV_COLUMNS[:8]
_floats = attrgetter(*_FLOAT_COLUMNS)

#: Admissible designs of each (sub)region, in catalog order.
_REGION_DESIGNS = {
    region: tuple(d for d in QtmDesign if d in admissible_designs(region))
    for region in OperationalRegion
    if not region.is_boundary
}


@unique
class MediumKind(Enum):
    QUANTUM_RING = "quantum_ring"
    GENERIC_GAP = "generic_gap"


@unique
class Normalization(Enum):
    NONE = "none"
    MAX_ABS_ENERGY = "max_abs_energy"


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one sweep.

    Exactly one of ``r_low`` (ring medium, meters) or ``gap_low`` (generic
    medium, energy units) must be set, matching ``medium_kind``.
    """

    t_low: float
    theta_sq: float
    rho_grid: tuple[float, ...]
    medium_kind: MediumKind = MediumKind.QUANTUM_RING
    normalization: Normalization = Normalization.MAX_ABS_ENERGY
    r_low: Optional[float] = None
    gap_low: Optional[float] = None

    def __post_init__(self) -> None:
        require_finite("t_low", self.t_low, InvalidTemperatureError, 0.0)
        require_finite("theta_sq", self.theta_sq, InvalidThetaError, 1.0)
        grid = self.rho_grid
        if len(grid) == 0:
            raise EmptyGridError("rho_grid must contain at least one point")
        # A NaN anywhere fails one of these comparisons.
        if not (
            0.0 < grid[0]
            and grid[-1] < math.inf
            and all(a < b for a, b in zip(grid, grid[1:]))
        ):
            raise ValidationError(
                "rho_grid values must be positive, finite and strictly "
                "increasing"
            )
        key = "r_low" if self.medium_kind is MediumKind.QUANTUM_RING else "gap_low"
        value = getattr(self, key)
        if value is None:
            raise ValidationError(f"{self.medium_kind.value} sweeps require {key}")
        require_finite(key, value, ValidationError, 0.0)


@dataclass(frozen=True)
class DesignEfficiency:
    """Efficiency and Carnot value of one admissible design at one point."""

    design: QtmDesign
    efficiency: float
    carnot: float


@dataclass(frozen=True)
class SweepRecord:
    """One sweep grid point: energies, region, admissible-design metrics."""

    rho: float
    alpha_sq: float
    e_high: float
    e_low: float
    e_out: float
    e_high_norm: float
    e_low_norm: float
    e_out_norm: float
    region: OperationalRegion
    designs: tuple[DesignEfficiency, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class BoundaryReport:
    """Region boundaries of one sweep, in both rho and alpha_sq."""

    rho_subregion: float
    rho_2acq_outt: float
    rho_outt_pump: float
    alpha_sq_subregion: float
    alpha_sq_2acq_outt: float
    alpha_sq_outt_pump: float


def region_boundaries_rho(theta_sq: float) -> tuple[float, float, float]:
    """Boundary compression ratios ``(1/theta, 1, theta)``.

    Each is the square root of its ``alpha_sq`` threshold, as is every rho
    endpoint of the efficiency curves, so injected grid points, reports and
    curve clipping agree bitwise.
    """
    return tuple(math.sqrt(a) for a in intersections(theta_sq).as_tuple())


def boundary_report(theta_sq: float) -> BoundaryReport:
    """Boundary ratios for the given temperature ratio."""
    return BoundaryReport(
        *region_boundaries_rho(theta_sq), *intersections(theta_sq).as_tuple()
    )


def default_rho_grid(
    theta_sq: float,
    num: int = 600,
    rho_min: float = 0.05,
    rho_max: float = 3.0,
) -> tuple[float, ...]:
    """Uniform rho grid with the region-boundary ratios injected.

    Injection guarantees the sign crossings and the Carnot endpoints of the
    efficiency curves land exactly on grid points (when they fall inside the
    requested range).
    """
    if num < 2 or not 0.0 < rho_min < rho_max:
        raise ValidationError(
            f"need num >= 2 and 0 < rho_min < rho_max, got "
            f"num={num!r}, rho_min={rho_min!r}, rho_max={rho_max!r}"
        )
    grid = np.linspace(rho_min, rho_max, num)
    inject = [r for r in region_boundaries_rho(theta_sq) if rho_min <= r <= rho_max]
    return tuple(float(r) for r in np.unique(np.concatenate([grid, inject])))


def _build_medium(
    spec: SweepSpec, rho: float, constants: PhysicalConstants
) -> TwoLevelMedium:
    if spec.medium_kind is MediumKind.QUANTUM_RING:
        setup = RingOttoSetup(
            r_low=spec.r_low,
            r_high=spec.r_low / rho,
            t_low=spec.t_low,
            theta_sq=spec.theta_sq,
        )
        return ring_medium(setup, constants)
    return gap_medium(spec.gap_low, rho * rho)


def _classify_point(
    rho: float,
    triple_alpha_sq: float,
    energies,
    theta_sq: float,
) -> OperationalRegion:
    try:
        return classify_region(energies.as_exchange_triple(), theta_sq)
    except DegenerateExchangeError:
        # An exactly reversible point yields identically zero exchanges; the
        # gap ratio still identifies it as the OutTransfers/Pumpers boundary.
        if in_boundary_band(triple_alpha_sq, theta_sq):
            return OperationalRegion.BOUNDARY_OUTT_PUMP
        raise DegenerateExchangeError(
            f"cycle energies vanished at rho={rho!r} away from the reversible "
            f"ratio; the gaps are probably enormous compared to k_B * t_low "
            f"(check units and constants)"
        ) from None


def _design_entries(
    region: OperationalRegion, alpha_sq: float, theta_sq: float
) -> tuple[DesignEfficiency, ...]:
    return tuple(
        DesignEfficiency(
            design=design,
            efficiency=efficiency(design, alpha_sq),
            carnot=carnot_efficiency(design, theta_sq),
        )
        for design in _REGION_DESIGNS.get(region, ())
        if alpha_bounds(design, theta_sq).contains(alpha_sq)
    )


def run_sweep(
    spec: SweepSpec, constants: PhysicalConstants = CODATA
) -> tuple[list[SweepRecord], BoundaryReport]:
    """Evaluate the Otto cycle over the whole rho grid.

    Returns per-point records ordered by ascending rho plus the boundary
    report.  With ``max_abs_energy`` normalization the three normalized
    energy columns share a single scale: the largest absolute energy found
    anywhere in the sweep.
    """
    points = []
    for rho in spec.rho_grid:
        medium = _build_medium(spec, rho, constants)
        energies = otto_cycle_energies(
            medium, spec.t_low, spec.theta_sq, constants.boltzmann_k
        )
        region = _classify_point(rho, medium.alpha_sq, energies, spec.theta_sq)
        points.append((rho, medium.alpha_sq, energies, region))

    scale = 1.0
    if spec.normalization is Normalization.MAX_ABS_ENERGY:
        scale = max(
            max(abs(e.e_high_gamma), abs(e.e_low_gamma), abs(e.e_out))
            for _, _, e, _ in points
        ) or 1.0

    records = [
        SweepRecord(
            rho=float(rho),
            alpha_sq=float(alpha_sq),
            e_high=energies.e_high_gamma,
            e_low=energies.e_low_gamma,
            e_out=energies.e_out,
            e_high_norm=energies.e_high_gamma / scale,
            e_low_norm=energies.e_low_gamma / scale,
            e_out_norm=energies.e_out / scale,
            region=region,
            designs=_design_entries(region, alpha_sq, spec.theta_sq),
        )
        for rho, alpha_sq, energies, region in points
    ]
    return records, boundary_report(spec.theta_sq)


@dataclass(frozen=True)
class EfficiencyCurve:
    """Efficiency-versus-rho series of one design, clipped to its admissible
    interval, with its Carnot level."""

    design: QtmDesign
    rho: tuple[float, ...]
    efficiency: tuple[float, ...]
    carnot: float
    carnot_limit_kind: CarnotLimitKind


def efficiency_curves(spec: SweepSpec) -> dict[QtmDesign, EfficiencyCurve]:
    """Per-design efficiency series over the sweep's rho grid.

    Each series exists only on the design's admissible interval; the endpoint
    shared with the adjacent region is included, where the series value meets
    the design's Carnot level.  The rho interval is the square root of the
    design's ``alpha_sq`` interval; only its Carnot endpoint is closed, the
    other one being a singular or degenerate limit.
    """
    curves = {}
    for design in QtmDesign:
        bounds = alpha_bounds(design, spec.theta_sq)
        lo, hi, end = map(math.sqrt, (
            bounds.alpha_sq_min, bounds.alpha_sq_max, bounds.carnot_alpha_sq
        ))
        rhos = tuple(r for r in spec.rho_grid if lo < r < hi or r == end)
        effs = tuple(efficiency(design, r * r) for r in rhos)
        curves[design] = EfficiencyCurve(
            design=design,
            rho=rhos,
            efficiency=effs,
            carnot=carnot_efficiency(design, spec.theta_sq),
            carnot_limit_kind=bounds.carnot_limit_kind,
        )
    return curves


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _record_row(record: SweepRecord) -> list[str]:
    row = [_fmt(value) for value in _floats(record)]
    row.append(record.region.value)
    cells = [(e.design.value, _fmt(e.efficiency), _fmt(e.carnot))
             for e in record.designs[:2]]
    cells += [("", "", "")] * (2 - len(cells))
    (name1, eff1, carnot1), (name2, eff2, carnot2) = cells
    return row + [name1, eff1, name2, eff2, carnot1, carnot2]


def _record_obj(record: SweepRecord) -> dict:
    obj = dict(zip(_FLOAT_COLUMNS, _floats(record)))
    obj["region"] = record.region.value
    obj["designs"] = [
        {"design": e.design.value, "efficiency": e.efficiency, "carnot": e.carnot}
        for e in record.designs
    ]
    return obj


def _record_from_obj(obj: dict) -> SweepRecord:
    return SweepRecord(
        **{name: obj[name] for name in _FLOAT_COLUMNS},
        region=OperationalRegion(obj["region"]),
        designs=tuple(
            DesignEfficiency(QtmDesign(d["design"]), d["efficiency"], d["carnot"])
            for d in obj["designs"]
        ),
    )


def parse_records(text: str) -> list[SweepRecord]:
    """Inverse of JSON :func:`emit`: rebuild records from serialized output."""
    return [_record_from_obj(obj) for obj in json.loads(text)]


def _write(destination, text: str) -> None:
    if destination is None or destination == "-":
        sys.stdout.write(text)
        return
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise EmitIOError(f"cannot write {destination}: {exc}") from exc


def _emit(format: str, destination, header, rows, doc) -> None:
    """Write ``header`` and ``rows`` as CSV, or ``doc()`` as JSON."""
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buffer.getvalue()
    elif format == "json":
        text = json.dumps(doc(), indent=2) + "\n"
    else:
        raise ValidationError(f"unknown format {format!r} (expected csv or json)")
    _write(destination, text)


def emit(
    records: Sequence[SweepRecord],
    format: str = "csv",
    destination=None,
) -> None:
    """Serialize sweep records to CSV or JSON.

    CSV uses the fixed :data:`CSV_COLUMNS` order with a header row and 12
    significant digits; boundary records leave the design columns empty.
    JSON keeps exact float values so ``parse_records(emitted)`` returns the
    original records.  ``destination`` may be a path, an open text stream, or
    ``None``/``"-"`` for standard output.
    """
    if len(records) == 0:
        raise ValidationError("no records to emit")
    _emit(format, destination, CSV_COLUMNS, map(_record_row, records),
          lambda: [_record_obj(r) for r in records])


def emit_curves(
    curves: dict[QtmDesign, EfficiencyCurve],
    format: str = "csv",
    destination=None,
) -> None:
    """Serialize efficiency curves: long-format CSV or per-design JSON."""
    if len(curves) == 0:
        raise ValidationError("no curves to emit")
    ordered = [(design, curves[design]) for design in QtmDesign if design in curves]
    rows = (
        (design.value, _fmt(rho), _fmt(eff), _fmt(curve.carnot),
         curve.carnot_limit_kind.value)
        for design, curve in ordered
        for rho, eff in zip(curve.rho, curve.efficiency)
    )
    _emit(format, destination,
          ("design", "rho", "efficiency", "carnot", "carnot_limit"), rows,
          lambda: {
              design.value: {
                  "rho": list(curve.rho),
                  "efficiency": list(curve.efficiency),
                  "carnot": curve.carnot,
                  "carnot_limit": curve.carnot_limit_kind.value,
              }
              for design, curve in curves.items()
          })
