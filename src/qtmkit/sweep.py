"""Compression-ratio sweeps, boundary reports, and record serialization.

A sweep evaluates a grid of compression ratios ``rho`` in one numpy pass: the
working medium's gaps at every point (``alpha_sq = rho**2``), the Otto-cycle
exchanges, the operational region, and the efficiencies of the two designs
admissible there.  Records are built last, in ascending ``rho``.  Output goes
to CSV (fixed column order, 12 significant digits) or JSON (exact floats,
round-trippable).

Records are built a column at a time by ``_build``, in :func:`run_sweep` and
in :func:`parse_records`, with the cyclic garbage collector paused: the
builds make no reference cycles.  A program that toggles :mod:`gc` from
another thread during either call may find it re-enabled afterwards.

The writers work a column at a time.  Each float column is formatted in one
pass: a ``map`` of ``"{:.12g}".format`` for CSV; for JSON, one
``orjson.dumps`` call, with ``float.__repr__`` re-spelling the cells in the
magnitude band where orjson spells a float otherwise (the encoder's own
spelling, value by value, when a column holds ``NaN``, an infinity, an int or
a float subclass).  The cells are then joined with the literals of a fixed
line template: the CSV row, or the record and design entry of
``json.dumps(indent=2)``.  The output is byte for byte what ``csv.writer``
and ``json.dumps(..., indent=2)`` write; ``tests/test_writers.py`` checks
that.  Records go through in chunks, which bounds the text held at once.
:func:`parse_records` reads with orjson and gives what ``json.loads`` gives.
orjson is imported by these two JSON paths only.
"""

from __future__ import annotations

import gc
import json
import math
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field
from enum import Enum, unique
from itertools import chain, islice, repeat
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

import numpy as np

from .designs import (  # noqa: F401  (admissible_designs, efficiency: see below)
    CarnotLimitKind, QtmDesign, _efficiencies, admissible_designs,
    alpha_bounds, carnot_efficiency, efficiency,
)
from .errors import (DegenerateExchangeError, EmitIOError, EmptyGridError,
                     InvalidTemperatureError, InvalidThetaError,
                     ValidationError, require_finite)
from .media import (CODATA, PhysicalConstants, _ring_levels, gap_medium,
                    ring_medium)
from .otto import _exchanges, otto_cycle_energies  # noqa: F401  (see below)
from .regions import (_BANDS, _REGIONS, ExchangeTriple, OperationalRegion,
                      _edges, classify_region, in_boundary_band)

# The kernel evaluates on arrays what the scalar API does point by point; the
# scalar API stays bound here for the spans perfbench/tracing.py wraps.

__all__ = [
    "MediumKind",
    "Normalization",
    "SweepSpec",
    "DesignEfficiency",
    "SweepRecord",
    "BoundaryReport",
    "EfficiencyCurve",
    "CSV_COLUMNS",
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
#: The JSON value types a float field accepts (``bool`` is not one).
_NUMBERS = frozenset((float, int))
_DESIGNS = tuple(QtmDesign)


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
        ring = self.medium_kind is MediumKind.QUANTUM_RING
        key, other = ("r_low", "gap_low") if ring else ("gap_low", "r_low")
        value = getattr(self, key)
        if value is None:
            raise ValidationError(f"{self.medium_kind.value} sweeps require {key}")
        if getattr(self, other) is not None:
            raise ValidationError(f"{self.medium_kind.value} sweeps take {key}, "
                                  f"not {other}: set exactly one of r_low or gap_low")
        require_finite(key, value, ValidationError, 0.0)


@dataclass(frozen=True, slots=True)
class DesignEfficiency:
    """Efficiency and Carnot value of one admissible design at one point."""

    design: QtmDesign
    efficiency: float
    carnot: float


@dataclass(frozen=True, slots=True)
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


def _build(cls, n: int, *columns) -> list:
    """``n`` instances of the slotted ``cls``, the k-th field of each set
    from ``columns[k]`` in one C-level pass of its slot descriptor.  Skipping
    ``__init__`` is sound only because neither record class has a
    ``__post_init__`` or converts a field."""
    objs = list(map(object.__new__, repeat(cls, n)))
    for name, column in zip(cls.__slots__, columns, strict=True):
        deque(map(getattr(cls, name).__set__, objs, column), 0)
    return objs


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector for a bulk build that makes no
    reference cycles.  If it was enabled, it is re-enabled afterwards, also
    when the build raises; a caller that disabled it keeps it disabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class BoundaryReport:
    """Region boundaries of one sweep, in both rho and alpha_sq."""

    rho_subregion: float
    rho_2acq_outt: float
    rho_outt_pump: float
    alpha_sq_subregion: float
    alpha_sq_2acq_outt: float
    alpha_sq_outt_pump: float


def boundary_report(theta_sq: float) -> BoundaryReport:
    """The ``alpha_sq`` thresholds ``(1/theta_sq, 1, theta_sq)`` and their
    compression ratios ``(1/theta, 1, theta)``.

    Each rho is the square root of its ``alpha_sq`` threshold, as is every rho
    endpoint of the efficiency curves, so injected grid points, reports and
    curve clipping agree bitwise.
    """
    require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    thresholds = _edges(theta_sq)[1:4]
    return BoundaryReport(*map(math.sqrt, thresholds), *thresholds)


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
    inject = [r for r in astuple(boundary_report(theta_sq))[:3]
              if rho_min <= r <= rho_max]
    # Sort and drop repeats by hand: np.unique would import numpy.ma.
    grid = np.sort(np.concatenate([np.linspace(rho_min, rho_max, num), inject]))
    return tuple(grid[np.append(True, grid[1:] != grid[:-1])].tolist())


def _gaps(spec: SweepSpec, rho: np.ndarray, constants: PhysicalConstants):
    """``(gap_low, gap_high, alpha_sq)`` at every grid point.  The first point
    whose gaps leave the float range is rebuilt by the scalar constructor,
    which raises the medium's own error, prefixed with that point's rho."""
    ring = spec.medium_kind is MediumKind.QUANTUM_RING

    def medium(r: float):
        if ring:
            return ring_medium(spec.r_low, spec.r_low / r, constants)
        return gap_medium(spec.gap_low, r * r)

    gap_low = medium(1.0).gap_low  # at rho = 1 both configurations are low
    with np.errstate(all="ignore"):  # what leaves the float range is caught below
        if ring:
            ground, excited = _ring_levels(spec.r_low / rho, constants)
            gap_high = excited - ground
        else:
            gap_high = rho * rho * gap_low
    for r in rho[~((0.0 < gap_high) & (gap_high < math.inf))][:1].tolist():
        try:
            medium(r)
        except ValidationError as exc:
            raise type(exc)(f"at rho={r!r}: {exc}") from None
    return gap_low, gap_high, gap_high / gap_low


def _classify(rho, e_high, e_low, alpha_sq, theta_sq: float) -> np.ndarray:
    """:func:`classify_region` of every point, as indices into ``_REGIONS``,
    by the same ``_BANDS`` table and side rule.

    A zero exchange, two of one sign, or a ratio past the Carnot bound of
    its orientation makes :func:`classify_region` itself raise; only an
    exactly reversible point is kept, as the boundary that its gap ratio
    identifies.
    """
    with np.errstate(all="ignore"):  # zeros are redone below; inf is in no band
        a = -e_high / e_low
    thresholds = _edges(theta_sq)[1:4]
    forward = e_high > 0.0
    side = np.searchsorted(thresholds, a, side="right")
    index = np.select(
        [in_boundary_band(a, t) & (forward if forward_only else True)
         for t, (_, forward_only) in zip(thresholds, _BANDS)],
        [_REGIONS.index(marker) for marker, _ in _BANDS], side)
    redo = ((np.sign(e_high) * np.sign(e_low) != -1.0)
            | ((index < 4) & (forward == (side == 3))))
    for i in np.flatnonzero(redo).tolist():
        try:
            region = classify_region(
                ExchangeTriple(float(e_high[i]), float(e_low[i])), theta_sq)
        except DegenerateExchangeError:
            if not in_boundary_band(float(alpha_sq[i]), theta_sq):
                raise DegenerateExchangeError(
                    f"cycle energies vanished at rho={float(rho[i])!r} away from "
                    f"the reversible ratio; the gaps are probably enormous "
                    f"compared to k_B * t_low (check units and constants)"
                ) from None
            region = OperationalRegion.BOUNDARY_OUTT_PUMP
        index[i] = _REGIONS.index(region)
    return index


@_gc_paused()
def run_sweep(
    spec: SweepSpec, constants: PhysicalConstants = CODATA
) -> tuple[list[SweepRecord], BoundaryReport]:
    """Evaluate the Otto cycle over the whole rho grid.

    Returns per-point records ordered by ascending rho plus the boundary
    report.  With ``max_abs_energy`` normalization the three normalized
    energy columns share a single scale: the largest absolute energy found
    anywhere in the sweep.
    """
    rho = np.asarray(spec.rho_grid, dtype=float)
    gap_low, gap_high, alpha_sq = _gaps(spec, rho, constants)
    e_high, e_low = _exchanges(gap_low, gap_high, spec.t_low, spec.theta_sq,
                               constants.boltzmann_k)
    e_out = e_high + e_low
    index = _classify(rho, e_high, e_low, alpha_sq, spec.theta_sq)

    scale = 1.0
    if spec.normalization is Normalization.MAX_ABS_ENERGY:
        scale = max(float(np.abs(e).max()) for e in (e_high, e_low, e_out)) or 1.0

    # Each design's entries as columns, ordered by record with a stable sort
    # so that a record keeps its entries in QtmDesign order.
    hits, effs, carnots = [], [], []
    for design in QtmDesign:
        bounds = alpha_bounds(design, spec.theta_sq)
        hits.append(np.flatnonzero((index == _REGIONS.index(design.region))
                                   & (bounds.alpha_sq_min < alpha_sq)
                                   & (alpha_sq < bounds.alpha_sq_max)))
        effs.append(_efficiencies(design, alpha_sq[hits[-1]]))
        carnots.append(carnot_efficiency(design, spec.theta_sq))
    owner = np.concatenate(hits)
    order = np.argsort(owner, kind="stable")
    kinds = np.repeat(np.arange(len(_DESIGNS)), list(map(len, hits)))[order].tolist()
    entries = _build(DesignEfficiency, len(order),
                     map(_DESIGNS.__getitem__, kinds),
                     np.concatenate(effs)[order].tolist(),
                     map(carnots.__getitem__, kinds))
    counts = np.bincount(owner, minlength=len(rho)).tolist()

    columns = [c.tolist() for c in (alpha_sq, e_high, e_low, e_out,
                                    e_high / scale, e_low / scale, e_out / scale)]
    records = _build(SweepRecord, len(rho), map(float, spec.rho_grid), *columns,
                     map(_REGIONS.__getitem__, index.tolist()),
                     map(tuple, map(islice, repeat(iter(entries)), counts)))
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
    grid = np.asarray(spec.rho_grid, dtype=float)
    curves = {}
    for design in QtmDesign:
        bounds = alpha_bounds(design, spec.theta_sq)
        lo, hi, end = map(math.sqrt, (
            bounds.alpha_sq_min, bounds.alpha_sq_max, bounds.carnot_alpha_sq
        ))
        rhos = grid[((lo < grid) & (grid < hi)) | (grid == end)]
        curves[design] = EfficiencyCurve(
            design=design,
            rho=tuple(rhos.tolist()),
            efficiency=tuple(_efficiencies(design, rhos * rhos).tolist()),
            carnot=carnot_efficiency(design, spec.theta_sq),
            carnot_limit_kind=bounds.carnot_limit_kind,
        )
    return curves


def _csv_floats(values) -> list[str]:
    return list(map("{:.12g}".format, values))


def _json_floats(values: list) -> list[str]:
    """Each value as ``json.dumps`` writes it.

    A column of finite, exact ``float`` values is formatted by one
    ``orjson.dumps`` call, which spells a float as ``repr`` does outside a
    band of magnitudes; the cells inside it are re-spelled by
    ``float.__repr__``.  Any other column (``NaN``, ``Infinity``, ints,
    bools, float subclasses) goes through the encoder value by value.
    """
    if values and {float}.issuperset(map(type, values)):
        import orjson
        text = orjson.dumps(values)
        if b"n" not in text:  # orjson writes a non-finite float as null
            cells = text[1:-1].decode().split(",")
            # orjson spells |x| in [1e-9, 1e-4) and from 1e16 on otherwise
            # than repr (0.000025, 1e-9, 1e16); the band is a decade wider.
            size = np.abs(np.array(values))
            band = (1e-10 <= size) & (size < 1e-3) | (size >= 1e15)
            for i in np.flatnonzero(band).tolist():
                cells[i] = float.__repr__(values[i])
            return cells
    return list(map(json.dumps, values))


def _fill(template: str, *columns):
    """``template`` once per row, each ``{}`` replaced by the row's cell of
    the next column: literals and cells joined in one C-level pass."""
    literals = template.split("{}")
    parts = [repeat(literals[0])]
    for literal, column in zip(literals[1:], columns, strict=True):
        parts += (column, repeat(literal))
    return map("".join, zip(*parts))


def _table(records, floats):
    """The records as text columns, each formatted by one ``floats`` call.

    Returns the eight float columns, the region values, every record's
    design count, and the design value, efficiency and Carnot text of every
    design entry in record order.  A Carnot value is formatted once per
    float object: :func:`run_sweep` shares one per design.  A value that
    ``floats`` cannot format (in CSV, an int beyond the float range) raises
    a :class:`ValidationError` naming its column.
    """
    def text(name: str, values: list) -> list[str]:
        try:
            return floats(values)
        except OverflowError as exc:
            raise ValidationError(f"cannot write {name}: {exc}") from None

    designs = list(map(attrgetter("designs"), records))
    entries = list(chain.from_iterable(designs))
    carnots = list(map(attrgetter("carnot"), entries))
    unique = dict(zip(map(id, carnots), carnots))
    carnot_text = dict(zip(unique, text("carnot", list(unique.values()))))
    return (
        [text(name, list(map(attrgetter(name), records)))
         for name in _FLOAT_COLUMNS],
        # ``_value_`` is the enum value without the ``value`` property's call.
        list(map(attrgetter("region._value_"), records)),
        list(map(len, designs)),
        list(map(attrgetter("design._value_"), entries)),
        text("efficiency", list(map(attrgetter("efficiency"), entries))),
        list(map(carnot_text.__getitem__, map(id, carnots))),
    )


#: Records formatted per pass: bounds the text columns held at once.
_CHUNK = 256
#: Line templates: one CSV row, and one record and one design entry in the
#: ``json.dumps(indent=2)`` layout; ``_fill`` puts a cell at each ``{}``.
_CSV_ROW = ",".join(["{}"] * len(CSV_COLUMNS)) + "\n"
_JSON_RECORD = "  {\n" + "".join(
    f'    "{name}": {{}},\n' for name in _FLOAT_COLUMNS
) + '    "region": "{}",\n    "designs": {}\n  }'
_JSON_ENTRY = ('      {\n        "design": "{}",\n        "efficiency": {},\n'
               '        "carnot": {}\n      }')


def _chunked(records, text_of, head: str, sep: str, tail: str) -> str:
    """``head + sep.join(texts) + tail`` in one join, where the texts are
    ``text_of`` each chunk of ``_CHUNK`` records."""
    pieces = [head]
    for start in range(0, len(records), _CHUNK):
        pieces += (text_of(records[start:start + _CHUNK]), sep)
    pieces[-1] = tail
    return "".join(pieces)


def _csv_rows(records) -> str:
    columns, regions, counts, names, effs, carnots = _table(records, _csv_floats)
    # Each record's first and second design entry by index; a missing one
    # points past the entries, at the empty cell appended to each column.
    counts = np.array(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    first = np.where(counts > 0, starts, len(names)).tolist()
    second = np.where(counts > 1, starts + 1, len(names)).tolist()
    names, effs, carnots = ([*cells, ""] for cells in (names, effs, carnots))
    cells = [map(column.__getitem__, index) for column, index in (
        (names, first), (effs, first), (names, second), (effs, second),
        (carnots, first), (carnots, second))]
    return "".join(_fill(_CSV_ROW, *columns, regions, *cells))


def _json_records(records) -> str:
    columns, regions, counts, names, effs, carnots = _table(records, _json_floats)
    entries = _fill(_JSON_ENTRY, names, effs, carnots)
    designs = ["[\n" + ",\n".join(islice(entries, k)) + "\n    ]" if k else "[]"
               for k in counts]
    return ",\n".join(_fill(_JSON_RECORD, *columns, regions, designs))


def _curves_csv(curves: dict[QtmDesign, EfficiencyCurve]) -> str:
    lines = ["design,rho,efficiency,carnot,carnot_limit\n"]
    for design in QtmDesign:
        if design in curves:
            curve = curves[design]
            row = (f"{design.value},{{}},{{}},{_csv_floats([curve.carnot])[0]},"
                   f"{curve.carnot_limit_kind.value}\n")
            lines += _fill(row, _csv_floats(curve.rho), _csv_floats(curve.efficiency))
    return "".join(lines)


def _curves_json(curves: dict[QtmDesign, EfficiencyCurve]) -> str:
    return json.dumps({design.value: {
        "rho": curve.rho, "efficiency": curve.efficiency, "carnot": curve.carnot,
        "carnot_limit": curve.carnot_limit_kind.value,
    } for design, curve in curves.items()}, indent=2) + "\n"


def _member_of(enum: type[Enum]):
    """``enum(value)`` through a prebuilt value -> member map; a value
    outside it goes to the enum call, which raises its ``ValueError``."""
    members = {member.value: member for member in enum}

    def member(value):
        try:
            return members[value]
        except (KeyError, TypeError):
            return enum(value)
    return member


_region_of = _member_of(OperationalRegion)
_design_of = _member_of(QtmDesign)


class _Inexact(ValueError):
    """A parsed number at or above the magnitude its parser reads exactly."""


#: orjson reads an integer literal outside [-2**63, 2**64) as a float.
_ORJSON_EXACT_BELOW = 2.0 ** 63


def _records_of(objs: list, limit: Optional[float]) -> list[SweepRecord]:
    """The records of parsed JSON record objects, built column-wise.

    Raises :class:`_Inexact` if a number's magnitude reaches ``limit``.
    """
    lists = list(map(itemgetter("designs"), objs))
    flat = list(chain.from_iterable(lists))
    floats = [list(map(itemgetter(name), objs)) for name in _FLOAT_COLUMNS]
    effs, carnots = (list(map(itemgetter(name), flat))
                     for name in ("efficiency", "carnot"))
    numbers = list(chain(*floats, effs, carnots))
    if not ({list}.issuperset(map(type, lists))
            and _NUMBERS.issuperset(map(type, numbers))):
        raise TypeError("a record holds a value of the wrong type")
    if limit is not None and max(map(abs, numbers)) >= limit:
        raise _Inexact
    entries = _build(DesignEfficiency, len(flat),
                     map(_design_of, map(itemgetter("design"), flat)),
                     effs, carnots)
    return _build(SweepRecord, len(objs), *floats,
                  map(_region_of, map(itemgetter("region"), objs)),
                  map(tuple, map(islice, repeat(iter(entries)), map(len, lists))))


def _require_keys(obj, keys, numbers, what: str) -> None:
    """Raise unless ``obj`` is an object with ``keys``, each of ``numbers``
    a JSON number."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} is not an object")
    for key in keys:
        if key not in obj:
            raise ValidationError(f"{what} lacks key {key!r}")
    for key in numbers:
        if type(obj[key]) not in _NUMBERS:
            raise ValidationError(f"{what}: {key} is not a number, got {obj[key]!r}")


def _check_records(objs: list, start: int) -> None:
    """Raise a :class:`ValidationError` naming the first malformed record
    object in ``objs``, numbered from ``start``."""
    for i, obj in enumerate(objs, start):
        _require_keys(obj, SweepRecord.__slots__, _FLOAT_COLUMNS, f"record {i}")
        if not isinstance(obj["designs"], list):
            raise ValidationError(f"record {i}: designs is not a list")
        for j, entry in enumerate(obj["designs"]):
            _require_keys(entry, DesignEfficiency.__slots__,
                          ("efficiency", "carnot"), f"record {i} design {j}")


def _records_in(doc, limit: Optional[float]) -> list[SweepRecord]:
    """The records of a parsed records document; ``limit`` as in
    :func:`_records_of`."""
    if not isinstance(doc, list):
        raise ValidationError(
            f"records JSON must be a list at the top level, not {type(doc).__name__}")
    # Chunks leave the parsed tree as their records are built.
    doc.reverse()
    records = []
    while doc:
        chunk = doc[-_CHUNK:][::-1]
        del doc[-_CHUNK:]
        try:
            records += _records_of(chunk, limit)
        except (KeyError, TypeError):
            # Only a failed build pays for the check that names the fault.
            _check_records(chunk, len(records))
            raise
    return records


@_gc_paused()
def parse_records(text: str) -> list[SweepRecord]:
    """Inverse of JSON :func:`emit`: rebuild records from serialized output.

    A document that is not a list of record objects with every key, each
    float field a JSON number, raises :class:`ValidationError` naming the
    first fault; an unknown region or design value raises the enum's
    ``ValueError``.

    orjson reads the text.  ``json.loads`` reads it again when orjson
    rejects it (``NaN``, ``Infinity``, a lone surrogate, bad JSON), when a
    number reaches 2**63 in magnitude (orjson reads an integer literal
    outside [-2**63, 2**64) as a float), or when a record is malformed; so
    the records, and any error, are the ones ``json.loads`` gives.
    """
    import orjson
    try:
        return _records_in(orjson.loads(text), _ORJSON_EXACT_BELOW)
    except ValueError:  # also orjson.JSONDecodeError and _Inexact
        pass
    return _records_in(json.loads(text), None)


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


def _emit(format: str, destination, items, to_csv, to_json) -> None:
    """Write ``to_csv(items)`` or ``to_json(items)``."""
    if format == "csv":
        text = to_csv(items)
    elif format == "json":
        text = to_json(items)
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
    _emit(format, destination, records,
          lambda r: _chunked(r, _csv_rows, ",".join(CSV_COLUMNS) + "\n", "", ""),
          lambda r: _chunked(r, _json_records, "[\n", ",\n", "\n]\n"))


def emit_curves(
    curves: dict[QtmDesign, EfficiencyCurve],
    format: str = "csv",
    destination=None,
) -> None:
    """Serialize efficiency curves: long-format CSV or per-design JSON."""
    if len(curves) == 0:
        raise ValidationError("no curves to emit")
    _emit(format, destination, curves, _curves_csv, _curves_json)
