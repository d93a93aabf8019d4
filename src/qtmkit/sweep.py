"""Compression-ratio sweeps, boundary reports, and record serialization.

A sweep evaluates a grid of compression ratios ``rho`` in one numpy pass: the
working medium's gaps at every point (``alpha_sq = rho**2``), the Otto-cycle
exchanges, the operational region, which ``alpha_sq`` decides and the
exchanges are checked against, and the efficiencies of the two designs
admissible there.  Records are built last, in ascending ``rho``.  Output goes
to CSV (fixed column order, 12 significant digits) or JSON (exact floats,
round-trippable).

:func:`run_sweep` and :func:`parse_records` return records held as numpy
arrays (:class:`_Records`), regions and designs as int8 indexes; ``_build``
makes records of them a column at a time when the result is indexed or iterated.
The builds and :func:`parse_records` run with the cyclic garbage collector
paused (neither makes reference cycles); a program that toggles :mod:`gc`
from another thread meanwhile may find it re-enabled afterwards.

One number rule holds both ways: a float field holds a ``float`` (a subclass
too) or an ``int`` that is not a ``bool``, as the float64 ``float()`` makes
of it; an int beyond the float range is a fault.  :func:`_records_in` reads
by it a parsed document and the records :func:`emit` is given unless held;
:func:`_require_fields` names the first fault of either (``record i[ design
j]: <field> …``) and reads each curve :func:`emit_curves` is given (``curve
D: <field> …``).  The writers format held
float64 columns only.  The CSV writers fill a row template per record or per
curve, a chunk of text at a time with one ``%``; the JSON writer formats a
float column at a time (:func:`_json_floats`) and joins the cells with the
literals of ``json.dumps(indent=2)``.  The chunk texts go out unjoined, one
``write`` each; joined, they are what ``csv.writer`` and
``json.dumps(..., indent=2)`` write for the float64 view of the records
(``tests/test_writers.py``).  :func:`parse_records` reads a piece at a time,
with orjson, then with ``json.loads``, and reads the whole text only to name
a fault.  orjson is imported by these two JSON paths only.
"""

from __future__ import annotations

import gc
import json
import math
import reprlib
import sys
from collections import deque
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from dataclasses import astuple, dataclass, field
from enum import unique
from functools import cached_property
from itertools import chain, compress, islice, repeat
from numbers import Integral, Real
from operator import attrgetter, itemgetter
from typing import Optional

import numpy as np

from .designs import (  # noqa: F401  (admissible_designs, alpha_bounds, efficiency: see below)
    _BOUNDS, _PAIRS, CarnotLimitKind, QtmDesign, _efficiencies, admissible_designs,
    alpha_bounds, carnot_efficiency, efficiency,
)
from .errors import (EmitIOError, EmptyGridError, InvalidTemperatureError,
                     InvalidThetaError, UnclassifiableExchangeError,
                     ValidationError, require_finite)
from .media import (CODATA, PhysicalConstants, _ring_levels, gap_medium,
                    ring_medium)
from .otto import _exchanges, _temperatures, otto_cycle_energies
from .regions import (_REGIONS, OperationalRegion, _edges,  # noqa: F401  (see below)
                      _Enum, _region_index, classify_region, in_boundary_band)

# The kernel evaluates on arrays what the scalar API does point by point; the
# scalar API (admissible_designs, alpha_bounds, classify_region, efficiency)
# stays bound here for the spans perfbench/tracing.py wraps.

__all__ = [
    "MediumKind",
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
#: The float fields of a :class:`DesignEfficiency`.
_ENTRY_FLOATS = ("efficiency", "carnot")
#: The exact types of a float field's common values (``bool`` is not one).
_NUMBERS = frozenset((float, int))


@unique
class MediumKind(_Enum):
    QUANTUM_RING = "quantum_ring"
    GENERIC_GAP = "generic_gap"


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one sweep.

    Exactly one of ``r_low`` (ring medium, meters) or ``gap_low`` (generic
    medium, energy units) must be set, matching ``medium_kind``.  Each checked
    number is held as its ``float``, ``rho_grid`` as a tuple of them.
    """

    t_low: float
    theta_sq: float
    rho_grid: tuple[float, ...]
    medium_kind: MediumKind = MediumKind.QUANTUM_RING
    r_low: Optional[float] = None
    gap_low: Optional[float] = None

    def __post_init__(self) -> None:
        for name, error, floor in (("t_low", InvalidTemperatureError, 0.0),
                                   ("theta_sq", InvalidThetaError, 1.0)):
            object.__setattr__(self, name, require_finite(
                name, getattr(self, name), error, floor))
        if not isinstance(self.medium_kind, MediumKind):
            raise ValidationError("medium_kind must be a MediumKind, "
                                  f"got {self.medium_kind!r}")
        grid = self.rho_grid
        try:
            # Not ``dtype=float``, which parses strings: a string entry makes
            # the array a text one, or an object one holding it.
            rho = np.asarray(grid)
            kind = rho.dtype.kind
            if rho.ndim != 1 or kind not in "biufO" or kind == "O" and any(
                    isinstance(v, (str, bytes)) for v in rho):
                raise TypeError("not a sequence of numbers")
            rho = rho.astype(float, copy=False)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"rho_grid must be a sequence of numbers, "
                                  f"got {reprlib.repr(grid)}: {exc}") from None
        if len(rho) == 0:
            raise EmptyGridError("rho_grid must contain at least one point")
        # A NaN (also a None, which numpy reads as NaN) fails a comparison.
        good = np.append(0.0 < rho[0], rho[:-1] < rho[1:]) & (rho < math.inf)
        if not good.all():
            i = int(np.argmin(good))
            raise ValidationError(
                "rho_grid values must be positive, finite and strictly "
                f"increasing, got rho_grid[{i}]={grid[i]!r}"
            )
        object.__setattr__(self, "rho_grid", tuple(rho.tolist()))
        ring = self.medium_kind is MediumKind.QUANTUM_RING
        key, other = ("r_low", "gap_low") if ring else ("gap_low", "r_low")
        value = getattr(self, key)
        if value is None:
            raise ValidationError(f"{self.medium_kind.value} sweeps require {key}")
        if getattr(self, other) is not None:
            raise ValidationError(f"{self.medium_kind.value} sweeps take {key}, "
                                  f"not {other}: set exactly one of r_low or gap_low")
        object.__setattr__(self, key, require_finite(key, value, ValidationError, 0.0))


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


#: Each enum's members: a held region or design index stands for one, and its value.
_MEMBERS = {OperationalRegion: _REGIONS, QtmDesign: tuple(QtmDesign),
            CarnotLimitKind: tuple(CarnotLimitKind)}
_DESIGNS = _MEMBERS[QtmDesign]
_VALUES = {enum: tuple(m.value for m in members) for enum, members in _MEMBERS.items()}


class _Records(Sequence):
    """Read-only records held as arrays ``(counts, *floats, regions, names,
    efficiencies, carnots)``: int32 design counts, float64 values (NaN and
    inf too), int8 indexes into ``_REGIONS`` and ``_DESIGNS``; the last three
    are the entries'.  A contiguous slice is a slice of the columns, any other
    a list; an index or iteration builds fresh records ``_CHUNK`` at a time."""

    def __init__(self, held: tuple) -> None:
        self._held = held

    @cached_property
    def _starts(self) -> np.ndarray:  # each record's first entry, then the end
        return np.cumsum(np.append(0, self._held[0]), dtype=np.int64)

    def __len__(self) -> int:
        return len(self._held[0])

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if not isinstance(index, slice):
            return self[picked:picked + 1]._built()[0]
        if picked.step != 1:
            return list(map(self.__getitem__, picked))
        lo, hi = picked.start, picked.stop  # hi < lo leaves every column empty
        a, b = self._starts[lo], self._starts[hi]
        return _Records((*(c[lo:hi] for c in self._held[:-3]),
                         *(c[a:b] for c in self._held[-3:])))

    def __iter__(self):
        for lo in range(0, len(self), _CHUNK):
            yield from self[lo:lo + _CHUNK]._built()

    @_gc_paused()
    def _built(self) -> list[SweepRecord]:
        counts, *floats, regions, names, effs, carnots = map(np.ndarray.tolist, self._held)
        designs = map(_DESIGNS.__getitem__, names)
        entries = iter(_build(DesignEfficiency, len(names), designs, effs, carnots))
        return _build(SweepRecord, len(counts), *floats, map(_REGIONS.__getitem__, regions),
                      map(tuple, map(islice, repeat(entries), counts)))

    def __eq__(self, other):
        if isinstance(other, _Records):  # a NaN equals a NaN in the same place
            return all(np.array_equal(a, b, equal_nan=True)
                       for a, b in zip(self._held, other._held))
        return list(self) == other if isinstance(other, list) else NotImplemented


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

    Each rho is the square root of its ``alpha_sq`` threshold: the points
    :func:`default_rho_grid` injects, and the one that closes an efficiency
    curve at its Carnot edge.
    """
    theta_sq = require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
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
    if not (isinstance(num, Integral) and num >= 2
            and isinstance(rho_min, Real) and isinstance(rho_max, Real)
            and bool not in {type(rho_min), type(rho_max)}
            and 0.0 < rho_min < rho_max < math.inf):
        raise ValidationError(
            f"need an integer num >= 2 and 0 < rho_min < rho_max < inf, got "
            f"num={num!r}, rho_min={rho_min!r}, rho_max={rho_max!r}"
        )
    rho_min, rho_max = float(rho_min), float(rho_max)  # a float64 grid for any Real bounds
    inject = [r for r in astuple(boundary_report(theta_sq))[:3]
              if rho_min <= r <= rho_max]
    # Sort and drop repeats by hand: np.unique would import numpy.ma.
    grid = np.sort(np.concatenate([np.linspace(rho_min, rho_max, num), inject]))
    return tuple(grid[np.append(True, grid[1:] != grid[:-1])].tolist())


def _medium(spec: SweepSpec, r: float, constants: PhysicalConstants):
    """The scalar medium of the grid point ``rho = r``."""
    if spec.medium_kind is MediumKind.QUANTUM_RING:
        return ring_medium(spec.r_low, spec.r_low / r, constants)
    return gap_medium(spec.gap_low, r * r)


def _at(r: float, call, *args) -> None:
    """``call(*args)``, re-raising its ValidationError as ``at rho=r: <message>``."""
    try:
        call(*args)
    except ValidationError as exc:
        raise type(exc)(f"at rho={r!r}: {exc}") from None


def _gaps(spec: SweepSpec, rho: np.ndarray, constants: PhysicalConstants):
    """``(gap_low, gap_high, alpha_sq)`` at every grid point.  The first point
    whose gaps leave the float range is rebuilt by the scalar constructor,
    which raises the medium's own error, prefixed with that point's rho."""
    gap_low = _medium(spec, 1.0, constants).gap_low  # at rho = 1 both are low
    with np.errstate(all="ignore"):  # what leaves the float range is caught below
        if spec.medium_kind is MediumKind.QUANTUM_RING:
            ground, excited = _ring_levels(spec.r_low / rho, constants)
            gap_high = excited - ground
        else:
            gap_high = rho * rho * gap_low
        alpha_sq = gap_high / gap_low
    for r in rho[~((0.0 < gap_high) & (gap_high < math.inf))][:1].tolist():
        _at(r, _medium, spec, r, constants)
    return gap_low, gap_high, alpha_sq


def _classify(spec: SweepSpec, constants: PhysicalConstants,
              rho, e_high, e_low, alpha_sq) -> np.ndarray:
    """The :func:`_region_index` of each gap ratio ``alpha_sq``: the cycle
    absorbs hot exactly below ``theta_sq``.  Off its band, the energies must
    agree.  The first point where they do not, or are NaN anywhere, is re-run
    through :func:`otto_cycle_energies`, which words the freeze-out error; if
    that passes, the point is a kernel fault.  Either error names its rho."""
    forward = alpha_sq < spec.theta_sq
    sign = np.sign(e_high) - np.sign(e_low)  # 2 forward, -2 reversed, NaN frozen
    bad = (sign != 4.0 * forward - 2.0) & ~(in_boundary_band(alpha_sq, spec.theta_sq)
                                            & ~np.isnan(sign))
    for i in np.flatnonzero(bad)[:1].tolist():
        r, a, high, low = (float(c[i]) for c in (rho, alpha_sq, e_high, e_low))
        _at(r, otto_cycle_energies, _medium(spec, r, constants), spec.t_low,
            spec.theta_sq, constants.boltzmann_k)
        raise UnclassifiableExchangeError(
            f"cycle kernel fault at rho={r!r}: e_high={high!r} and e_low={low!r} "
            f"disagree in sign with alpha_sq={a!r} against theta_sq={spec.theta_sq!r}")
    return _region_index(alpha_sq, forward, spec.theta_sq)


def run_sweep(
    spec: SweepSpec, constants: PhysicalConstants = CODATA
) -> tuple[Sequence[SweepRecord], BoundaryReport]:
    """Evaluate the Otto cycle over the whole rho grid.

    Returns per-point records ordered by ascending rho, a read-only
    sequence that holds their columns, plus the boundary report.  The three
    normalized energy columns share a single scale: the largest absolute
    energy found anywhere in the sweep, or 1.0 when every energy is 0.
    """
    rho = np.asarray(spec.rho_grid, dtype=float)
    gap_low, gap_high, alpha_sq = _gaps(spec, rho, constants)
    with np.errstate(all="ignore"):  # a frozen-out point is named by _classify
        e_high, e_low = _exchanges(gap_low, gap_high, *_temperatures(
            spec.t_low, spec.theta_sq, constants.boltzmann_k))
    e_out = e_high + e_low
    index = _classify(spec, constants, rho, e_high, e_low, alpha_sq)

    scale = max(float(np.abs(e).max()) for e in (e_high, e_low, e_out)) or 1.0

    # Region i is its two designs' open interval (a ring's alpha_sq may leave
    # the float range): a point there has an entry of each, in QtmDesign order.
    has = (index < len(_PAIRS)) & (0.0 < alpha_sq) & (alpha_sq < math.inf)
    region, inside = index[has], alpha_sq[has]
    effs = np.empty((len(region), 2))
    for i, pair in enumerate(_PAIRS.values()):
        for k, design in enumerate(pair):
            effs[region == i, k] = _efficiencies(design, inside[region == i])
    pairs = np.array([list(map(_DESIGNS.index, p)) for p in _PAIRS.values()], np.int8)
    carnots = np.array([[carnot_efficiency(d, spec.theta_sq) for d in pair]
                        for pair in _PAIRS.values()])
    held = ((2 * has).astype(np.int32), rho, alpha_sq, e_high, e_low, e_out,
            e_high / scale, e_low / scale, e_out / scale, index.astype(np.int8),
            pairs[region].ravel(), effs.ravel(), carnots[region].ravel())
    return _Records(held), boundary_report(spec.theta_sq)


@dataclass(frozen=True)
class EfficiencyCurve:
    """Efficiency-versus-rho series of one design over the grid points of its
    region, with its Carnot level."""

    design: QtmDesign
    rho: tuple[float, ...]
    efficiency: tuple[float, ...]
    carnot: float
    carnot_limit_kind: CarnotLimitKind


def efficiency_curves(spec: SweepSpec) -> dict[QtmDesign, EfficiencyCurve]:
    """Per-design efficiency series over the sweep's rho grid.

    A point lies on the curves of the designs its record carries: its region
    is the :func:`_region_index` of ``alpha_sq = rho * rho``, as a record's is
    of its gap ratio, so a point in a threshold's band lies on no curve.  A
    curve is closed only at the grid point :func:`boundary_report` gives its
    Carnot edge, where the series meets the design's Carnot level; the other
    edge is a singular or degenerate limit.  A region's two designs share one
    ``rho`` tuple of the grid's own floats.
    """
    grid = np.asarray(spec.rho_grid, dtype=float)
    alpha_sq = grid * grid
    index = _region_index(alpha_sq, alpha_sq < spec.theta_sq, spec.theta_sq)
    edge_rho = astuple(boundary_report(spec.theta_sq))  # the rho of edges 1, 2, 3
    curves = {}
    for i, pair in enumerate(_PAIRS.values()):  # regions, then designs, in QtmDesign order
        # A region's two designs share its Carnot edge, and one rho tuple.
        inside = (index == i) | (grid == edge_rho[_BOUNDS[pair[0]][3] - 1])
        rho = tuple(compress(spec.rho_grid, inside.tolist()))
        for design in pair:
            curves[design] = EfficiencyCurve(
                design, rho, tuple(_efficiencies(design, alpha_sq[inside]).tolist()),
                carnot_efficiency(design, spec.theta_sq), _BOUNDS[design][2])
    return curves


def _json_floats(values: np.ndarray) -> list[str]:
    """Each float64 of ``values`` as ``json.dumps`` writes it: one
    ``orjson.dumps`` call, which spells a float as ``repr`` does outside a
    band of magnitudes, the cells inside it re-spelled by ``float.__repr__``;
    a column holding ``NaN`` or an infinity, value by value by ``json.dumps``."""
    import orjson
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"n" in text or not len(values):  # a non-finite float is null
        return list(map(json.dumps, values.tolist()))
    cells = text[1:-1].decode().split(",")
    # orjson spells |x| in [1e-9, 1e-4) and from 1e16 on otherwise than
    # repr (0.000025, 1e-9, 1e16); the band is a decade wider.
    size = np.abs(values)
    band = (1e-10 <= size) & (size < 1e-3) | (size >= 1e15)
    for i in np.flatnonzero(band).tolist():
        cells[i] = float.__repr__(values[i])
    return cells


def _is_number(value) -> bool:
    """The number rule: a ``float`` (``np.float64`` too), or an ``int`` but no ``bool``."""
    return isinstance(value, (float, int)) and not isinstance(value, bool)


def _require_number(value, key: str, where: str) -> float:
    """``float(value)``, or a ValidationError naming ``where`` and ``key``
    unless ``value`` fits a float64 by the number rule."""
    if not _is_number(value):
        raise ValidationError(f"{where}: {key} is not a number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{where}: {key} is beyond the float range, "
                              f"got {reprlib.repr(value)}") from None


def _float64(column) -> np.ndarray:
    """``column`` as float64 by the number rule, in one type scan if each is
    an exact float or int; a fault raises a TypeError or an OverflowError."""
    if not (_NUMBERS.issuperset(map(type, column)) or all(map(_is_number, column))):
        raise TypeError("a float field holds a value that is not a number")
    return np.array(column, dtype=float)


def _spelled(enum: type[_Enum], indexes: np.ndarray) -> list[str]:
    """The value of each held ``enum`` index."""
    return list(map(_VALUES[enum].__getitem__, indexes.tolist()))


def _fill(template: str, *columns):
    """``template`` once per row, each ``{}`` replaced by the row's cell of
    the next column: literals and cells joined in one C-level pass."""
    literals = template.split("{}")
    parts = [repeat(literals[0])]
    for literal, column in zip(literals[1:], columns, strict=True):
        parts += (column, repeat(literal))
    return map("".join, zip(*parts))


#: Records formatted or built per pass: bounds the text columns held at once.
_CHUNK = 256
#: CSV row of 0, 1, 2+ designs: 15 values, ``%.0s`` eating a missing cell.
_CSV_ROWS = tuple("%.12g," * 8 + "%s,%s,{0},%s,{1},{0},{1}\n".format(
    *("%.12g" if k < count else "%.0s" for k in (0, 1))) for count in (0, 1, 2))
#: A record and a design entry of ``json.dumps(indent=2)``; ``_fill`` fills ``{}``.
_JSON_RECORD = "  {\n" + "".join(
    f'    "{name}": {{}},\n' for name in _FLOAT_COLUMNS
) + '    "region": "{}",\n    "designs": {}\n  }'
_JSON_ENTRY = ('      {\n        "design": "{}",\n        "efficiency": {},\n'
               '        "carnot": {}\n      }')


def _chunked(records, text_of, head: str, sep: str, tail: str) -> list[str]:
    """The pieces of ``head + sep.join(texts) + tail``, unjoined, where the
    texts are ``text_of`` each chunk of ``_CHUNK`` records."""
    pieces = [head]
    for start in range(0, len(records), _CHUNK):
        pieces += (text_of(records[start:start + _CHUNK]), sep)
    pieces[-1] = tail
    return pieces


def _csv_rows(records: _Records) -> str:
    counts, *floats, regions, names, effs, carnots = records._held
    # Each record's first and second design entry by index; a missing one
    # points past the entries, at the blank cells appended to each column.
    counts = counts.astype(np.intp)
    first, second = (np.where(counts > k, np.cumsum(counts) - counts + k,
                              len(names)).tolist() for k in (0, 1))
    names, effs, carnots = ([*column, ""] for column in (
        _spelled(QtmDesign, names), effs.tolist(), carnots.tolist()))
    cells = (map(column.__getitem__, index) for index, column in (
        (first, names), (first, effs), (second, names), (second, effs),
        (first, carnots), (second, carnots)))
    template = "".join(map(_CSV_ROWS.__getitem__, np.minimum(counts, 2).tolist()))
    return template % tuple(chain.from_iterable(zip(
        *map(np.ndarray.tolist, floats), _spelled(OperationalRegion, regions), *cells)))


def _json_records(records: _Records) -> str:
    counts, *floats, regions, names, effs, carnots = records._held
    cells = _fill(_JSON_ENTRY, _spelled(QtmDesign, names), *map(_json_floats, (effs, carnots)))
    lists = ["[\n" + ",\n".join(islice(cells, n)) + "\n    ]" if n else "[]"
             for n in counts.tolist()]
    return ",\n".join(_fill(_JSON_RECORD, *map(_json_floats, floats),
                            _spelled(OperationalRegion, regions), lists))


def _curves_csv(curves: dict) -> list[str]:
    lines = ["design,rho,efficiency,carnot,carnot_limit\n"]
    for design in QtmDesign:
        if design in curves:
            rho, efficiency, carnot, limit = curves[design]
            row = f"{design.value},%.12g,%.12g,{carnot:.12g},{limit}\n"
            lines.append(row * len(rho) % tuple(chain.from_iterable(zip(rho, efficiency))))
    return lines


def _curves_json(curves: dict) -> list[str]:
    return [json.dumps({design.value: {
        "rho": rho, "efficiency": efficiency, "carnot": carnot, "carnot_limit": limit,
    } for design, (rho, efficiency, carnot, limit) in curves.items()}, indent=2), "\n"]


#: The held index of each value (parsed) and member (emitted) of each enum.
_INDEX_OF, _MEMBER_INDEX = ({enum: {key: i for i, key in enumerate(keys)}
                             for enum, keys in table.items()} for table in (_VALUES, _MEMBERS))
#: What each field holds: a number (``float``), an enum member, a list or
#: tuple of entries (``list``), or a sequence of numbers (``tuple``).
_RULES = {SweepRecord: {**dict.fromkeys(_FLOAT_COLUMNS, float), "region": OperationalRegion,
                        "designs": list},
          DesignEfficiency: {"design": QtmDesign, **dict.fromkeys(_ENTRY_FLOATS, float)},
          EfficiencyCurve: {"design": QtmDesign, "rho": tuple, "efficiency": tuple,
                            "carnot": float, "carnot_limit_kind": CarnotLimitKind}}
#: How a parsed document, and what :func:`emit` and :func:`emit_curves` are
#: given, are read: the getter, each object's type, the enum indexes.
_PARSED = (itemgetter, dict.fromkeys(_RULES, dict), _INDEX_OF)
_EMITTED = (attrgetter, {schema: schema for schema in _RULES}, _MEMBER_INDEX)


def _require_member(value, key: str, where: str, enum, index_of=_MEMBER_INDEX) -> None:
    """Raise a ValidationError naming ``where`` and ``key`` unless ``value``
    has a held index in ``index_of[enum]``."""
    try:
        index_of[enum][value]
    except (KeyError, TypeError):  # a TypeError: an unhashable value
        raise ValidationError(f"{where}: {key} is not in {enum.__name__}, "
                              f"got {reprlib.repr(value)}") from None


def _require_fields(obj, schema, where: str, reading) -> list:
    """The fields of ``obj`` by ``reading`` if each holds what ``_RULES[schema]``
    says, numbers as floats (a sequence of floats as it is, after one type
    scan); else a ValidationError naming ``where`` and the first fault."""
    get, types, index_of = reading
    if not isinstance(obj, kind := types[schema]):
        raise ValidationError(f"{where}: type is {type(obj).__name__}, not {kind.__name__}")
    values = []
    for key, rule in _RULES[schema].items():
        try:
            value = get(key)(obj)
        except (KeyError, AttributeError):
            raise ValidationError(f"{where}: {key} is missing") from None
        if rule is float:
            value = _require_number(value, key, where)
        elif rule is tuple:
            try:
                len(value)
                exact = {float}.issuperset(map(type, value))
            except TypeError:
                raise ValidationError(f"{where}: {key} is not a sequence, "
                                      f"got {reprlib.repr(value)}") from None
            value = value if exact else [_require_number(v, key, where) for v in value]
        elif rule is not list:  # an enum
            _require_member(value, key, where, rule, index_of)
        elif type(value) not in (tuple, list):
            raise ValidationError(f"{where}: {key} is not a list, got {type(value).__name__}")
        values.append(value)
    return values


def _records_in(objs, reading=_PARSED) -> _Records:
    """Records held by the number rule: a parsed document read by
    :data:`_PARSED` (``itemgetter``, enums by value), or :func:`emit`'s
    records by :data:`_EMITTED` (``attrgetter``, enums by member).  Only a
    failed read walks ``objs`` by :func:`_require_fields` to name its first fault."""
    if reading is _PARSED and not isinstance(objs, list):
        raise ValidationError(
            f"records JSON must be a list at the top level, not {type(objs).__name__}")
    get, _, index_of = reading
    try:
        designs = list(map(get("designs"), objs))
        if not {tuple, list}.issuperset(map(type, designs)):
            raise TypeError("a record's designs is not a list")
        entries = list(chain.from_iterable(designs))
        *floats, regions = (list(map(get(name), objs)) for name in SweepRecord.__slots__[:-1])
        names, *entry_floats = (list(map(get(name), entries))
                                for name in DesignEfficiency.__slots__)
        regions, names = (np.fromiter(map(index_of[e].__getitem__, c), np.int8, len(c))
                          for e, c in ((OperationalRegion, regions), (QtmDesign, names)))
        floats = list(map(_float64, floats + entry_floats))
    except (AttributeError, KeyError, TypeError, OverflowError):
        for i, obj in enumerate(objs):  # name the first fault in list order
            *_, entries = _require_fields(obj, SweepRecord, f"record {i}", reading)
            for j, entry in enumerate(entries):
                _require_fields(entry, DesignEfficiency, f"record {i} design {j}", reading)
        raise
    counts = np.fromiter(map(len, designs), np.int32, len(designs))
    return _Records((counts, *floats[:8], regions, names, *floats[8:]))


#: Characters of records JSON that a reader parses at a time.
_PIECE = 1 << 17
#: What JSON :func:`emit` writes between two records.
_SEPARATOR = "\n  },\n  {\n"


def _pieces(text: str):
    """``text`` as lists of ``_PIECE`` characters or more: each ends at the
    brace of a ``_SEPARATOR``, and the next starts after its comma."""
    head, start = "", 0
    # A JSON string holds no raw newline, so no cut falls inside one.  If
    # every piece parses, each one's brackets balance, so every cut lies
    # between two elements of the top-level list, and the pieces' elements
    # are the document's; a cut any deeper leaves a piece that fails.
    while (cut := text.find(_SEPARATOR, start + _PIECE)) >= 0:
        yield head + text[start:cut + 4] + "]"
        head, start = "[", cut + 5
    yield head + text[start:]


@_gc_paused()
def parse_records(text: str | bytes | bytearray) -> Sequence[SweepRecord]:
    """Inverse of JSON :func:`emit`: the records of serialized output, as the
    read-only sequence :func:`run_sweep` returns.

    ``bytes`` and ``bytearray`` are decoded as ``json.loads`` decodes them;
    any other type but ``str`` raises ``json.loads``'s ``TypeError``.  A
    float field is read by the number rule :func:`emit` writes by, NaN and
    infinities included.  A fault raises a :class:`ValidationError` naming
    the first in document order by its record and field (``record 5: rho is
    missing``, ``record 0: region is not in OperationalRegion, got 'Bogus'``).

    The text is read a piece at a time (:func:`_pieces`) by orjson; if
    orjson rejects any piece (``NaN``, ``Infinity``, ``1e400``, a lone
    surrogate, bad JSON), ``json.loads`` reads every piece again.  Only if
    both fail does ``json.loads`` read the whole text, which names the fault
    or reads a document cut inside a record.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    elif not isinstance(text, str):
        json.loads(text)  # raises the TypeError that names the type
    import orjson
    for loads in (orjson.loads, json.loads):
        # A JSONDecodeError is a ValueError; the columns read so far go with it.
        with suppress(ValueError):
            parts = zip(*[_records_in(loads(piece))._held for piece in _pieces(text)])
            return _Records(tuple(map(np.concatenate, parts)))
    return _records_in(json.loads(text))


def _write(destination, pieces: list[str]) -> None:
    """Write ``pieces``, one ``write`` call each, to standard output (``None``
    or ``"-"``), a stream, or the file at the path ``destination``."""
    if destination is None or destination == "-":
        destination = sys.stdout
    if hasattr(destination, "write"):
        deque(map(destination.write, pieces), 0)
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise EmitIOError(f"cannot write {destination}: {exc}") from exc


def _emit(format: str, destination, items, to_csv, to_json) -> None:
    """Write the pieces ``to_csv(items)`` or ``to_json(items)`` returns."""
    if format not in ("csv", "json"):
        raise ValidationError(f"unknown format {format!r} (expected csv or json)")
    _write(destination, (to_csv if format == "csv" else to_json)(items))


def emit(
    records: Sequence[SweepRecord],
    format: str = "csv",
    destination=None,
) -> None:
    """Serialize sweep records to CSV or JSON.

    CSV uses the fixed :data:`CSV_COLUMNS` order with a header row and 12
    significant digits; boundary records leave the design columns empty.
    JSON keeps exact float values, so ``parse_records(emitted)`` returns the
    records.  ``destination`` is a path, ``None`` or ``"-"`` for standard
    output, or a text stream whose ``write`` takes the text a chunk at a
    time.  Records not already held are read by :func:`_records_in`, so
    both formats write a float field as its float64 (``1`` as ``1.0``) and
    reject the same records with the same :class:`ValidationError` naming
    the first fault, and nothing is written.
    """
    if not hasattr(records, "__len__"):
        raise ValidationError(f"records must be a sequence, got {type(records).__name__}")
    if len(records) == 0:
        raise ValidationError("no records to emit")
    if not isinstance(records, _Records):
        records = _records_in(records, _EMITTED)
    _emit(format, destination, records,
          lambda r: _chunked(r, _csv_rows, ",".join(CSV_COLUMNS) + "\n", "", ""),
          lambda r: _chunked(r, _json_records, "[\n", ",\n", "\n]\n"))


def emit_curves(
    curves: dict[QtmDesign, EfficiencyCurve],
    format: str = "csv",
    destination=None,
) -> None:
    """Serialize efficiency curves: long-format CSV or per-design JSON.
    Each curve's ``rho``, ``efficiency`` and ``carnot`` are written as their
    float64s by the number rule.  A fault, a curve whose ``design`` is not its
    key among them, raises a :class:`ValidationError` naming its curve
    (``curve QEN: …``), or ``curves: …``, and nothing is written."""
    if not hasattr(curves, "items"):
        raise ValidationError(f"curves: type is {type(curves).__name__}, not dict")
    if len(curves) == 0:
        raise ValidationError("no curves to emit")
    held = {}
    for design, curve in curves.items():
        _require_member(design, "design", "curves", QtmDesign)
        where = f"curve {design.value}"
        named, rho, efficiency, carnot, limit = _require_fields(
            curve, EfficiencyCurve, where, _EMITTED)
        if named is not design:
            raise ValidationError(f"{where}: design is {named.value}")
        if len(rho) != len(efficiency):
            raise ValidationError(f"{where}: len(rho) != len(efficiency)")
        held[design] = rho, efficiency, carnot, limit.value
    _emit(format, destination, held, _curves_csv, _curves_json)
