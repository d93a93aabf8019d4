"""The record and curve writers against the stdlib encoders.

``emit`` and ``emit_curves`` fill fixed line templates with whole columns of
formatted floats.  These properties check that the result is, byte for byte,
what ``json.dumps(..., indent=2)`` and ``csv.writer`` write for the same
records and curves, including non-finite values, signed zeros, subnormals,
ints and the magnitudes where orjson's float spelling changes, and that JSON
output still round-trips through ``parse_records``.
"""

import csv
import io
import json
import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtmkit import sweep

from qtmkit import (
    CarnotLimitKind,
    DesignEfficiency,
    EfficiencyCurve,
    OperationalRegion,
    QtmDesign,
    SweepRecord,
    ValidationError,
    emit,
    emit_curves,
    parse_records,
)

#: Where the spelling of a float changes, and the edges of the band in which
#: the JSON writer re-spells orjson's cells with ``float.__repr__``
#: (|x| in [1e-10, 1e-3) or |x| >= 1e15), with a neighbour outside each.
EDGES = [1e-10, 1e-9, 9.999999999999999e-05, 1e-3, 1e15, 9.999999999999998e15,
         1.2345678901234568e17, 1.7976931348623157e308,
         math.nextafter(1e-10, 0.0), math.nextafter(1e15, 0.0)]
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-320,
           2.2250738585072014e-308, 1e16, 1e-5, 0.0001,
           *EDGES, *(-x for x in EDGES)]

values = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL),
    st.integers(-10**15, 10**15),
)
#: Chunk sizes small enough that a record list spans several chunks.
chunks = st.one_of(st.none(), st.integers(1, 5))


@st.composite
def record_lists(draw):
    # Carnot values come from a small pool of float objects, so one object is
    # shared by many entries, as run_sweep shares one per design; 0.0 and -0.0
    # are distinct objects that compare equal.
    pool = draw(st.lists(st.one_of(values, st.sampled_from([0.0, -0.0])),
                         min_size=1, max_size=4))
    entry = st.builds(DesignEfficiency, st.sampled_from(QtmDesign), values,
                      st.sampled_from(pool))
    record = st.builds(
        SweepRecord, *[values] * 8, st.sampled_from(OperationalRegion),
        st.lists(entry, max_size=3).map(tuple),
    )
    return draw(st.lists(record, min_size=1, max_size=12))


@st.composite
def curve_maps(draw):
    designs = draw(st.permutations(list(QtmDesign)))
    designs = designs[:draw(st.integers(1, len(designs)))]
    curves = {}
    for design in designs:
        n = draw(st.integers(0, 4))
        curves[design] = EfficiencyCurve(
            design=design,
            rho=tuple(draw(st.lists(values, min_size=n, max_size=n))),
            efficiency=tuple(draw(st.lists(values, min_size=n, max_size=n))),
            carnot=draw(values),
            carnot_limit_kind=draw(st.sampled_from(CarnotLimitKind)),
        )
    return curves


def written(write, items, format, chunk=None):
    """What ``write`` writes; records go through in chunks of ``chunk``."""
    buffer = io.StringIO()
    with mock.patch.object(sweep, "_CHUNK", chunk or sweep._CHUNK):
        write(items, format=format, destination=buffer)
    return buffer.getvalue()


def csv_text(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def record_dict(record):
    obj = {name: getattr(record, name) for name in (
        "rho", "alpha_sq", "e_high", "e_low", "e_out",
        "e_high_norm", "e_low_norm", "e_out_norm")}
    obj["region"] = record.region.value
    obj["designs"] = [
        {"design": e.design.value, "efficiency": e.efficiency, "carnot": e.carnot}
        for e in record.designs
    ]
    return obj


def record_row(record):
    row = [f"{value:.12g}" for value in list(record_dict(record).values())[:8]]
    row.append(record.region.value)
    cells = [(e.design.value, f"{e.efficiency:.12g}", f"{e.carnot:.12g}")
             for e in record.designs[:2]]
    cells += [("", "", "")] * (2 - len(cells))
    (name1, eff1, carnot1), (name2, eff2, carnot2) = cells
    return row + [name1, eff1, name2, eff2, carnot1, carnot2]


def numbers(record):
    obj = record_dict(record)
    yield from list(obj.values())[:8]
    for d in obj["designs"]:
        yield d["efficiency"]
        yield d["carnot"]


def exact(record):
    """The record with every number as its repr: NaN equals NaN, -0.0
    differs from 0.0."""
    obj = record_dict(record)
    obj["designs"] = [tuple(map(repr, d.values())) for d in obj["designs"]]
    return {key: repr(value) for key, value in obj.items()}


@settings(max_examples=150, deadline=None)
@given(record_lists(), chunks)
def test_records_json_matches_json_dumps(records, chunk):
    expected = json.dumps([record_dict(r) for r in records], indent=2) + "\n"
    assert written(emit, records, "json", chunk) == expected


@settings(max_examples=150, deadline=None)
@given(record_lists(), chunks)
def test_records_csv_matches_csv_writer(records, chunk):
    header = ["rho", "alpha_sq", "e_high", "e_low", "e_out", "e_high_norm",
              "e_low_norm", "e_out_norm", "region", "design1", "eff1",
              "design2", "eff2", "carnot1", "carnot2"]
    expected = csv_text(header, map(record_row, records))
    assert written(emit, records, "csv", chunk) == expected


@settings(max_examples=150, deadline=None)
@given(record_lists(), chunks)
def test_records_json_round_trips(records, chunk):
    parsed = parse_records(written(emit, records, "json", chunk))
    assert list(map(exact, parsed)) == list(map(exact, records))
    if not any(math.isnan(v) for r in records for v in numbers(r)):
        assert parsed == records


class Real(float):
    """A float subclass: the encoder writes it as a float."""


@pytest.mark.parametrize("value", [
    10**400, 2**63, True, Real(2.5e-05), np.float64(1e16),
], ids=["10**400", "2**63", "bool", "subclass", "float64"])
def test_records_json_of_other_number_types_matches_json_dumps(value):
    # An int beyond the float range, a bool and float subclasses are written
    # as the encoder writes them, in float fields and design entries.
    record = SweepRecord(value, 2.0, 1.0, -0.5, 0.5, 1.0, -0.5, value,
                         OperationalRegion.OUT_TRANSFERS,
                         (DesignEfficiency(QtmDesign.QEN, value, value),))
    expected = json.dumps([record_dict(record)], indent=2) + "\n"
    assert written(emit, [record], "json") == expected


@pytest.mark.parametrize("column", ["rho", "e_out_norm", "efficiency", "carnot"])
def test_records_csv_of_an_int_beyond_the_float_range_names_its_column(column):
    # "{:.12g}" cannot format 10**400; the JSON writer writes its digits.
    floats = dict.fromkeys(sweep._FLOAT_COLUMNS, 0.5)
    entry = {"efficiency": 0.5, "carnot": 0.8}
    (floats if column in floats else entry)[column] = 10**400
    record = SweepRecord(**floats, region=OperationalRegion.OUT_TRANSFERS,
                         designs=(DesignEfficiency(QtmDesign.QEN, **entry),))
    with pytest.raises(ValidationError, match=f"^cannot write {column}: "):
        emit([record], "csv", io.StringIO())


@settings(max_examples=100, deadline=None)
@given(curve_maps())
def test_curves_json_matches_json_dumps(curves):
    expected = json.dumps({
        design.value: {
            "rho": list(curve.rho),
            "efficiency": list(curve.efficiency),
            "carnot": curve.carnot,
            "carnot_limit": curve.carnot_limit_kind.value,
        }
        for design, curve in curves.items()
    }, indent=2) + "\n"
    assert written(emit_curves, curves, "json") == expected


@settings(max_examples=100, deadline=None)
@given(curve_maps())
def test_curves_csv_matches_csv_writer(curves):
    rows = (
        (design.value, f"{rho:.12g}", f"{eff:.12g}", f"{curve.carnot:.12g}",
         curve.carnot_limit_kind.value)
        for design in QtmDesign if design in curves
        for curve in [curves[design]]
        for rho, eff in zip(curve.rho, curve.efficiency)
    )
    expected = csv_text(
        ["design", "rho", "efficiency", "carnot", "carnot_limit"], rows)
    assert written(emit_curves, curves, "csv") == expected


def test_enum_values_need_no_quoting_or_escaping():
    # The writers put enum values between fixed quotes and commas.
    for enum in (OperationalRegion, QtmDesign, CarnotLimitKind):
        for member in enum:
            assert json.dumps(member.value) == f'"{member.value}"'
            assert csv_text([member.value], []) == member.value + "\n"


@pytest.mark.parametrize("field, bad", [
    ("region", "NoSuchRegion"),
    ("region", ["OutTransfers"]),
    ("design", "QXX"),
    ("design", None),
])
def test_parse_rejects_an_unknown_enum_value_with_value_error(field, bad):
    record = SweepRecord(*[1.5] * 8, OperationalRegion.OUT_TRANSFERS, (
        DesignEfficiency(QtmDesign.QEN, 0.5, 0.8),))
    doc = json.loads(written(emit, [record], "json"))
    if field == "region":
        doc[0]["region"] = bad
    else:
        doc[0]["designs"][0]["design"] = bad
    with pytest.raises(ValueError, match="is not a valid"):
        parse_records(json.dumps(doc))
