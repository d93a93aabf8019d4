"""The record and curve writers against the stdlib encoders.

``emit`` and ``emit_curves`` fill fixed row templates with formatted floats.
These properties check that the result is, byte for byte, what
``json.dumps(..., indent=2)`` and ``csv.writer`` write for the float64 view
of the same records and curves (each number as ``float()`` makes it),
including non-finite values, signed zeros, subnormals, ints and the
magnitudes where orjson's float spelling changes, that JSON output
round-trips through ``parse_records``, and that both formats reject the same
values with the same message.
"""

import csv
import dataclasses
import io
import json
import math
import re
import reprlib
import tracemalloc

from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtmkit import designs, sweep

from qtmkit import (
    CarnotLimitKind,
    DesignEfficiency,
    EfficiencyCurve,
    OperationalRegion,
    QtmDesign,
    SweepRecord,
    SweepSpec,
    ValidationError,
    default_rho_grid,
    efficiency_curves,
    emit,
    emit_curves,
    parse_records,
    run_sweep,
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


#: Every kind of value the number rule admits: exact floats, float64s and
#: ints up to the edge of the float range.
rule_values = st.one_of(
    values,
    st.floats().map(np.float64),
    st.integers(-2**1023, 2**1023),
    st.sampled_from([2**63, 2**1024 - 2**970 - 1, -(2**1024 - 2**970 - 1)]),
)


@st.composite
def record_lists(draw, values=values):
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


def as_floats(record):
    """``record`` with each number as the float64 ``parse_records`` reads."""
    entries = tuple(dataclasses.replace(e, efficiency=float(e.efficiency),
                                        carnot=float(e.carnot)) for e in record.designs)
    return dataclasses.replace(record, designs=entries, **{
        name: float(getattr(record, name)) for name in sweep._FLOAT_COLUMNS})


def exact(record):
    """The record with every number as its repr: NaN equals NaN, -0.0
    differs from 0.0."""
    obj = record_dict(record)
    obj["designs"] = [tuple(map(repr, d.values())) for d in obj["designs"]]
    return {key: repr(value) for key, value in obj.items()}


def one_record(value, column=None):
    """A record of 0.5s with one design entry, ``value`` in field ``column``
    (every float field if None)."""
    floats = dict.fromkeys(sweep._FLOAT_COLUMNS, 0.5 if column else value)
    entry = dict.fromkeys(sweep._ENTRY_FLOATS, 0.5 if column else value)
    if column:
        (floats if column in floats else entry)[column] = value
    return SweepRecord(**floats, region=OperationalRegion.OUT_TRANSFERS,
                       designs=(DesignEfficiency(QtmDesign.QEN, **entry),))


def where(column):
    """What a fault in field ``column`` of ``one_record`` is named by."""
    return "record 0" if column in sweep._FLOAT_COLUMNS else "record 0 design 0"


def one_curve(value, column):
    """A QEN curve of one point, ``value`` in field ``column``."""
    fields = {"rho": (1.5,), "efficiency": (0.5,), "carnot": 0.8}
    fields[column] = value if column == "carnot" else (value,)
    return {QtmDesign.QEN: EfficiencyCurve(QtmDesign.QEN, **fields,
                                           carnot_limit_kind=CarnotLimitKind.MAXIMUM)}


@settings(max_examples=150, deadline=None)
@given(record_lists(), chunks)
def test_records_json_matches_json_dumps(records, chunk):
    # Of the float64 view: an int is written as its float (1 -> 1.0).
    expected = json.dumps([record_dict(as_floats(r)) for r in records], indent=2) + "\n"
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
    text = written(emit, records, "json", chunk)
    parsed = parse_records(text)
    floats = list(map(as_floats, records))
    assert list(map(exact, parsed)) == list(map(exact, floats))
    if not any(math.isnan(v) for r in records for v in numbers(r)):
        assert parsed == records
    # Every float column is parsed into an array: an int re-emits as its
    # float, and the result equals its parsed twin, NaN included.
    assert written(emit, parsed, "json", chunk) == written(emit, floats, "json")
    assert parsed == parse_records(written(emit, parsed, "json"))


@settings(max_examples=150, deadline=None)
@given(record_lists(rule_values), chunks)
def test_what_emit_accepts_parse_records_reads_back_as_its_float64_view(records,
                                                                       chunk):
    # Floats, float64s, NaN, infinities and ints up to the edge of the float
    # range: parse_records reads back the float64 view of the list, which
    # re-emits the same JSON, and the CSV is the CSV of that view.
    text = written(emit, records, "json", chunk)
    parsed = parse_records(text)
    view = list(map(as_floats, records))
    assert list(map(exact, parsed)) == list(map(exact, view))
    assert written(emit, parsed, "json", chunk) == text == written(emit, view, "json")
    assert written(emit, records, "csv", chunk) == written(emit, view, "csv")


#: Values no float field may hold: not numbers by the rule, or beyond float64.
REJECTED = [True, np.float32(0.1), Fraction(1, 3), Decimal(1), "a", None, 10**400]
REJECTED_IDS = ["bool", "float32", "Fraction", "Decimal", "str", "None", "10**400"]


def fault(value) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return f"is beyond the float range, got {reprlib.repr(value)}"
    return f"is not a number, got {value!r}"


def messages(write, items) -> list[str]:
    """The message each format raises for ``items``, after checking that
    nothing was written."""
    out = []
    for format in ("csv", "json"):
        buffer = io.StringIO()
        with pytest.raises(ValidationError) as info:
            write(items, format, buffer)
        assert buffer.getvalue() == ""
        out.append(str(info.value))
    return out


@pytest.mark.parametrize("value", REJECTED, ids=REJECTED_IDS)
def test_both_formats_reject_a_value_with_the_same_message(value):
    for column in (*sweep._FLOAT_COLUMNS, *sweep._ENTRY_FLOATS):
        message = f"{where(column)}: {column} {fault(value)}"
        assert messages(emit, [one_record(value, column)]) == [message] * 2
    for column in ("rho", "efficiency", "carnot"):
        message = f"curve QEN: {column} {fault(value)}"
        assert messages(emit_curves, one_curve(value, column)) == [message] * 2


def test_a_long_value_that_is_not_a_number_is_named_in_short():
    # A field holding 1e5 numbers is named by its reprlib.repr, not a
    # 689 kB repr, in both formats; parse_records names a long JSON value alike.
    value = tuple(range(10**5))
    message = f"record 0: rho is not a number, got {reprlib.repr(value)}"
    assert messages(emit, [one_record(value, "rho")]) == [message] * 2
    doc = json.loads(written(emit, [one_record(0.5)], "json"))
    doc[0]["designs"][0]["carnot"] = list(value)
    with pytest.raises(ValidationError) as info:
        parse_records(json.dumps(doc))
    assert len(str(info.value)) < 100


def test_float_arrays_are_spelled_as_json_dumps_spells_their_floats():
    finite = [x for x in SPECIAL if math.isfinite(x)]
    records = [SweepRecord(*[x] * 8, OperationalRegion.OUT_TRANSFERS,
                           (DesignEfficiency(QtmDesign.QEN, x, -x),))
               for x in finite]
    text = written(emit, records, "json")
    parsed = parse_records(text)
    assert all(isinstance(column, np.ndarray) for column in (
        *parsed._held[1:9], *parsed._held[-2:]))
    assert written(emit, parsed, "json", 3) == text
    assert text == json.dumps([record_dict(r) for r in records], indent=2) + "\n"


class Real(float):
    """A float subclass: the encoder writes it as a float."""


@pytest.mark.parametrize("value", [
    1, 2**63, Real(2.5e-05), np.float64(1e16),
], ids=["1", "2**63", "subclass", "float64"])
def test_records_json_of_other_number_types_matches_json_dumps(value):
    # An int and float subclasses are written as their float64, in float
    # fields and design entries.
    record = one_record(value)
    expected = json.dumps([record_dict(as_floats(record))], indent=2) + "\n"
    assert written(emit, [record], "json") == expected


@pytest.mark.parametrize("value", [
    np.float64(1e16), Real(2.5e-05), 1, 2**63, 5e-324,
], ids=["float64", "subclass", "1", "2**63", "5e-324"])
def test_records_csv_of_other_number_types_matches_csv_writer(value):
    # The CSV of the float64 view, in float fields, efficiencies and Carnot
    # values; a float64 and a float subclass spell as their float.
    entry = DesignEfficiency(QtmDesign.QEN, value, value)
    records = [
        SweepRecord(value, 2.0, 1.0, -0.5, 0.5, 1.0, -0.5, value,
                    OperationalRegion.OUT_TRANSFERS, (entry,) * count)
        for count in (0, 1, 2)
    ]
    expected = csv_text(sweep.CSV_COLUMNS, map(record_row, map(as_floats, records)))
    assert written(emit, records, "csv") == expected


@pytest.mark.parametrize("column", ["rho", "e_out_norm", "efficiency", "carnot"])
def test_records_csv_of_an_int_beyond_the_float_range_names_its_column(column):
    # No float64 holds 10**400: the record and field are named, as
    # parse_records names them, and nothing is written.
    buffer = io.StringIO()
    with pytest.raises(ValidationError) as info:
        emit([one_record(10**400, column)], "csv", buffer)
    assert str(info.value) == (f"{where(column)}: {column} is beyond the float "
                               f"range, got {reprlib.repr(10**400)}")
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("column", ["rho", "efficiency", "carnot"])
def test_curves_csv_of_an_int_beyond_the_float_range_names_its_column(column):
    buffer = io.StringIO()
    with pytest.raises(ValidationError) as info:
        emit_curves(one_curve(10**400, column), "csv", buffer)
    assert str(info.value) == (f"curve QEN: {column} is beyond the float range, "
                               f"got {reprlib.repr(10**400)}")
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("value", ["a", None, (0.5,), np.float32(0.1), True],
                         ids=["str", "None", "tuple", "float32", "bool"])
@pytest.mark.parametrize("column", [*sweep._FLOAT_COLUMNS, "efficiency", "carnot"])
def test_records_of_a_value_that_is_not_a_number_name_its_column(format, value,
                                                                 column):
    # Neither format writes a value parse_records would not read back as a
    # number: not "a" or None, not a float32 (no float subclass), not True,
    # and not a one-element tuple, which a lone "%.12g" % value would unpack.
    with pytest.raises(ValidationError) as info:
        emit([one_record(value, column)], format, io.StringIO())
    assert str(info.value) == f"{where(column)}: {column} is not a number, got {value!r}"


@pytest.mark.parametrize("column", ["rho", "efficiency", "carnot"])
def test_curves_json_of_a_bool_names_its_column(column):
    buffer = io.StringIO()
    with pytest.raises(ValidationError) as info:
        emit_curves(one_curve(True, column), "json", buffer)
    assert str(info.value) == f"curve QEN: {column} is not a number, got True"
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("value", ["a", None], ids=["str", "None"])
@pytest.mark.parametrize("column", ["rho", "efficiency", "carnot"])
def test_curves_csv_of_a_value_that_is_not_a_number_names_its_column(value,
                                                                     column):
    # And the curves JSON, where json.dumps would write "a" and None as such.
    for format in ("csv", "json"):
        with pytest.raises(ValidationError) as info:
            emit_curves(one_curve(value, column), format, io.StringIO())
        assert str(info.value) == f"curve QEN: {column} is not a number, got {value!r}"


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("column", ["region", "design"])
@pytest.mark.parametrize("value", ["OutTransfers", None, CarnotLimitKind.MAXIMUM],
                         ids=["str", "None", "other-enum"])
def test_records_of_a_region_or_design_that_is_no_member_name_its_column(
    value, column, format
):
    # The writers spell a member by its value, which a string has not and
    # another enum's member has.
    region, design = OperationalRegion.OUT_TRANSFERS, QtmDesign.QEN
    if column == "region":
        region = value
    else:
        design = value
    record = SweepRecord(*[0.5] * 8, region, (DesignEfficiency(design, 0.5, 0.8),))
    kind = "OperationalRegion" if column == "region" else "QtmDesign"
    where = "record 0" if column == "region" else "record 0 design 0"
    with pytest.raises(ValidationError) as info:
        emit([record], format, io.StringIO())
    assert str(info.value) == f"{where}: {column} is not in {kind}, got {reprlib.repr(value)}"


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("column, value", [
    ("design", "QEN"), ("design", None), ("design", CarnotLimitKind.MAXIMUM),
    ("carnot_limit_kind", "maximum"), ("carnot_limit_kind", None),
    ("carnot_limit_kind", QtmDesign.QEN),
], ids=["design-str", "design-None", "design-other-enum", "limit-str",
        "limit-None", "limit-other-enum"])
def test_curves_of_a_design_or_limit_that_is_no_member_name_its_column(
    column, value, format
):
    # A curve's key and its limit kind are spelled by their values, which a
    # string has not and another enum's member has.
    design, limit = QtmDesign.QEN, CarnotLimitKind.MAXIMUM
    if column == "design":
        design = value
    else:
        limit = value
    curve = EfficiencyCurve(QtmDesign.QEN, (1.5, 2.0), (0.3, 0.4), 0.8, limit)
    kind, where = ("QtmDesign", "curves") if column == "design" else (
        "CarnotLimitKind", "curve QEN")
    buffer = io.StringIO()
    with pytest.raises(ValidationError) as info:
        emit_curves({design: curve}, format, buffer)
    assert str(info.value) == f"{where}: {column} is not in {kind}, got {reprlib.repr(value)}"
    assert buffer.getvalue() == ""


@settings(max_examples=100, deadline=None)
@given(curve_maps())
def test_curves_json_matches_json_dumps(curves):
    # Of the float64 view: an int is written as its float (1 -> 1.0).
    expected = json.dumps({
        design.value: {
            "rho": list(map(float, curve.rho)),
            "efficiency": list(map(float, curve.efficiency)),
            "carnot": float(curve.carnot),
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


@pytest.mark.parametrize("format", ["csv", "json"])
def test_curves_with_unequal_rho_and_efficiency_lengths_are_rejected(format):
    curves = {QtmDesign.QEN: EfficiencyCurve(
        QtmDesign.QEN, (1.5, 2.0, 2.2), (0.3,), 0.8, CarnotLimitKind.MAXIMUM)}
    buffer = io.StringIO()
    with pytest.raises(ValidationError, match="^curve QEN: "):
        emit_curves(curves, format, buffer)
    assert buffer.getvalue() == ""


QEN_CURVE = EfficiencyCurve(QtmDesign.QEN, (1.5, 2.0), (0.3, 0.4), 0.8,
                            CarnotLimitKind.MAXIMUM)


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("curves, message", [
    ({QtmDesign.QEN: dataclasses.replace(QEN_CURVE, rho=None)},
     "curve QEN: rho is not a sequence, got None"),
    ({QtmDesign.QEN: dataclasses.replace(QEN_CURVE, efficiency=1.5)},
     "curve QEN: efficiency is not a sequence, got 1.5"),
    ({QtmDesign.QLL: None}, "curve QLL: type is NoneType, not EfficiencyCurve"),
    ({QtmDesign.QEN: QEN_CURVE, QtmDesign.QLL: (1,)},
     "curve QLL: type is tuple, not EfficiencyCurve"),
    (None, "curves: type is NoneType, not dict"),
], ids=["rho-None", "efficiency-float", "curve-None", "curve-tuple", "curves-None"])
def test_curves_of_the_wrong_shape_are_named(curves, message, format):
    # Each once escaped as a bare TypeError or AttributeError.
    buffer = io.StringIO()
    with pytest.raises(ValidationError) as info:
        emit_curves(curves, format, buffer)
    assert str(info.value) == message
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("format", ["csv", "json"])
def test_a_curve_under_another_designs_key_is_rejected(format):
    # It was written as the key's series: QLL's values labelled QEN.
    curves = efficiency_curves(REFERENCE)
    buffer = io.StringIO()
    with pytest.raises(ValidationError) as info:
        emit_curves({QtmDesign.QEN: curves[QtmDesign.QLL]}, format, buffer)
    assert str(info.value) == "curve QEN: design is QLL"
    assert buffer.getvalue() == ""


@pytest.mark.parametrize("format", ["csv", "json"])
def test_curves_of_float_array_columns_are_written_as_of_tuples(format):
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, r_low=1e-7,
                     rho_grid=default_rho_grid(5.0, num=50))
    curves = efficiency_curves(spec)
    arrays = {design: EfficiencyCurve(design, np.array(c.rho), np.array(c.efficiency),
                                      c.carnot, c.carnot_limit_kind)
              for design, c in curves.items()}
    assert written(emit_curves, arrays, format) == written(emit_curves, curves, format)


@pytest.mark.parametrize("column", ["rho", "efficiency"])
def test_curves_json_of_an_int_array_names_its_column(column):
    # An int64 array's values are np.int64, no int: both formats name the
    # first, where a float64 array is written as a tuple of its floats.
    fields = {"rho": np.array([1.5]), "efficiency": np.array([0.5])}
    fields[column] = np.array([1], dtype=np.int64)
    curve = EfficiencyCurve(QtmDesign.QEN, **fields, carnot=0.8,
                            carnot_limit_kind=CarnotLimitKind.MAXIMUM)
    for format in ("csv", "json"):
        with pytest.raises(ValidationError) as info:
            emit_curves({QtmDesign.QEN: curve}, format, io.StringIO())
        assert str(info.value) == f"curve QEN: {column} is not a number, got {np.int64(1)!r}"


def test_a_regions_two_curves_share_one_rho_tuple():
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, r_low=1e-7,
                     rho_grid=default_rho_grid(5.0, num=50))
    curves = efficiency_curves(spec)
    for pair in designs._PAIRS.values():
        assert curves[pair[0]].rho is curves[pair[1]].rho
        assert curves[pair[0]].rho


def test_curves_hold_the_grids_own_rho_floats():
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, r_low=1e-7,
                     rho_grid=default_rho_grid(5.0, num=50))
    grid = set(map(id, spec.rho_grid))
    for curve in efficiency_curves(spec).values():
        assert grid.issuperset(map(id, curve.rho))


def test_curves_csv_spells_equal_signed_zero_rho_tuples_apart():
    # (0.0,) == (-0.0,), yet the two spell "0" and "-0": equal tuples that
    # are distinct objects each get their own text.
    curves = {
        design: EfficiencyCurve(design, (rho,), (0.5,), 0.8,
                                CarnotLimitKind.MAXIMUM)
        for design, rho in ((QtmDesign.QEN, 0.0), (QtmDesign.QLL, -0.0))
    }
    assert written(emit_curves, curves, "csv").splitlines()[1:] == [
        "QEN,0,0.5,0.8,maximum", "QLL,-0,0.5,0.8,maximum"]


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
    where = "record 0" if field == "region" else "record 0 design 0"
    with pytest.raises(ValidationError, match=f"^{where}: {field} is not in "):
        parse_records(json.dumps(doc))


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("shape, message", [
    ("designs-None", "record 290: designs is not a list, got NoneType"),
    ("entry-tuple", "record 290 design 1: type is tuple, not DesignEfficiency"),
    ("record-dict", "record 290: type is dict, not SweepRecord"),
], ids=["designs-None", "entry-tuple", "record-dict"])
def test_records_of_the_wrong_shape_are_named_by_their_index(shape, message,
                                                             format, tmp_path):
    # Record 290 lies in the second chunk of _CHUNK = 256 records; it is
    # named by its index in the whole list, and nothing is written.
    entry = DesignEfficiency(QtmDesign.QEN, 0.5, 0.8)
    good = SweepRecord(*[0.5] * 8, OperationalRegion.OUT_TRANSFERS, (entry, entry))
    bad = {
        "designs-None": SweepRecord(*[0.5] * 8, OperationalRegion.PUMPERS, None),
        "entry-tuple": SweepRecord(*[0.5] * 8, OperationalRegion.OUT_TRANSFERS,
                                   (entry, (QtmDesign.QLL, 0.5, 0.8))),
        "record-dict": record_dict(good),
    }[shape]
    records = [good] * 290 + [bad] + [good] * 9
    buffer = io.StringIO()
    with pytest.raises(ValidationError) as info:
        emit(records, format, buffer)
    assert str(info.value) == message
    assert buffer.getvalue() == ""
    with pytest.raises(ValidationError):
        emit(records, format, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("format", ["csv", "json"])
def test_a_type_error_of_well_formed_records_is_raised_as_it_is(format):
    # A text written to a binary stream: the walk finds no record to name.
    record = SweepRecord(*[0.5] * 8, OperationalRegion.BOUNDARY_OUTT_PUMP)
    with pytest.raises(TypeError, match="bytes-like"):
        emit([record], format, io.BytesIO())


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("records", [
    lambda: iter([SweepRecord(*[0.5] * 8, OperationalRegion.OUT_TRANSFERS)]),
    lambda: (r for r in [SweepRecord(*[0.5] * 8, OperationalRegion.PUMPERS)]),
], ids=["list_iterator", "generator"])
def test_records_that_are_no_sequence_are_rejected_by_name(records, format):
    records = records()
    message = f"records must be a sequence, got {type(records).__name__}$"
    with pytest.raises(ValidationError, match=message):
        emit(records, format, io.StringIO())


#: The paper's ring case on the reference grid.
REFERENCE = SweepSpec(t_low=1.0, theta_sq=5.0, r_low=1e-7,
                      rho_grid=default_rho_grid(5.0))

#: What a planted fault puts in a field of a record or design entry; DROP
#: drops the field.
DROP = object()
FAULTS = {
    **dict.fromkeys((*sweep._FLOAT_COLUMNS, *sweep._ENTRY_FLOATS), [DROP, "x", True, 10**400]),
    **dict.fromkeys(("region", "design"), [DROP, "Bogus", None, [1], CarnotLimitKind.MAXIMUM]),
    "designs": [DROP, None, "", {}],
}


@st.composite
def planted(draw):
    """``(objs, i)``: 3 to 8 reference records as objects of
    :func:`record_dict`, with one fault planted in record ``i`` and maybe one
    in a later record."""
    pool = run_sweep(REFERENCE)[0]
    objs = [record_dict(pool[k]) for k in draw(st.lists(st.integers(0, len(pool) - 1),
                                                        min_size=3, max_size=8))]
    i = draw(st.integers(0, len(objs) - 1))
    for k in {i, draw(st.integers(i, len(objs) - 1))}:
        entries = objs[k]["designs"]
        target = entries[draw(st.integers(0, len(entries) - 1))] if entries and draw(
            st.booleans()) else objs[k]
        key = draw(st.sampled_from(list(target)))
        value = draw(st.sampled_from(FAULTS[key]))
        if value is DROP:
            del target[key]
        else:
            target[key] = value
    return objs, i


def documented(objs) -> str:
    """``objs`` as a JSON document: a planted enum member as its value."""
    return json.dumps(objs, default=lambda member: member.value, indent=2)


def built(obj, cls=SweepRecord):
    """``obj`` as a ``cls``, its enum values as members and its entries as a
    tuple of DesignEfficiency; a dropped field is left unset, anything
    planted is kept as it is."""
    made = object.__new__(cls)
    for key, value in obj.items():
        if key == "designs" and type(value) is list:
            value = tuple(built(entry, DesignEfficiency) for entry in value)
        enum = {"region": OperationalRegion, "design": QtmDesign}.get(key)
        if enum and value in [m.value for m in enum]:
            value = enum(value)
        object.__setattr__(made, key, value)
    return made


@settings(max_examples=150, deadline=None)
@given(planted(), st.sampled_from(["csv", "json"]))
def test_both_readers_name_the_record_of_the_first_fault(case, format):
    # parse_records reads the document, emit the records: each raises a
    # ValidationError naming record i (or a design entry of it), and emit
    # writes nothing.
    objs, i = case
    with pytest.raises(ValidationError) as parsed:
        parse_records(documented(objs))
    buffer = io.StringIO()
    with pytest.raises(ValidationError) as emitted:
        emit([built(obj) for obj in objs], format, buffer)
    for info in (parsed, emitted):
        assert re.match(rf"record {i}[: ]", str(info.value)), str(info.value)
    assert buffer.getvalue() == ""


class WriteOnly:
    """A destination with a ``write`` method and nothing else."""

    def __init__(self):
        self.texts = []

    def write(self, text):
        self.texts.append(text)


@pytest.mark.parametrize("format", ["csv", "json"])
def test_a_stream_that_only_writes_gets_the_text_in_pieces(format):
    # Each chunk of _CHUNK records is a write of its own; joined, the writes
    # are the text a StringIO receives.
    records = run_sweep(REFERENCE)[0]
    stream = WriteOnly()
    emit(records, format, stream)
    assert len(stream.texts) >= -(-len(records) // sweep._CHUNK)
    assert "".join(stream.texts) == written(emit, records, format)
    stream = WriteOnly()
    curves = efficiency_curves(REFERENCE)
    emit_curves(curves, format, stream)
    assert "".join(stream.texts) == written(emit_curves, curves, format)


@pytest.mark.parametrize("format", ["csv", "json"])
def test_emit_to_a_file_holds_about_one_copy_of_the_document(format, tmp_path):
    # Joined before the write, the document peaked at 2.05 times its size.
    spec = SweepSpec(t_low=1.0, theta_sq=5.0, r_low=1e-7,
                     rho_grid=default_rho_grid(5.0, num=10_000))
    records = run_sweep(spec)[0]
    tracemalloc.start()
    try:
        emit(records, format, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * (tmp_path / "out").stat().st_size


@pytest.mark.parametrize("format", ["csv", "json"])
def test_a_type_error_of_a_held_result_skips_the_record_walk(format, monkeypatch):
    # A held result is well formed by construction: the write's own error is
    # raised, the one a list of its records raises, without the walk.
    records = run_sweep(REFERENCE)[0]
    with pytest.raises(TypeError) as expected:
        emit(list(records), format, io.BytesIO())
    walked = []
    monkeypatch.setattr(sweep, "_require_fields", lambda *args: walked.append(args))
    with pytest.raises(TypeError) as info:
        emit(records, format, io.BytesIO())
    assert str(info.value) == str(expected.value) and walked == []
