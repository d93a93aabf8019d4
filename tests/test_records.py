"""Records assembled column-wise behave like records built by their
constructors, and the result that holds them behaves like a list.

``run_sweep`` and ``parse_records`` return the records as columns; indexing
or iterating the result fills whole columns of slotted ``SweepRecord``s and
``DesignEfficiency``s without calling ``__init__``, with the cyclic garbage
collector paused.  These tests rebuild every record field by field through
the public constructors and compare; they check the dataclass protocol
(``replace``, ``asdict``, pickle, deep copy, frozen fields), that the result
indexes, slices, compares, pickles and is written as the list of its
records, that the collector's state is restored, that malformed JSON
documents are reported as such, and that a records JSON read a piece at a
time gives the records of the text ``json.loads`` reads, each number held as
the float64 ``float()`` makes of it.
"""

import copy
import dataclasses
import gc
import io
import json
import math
import pickle
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtmkit import (
    DesignEfficiency,
    InvalidRingError,
    OperationalRegion,
    QtmDesign,
    SweepRecord,
    SweepSpec,
    ValidationError,
    default_rho_grid,
    emit,
    parse_records,
    run_sweep,
    sweep,
)

#: The paper's ring case, as ``qtmkit sweep`` runs it by default.
REFERENCE = SweepSpec(t_low=1.0, theta_sq=5.0, rho_grid=default_rho_grid(5.0),
                      r_low=1e-7)


@pytest.fixture(scope="module")
def swept():
    return run_sweep(REFERENCE)[0]


@pytest.fixture(scope="module")
def parsed(swept):
    buffer = io.StringIO()
    emit(swept, "json", buffer)
    return parse_records(buffer.getvalue())


@pytest.fixture(params=["swept", "parsed"])
def records(request):
    return request.getfixturevalue(request.param)


@pytest.fixture
def gc_state():
    """Restores the collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def constructed(record):
    """``record`` rebuilt field by field: entries positionally, the record by
    keyword."""
    entries = tuple(DesignEfficiency(e.design, e.efficiency, e.carnot)
                    for e in record.designs)
    values = {f.name: getattr(record, f.name)
              for f in dataclasses.fields(SweepRecord)}
    return SweepRecord(**{**values, "designs": entries})


def test_matches_records_built_by_the_constructors(records):
    assert len(records) == len(REFERENCE.rho_grid)
    assert any(len(r.designs) == 2 for r in records)
    for record in records:
        rebuilt = constructed(record)
        assert record == rebuilt
        assert hash(record) == hash(rebuilt)
        assert repr(record) == repr(rebuilt)
        for entry, built in zip(record.designs, rebuilt.designs):
            assert (entry, hash(entry), repr(entry)) == (
                built, hash(built), repr(built))


def test_records_are_slotted(records):
    record = next(r for r in records if r.designs)
    assert not hasattr(record, "__dict__")
    assert not hasattr(record.designs[0], "__dict__")


def test_replace_and_asdict_round_trip(records):
    for record in records[::50]:
        assert dataclasses.replace(record) == record
        assert dataclasses.replace(record, rho=-1.0).rho == -1.0
        obj = dataclasses.asdict(record)
        designs = tuple(DesignEfficiency(**e) for e in obj.pop("designs"))
        assert SweepRecord(**obj, designs=designs) == record


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(records, protocol):
    assert pickle.loads(pickle.dumps(records, protocol)) == records
    for part in (records, records[250:530]):
        copied = pickle.loads(pickle.dumps(part, protocol))
        assert type(copied) is type(part)
        assert list(copied) == list(part)


def test_deepcopy_round_trip(records):
    copied = copy.deepcopy(records)
    assert copied == records
    assert copied[0] is not records[0]
    assert type(copied) is type(records)
    assert list(copied) == list(records)


def test_fields_are_frozen(records):
    record = next(r for r in records if r.designs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.rho = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.designs[0].efficiency = 0.0


def test_entries_keep_the_design_order(swept):
    order = list(QtmDesign)
    for record in swept:
        designs = [e.design for e in record.designs]
        assert designs == sorted(designs, key=order.index)


@pytest.fixture(scope="module")
def as_list(swept):
    return list(swept)


def test_the_result_indexes_as_its_list(records, as_list):
    n = len(as_list)
    assert len(records) == n == len(REFERENCE.rho_grid)
    for i in (0, 1, 255, 256, 257, n - 1, -1, -2, -256, -n):
        assert records[i] == as_list[i]
    assert records[5] is not records[5]  # each index builds a fresh record
    for i in (n, n + 1, 10**20, -n - 1, -(10**20)):
        with pytest.raises(IndexError):
            records[i]
    with pytest.raises(TypeError):
        records["0"]


@pytest.mark.parametrize("window", [
    slice(None), slice(10, 300), slice(250, 530), slice(-20, None),
    slice(None, -590), slice(5, 5), slice(300, 10), slice(10**9, None),
    slice(-(10**9), 2), slice(None, None, 3), slice(10, 300, 7),
    slice(None, None, -1), slice(300, 10, -4), slice(10, 300, -1),
])
def test_a_slice_is_the_list_slice(records, as_list, window):
    part = records[window]
    assert len(part) == len(as_list[window])
    assert list(part) == as_list[window]
    assert part == as_list[window] and as_list[window] == part


@given(st.one_of(st.none(), st.integers(-700, 700)),
       st.one_of(st.none(), st.integers(-700, 700)),
       st.one_of(st.none(), st.integers(-700, 700).filter(bool)))
def test_any_slice_is_the_list_slice(swept, as_list, start, stop, step):
    window = slice(start, stop, step)
    part = swept[window]
    assert list(part) == as_list[window]
    assert part == as_list[window] and not part != as_list[window]
    if len(part) and step in (None, 1):  # a slice of the columns
        assert json_text(part) == json_text(as_list[window])


def test_membership_index_count_and_reversed(records, as_list):
    record = as_list[123]
    assert record in records
    assert records.index(record) == 123
    assert records.count(record) == 1
    assert list(reversed(records)) == as_list[::-1]
    absent = dataclasses.replace(record, rho=-1.0)
    assert absent not in records
    assert records.count(absent) == 0
    with pytest.raises(ValueError):
        records.index(absent)


def test_equality_with_the_list_and_another_result(swept, parsed, as_list):
    for left, right in [(swept, as_list), (as_list, swept), (parsed, swept),
                        (swept, parsed), (parsed, as_list), (as_list, parsed),
                        (swept[:0], [])]:
        assert left == right
        assert not left != right
    changed = list(as_list)
    changed[7] = dataclasses.replace(changed[7], e_low=0.0)
    unequal = [changed, parse_records(json_text(changed)), as_list[:-1], swept[1:],
               swept[:-1], tuple(as_list), None]
    for other in unequal:
        for left, right in [(swept, other), (other, swept)]:
            assert left != right
            assert not left == right


def float_columns(result):
    """The float columns a result holds: the record floats, then the design
    entries' efficiencies and Carnot values."""
    return (*result._held[1:9], *result._held[-2:])


def test_every_float_column_is_a_float64_array(swept, parsed):
    # Ints, 2**63, NaN and infinities included: each is held as float() makes it.
    doc = [{**RECORD, "rho": 1}, {**RECORD, "e_high": 2**63},
           {**RECORD, "e_low": math.nan, "designs": [{**ENTRY, "carnot": -math.inf}]}]
    for result in (swept, parsed, swept[3:9], parse_records(json.dumps(doc)),
                   parse_records("[]")):
        assert all(type(c) is np.ndarray and c.dtype == np.float64
                   for c in float_columns(result))


def int_columns(result):
    """The integer columns a result holds: the design counts, the regions'
    indexes and the design entries' name indexes."""
    return result._held[0], *result._held[9:11]


def test_counts_regions_and_designs_are_held_as_int_arrays(swept, parsed):
    doc = [RECORD, {**RECORD, "region": "Pumpers", "designs": []}]
    for result in (swept, parsed, swept[3:9], parse_records(json.dumps(doc)),
                   parse_records("[]")):
        counts, regions, names = int_columns(result)
        assert all(type(c) is np.ndarray for c in (counts, regions, names))
        assert (counts.dtype, regions.dtype, names.dtype) == (np.int32, np.int8, np.int8)
    (first, second) = parse_records(json.dumps(doc))
    assert (first.region, second.region) == (OperationalRegion.OUT_TRANSFERS,
                                             OperationalRegion.PUMPERS)
    assert (first.designs[0].design, second.designs) == (QtmDesign.QEN, ())


def test_results_compare_by_column_and_a_nan_equals_a_nan_in_its_place():
    floats = parse_records(json.dumps([{**RECORD, "rho": 2.0}] * 3))
    ints = parse_records(json.dumps([{**RECORD, "rho": 2}] * 3))
    assert floats == ints and ints == floats
    assert floats != parse_records(json.dumps([{**RECORD, "rho": 3}] * 3))
    nan = parse_records(json.dumps([RECORD, {**RECORD, "e_low": math.nan}]))
    assert nan == nan and nan[:] == nan and nan == parse_records(json_text(nan))
    assert nan != parse_records(json.dumps([{**RECORD, "e_low": math.nan}, RECORD]))
    assert nan != parse_records(json.dumps([RECORD, {**RECORD, "e_low": math.inf}]))


#: The paper's ring case on the 1e5-point grid: about 1.2 M floats.
DENSE = SweepSpec(t_low=1.0, theta_sq=5.0,
                  rho_grid=default_rho_grid(5.0, num=100_000), r_low=1e-7)


def held_bytes(call):
    """What ``call()`` returns, and the bytes still allocated after it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def test_a_dense_result_and_its_parsed_twin_hold_every_column_as_an_array():
    # As lists of float objects they held 32.8 and 41.1 MB; with float64
    # arrays and lists of counts, regions and designs, 12.8 and 12.9 MB.
    swept, size = held_bytes(lambda: run_sweep(DENSE)[0])
    text = json_text(swept)
    parsed, parsed_size = held_bytes(lambda: parse_records(text))
    assert size <= 11e6 and parsed_size <= 11e6
    for result in (swept, parsed):
        assert all(type(c) is np.ndarray for c in result._held)
        assert all(c.dtype == np.float64 for c in float_columns(result))
        assert all(c.dtype.kind == "i" for c in int_columns(result))
    assert parsed == swept


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("window", [slice(None), slice(250, 530), slice(600, None),
                                    slice(None, None, 5), slice(None, None, -1)])
def test_a_slice_is_written_as_the_list_slice(records, as_list, window, format):
    def text(records):
        buffer = io.StringIO()
        emit(records, format, buffer)
        return buffer.getvalue()

    assert text(records[window]) == text(as_list[window])


def json_text(records) -> str:
    buffer = io.StringIO()
    emit(records, "json", buffer)
    return buffer.getvalue()


def bad_region_text() -> str:
    record = SweepRecord(*[1.5] * 8, OperationalRegion.OUT_TRANSFERS)
    doc = json.loads(json_text([record]))
    doc[0]["region"] = "NoSuchRegion"
    return json.dumps(doc)


#: Each call that returns records held as columns, and a call that makes it raise.
BUILDS = {
    "run_sweep": (lambda: run_sweep(REFERENCE)[0],
                  lambda: run_sweep(SweepSpec(t_low=1.0, theta_sq=5.0,
                                              rho_grid=(1e-300, 0.5),
                                              r_low=1e-7)),
                  InvalidRingError),
    "parse_records": (lambda: parse_records(json_text(run_sweep(REFERENCE)[0])),
                      lambda: parse_records(bad_region_text()),
                      ValueError),
}


@pytest.mark.parametrize("name", BUILDS)
@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(name, enabled, gc_state):
    succeeding, failing, error = BUILDS[name]
    (gc.enable if enabled else gc.disable)()
    succeeding()
    assert gc.isenabled() is enabled
    with pytest.raises(error):
        failing()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name", BUILDS)
def test_collector_is_paused_during_the_build(name, gc_state, monkeypatch):
    # The call holds columns; the records are built where the result is
    # indexed or iterated.
    states = []
    build = sweep._build

    def recording(*args):
        states.append(gc.isenabled())
        return build(*args)

    monkeypatch.setattr(sweep, "_build", recording)
    gc.enable()
    records = BUILDS[name][0]()
    assert states == []
    for use in (lambda: records[3], lambda: records[-1], lambda: list(records),
                lambda: records[::7]):
        use()
        assert states and not any(states)
        assert gc.isenabled()
        states.clear()
    gc.disable()
    list(records)
    assert states and not gc.isenabled()


RECORD = {"rho": 1.5, "alpha_sq": 2.25, "e_high": 1.0, "e_low": -0.5,
          "e_out": 0.5, "e_high_norm": 1.0, "e_low_norm": -0.5,
          "e_out_norm": 0.5, "region": "OutTransfers",
          "designs": [{"design": "QEN", "efficiency": 0.5, "carnot": 0.8}]}


@pytest.mark.parametrize("doc, message", [
    ({}, "must be a list"),
    ({"a": 1}, "must be a list"),
    ("x", "must be a list"),
    (1.5, "must be a list"),
    ([1], "record 0: type is int, not dict"),
    ([{}], "record 0: rho is missing"),
    ([RECORD, {k: v for k, v in RECORD.items() if k != "region"}],
     "record 1: region is missing"),
    ([RECORD, {**RECORD, "designs": None}], "record 1: designs is not a list"),
    ([{**RECORD, "designs": [RECORD["designs"][0], ["QEN"]]}],
     "record 0 design 1: type is list, not dict"),
    ([{**RECORD, "designs": [{"design": "QEN", "efficiency": 0.5}]}],
     "record 0 design 0: carnot is missing"),
])
def test_malformed_documents_raise_validation_error(doc, message):
    with pytest.raises(ValidationError, match=message):
        parse_records(json.dumps(doc))


def test_malformed_record_is_numbered_across_chunks(monkeypatch):
    monkeypatch.setattr(sweep, "_CHUNK", 2)
    doc = [RECORD] * 5 + [{**RECORD, "designs": [{}]}]
    with pytest.raises(ValidationError, match="record 5 design 0: design is missing"):
        parse_records(json.dumps(doc))
    assert len(parse_records(json.dumps([RECORD] * 5))) == 5


ENTRY = RECORD["designs"][0]


@pytest.mark.parametrize("doc, message", [
    ([{**RECORD, "rho": "x"}], "record 0: rho is not a number"),
    ([RECORD, {**RECORD, "e_high": None}], "record 1: e_high is not a number"),
    ([{**RECORD, "e_out_norm": True}], "record 0: e_out_norm is not a number"),
    ([{**RECORD, "alpha_sq": [2.25]}], "record 0: alpha_sq is not a number"),
    ([{**RECORD, "designs": [{**ENTRY, "efficiency": True}]}],
     "record 0 design 0: efficiency is not a number"),
    ([{**RECORD, "designs": [ENTRY, {**ENTRY, "carnot": "0.8"}]}],
     "record 0 design 1: carnot is not a number"),
    ([{**RECORD, "designs": ""}], "record 0: designs is not a list"),
])
def test_wrong_value_types_raise_validation_error(doc, message):
    with pytest.raises(ValidationError, match=message):
        parse_records(json.dumps(doc))


def test_the_first_fault_in_document_order_is_named():
    # An unknown region in record 0 is named before a missing key in record 5.
    doc = [{**RECORD, "region": "Bogus"}, *[RECORD] * 4,
           {k: v for k, v in RECORD.items() if k != "rho"}]
    with pytest.raises(ValidationError) as info:
        parse_records(json.dumps(doc))
    assert str(info.value) == "record 0: region is not in OperationalRegion, got 'Bogus'"
    with pytest.raises(ValidationError, match="^record 4: rho is missing$"):
        parse_records(json.dumps(doc[1:]))


def test_an_unknown_design_in_a_late_piece_names_its_record(monkeypatch):
    monkeypatch.setattr(sweep, "_PIECE", 1)
    late = {**RECORD, "designs": [ENTRY, {**ENTRY, "design": "QXX"}]}
    text = json.dumps([RECORD] * 6 + [late, RECORD], indent=2)
    with pytest.raises(ValidationError) as info:
        parse_records(text)
    assert str(info.value) == "record 6 design 1: design is not in QtmDesign, got 'QXX'"


def test_an_unhashable_region_names_its_record():
    with pytest.raises(ValidationError) as info:
        parse_records(json.dumps([RECORD, {**RECORD, "region": [1]}]))
    assert str(info.value) == "record 1: region is not in OperationalRegion, got [1]"


def test_big_integers_parse_as_the_floats_they_round_to():
    # orjson reads an integer literal outside [-2**63, 2**64) as the float
    # that float() makes of it, and one inside as an int that is then rounded.
    doc = [{**RECORD, "rho": 10**30, "e_high": 2**63 + 1,
            "designs": [{**ENTRY, "carnot": -(2**63) - 1}]}]
    (record,) = parse_records(json.dumps(doc))
    carnot = record.designs[0].carnot
    assert type(record.rho) is float and record.rho == float(10**30)
    assert type(record.e_high) is float and record.e_high == float(2**63 + 1)
    assert type(carnot) is float and carnot == float(-(2**63) - 1)


#: Integer literals past the 53-bit mantissa, up to the largest double.
BIG = st.integers(2**53, int(sys.float_info.max))


@given(st.lists(st.tuples(st.sampled_from(sweep._FLOAT_COLUMNS), BIG, st.booleans()),
                min_size=1, max_size=4), st.booleans())
def test_big_integer_literals_parse_as_float_of_the_int(cells, with_nan):
    # A NaN record sends the whole document to json.loads, which gives ints.
    doc = [{**RECORD, key: -n if negative else n} for key, n, negative in cells]
    doc += [{**RECORD, "e_low": math.nan}] if with_nan else []
    records = parse_records(json.dumps(doc))
    for record, (key, n, negative) in zip(records, cells):
        value = getattr(record, key)
        assert type(value) is float and value == float(-n if negative else n)


@pytest.mark.parametrize("doc, message", [
    ([{**RECORD, "rho": 10**400}], "record 0: rho is beyond the float range"),
    ([RECORD, {**RECORD, "designs": [ENTRY, {**ENTRY, "carnot": -(10**400)}]}],
     "record 1 design 1: carnot is beyond the float range"),
    ([RECORD] * 6 + [{**RECORD, "e_low": 10**400}, {**RECORD, "rho": "x"}],
     "record 6: e_low is beyond the float range"),
], ids=["record", "entry", "late"])
def test_an_integer_beyond_the_float_range_names_its_record_and_field(
    doc, message, monkeypatch
):
    monkeypatch.setattr(sweep, "_PIECE", 1)
    with pytest.raises(ValidationError, match=f"^{message}, got -?1000"):
        parse_records(json.dumps(doc, indent=2))


def test_an_error_quotes_a_big_integer_as_spelled():
    doc = [{**RECORD, "region": 10**20}]
    with pytest.raises(ValidationError, match="^record 0: region is not in "
                       "OperationalRegion, got 100000000000000000000$"):
        parse_records(json.dumps(doc))


def test_integer_values_parse_as_floats():
    doc = [{**RECORD, "rho": 2, "designs": [{**ENTRY, "carnot": 1}]}]
    (record,) = parse_records(json.dumps(doc))
    assert record.rho == 2.0 and type(record.rho) is float
    assert record.designs[0].carnot == 1.0 and type(record.designs[0].carnot) is float
    emit([record], "csv", io.StringIO())


def test_ints_and_non_finite_values_parse_and_re_emit_as_their_float64():
    doc = [{**RECORD, "rho": 1}, {**RECORD, "e_high": 2**63},
           {**RECORD, "designs": [{**ENTRY, "carnot": math.nan}]}, RECORD]
    text = json.dumps(doc, indent=2) + "\n"

    def numbers(records):
        return [v for r in records for v in (
            *(r[key] for key in sweep._FLOAT_COLUMNS),
            *(e[key] for e in r["designs"] for key in sweep._ENTRY_FLOATS))]

    records = parse_records(text)
    parsed = numbers(dataclasses.asdict(r) for r in records)
    assert all(type(v) is float for v in parsed)
    assert list(map(repr, parsed)) == [repr(float(v)) for v in numbers(json.loads(text))]
    floats = [{**RECORD, "rho": 1.0}, {**RECORD, "e_high": float(2**63)}, *doc[2:]]
    assert json_text(records) == json.dumps(floats, indent=2) + "\n"
    assert records[:] == records and records == parse_records(json_text(records))


GOLDEN = Path(__file__).parent / "data" / "reference_sweep.json"


@pytest.fixture
def pieces(monkeypatch):
    """Each text ``orjson.loads`` is given, in order."""
    import orjson
    seen = []
    loads = orjson.loads

    def spy(text):
        seen.append(text)
        return loads(text)

    monkeypatch.setattr(orjson, "loads", spy)
    return seen


def by_json_loads(text):
    """The records, or the error, of the whole document read by json.loads."""
    try:
        return sweep._records_in(json.loads(text))
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("size, count", [(1, 603), (1000, 300), (None, 3)])
def test_the_golden_json_round_trips_piece_by_piece(size, count, monkeypatch,
                                                    pieces):
    # A piece per record, about a thousand characters, and the default size.
    if size:
        monkeypatch.setattr(sweep, "_PIECE", size)
    text = GOLDEN.read_text(encoding="utf-8")
    assert json_text(parse_records(text)) == text
    assert len(pieces) == count


def test_no_piece_is_longer_than_its_size_and_one_record(monkeypatch, pieces):
    monkeypatch.setattr(sweep, "_PIECE", 1000)
    text = json_text(run_sweep(REFERENCE)[0])
    assert parse_records(text) == by_json_loads(text)
    longest = max(map(len, text.split(sweep._SEPARATOR)))
    assert len(pieces) > 100
    assert max(map(len, pieces)) <= 1000 + longest + len(sweep._SEPARATOR)


def test_a_document_in_another_layout_is_one_piece(pieces):
    text = json.dumps([RECORD] * 3)
    assert parse_records(text) == by_json_loads(text)
    assert pieces == [text]


def test_a_cut_inside_a_record_reads_the_whole_document(monkeypatch, pieces):
    # Design entries at the records' indent put a record separator inside a
    # designs list; the piece cut there does not parse.
    monkeypatch.setattr(sweep, "_PIECE", 1)
    two = {**RECORD, "designs": [ENTRY, {**ENTRY, "design": "QHP"}]}
    text = json.dumps([RECORD] * 3 + [two] * 3, indent=2).replace(
        "\n      },\n      {\n", sweep._SEPARATOR)
    assert text.count(sweep._SEPARATOR) == 5 + 3
    assert parse_records(text) == by_json_loads(text)
    assert len(pieces) == 4


def test_a_late_piece_orjson_cannot_read_reads_the_whole_document(monkeypatch,
                                                                  pieces):
    monkeypatch.setattr(sweep, "_PIECE", 1)
    text = json.dumps([RECORD] * 6 + [{**RECORD, "rho": math.nan}, RECORD], indent=2)
    records = parse_records(text)
    assert len(pieces) == 7  # one piece per record, up to the late one
    assert list(map(repr, records)) == list(map(repr, by_json_loads(text)))
    assert repr(records[6]) != repr(records[0])


@pytest.mark.parametrize("late", [
    {**RECORD, "e_high": 2**63},
    {**RECORD, "designs": [{**ENTRY, "carnot": -(2**64)}]},
], ids=["2**63", "-2**64"])
def test_a_late_piece_of_big_integers_is_read_by_orjson_alone(late, monkeypatch,
                                                             pieces, json_loads):
    monkeypatch.setattr(sweep, "_PIECE", 1)
    text = json.dumps([RECORD] * 6 + [late, RECORD], indent=2)
    records = parse_records(text)
    assert pieces == list(sweep._pieces(text)) and json_loads == []
    assert list(map(repr, records)) == list(map(repr, by_json_loads(text)))
    assert repr(records[6]) != repr(records[0])


@pytest.mark.parametrize("late", [
    {**RECORD, "designs": [{}]},
    {**RECORD, "rho": "x"},
    {**RECORD, "region": "NoSuchRegion"},
], ids=["design-key", "value-type", "region"])
def test_a_malformed_late_record_is_numbered_in_the_document(late, monkeypatch,
                                                            pieces):
    monkeypatch.setattr(sweep, "_PIECE", 1)
    text = json.dumps([RECORD] * 6 + [late, RECORD], indent=2)
    with pytest.raises(ValueError) as info:
        parse_records(text)
    assert len(pieces) == 7
    assert (type(info.value), str(info.value)) == by_json_loads(text)
    assert str(info.value).startswith(("record 6", "'NoSuchRegion'"))


@pytest.fixture
def json_loads(monkeypatch):
    """Each text ``json.loads`` is given, in order."""
    seen = []
    loads = json.loads

    def spy(text, *args, **kwargs):
        seen.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    return seen


@pytest.mark.parametrize("late", [
    {**RECORD, "rho": math.nan},
    {**RECORD, "e_low": -math.inf},
    {**RECORD, "designs": [{**ENTRY, "carnot": 12345.0}]},
], ids=["nan", "-inf", "1e400"])
def test_a_document_orjson_cannot_read_is_read_by_json_loads_piece_by_piece(
    late, monkeypatch, json_loads
):
    monkeypatch.setattr(sweep, "_PIECE", 1)
    # orjson rejects 1e400; json.loads reads it as inf.
    text = json.dumps([RECORD] * 6 + [late, RECORD], indent=2).replace("12345.0", "1e400")
    records = parse_records(text)
    assert json_loads == list(sweep._pieces(text))
    assert len(json_loads) == 8 and text not in json_loads
    assert list(map(repr, records)) == list(map(repr, by_json_loads(text)))


@pytest.mark.parametrize("late", [
    {**RECORD, "designs": [{}]},
    {**RECORD, "rho": "x"},
    {**RECORD, "region": "NoSuchRegion"},
], ids=["design-key", "value-type", "region"])
def test_a_malformed_late_record_reaches_the_whole_text_once(late, monkeypatch,
                                                             json_loads):
    monkeypatch.setattr(sweep, "_PIECE", 1)
    text = json.dumps([RECORD] * 6 + [late, RECORD], indent=2)
    with pytest.raises(ValueError):
        parse_records(text)
    # json.loads reads the pieces up to the bad one, then the whole text.
    assert json_loads == [*list(sweep._pieces(text))[:7], text]


@pytest.mark.parametrize("text", ["[]", "[\n]\n"])
def test_an_empty_document_is_read_by_orjson_alone(text, json_loads, pieces):
    assert parse_records(text) == []
    assert pieces == [text] and json_loads == []


@pytest.mark.parametrize("encode", [
    str.encode,
    lambda text: text.encode("utf-8-sig"),
    lambda text: text.encode("utf-16"),
    lambda text: text.encode("utf-16-le"),
    lambda text: bytearray(text.encode()),
], ids=["utf-8", "utf-8-bom", "utf-16", "utf-16-le", "bytearray"])
def test_bytes_are_decoded_as_json_loads_decodes_them(encode):
    text = GOLDEN.read_text(encoding="utf-8")
    data = encode(text)
    records = parse_records(data)
    assert records == sweep._records_in(json.loads(data))
    assert json_text(records) == text


@pytest.mark.parametrize("value", [None, 603, ["[]"], memoryview(b"[]")],
                         ids=["None", "int", "list", "memoryview"])
def test_any_other_type_raises_the_type_error_of_json_loads(value):
    with pytest.raises(TypeError) as expected:
        json.loads(value)
    with pytest.raises(TypeError) as info:
        parse_records(value)
    assert str(info.value) == str(expected.value)
