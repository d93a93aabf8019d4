"""Byte-for-byte CLI outputs and the exact public name set.

The files in ``tests/data`` hold the reference sweep (``t_low = 1``,
``theta_sq = 5``, ``r_low = 100 nm``, default grid) as records and curves, in
CSV and in JSON, and the ``bounds``/``table2`` tables at ``theta_sq = 5``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import qtmkit
from qtmkit import designs, errors, media, otto, parse_records, regions, sweep
from qtmkit.cli import main

DATA = Path(__file__).parent / "data"

PUBLIC_NAMES = {
    "__version__",
    # regions
    "ExchangeTriple", "OperationalRegion",
    "alpha_squared", "classify_region", "DEFAULT_CLASSIFY_TOL",
    # designs
    "QtmDesign", "EnergyRole", "CarnotLimitKind", "AlphaBounds",
    "admissible_designs", "efficiency", "carnot_efficiency", "alpha_bounds",
    "classical_otto_efficiency",
    # otto
    "LevelSpectrum", "TwoLevelMedium", "occupation", "otto_cycle_energies",
    "multilevel_exchange", "work_exchange",
    # media
    "PhysicalConstants", "CODATA",
    "ring_levels", "ring_medium", "gap_medium",
    # sweep
    "MediumKind", "SweepSpec", "SweepRecord",
    "DesignEfficiency", "BoundaryReport", "EfficiencyCurve", "CSV_COLUMNS",
    "default_rho_grid", "boundary_report",
    "run_sweep", "efficiency_curves", "emit", "emit_curves",
    "parse_records",
    # errors
    "QtmError", "ValidationError",
    "InvalidThetaError", "InvalidTemperatureError", "InvalidRhoError",
    "DegenerateExchangeError", "InvalidSignsError",
    "UnclassifiableExchangeError", "BoundaryRegionError", "OutOfRegionError",
    "SingularEfficiencyError", "DegenerateMediumError",
    "InvalidRingError", "InvalidGapError", "EmptyGridError", "EmitIOError",
}


def test_package_exports_exactly_the_module_lists():
    modules = (regions, designs, otto, media, sweep, errors)
    union = {"__version__"}.union(*(m.__all__ for m in modules))
    assert len(qtmkit.__all__) == len(set(qtmkit.__all__)) == 56
    assert set(qtmkit.__all__) == union == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(qtmkit, name)


def test_every_benchmark_trace_binding_resolves():
    # perfbench/tracing.py wraps these module attributes by name, each under
    # the span of the layer that defines the function bound there.
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, span in tracing.BINDINGS:
        bound = getattr(importlib.import_module(module_name), attr)
        layer, name = span.rsplit(".", 1)
        assert bound is getattr(importlib.import_module(f"qtmkit.{layer}"), name)
        assert callable(bound)


def test_reference_sweep_records_and_curves(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QTM_CONSTANTS", raising=False)
    config = tmp_path / "ref.json"
    config.write_text(json.dumps({"t_low": 1, "theta_sq": 5, "r_low": 1e-7}))
    records, curves = tmp_path / "sweep.csv", tmp_path / "curves.csv"
    assert main(["sweep", "--config", str(config), "--out", str(records),
                 "--curves-out", str(curves)]) == 0
    capsys.readouterr()
    assert records.read_bytes() == (DATA / "reference_sweep.csv").read_bytes()
    assert curves.read_bytes() == (DATA / "reference_curves.csv").read_bytes()


@pytest.fixture
def reference_config(tmp_path, monkeypatch):
    monkeypatch.delenv("QTM_CONSTANTS", raising=False)
    config = tmp_path / "ref.json"
    config.write_text(json.dumps({"t_low": 1, "theta_sq": 5, "r_low": 1e-7}))
    return str(config)


def test_reference_sweep_records_and_curves_json(tmp_path, capsys,
                                                 reference_config):
    records, curves = tmp_path / "sweep.json", tmp_path / "curves.json"
    assert main(["sweep", "--config", reference_config, "--format", "json",
                 "--out", str(records), "--curves-out", str(curves)]) == 0
    capsys.readouterr()
    assert records.read_bytes() == (DATA / "reference_sweep.json").read_bytes()
    assert curves.read_bytes() == (DATA / "reference_curves.json").read_bytes()


@pytest.mark.parametrize("format", ["csv", "json"])
def test_records_to_stdout_come_without_the_summary(capsys, reference_config,
                                                    format):
    assert main(["sweep", "--config", reference_config, "--format", format,
                 "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / f"reference_sweep.{format}").read_bytes()
    if format == "json":
        assert len(parse_records(out)) == 603


def test_curves_to_stdout_come_without_the_summary(tmp_path, capsys,
                                                   reference_config):
    assert main(["sweep", "--config", reference_config, "--out",
                 str(tmp_path / "sweep.csv"), "--curves-out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / "reference_curves.csv").read_bytes()


@pytest.mark.parametrize("command, expected", [
    ("bounds", "bounds_theta5.txt"),
    ("table2", "table2_theta5.txt"),
])
def test_tables_at_theta_five(capsys, command, expected):
    assert main([command, "--theta-sq", "5"]) == 0
    out = capsys.readouterr().out.encode()
    assert out == (DATA / expected).read_bytes()
