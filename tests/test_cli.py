import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtmkit
from qtmkit import parse_records
from qtmkit.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(*args, capsys=None):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_out_transfers_example(self, capsys):
        code, out, _ = run_cli(
            "classify", "--e-high", "2", "--e-low", "-1", "--theta-sq", "5",
            capsys=capsys,
        )
        assert code == 0
        assert "region: OutTransfers" in out
        assert "alpha_sq: 2" in out
        assert "designs: QEN, QLL" in out

    def test_boundary(self, capsys):
        code, out, _ = run_cli(
            "classify", "--e-high", "1", "--e-low", "-1", "--theta-sq", "5",
            capsys=capsys,
        )
        assert code == 0
        assert "Boundary2AcqOutT" in out
        assert "boundary" in out

    @pytest.mark.parametrize("e_high, e_low, theta_sq, region, alpha_sq", [
        ("2", "-1e-3", "5e3", "OutTransfers", "2000"),
        ("-2E+1", "1", "5", "Pumpers", "20"),
        ("2", "-.5e0", "5", "OutTransfers", "4"),
    ])
    def test_negative_exponent_notation_is_a_value(self, capsys, e_high, e_low,
                                                   theta_sq, region, alpha_sq):
        code, out, _ = run_cli(
            "classify", "--e-high", e_high, "--e-low", e_low,
            "--theta-sq", theta_sq, capsys=capsys,
        )
        assert code == 0
        assert f"region: {region}\n" in out
        assert f"alpha_sq: {alpha_sq}\n" in out

    def test_overflowing_ratio_prints_its_region(self, capsys):
        code, out, err = run_cli(
            "classify", "--e-high=-1e300", "--e-low", "1e-300", "--theta-sq",
            "5", capsys=capsys,
        )
        assert (code, err) == (0, "")
        assert "region: Pumpers\n" in out
        assert "alpha_sq: inf\n" in out
        assert "designs: QRE, QHP" in out

    def test_inadmissible_pattern_exits_one(self, capsys):
        code, _, err = run_cli(
            "classify", "--e-high", "1", "--e-low", "2", "--theta-sq", "5",
            capsys=capsys,
        )
        assert code == 1
        assert "error" in err


class TestEfficiency:
    def test_with_carnot(self, capsys):
        code, out, _ = run_cli(
            "efficiency", "--design", "QEN", "--alpha-sq", "2",
            "--theta-sq", "5", capsys=capsys,
        )
        assert code == 0
        assert "efficiency: 0.5" in out
        assert "carnot: 0.8" in out

    def test_without_carnot(self, capsys):
        code, out, _ = run_cli(
            "efficiency", "--design", "QLL", "--alpha-sq", "2", capsys=capsys
        )
        assert code == 0
        assert "efficiency: 0.5" in out
        assert "carnot" not in out

    def test_out_of_region_exits_one(self, capsys):
        code, _, err = run_cli(
            "efficiency", "--design", "QEN", "--alpha-sq", "0.5",
            capsys=capsys,
        )
        assert code == 1
        assert "alpha_sq" in err

    def test_invalid_theta_prints_nothing(self, capsys):
        code, out, err = run_cli(
            "efficiency", "--design", "QEN", "--alpha-sq", "2",
            "--theta-sq", "1", capsys=capsys,
        )
        assert (code, out) == (1, "")
        assert "theta_sq" in err

    def test_unknown_design_exits_one(self, capsys):
        code, _, _ = run_cli(
            "efficiency", "--design", "XXX", "--alpha-sq", "2", capsys=capsys
        )
        assert code == 1


class TestBounds:
    def test_catalog(self, capsys):
        code, out, _ = run_cli("bounds", "--theta-sq", "5", capsys=capsys)
        assert code == 0
        for name in ("QCO", "QHT", "QDP", "QHO", "QEN", "QLL", "QRE", "QHP"):
            assert name in out
        assert "minimum" in out  # the one floored design
        assert out.count("maximum") == 7
        assert "0.8" in out  # engine carnot at theta_sq = 5

    def test_invalid_theta(self, capsys):
        code, _, err = run_cli("bounds", "--theta-sq", "1", capsys=capsys)
        assert code == 1

    def test_theta_below_one_prints_nothing(self, capsys):
        code, out, err = run_cli("bounds", "--theta-sq", "0.5", capsys=capsys)
        assert (code, out) == (1, "")
        assert "theta_sq" in err


class TestTable2:
    def test_machine_rounding(self, capsys):
        code, out, _ = run_cli("table2", "--theta-sq", "5", capsys=capsys)
        assert code == 0
        assert "0.447214" in out
        assert "1.000000" in out
        assert "2.236068" in out
        assert "reconstructed" in out

    def test_paper_style_rounding(self, capsys):
        code, out, _ = run_cli(
            "table2", "--theta-sq", "5", "--paper-style", capsys=capsys
        )
        assert code == 0
        assert "0.45" in out
        assert "2.24" in out


@pytest.mark.parametrize("args", [
    ("classify", "--e-high", "2", "--e-low", "-1", "--theta-sq", "5"),
    ("efficiency", "--design", "QEN", "--alpha-sq", "2", "--theta-sq", "5"),
    ("bounds", "--theta-sq", "5"),
    ("table2", "--theta-sq", "5"),
], ids=lambda args: args[0])
def test_only_sweep_reads_the_constants_variable(args, capsys, monkeypatch):
    monkeypatch.delenv("QTM_CONSTANTS", raising=False)
    unset = run_cli(*args, capsys=capsys)
    monkeypatch.setenv("QTM_CONSTANTS", "constants.json")
    assert run_cli(*args, capsys=capsys) == unset
    assert unset[0] == 0


@pytest.fixture
def ring_config(tmp_path):
    config = {
        "t_low": 1.0,
        "theta_sq": 5.0,
        "r_low": 100e-9,
        "rho_grid": [0.3, 0.8, 1.5, 2.6],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    return path


class TestSweep:
    def test_csv_to_file(self, ring_config, tmp_path, capsys):
        out_path = tmp_path / "records.csv"
        code, out, _ = run_cli(
            "sweep", "--config", str(ring_config), "--out", str(out_path),
            capsys=capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 5
        assert "wrote 4 records" in out
        assert "boundaries (rho): 0.447214, 1.000000, 2.236068" in out

    def test_json_to_stdout_round_trips(self, ring_config, capsys):
        code, out, _ = run_cli(
            "sweep", "--config", str(ring_config), "--format", "json",
            capsys=capsys,
        )
        assert code == 0
        records = parse_records(out)
        assert len(records) == 4
        assert records[2].region.value == "OutTransfers"

    def test_curves_output(self, ring_config, tmp_path, capsys):
        curves_path = tmp_path / "curves.csv"
        out_path = tmp_path / "records.csv"
        code, _, _ = run_cli(
            "sweep", "--config", str(ring_config), "--out", str(out_path),
            "--curves-out", str(curves_path), capsys=capsys,
        )
        assert code == 0
        text = curves_path.read_text()
        assert text.startswith("design,rho,efficiency,carnot,carnot_limit")
        assert "QEN,1.5," in text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("out", [[], ["--out", "-"]])
    def test_records_and_curves_cannot_share_stdout(self, ring_config, fmt,
                                                    out, capsys, monkeypatch):
        def unrequested(spec, constants):
            raise AssertionError("sweep ran although its outputs collide")

        monkeypatch.setattr("qtmkit.cli.run_sweep", unrequested)
        code, stdout, err = run_cli(
            "sweep", "--config", str(ring_config), "--format", fmt, *out,
            "--curves-out", "-", capsys=capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("qtmkit: error:")
        assert "--out" in err and "--curves-out" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_curves_to_stdout_with_records_to_file(self, ring_config, fmt,
                                                   tmp_path, capsys):
        out_path = tmp_path / f"records.{fmt}"
        code, out, _ = run_cli(
            "sweep", "--config", str(ring_config), "--format", fmt,
            "--out", str(out_path), "--curves-out", "-", capsys=capsys,
        )
        assert code == 0
        if fmt == "json":
            assert len(parse_records(out_path.read_text())) == 4
            assert "QEN" in json.loads(out)
        else:
            assert len(out_path.read_text().splitlines()) == 5
            assert out.startswith("design,rho,efficiency,carnot,carnot_limit")

    def test_curves_are_computed_only_when_written(self, ring_config, tmp_path,
                                                   capsys, monkeypatch):
        def unrequested(spec):
            raise AssertionError("efficiency curves computed without --curves-out")

        monkeypatch.setattr("qtmkit.cli.efficiency_curves", unrequested)
        code, _, _ = run_cli(
            "sweep", "--config", str(ring_config), "--out",
            str(tmp_path / "records.csv"), capsys=capsys,
        )
        assert code == 0

    def test_a_frozen_out_ring_exits_one_naming_rho_and_b_low(self, tmp_path, capsys):
        # the reference ring at r_low = 1 nm freezes out from rho ~ 1.63 on
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"t_low": 1, "theta_sq": 5, "r_low": 1e-9}))
        out_path = tmp_path / "records.csv"
        code, out, err = run_cli("sweep", "--config", str(path), "--out",
                                 str(out_path), capsys=capsys)
        assert (code, out, out_path.exists()) == (1, "", False)
        assert "at rho=1.6259599332220367: cycle energies vanished" in err
        assert "b_low = 1326 and b_high = 701.3" in err

    def test_the_removed_normalization_key_exits_one_naming_it(self, tmp_path, capsys):
        # The normalized columns always share the sweep's largest |E|.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"t_low": 1, "theta_sq": 5, "r_low": 1e-7,
                                    "normalization": "none"}))
        out_path = tmp_path / "records.csv"
        code, out, err = run_cli("sweep", "--config", str(path), "--out",
                                 str(out_path), capsys=capsys)
        assert (code, out, out_path.exists()) == (1, "", False)
        assert err == f"qtmkit: error: unknown config keys in {path}: normalization\n"

    def test_default_grid_when_config_omits_it(self, tmp_path, capsys):
        config = {"t_low": 1.0, "theta_sq": 5.0, "r_low": 100e-9}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        out_path = tmp_path / "records.csv"
        code, out, _ = run_cli(
            "sweep", "--config", str(path), "--out", str(out_path),
            capsys=capsys,
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) >= 601

    def test_constants_override_in_config(self, tmp_path, capsys):
        # reduced units in the config: gap of order one against k_B = 1
        config = {
            "t_low": 1.0,
            "theta_sq": 5.0,
            "medium_kind": "generic_gap",
            "gap_low": 1.0,
            "rho_grid": [1.5],
            "hbar": 1.0,
            "boltzmann_k": 1.0,
            "electron_mass": 1.0,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(
            "sweep", "--config", str(path), "--format", "json", capsys=capsys
        )
        assert code == 0
        (record,) = parse_records(out)
        assert record.e_high > 0.01  # reduced-unit scale, not joules

    @pytest.mark.parametrize("override", [
        {"hbar": 2 * qtmkit.CODATA.hbar},
        {"electron_mass": qtmkit.CODATA.electron_mass / 4},
    ], ids=["hbar", "electron_mass"])
    def test_a_config_constant_reaches_a_ring_sweep_exactly(self, tmp_path,
                                                            capsys, override):
        # Ring levels go as hbar**2 / m, so either override quadruples them;
        # a quadrupled t_low keeps every Boltzmann exponent bit-identical.
        def sweep(**config):
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps({"theta_sq": 5, "r_low": 1e-7, **config}))
            code, out, _ = run_cli("sweep", "--config", str(path), "--format",
                                   "json", capsys=capsys)
            assert code == 0
            return parse_records(out)

        reference, scaled = sweep(t_low=1.0), sweep(t_low=4.0, **override)
        assert len(scaled) == len(reference) == 603
        for ref, rec in zip(reference, scaled):
            assert (rec.e_high, rec.e_low, rec.e_out) == (
                4 * ref.e_high, 4 * ref.e_low, 4 * ref.e_out)
            same = ("rho", "alpha_sq", "e_high_norm", "e_low_norm",
                    "e_out_norm", "region", "designs")
            assert [getattr(rec, f) for f in same] == [getattr(ref, f) for f in same]

    def test_the_removed_constants_file_exits_one_naming_the_config_keys(
            self, ring_config, tmp_path, capsys, monkeypatch):
        # QTM_CONSTANTS once named a JSON file of constants; only the config
        # sets them now, and a set variable must not fall back to CODATA.
        constants = tmp_path / "constants.json"
        constants.write_text(json.dumps({"hbar": 2.109143634e-34}))
        monkeypatch.setenv("QTM_CONSTANTS", str(constants))
        records, curves = tmp_path / "records.csv", tmp_path / "curves.csv"
        code, out, err = run_cli(
            "sweep", "--config", str(ring_config), "--out", str(records),
            "--curves-out", str(curves), capsys=capsys,
        )
        assert (code, out, records.exists(), curves.exists()) == (1, "", False, False)
        assert err == ("qtmkit: error: QTM_CONSTANTS is no longer read; set "
                       "hbar, boltzmann_k, electron_mass in the sweep config "
                       "instead\n")

    def test_an_empty_constants_variable_is_ignored(self, ring_config, capsys,
                                                    monkeypatch):
        monkeypatch.delenv("QTM_CONSTANTS", raising=False)
        unset = run_cli("sweep", "--config", str(ring_config), capsys=capsys)
        monkeypatch.setenv("QTM_CONSTANTS", "")
        assert run_cli("sweep", "--config", str(ring_config),
                       capsys=capsys) == unset
        assert unset[0] == 0

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"t_low": 1.0, "theta_sq": 5.0,
                                    "r_low": 1e-7, "tlow": 2.0}))
        code, _, err = run_cli("sweep", "--config", str(path), capsys=capsys)
        assert code == 1
        assert "tlow" in err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            "sweep", "--config", str(tmp_path / "nope.json"), capsys=capsys
        )
        assert code == 2
        assert "nope.json" in err

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"],
                             ids=["malformed", "not-utf-8"])
    def test_malformed_json_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run_cli("sweep", "--config", str(path), capsys=capsys)
        assert code == 1
        assert f"qtmkit: error: {path} is not valid JSON: " in err

    @pytest.mark.parametrize("doc", ["[1, 2]", '"t_low"', "5"])
    def test_config_that_is_not_an_object_exits_one(self, tmp_path, capsys,
                                                    doc):
        path = tmp_path / "sweep.json"
        path.write_text(doc)
        code, out, err = run_cli("sweep", "--config", str(path), capsys=capsys)
        assert (code, out) == (1, "")
        assert err == f"qtmkit: error: {path} must contain a JSON object\n"

    @pytest.mark.parametrize("config", [{"theta_sq": 5.0, "r_low": 1e-7},
                                        {"t_low": 1.0, "r_low": 1e-7}])
    def test_config_without_a_temperature_exits_one(self, tmp_path, capsys,
                                                    config):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli("sweep", "--config", str(path), capsys=capsys)
        assert (code, out) == (1, "")
        assert err == f"qtmkit: error: {path} must define t_low and theta_sq\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("spelling", ["same", "dot-slash", "parent-dir"])
    def test_records_and_curves_cannot_share_a_file(self, ring_config, fmt,
                                                    spelling, tmp_path,
                                                    monkeypatch, capsys):
        def unrequested(spec, constants):
            raise AssertionError("sweep ran although its outputs collide")

        monkeypatch.setattr("qtmkit.cli.run_sweep", unrequested)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        curves = {"same": "same.out", "dot-slash": "./same.out",
                  "parent-dir": "sub/../same.out"}[spelling]
        code, out, err = run_cli(
            "sweep", "--config", str(ring_config), "--format", fmt,
            "--out", "same.out", "--curves-out", curves, capsys=capsys,
        )
        assert (code, out) == (1, "")
        assert err.startswith("qtmkit: error: --out and --curves-out")
        assert "same.out" in err
        assert not (tmp_path / "same.out").exists()

    def test_unwritable_output_exits_two(self, ring_config, capsys):
        code, _, err = run_cli(
            "sweep", "--config", str(ring_config), "--out",
            "/no/such/dir/records.csv", capsys=capsys,
        )
        assert code == 2
        assert "records.csv" in err


class TestParsing:
    def test_missing_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys=capsys)
        assert code == 1

    def test_unknown_argument_exits_one(self, capsys):
        code, _, _ = run_cli("table2", "--theta", "5", capsys=capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli("--help", capsys=capsys)
        assert code == 0
        assert "classify" in out


def python(*args):
    """Run the interpreter on ``args`` with this qtmkit importable."""
    src = str(Path(qtmkit.__file__).parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)


class TestConsoleEntry:
    """``run()``, the console script and ``python -m qtmkit.cli``."""

    def test_the_collector_is_frozen_before_exit(self):
        result = python("-c", "\n".join([
            "import atexit, gc, sys",
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))",
            "sys.argv[1:] = ['table2', '--theta-sq', '5']",
            "from qtmkit.cli import run",
            "run()",
        ]))
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (DATA / "table2_theta5.txt").read_bytes() + b"True\n"

    def test_main_leaves_the_collector_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert main(["table2", "--theta-sq", "5"]) == 0
        assert gc.get_freeze_count() == before

    def test_sweep_json_on_stdout_is_the_golden(self, tmp_path):
        config = tmp_path / "ref.json"
        config.write_text(json.dumps({"t_low": 1, "theta_sq": 5, "r_low": 1e-7}))
        result = python("-W", "error::ResourceWarning", "-m", "qtmkit.cli",
                        "sweep", "--config", str(config), "--out", "-",
                        "--format", "json")
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (DATA / "reference_sweep.json").read_bytes()

    @pytest.mark.parametrize("args, code, message", [
        (["table2", "--theta-sq", "0.5"], 1, b"qtmkit: error: theta_sq"),
        (["sweep", "--config", "no-such-config.json"], 2,
         b"qtmkit: i/o error: cannot read no-such-config.json"),
    ], ids=["bad-theta-sq", "missing-config"])
    def test_a_failure_keeps_its_exit_code(self, args, code, message, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = python("-W", "error::ResourceWarning", "-m", "qtmkit.cli",
                        *args)
        assert (result.returncode, result.stdout) == (code, b"")
        assert result.stderr.startswith(message)
        assert result.stderr.count(b"\n") == 1
