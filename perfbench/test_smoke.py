"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, and
that the checker counts planted wrong answers as failures.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(name, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    proc = run_bench(name, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report, result = (json.loads(line) for line in proc.stdout.strip().splitlines())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    # The report line names the rest (p90, failed_ratio, sweep stages).
    for got in report["metrics"].values():
        assert set(got) == {"value", "unit"} and got["unit"]
    assert {m["name"] for m in wanted} <= set(report["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_bench("scalar_mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def ring():
    state, _ = workload.setup("ring_dense", workload.TINY)
    bench = workload.RingDense(state["spec"], workload.TINY)
    elapsed, outputs = bench.timed_op()
    return bench, outputs


def test_ring_outputs_pass(ring):
    bench, outputs = ring
    kind, worst = bench.check(outputs, 7)
    assert kind == ""
    assert 0.0 < worst < 1e-10


def test_planted_flipped_region_is_counted(ring):
    bench, outputs = ring
    table, _, _ = workload.rows_table(list(workload.record_rows(outputs[0])))
    mid = len(table["region"]) // 2
    assert oracle.problems(table, workload.THETA_SQ)[mid] == ""
    table["region"][mid] = "Pumpers" if table["region"][mid] != "Pumpers" else "OutTransfers"
    kinds = oracle.problems(table, workload.THETA_SQ)
    assert kinds[mid] == "wrong_region"
    assert sum(k != "" for k in kinds) == 1


def test_planted_perturbed_energy_is_counted(ring):
    bench, outputs = ring
    records = outputs[0]
    table, _, rho = workload.rows_table(list(workload.record_rows(records)))
    i = len(records) // 3
    table["e_high"][i] *= 1 + 1e-6
    assert oracle.problems(table, workload.THETA_SQ)[i] == "wrong_energy"
    # Scaling both energies keeps every identity; the mpmath oracle still
    # catches it.
    exact = oracle.ring_energies(rho[i], workload.R_LOW, workload.T_LOW,
                                 workload.THETA_SQ)
    r = records[i]
    assert oracle.energy_ok(r.e_high, r.e_low, exact, r.alpha_sq, workload.THETA_SQ)
    assert not oracle.energy_ok(r.e_high * (1 + 1e-6), r.e_low * (1 + 1e-6),
                                exact, r.alpha_sq, workload.THETA_SQ)


def test_planted_json_mismatch_is_counted(ring):
    bench, (records, curves, text, parsed) = ring
    broken = list(parsed)
    broken[1] = broken[2]
    kind, _ = bench.check((records, curves, text, broken), 7)
    assert kind == "json_roundtrip"


def test_scalar_checker_counts_raises_and_wrong_answers():
    workload.setup("scalar_mix", workload.TINY)
    bench = workload.ScalarMix()
    queries = [(5.0, 1.0, 2.0), (5.0, 1.0, 0.1), (5.0, 1.0, 7.0)]
    outcomes = [bench.safe_query(q) for q in queries]
    assert bench.check(queries, outcomes) == ["", "", ""]

    flipped = outcomes[0][:3] + ("Pumpers",) + outcomes[0][4:]
    raised = ("raised", "DegenerateExchangeError")
    entries = list(outcomes[2][4])
    entries[0] = (entries[0][0], entries[0][1] * 1.001) + entries[0][2:]
    wrong_eff = outcomes[2][:4] + (tuple(entries),)
    kinds = bench.check(queries, [flipped, raised, wrong_eff])
    assert kinds == ["wrong_region", "raised_DegenerateExchangeError",
                     "wrong_design"]

    result = workload._result([1e-5] * 3, kinds, 1, {})
    assert result["failed"] == 3
    assert result["correct"] is False
    # A raised query is a wrong answer too.
    result = workload._result([1e-5] * 2, ["", kinds[1]], 1, {})
    assert result["failed"] == 1
    assert result["correct"] is False


def test_high_temp_probe_reports_the_spurious_raises():
    workload.setup("scalar_mix", workload.TINY)
    bench = workload.ScalarMix()
    probe = bench.high_temp_probe(7, 512)
    assert probe == bench.high_temp_probe(7, 512)
    assert probe["attempted"] == 512
    # Its failures are counted, not fatal: each is classify_region raising
    # on a cycle whose exchanges came out exactly 0.
    assert set(probe["failed_by_kind"]) <= {"raised_DegenerateExchangeError"}
    assert probe["degenerate_ratio"] == probe["failed_ratio"]


class NoSetups:
    def poll(self, busy):
        pass


def test_a_raised_ring_op_is_a_wrong_answer(monkeypatch):
    def planted(self):
        raise RuntimeError("planted")

    monkeypatch.setattr(workload.RingDense, "op", planted)
    result = workload.measure_ring(7, 0.0, workload.TINY, NoSetups())
    assert result["attempted"] == result["failed"] == 1
    assert result["correct"] is False


def test_a_failing_cli_op_is_a_wrong_answer(monkeypatch):
    # The CLI exits non-zero on a config without the required keys.
    monkeypatch.setattr(workload, "REF_CONFIG", {"theta_sq": 5})
    result = workload.measure_cli(7, 0.0, workload.TINY, NoSetups())
    assert result["attempted"] == result["failed"] == 1
    assert result["failed_by_kind"] == {"raised": 1}
    assert result["correct"] is False
    assert result["peak_rss_mb"] > 0
