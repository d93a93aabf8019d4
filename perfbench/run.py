"""qtmkit benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src`` (there is
nothing to build).  Each workload runs in its own fresh process
(``workload.py``); this script only starts those processes and reports.

``--trace 0`` reports the end-to-end metrics of an untraced closed loop with
one client.  ``setup_s`` is the median over fresh processes timed between
the loop's ops, each timing ``import qtmkit`` plus building the workload's
specs and grids.
``--trace 1`` reports the per-layer metrics of a separate traced run, plus the
import breakdown taken with ``python -X importtime``.  Metrics that a
workload does not exercise are reported as 0.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each a value with its unit).  The line before it
is the full report, with sample counts, the 90th percentile where ten samples
lie beyond it, failures by kind and the raw span summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import KERNEL_SPANS, MEDIA_SPANS  # noqa: E402
from workload import WORKLOADS, child_env  # noqa: E402

#: End-to-end metrics of the result line.  The latency percentiles are in the
#: report line only: a ``scalar_mix`` query takes about 27 us or 44 us as the
#: shared box switches speed, so the median flips between the two from run to
#: run (quartile spread 0.41 over five seeds), while the throughput averages
#: them.
END_TO_END = {
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics every workload measures.  ``import.*`` and ``cli.*``
#: time the start-up path, which does not depend on the workload, so every
#: traced run measures them on the reference config.
PER_LAYER = {
    "import.interpreter_s": "s",
    "import.numpy_s": "s",
    "import.qtmkit_s": "s",
    "cli.main_s": "s",
    "cli.startup_s": "s",
    "cli.output_bytes": "bytes",
    "media.calls": "count",
    "media.s": "s",
    **{f"{name}.{kind}": unit for name in KERNEL_SPANS
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "otto.degenerate_ratio": "ratio",
    "otto.e_high_rel_err_max": "ratio",
    "regions.boundary_points": "count",
    "sweep.py_calls_per_point": "calls/point",
    "sweep.spec_build.s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}

#: Per-layer metrics of code only some workloads run (0 elsewhere); they are
#: in the report line, not the result.
PER_LAYER_REPORTED = {
    **{f"{name}.{kind}": unit for name in MEDIA_SPANS
       for kind, unit in (("calls", "count"), ("s", "s"))},
    "sweep.run_sweep.s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.run_sweep.us_per_point": "us/point",
    "sweep.efficiency_curves.s": "s",
    "sweep.emit_csv.s": "s",
    "sweep.emit_csv.bytes": "bytes",
    "sweep.emit_curves.s": "s",
    "sweep.emit_json.s": "s",
    "sweep.emit_json.bytes": "bytes",
    "sweep.parse_records.s": "s",
    "otto.high_temp_failed_ratio": "ratio",
    "trace.wall_diff_s": "s",
    "trace.span_cost_s": "s",
}

IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def run_child(args: list, tiny: bool) -> dict:
    """Run ``workload.py`` in a fresh interpreter and parse its JSON line."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _wall(cmd: list) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return time.perf_counter() - t0, proc.stderr


def import_times() -> dict:
    """Bare interpreter start, and numpy's and qtmkit's own import times from
    ``-X importtime`` (qtmkit's cumulative time minus numpy's)."""
    interpreter, numpy_s, qtmkit_s = [], [], []
    for _ in range(IMPORT_SAMPLES):
        interpreter.append(_wall([sys.executable, "-c", "pass"])[0])
        _, log = _wall([sys.executable, "-X", "importtime", "-c", "import qtmkit"])
        cumulative = {}
        for line in log.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e6
                except ValueError:  # the header line
                    continue
        numpy_s.append(cumulative["numpy"])
        qtmkit_s.append(cumulative["qtmkit"] - cumulative["numpy"])
    return {
        "import.interpreter_s": statistics.median(interpreter),
        "import.numpy_s": statistics.median(numpy_s),
        "import.qtmkit_s": statistics.median(qtmkit_s),
    }


def end_to_end(args) -> tuple[dict, dict]:
    # An untimed warm-up set-up leaves the bytecode and page caches as a
    # user's second run finds them; the measure process then times fresh
    # set-up processes between its ops.
    run_child(["setup", args.workload], args.tiny)
    result = run_child(["measure", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds)], args.tiny)
    latency = result["latency_s"]
    values = {
        "points_per_s": result["points_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setup_s_samples"]),
    }
    named = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    named["latency_s_p50"] = {"value": latency["p50"], "unit": "s"}
    named["latency_s_n"] = {"value": latency["n"], "unit": "count"}
    if "p90" in latency:
        named["latency_s_p90"] = {"value": latency["p90"], "unit": "s"}
    named["failed_ratio"] = {"value": result["failed"] / result["attempted"],
                             "unit": "ratio"}
    if "high_temp" in result:
        named["high_temp.failed_ratio"] = {
            "value": result["high_temp"]["failed_ratio"], "unit": "ratio"}
    report = dict(result, metrics=named)
    return values, report


def per_layer(args) -> tuple[dict, dict]:
    result = run_child(["trace", args.workload, "--seed", str(args.seed)],
                       args.tiny)
    measured = dict(result["metrics"], **import_times())
    values = {name: measured.get(name, 0) for name in PER_LAYER}
    named = {name: {"value": measured.get(name, 0), "unit": unit}
             for name, unit in {**PER_LAYER, **PER_LAYER_REPORTED}.items()}
    return values, dict(result, metrics=named, raw=measured)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qtmkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark's")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtmkit" / "__init__.py").is_file():
        print(f"qtmkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = PER_LAYER if args.trace else END_TO_END
    values, report = (per_layer if args.trace else end_to_end)(args)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **report}))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
