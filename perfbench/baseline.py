"""Run every workload over several seeds and record the baseline.

    python3 perfbench/baseline.py [--out FILE]

For each workload of ``BENCHMARK.json`` this makes ``RUNS`` untraced runs of
``run.py`` (seeds 1, 2, ...) for its ``run_seconds``, and one traced run.  For
every end-to-end metric it prints the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound, and it
writes all of it, with the environment, to ``--out`` (default
``perfbench/BASELINE.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10

NOTE = (
    "Measured on a shared 2-vCPU VM: other jobs' load moves the timings. The "
    "box runs in two speed modes that switch every few seconds: a scalar_mix "
    "query takes about 27 us in one and 44 us in the other, and a bare Python "
    "loop varies up to 1.7x between windows of a few seconds. setup_s, mostly "
    "the numpy import, moved from about 0.09 s to 0.17 s between batches of "
    "runs twenty minutes apart. Compare runs made in alternating pairs, not "
    "batches taken at different times."
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"report": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def environment() -> dict:
    import numpy
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"environment": environment(), "note": NOTE,
           "run_seconds": bench["run_seconds"], "runs": RUNS,
           "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, bench["run_seconds"], 0)
                for seed in range(1, RUNS + 1)]
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = dict(spread(values), bound=bound, values=values)
            print(f"{workload:14} {name:14} median {summary[name]['median']:.6g} "
                  f"spread {summary[name]['spread']:.4f} bound {bound}",
                  flush=True)
        traced = run(workload, 1, bench["run_seconds"], 1)
        doc["workloads"][workload] = {
            "end_to_end": summary,
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "runs": [r["report"]["metrics"] for r in runs],
            "per_layer": traced["report"]["metrics"],
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
