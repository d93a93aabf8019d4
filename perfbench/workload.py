"""One benchmark workload, run in its own process by ``run.py``.

    python3 perfbench/workload.py setup   <workload>
    python3 perfbench/workload.py measure <workload> --seed N --seconds S
    python3 perfbench/workload.py trace   <workload> --seed N

``src`` must be on ``PYTHONPATH``.  Each mode prints one JSON object.

* ``setup`` times ``import qtmkit`` plus building the workload's specs and
  grids through the public API, in a fresh interpreter.
* ``measure`` runs a closed loop with one client until the summed op time
  reaches ``--seconds`` (at least one op), timing each op, then checks every
  op's output against the oracle in ``oracle.py``.  Between ops it times
  fresh ``setup`` processes, spread evenly over the loop.
* ``trace`` runs a fixed set of ops three ways -- untraced, traced with
  ``tracing.py`` spans, and under ``cProfile`` for call counts -- and reports
  layer times, counts and bytes.  Its inputs do not depend on ``--seed``
  (only the oracle sample and the high-temperature probe do), so counts
  repeat across runs and seeds.

Nothing from qtmkit, numpy or the oracle is imported at module level, so
``setup`` measures a cold ``import qtmkit``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import csv
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"

WORKLOADS = ("cli_reference", "ring_dense", "scalar_mix")

# The paper's ring case.
THETA_SQ = 5.0
R_LOW = 1e-7
T_LOW = 1.0
REF_CONFIG = {"t_low": 1, "theta_sq": 5, "r_low": 1e-7}

#: Inputs of the traced and counted scalar batch, fixed so counts repeat.
TRACE_SEED = 0

#: ``scalar_mix`` times ordinary queries only.  Its high-temperature queries,
#: near the reversible ratio, form a separate seeded probe that every run
#: checks after its timed ops: today's kernel returns x = 0 exactly on about
#: 10% of them, and ``classify_region`` then raises a spurious
#: ``DegenerateExchangeError``.  The probe's failed share is reported as
#: ``high_temp.failed_ratio`` (``otto.high_temp_failed_ratio`` when traced),
#: so the defect shows while every timed op succeeds.


@dataclass(frozen=True)
class Sizes:
    ring_points: int = 100_000  # num of default_rho_grid; 3 boundaries added
    scalar_pool: int = 16_384  # distinct seeded queries, cycled by the loop
    scalar_trace: int = 20_000  # queries in the traced batch
    high_temp_probe: int = 2_048  # high-temperature queries checked per run
    cli_trace_ops: int = 10  # CLI runs of each kind in the traced run
    oracle_sample: int = 300  # points checked against mpmath per sweep
    setup_samples: int = 24  # fresh set-up processes timed per measured run


TINY = Sizes(ring_points=300, scalar_pool=256, scalar_trace=400,
             high_temp_probe=64, cli_trace_ops=2, oracle_sample=20, setup_samples=3)


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def summarize(kinds: list) -> dict:
    """Attempted and failed counts of ``kinds`` (op i's failure kind or
    ``""``) and whether every answer was right."""
    failed = Counter(k for k in kinds if k)
    return {
        "attempted": len(kinds),
        "failed": sum(failed.values()),
        "failed_by_kind": dict(failed),
        "correct": not any(kinds),
    }


def percentile_summary(latencies) -> dict:
    """Median, and the 90th percentile when ten samples lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered)}
    if n >= 2:
        p90 = statistics.quantiles(ordered, n=10)[-1]
        beyond = sum(1 for v in ordered if v > p90)
        if beyond >= 10:
            out["p90"] = p90
            out["beyond_p90"] = beyond
    return out


# --------------------------------------------------------------------------
# set-up

def setup(workload: str, sizes: Sizes) -> tuple[dict, dict]:
    """Import qtmkit and build what the workload's ops need."""
    t0 = time.perf_counter()
    import qtmkit  # noqa: F401  (the import is what is timed)
    from qtmkit import sweep
    t1 = time.perf_counter()
    state = {}
    if workload in ("cli_reference", "ring_dense"):
        num = sizes.ring_points if workload == "ring_dense" else 600
        grid = sweep.default_rho_grid(THETA_SQ, num=num)
        state["spec"] = sweep.SweepSpec(
            t_low=T_LOW, theta_sq=THETA_SQ, rho_grid=grid,
            medium_kind=sweep.MediumKind.QUANTUM_RING, r_low=R_LOW,
        )
    t2 = time.perf_counter()
    return state, {"setup_s": t2 - t0, "import_s": t1 - t0,
                   "spec_build_s": t2 - t1}


class SetupSampler:
    """Times fresh ``setup`` processes at evenly spaced points of a measured
    loop's busy time, so that their median spans the whole run."""

    def __init__(self, workload: str, sizes: Sizes, seconds: float) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "setup", workload]
        if sizes is TINY:
            self.cmd.append("--tiny")
        n = sizes.setup_samples
        self.due = [seconds * k / n for k in range(n)]
        self.samples: list = []

    def _sample(self) -> None:
        proc = subprocess.run(self.cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        self.samples.append(json.loads(proc.stdout)["setup_s"])

    def poll(self, busy: float) -> None:
        """Take every sample due by ``busy`` seconds of op time."""
        while len(self.samples) < len(self.due) and busy >= self.due[len(self.samples)]:
            self._sample()

    def finish(self) -> list:
        while len(self.samples) < len(self.due):
            self._sample()
        return self.samples


# --------------------------------------------------------------------------
# checking sweep outputs

def expected_grid(num: int):
    """The default rho grid, rebuilt without qtmkit."""
    import numpy as np
    extra = [math.sqrt(1.0 / THETA_SQ), 1.0, math.sqrt(THETA_SQ)]
    return np.unique(np.concatenate([np.linspace(0.05, 3.0, num), extra]))


def sweep_check(table: dict, norm: dict, rho, curves: dict, sample) -> tuple[str, float]:
    """First failure kind of a whole sweep (``""`` if none) and the largest
    relative e_high error on the oracle sample."""
    import numpy as np
    import oracle

    worst = 0.0
    for i in sample:
        exact = oracle.ring_energies(rho[i], R_LOW, T_LOW, THETA_SQ)
        if table["region"][i] not in oracle.BOUNDARIES:
            worst = max(worst, oracle.e_high_rel_err(table["e_high"][i], exact[0]))
        if not oracle.energy_ok(table["e_high"][i], table["e_low"][i], exact,
                                table["alpha_sq"][i], THETA_SQ):
            return "wrong_energy", worst

    kinds = oracle.problems(table, THETA_SQ)
    bad = kinds[kinds != ""]
    if len(bad):
        return str(bad[0]), worst

    e = np.stack([table["e_high"], table["e_low"], table["e_out"]])
    scale = np.max(np.abs(e))
    if not np.allclose(np.stack([norm["e_high"], norm["e_low"], norm["e_out"]]),
                       e / scale, rtol=1e-11, atol=1e-11):
        return "wrong_normalization", worst

    for design in oracle.DESIGNS:
        if design not in curves:
            return "wrong_curve", worst
        c_rho, c_eff, carnot, limit = curves[design]
        lo, hi = oracle.design_interval(design, THETA_SQ)
        low_ratio = oracle.DESIGNS[design][0].startswith("TwoAcquirers")
        carnot_a = 1.0 / THETA_SQ if low_ratio else THETA_SQ
        a = rho * rho
        # Open interval, closed at the Carnot end only.
        inside = ((a > lo) & (a < hi)) | np.isclose(a, carnot_a, rtol=1e-12, atol=0)
        c_rho = np.asarray(c_rho, dtype=float)
        if len(c_rho) != inside.sum() or not np.array_equal(c_rho, rho[inside]):
            return "wrong_curve", worst
        eff_cond = 1.0 + np.maximum(1.0, a[inside]) / np.abs(1.0 - a[inside])
        dev = np.abs(np.asarray(c_eff) - oracle.design_efficiency(design, a[inside]))
        want_carnot = float(oracle.carnot_efficiency(design, THETA_SQ))
        if (
            not np.all(dev <= oracle.REL_TOL * eff_cond * np.abs(c_eff))
            or abs(carnot - want_carnot) > oracle.REL_TOL * abs(want_carnot)
            or limit != ("minimum" if design == "QLL" else "maximum")
        ):
            return "wrong_curve", worst
    return "", worst


def oracle_sample(rho, regions, seed: int, size: int) -> list:
    """Seeded sample of points, plus every boundary-band point."""
    import oracle
    rng = random.Random(seed)
    picked = set(rng.sample(range(len(rho)), min(size, len(rho))))
    picked.update(i for i, r in enumerate(regions) if r in oracle.BOUNDARIES)
    return sorted(picked)


CSV_HEADER = [
    "rho", "alpha_sq", "e_high", "e_low", "e_out", "e_high_norm", "e_low_norm",
    "e_out_norm", "region", "design1", "eff1", "design2", "eff2", "carnot1",
    "carnot2",
]
_TEXT_FIELDS = {"region", "design1", "design2"}


def record_rows(records):
    """Sweep records as rows in :data:`CSV_HEADER` order."""
    for r in records:
        d = r.designs
        names = [e.design.value for e in d] + ["", ""]
        effs = [e.efficiency for e in d] + [math.nan, math.nan]
        carnots = [e.carnot for e in d] + [math.nan, math.nan]
        yield (r.rho, r.alpha_sq, r.e_high, r.e_low, r.e_out, r.e_high_norm,
               r.e_low_norm, r.e_out_norm, r.region.value, names[0], effs[0],
               names[1], effs[1], carnots[0], carnots[1])


def csv_rows(text: str):
    """Rows of a sweep CSV, numbers parsed; raises ValueError on a bad header."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    for row in reader:
        yield tuple(
            v if name in _TEXT_FIELDS else (float(v) if v else math.nan)
            for name, v in zip(CSV_HEADER, row)
        )


def rows_table(rows) -> tuple[dict, dict, list]:
    """Split rows into the oracle table, the normalized columns and rho."""
    import numpy as np
    import oracle
    by_name = dict(zip(CSV_HEADER, zip(*rows)))
    table = {
        name: np.asarray(by_name[name], dtype=object if name in _TEXT_FIELDS else float)
        for name in oracle.COLUMNS
    }
    norm = {k: np.asarray(by_name[k + "_norm"], dtype=float)
            for k in ("e_high", "e_low", "e_out")}
    return table, norm, np.asarray(by_name["rho"], dtype=float)


def csv_matches(text: str, records) -> bool:
    """The CSV re-reads to the records at 12 significant digits."""
    for got, want in itertools.zip_longest(csv_rows(text), record_rows(records)):
        if got is None or want is None:
            return False
        for value, exact in zip(got, want):
            if isinstance(exact, str):
                if value != exact:
                    return False
            elif not (value == exact or math.isclose(value, exact, rel_tol=5e-12)
                      or (math.isnan(value) and math.isnan(exact))):
                return False
    return True


# --------------------------------------------------------------------------
# cli_reference: one op is a subprocess `python -m qtmkit.cli sweep ...`

class CliReference:
    def __init__(self) -> None:
        self.work = OUT / "cli_reference"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "ref.json"
        self.config.write_text(json.dumps(REF_CONFIG))
        self.records = self.work / "records.csv"
        self.curves = self.work / "curves.csv"
        self.argv = ["sweep", "--config", str(self.config), "--out",
                     str(self.records), "--curves-out", str(self.curves)]
        self.stdout = self.work / "stdout.txt"
        self.peak_rss_mb = 0.0  # largest child so far

    @property
    def points(self) -> int:
        return len(expected_grid(600))

    def _clear(self) -> None:
        for path in (self.records, self.curves):
            path.unlink(missing_ok=True)

    def _outputs(self, stdout: str) -> tuple:
        return (self.records.read_text(), self.curves.read_text(), stdout)

    def run_subprocess(self) -> tuple[float, tuple | None]:
        """One op: wall time and outputs (None when the exit code is not 0).

        The child is reaped with ``wait4`` for its peak RSS.  That figure
        includes this process's RSS when it spawned the child, so the measured
        loop keeps this process small: it runs before numpy or qtmkit is
        imported here, and keeps one copy of each distinct output.  A CPU-time
        limit stands in for a timeout."""
        self._clear()
        cmd = [sys.executable, "-m", "qtmkit.cli", *self.argv]
        with open(self.stdout, "w", encoding="utf-8") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=out,
                                    stderr=subprocess.DEVNULL)
            resource.prlimit(proc.pid, resource.RLIMIT_CPU, (120, 120))
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            return elapsed, None
        return elapsed, self._outputs(self.stdout.read_text())

    def run_in_process(self) -> tuple[float, tuple | None]:
        import qtmkit.cli
        self._clear()
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = qtmkit.cli.main(self.argv)
        elapsed = time.perf_counter() - t0
        return elapsed, (self._outputs(buf.getvalue()) if code == 0 else None)

    def check(self, outputs) -> tuple[str, float]:
        """Failure kind of one op's outputs and its largest e_high error;
        every point of the small grid is checked against mpmath."""
        if outputs is None:
            return "raised", 0.0
        records_text, curves_text, stdout = outputs
        grid = expected_grid(600)
        by_text = {f"{r:.12g}": r for r in grid}
        try:
            table, norm, rho = rows_table(list(csv_rows(records_text)))
            exact_rho = [by_text[f"{r:.12g}"] for r in rho]
        except (KeyError, ValueError):
            return "wrong_grid", 0.0
        if exact_rho != list(grid):
            return "wrong_grid", 0.0
        if f"wrote {len(grid)} records" not in stdout:
            return "wrong_stdout", 0.0
        curves = {}
        reader = csv.reader(io.StringIO(curves_text))
        next(reader, None)
        try:
            for design, r, eff, carnot, limit in reader:
                entry = curves.setdefault(design, ([], [], float(carnot), limit))
                entry[0].append(by_text[r])
                entry[1].append(float(eff))
        except (KeyError, ValueError):
            return "wrong_curve", 0.0
        return sweep_check(table, norm, grid, curves, range(len(grid)))


# --------------------------------------------------------------------------
# ring_dense: one op is the in-process pipeline on a 1e5-point grid

class RingDense:
    def __init__(self, spec, sizes: Sizes) -> None:
        self.spec = spec
        self.sizes = sizes
        self.points = len(spec.rho_grid)
        self.work = OUT / "ring_dense"
        self.work.mkdir(parents=True, exist_ok=True)

    def op(self):
        """run_sweep, efficiency_curves, CSV emit of both, JSON emit, parse."""
        from qtmkit import sweep
        records, _ = sweep.run_sweep(self.spec)
        curves = sweep.efficiency_curves(self.spec)
        sweep.emit(records, "csv", str(self.work / "records.csv"))
        sweep.emit_curves(curves, "csv", str(self.work / "curves.csv"))
        buf = io.StringIO()
        sweep.emit(records, "json", buf)
        text = buf.getvalue()
        parsed = sweep.parse_records(text)
        return records, curves, text, parsed

    def timed_op(self):
        t0 = time.perf_counter()
        try:
            outputs = self.op()
        except Exception as exc:  # an op that raises is counted, not fatal
            print(f"ring_dense op raised {exc!r}", file=sys.stderr)
            outputs = None
        return time.perf_counter() - t0, outputs

    def check(self, outputs, seed: int) -> tuple[str, float]:
        """Failure kind of one op's outputs and the largest e_high error on
        the seeded oracle sample."""
        import numpy as np
        if outputs is None:
            return "raised", 0.0
        records, curves, text, parsed = outputs
        if parsed != records:
            return "json_roundtrip", 0.0
        if not csv_matches((self.work / "records.csv").read_text(), records):
            return "csv_roundtrip", 0.0
        table, norm, rho = rows_table(list(record_rows(records)))
        if not np.array_equal(rho, expected_grid(self.sizes.ring_points)):
            return "wrong_grid", 0.0
        curve_map = {
            d.value: (c.rho, c.efficiency, c.carnot, c.carnot_limit_kind.value)
            for d, c in curves.items()
        }
        sample = oracle_sample(rho, table["region"], seed, self.sizes.oracle_sample)
        return sweep_check(table, norm, rho, curve_map, sample)

    def output_bytes(self, outputs) -> dict:
        return {
            "sweep.emit_csv.bytes": (self.work / "records.csv").stat().st_size,
            "sweep.emit_json.bytes": len(outputs[2].encode("utf-8")),
        }


# --------------------------------------------------------------------------
# scalar_mix: one op is one seeded point query through the scalar API

def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def scalar_queries(seed: int, n: int) -> list:
    """Ordinary ``(theta_sq, gap_low / kT, alpha_sq)`` triples: gap/kT
    log-uniform on [0.1, 10], alpha_sq log-uniform on [0.2/theta_sq,
    5 theta_sq]."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        theta_sq = _log_uniform(rng, 1.1, 30.0)
        gap = _log_uniform(rng, 0.1, 10.0)
        alpha_sq = _log_uniform(rng, 0.2 / theta_sq, 5.0 * theta_sq)
        out.append((theta_sq, gap, alpha_sq))
    return out


def high_temp_queries(seed: int, n: int) -> list:
    """Triples in the high-temperature regime near the reversible ratio:
    gap/kT log-uniform on [1e-10, 1e-3], alpha_sq = theta_sq (1 +- delta)
    with delta log-uniform on [1e-9, 1e-3]."""
    rng = random.Random(f"high_temp:{seed}")
    out = []
    for _ in range(n):
        theta_sq = _log_uniform(rng, 1.1, 30.0)
        gap = _log_uniform(rng, 1e-10, 1e-3)
        delta = _log_uniform(rng, 1e-9, 1e-3)
        alpha_sq = theta_sq * (1.0 + delta if rng.random() < 0.5 else 1.0 - delta)
        out.append((theta_sq, gap, alpha_sq))
    return out


class ScalarMix:
    def __init__(self) -> None:
        from qtmkit import designs, media, otto, regions
        self.designs, self.media, self.otto, self.regions = designs, media, otto, regions
        self.order = tuple(designs.QtmDesign)
        self.points = 1

    def query(self, q) -> tuple:
        """gap_medium, otto_cycle_energies, classify_region, then efficiency,
        carnot_efficiency and alpha_bounds of each admissible design
        (reduced units: k_B = t_low = 1)."""
        theta_sq, gap, alpha_sq = q
        designs = self.designs
        medium = self.media.gap_medium(gap, alpha_sq)
        energies = self.otto.otto_cycle_energies(medium, 1.0, theta_sq, 1.0)
        region = self.regions.classify_region(energies.as_exchange_triple(), theta_sq)
        entries = []
        if not region.is_boundary:
            for design in sorted(designs.admissible_designs(region),
                                 key=self.order.index):
                eff = designs.efficiency(design, alpha_sq)
                carnot = designs.carnot_efficiency(design, theta_sq)
                bounds = designs.alpha_bounds(design, theta_sq)
                entries.append((design.value, eff, carnot,
                                bounds.alpha_sq_min, bounds.alpha_sq_max))
        return (energies.e_high_gamma, energies.e_low_gamma, energies.e_out,
                region.value, tuple(entries))

    def safe_query(self, q) -> tuple:
        try:
            return self.query(q)
        except Exception as exc:  # an op that raises is counted, not fatal
            return ("raised", type(exc).__name__)

    @staticmethod
    def check(queries, outcomes) -> list:
        """Failure kind of each outcome (``""`` when correct)."""
        import numpy as np
        import oracle
        kinds = ["raised_" + o[1] if o[0] == "raised" else "" for o in outcomes]
        ok = [i for i, k in enumerate(kinds) if not k]
        rows = []
        for i in ok:
            e_high, e_low, e_out, region, entries = outcomes[i]
            names = [e[0] for e in entries] + ["", ""]
            effs = [e[1] for e in entries] + [math.nan, math.nan]
            carnots = [e[2] for e in entries] + [math.nan, math.nan]
            rows.append((queries[i][2], e_high, e_low, e_out, region, names[0],
                         effs[0], names[1], effs[1], carnots[0], carnots[1]))
        if rows:
            columns = dict(zip(oracle.COLUMNS, map(np.asarray, zip(*rows))))
            theta = np.asarray([queries[i][0] for i in ok])
            for i, kind in zip(ok, oracle.problems(columns, theta)):
                kinds[i] = kind
        for i in ok:
            theta_sq = queries[i][0]
            for design, _, _, lo, hi in outcomes[i][4]:
                if (lo, hi) != oracle.design_interval(design, theta_sq):
                    kinds[i] = kinds[i] or "wrong_design"
        return kinds

    @staticmethod
    def energy_errors(queries, outcomes) -> float:
        """Largest relative e_high error against mpmath."""
        import oracle
        worst = 0.0
        for (theta_sq, gap, alpha_sq), outcome in zip(queries, outcomes):
            if outcome[0] != "raised":
                exact = oracle.gap_energies(gap, alpha_sq, theta_sq)
                worst = max(worst, oracle.e_high_rel_err(outcome[0], exact[0]))
        return worst

    def high_temp_probe(self, seed: int, n: int) -> dict:
        """Check ``n`` seeded high-temperature queries, untimed: their
        failures, the share of cycles with both exchanges exactly 0, and the
        largest e_high error."""
        queries = high_temp_queries(seed, n)
        outcomes = [self.safe_query(q) for q in queries]
        summary = summarize(self.check(queries, outcomes))
        degenerate = 0
        for theta_sq, gap, alpha_sq in queries:
            medium = self.media.gap_medium(gap, alpha_sq)
            energies = self.otto.otto_cycle_energies(medium, 1.0, theta_sq, 1.0)
            degenerate += energies.e_high_gamma == 0.0 and energies.e_low_gamma == 0.0
        return {
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "failed_by_kind": summary["failed_by_kind"],
            "failed_ratio": summary["failed"] / summary["attempted"],
            "degenerate_ratio": degenerate / n,
            "e_high_rel_err_max": self.energy_errors(queries, outcomes),
        }


# --------------------------------------------------------------------------
# measure: closed loop, one client, untraced

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(latencies, kinds: list, points: int, extra: dict) -> dict:
    """Summary of a run; ``kinds[i]`` is op i's failure kind or ``""``."""
    summary = summarize(kinds)
    busy = sum(latencies)
    return {
        "latency_s": percentile_summary(latencies),
        **summary,
        "busy_s": busy,
        "points_per_s": (summary["attempted"] - summary["failed"]) * points / busy,
        **extra,
    }


def check_cli_outputs(bench: CliReference, outputs: list) -> tuple[list, float]:
    """Failure kind of each op's outputs, checking each distinct output once,
    and the largest e_high error."""
    distinct, worst = {}, 0.0
    for out in outputs:
        if out not in distinct:
            distinct[out], err = bench.check(out)
            worst = max(worst, err)
    return [distinct[out] for out in outputs], worst


def measure_cli(seed, seconds, sizes, setups) -> dict:
    bench = CliReference()
    latencies, outputs = [], []
    distinct = {}  # one copy of each distinct output keeps this process small
    while sum(latencies) < seconds or not latencies:
        setups.poll(sum(latencies))
        elapsed, out = bench.run_subprocess()
        latencies.append(elapsed)
        outputs.append(distinct.setdefault(out, out))
    kinds, worst = check_cli_outputs(bench, outputs)
    return _result(latencies, kinds, bench.points,
                   {"peak_rss_mb": bench.peak_rss_mb, "e_high_rel_err_max": worst})


def measure_ring(seed, seconds, sizes, setups) -> dict:
    state, _ = setup("ring_dense", sizes)
    bench = RingDense(state["spec"], sizes)
    latencies, kinds, worst, peak = [], [], 0.0, 0.0
    while sum(latencies) < seconds or not latencies:
        setups.poll(sum(latencies))
        elapsed, outputs = bench.timed_op()
        latencies.append(elapsed)
        peak = _peak_rss_mb()
        kind, err = bench.check(outputs, seed)
        kinds.append(kind)
        worst = max(worst, err)
        del outputs
    return _result(latencies, kinds, bench.points,
                   {"peak_rss_mb": peak, "e_high_rel_err_max": worst})


def measure_scalar(seed, seconds, sizes, setups) -> dict:
    from array import array
    bench = ScalarMix()
    pool = scalar_queries(seed, sizes.scalar_pool)
    first = [None] * len(pool)  # outcome of each query's first op
    repeats = [0] * len(pool)  # later ops with the same outcome
    deviants = []  # (pool index, outcome) of later ops that differed
    latencies = array("d")
    clock, query, busy, i = time.perf_counter, bench.safe_query, 0.0, 0
    while busy < seconds or not latencies:
        setups.poll(busy)
        j = i % len(pool)
        t0 = clock()
        outcome = query(pool[j])
        elapsed = clock() - t0
        latencies.append(elapsed)
        busy += elapsed
        if first[j] is None:
            first[j] = outcome
        elif outcome == first[j]:
            repeats[j] += 1
        else:
            deviants.append((j, outcome))
        i += 1
    peak = _peak_rss_mb()

    seen = [j for j in range(len(pool)) if first[j] is not None]
    kinds = []
    for j, kind in zip(seen, bench.check([pool[j] for j in seen],
                                         [first[j] for j in seen])):
        kinds += [kind] * (1 + repeats[j])
    if deviants:
        kinds += bench.check([pool[j] for j, _ in deviants],
                             [o for _, o in deviants])
    sample = random.Random(seed).sample(seen, min(len(seen), 4 * sizes.oracle_sample))
    worst = bench.energy_errors([pool[j] for j in sample], [first[j] for j in sample])
    probe = bench.high_temp_probe(seed, sizes.high_temp_probe)
    return _result(latencies, kinds, bench.points, {
        "peak_rss_mb": peak,
        "e_high_rel_err_max": max(worst, probe["e_high_rel_err_max"]),
        "high_temp": probe,
    })


MEASURE = {"cli_reference": measure_cli, "ring_dense": measure_ring,
           "scalar_mix": measure_scalar}


# --------------------------------------------------------------------------
# trace: fixed ops, untraced then traced, plus cProfile call counts

def profiled_calls(fn) -> int:
    """Python-level calls (builtins included) made while ``fn`` runs.

    Summed over the profiler's raw entries, one per code object: ``pstats``
    keys functions by file, line and name, so it keeps only one of several
    code objects that share them (each dataclass's generated ``__init__``)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def layer_metrics(summary: dict, per: int) -> dict:
    """``.calls`` and ``.s`` of every layer span, divided by ``per`` ops."""
    import tracing
    out = {}
    names = tracing.LAYER_SPANS + (
        "sweep.run_sweep", "sweep.efficiency_curves", "sweep.emit_csv",
        "sweep.emit_curves", "sweep.emit_json", "sweep.parse_records", "cli.main",
    )
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    for name in names:
        span = summary.get(name, empty)
        out[name + ".calls"] = span["calls"] // per
        out[name + ".s"] = span["s"] / per
    media = [summary.get(n, empty) for n in tracing.MEDIA_SPANS]
    out["media.calls"] = sum(m["calls"] for m in media) // per
    out["media.s"] = sum(m["s"] for m in media) / per
    out["sweep.run_sweep.self_s"] = summary.get(
        "sweep.run_sweep", {"self_s": 0.0})["self_s"] / per
    return out


def trace_report(recorder, untraced_s: float, traced_s: float, per: int,
                 workload: str) -> dict:
    """Layer metrics plus tracing overhead and how much of the op the
    layers' self times account for.

    The overhead is the op's layer span count times :func:`tracing.span_cost`,
    measured apart from the op at the run's span count.  ``trace.accounted_share`` is the layers'
    summed self time per op, less that overhead, over the untraced op time:
    it falls below 1 where the op spends time outside every layer, and it
    strays from 1 where the calibrated cost misjudges the tracer."""
    import tracing
    summary = recorder.summary()
    recorder.save(OUT / f"spans-{workload}.npz")
    layers = {k: v for k, v in summary.items() if k != tracing.OP_SPAN}
    layers_self = sum(v["self_s"] for v in layers.values())
    spans = sum(v["calls"] for v in layers.values())
    cost = tracing.span_cost(max(len(recorder.start), 100_000))
    overhead = spans * cost / per
    return {
        **layer_metrics(summary, per),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.wall_diff_s": traced_s - untraced_s,
        "trace.span_cost_s": cost,
        "trace.overhead_s": overhead,
        "trace.accounted_share": (layers_self / per - overhead) / untraced_s,
        "trace.spans": spans // per,
    }


def cli_rounds(bench: CliReference, rounds: int, recorder=None) -> tuple:
    """Alternating runs, so drift hits every kind alike: untraced in-process
    ``qtmkit.cli.main``, traced in-process (with a recorder), subprocess."""
    import tracing
    runs, traced_runs, subs = [], [], []
    for _ in range(rounds):
        runs.append(bench.run_in_process())
        if recorder is not None:
            with tracing.traced(recorder), recorder.op_span():
                traced_runs.append(bench.run_in_process())
        subs.append(bench.run_subprocess())
    return runs, traced_runs, subs


def cli_probe(bench: CliReference, runs: list, subs: list) -> dict:
    """The cli layer's metrics from untraced in-process and subprocess runs;
    the output bytes are those of the last subprocess run."""
    main_s = statistics.median(t for t, _ in runs)
    texts = subs[-1][1] or ("", "", "")
    return {
        "cli.main_s": main_s,
        "cli.startup_s": statistics.median(t for t, _ in subs) - main_s,
        "cli.output_bytes": sum(len(t.encode("utf-8")) for t in texts),
    }


def trace_cli(state, seed, sizes, spec_build_s) -> dict:
    import oracle
    import tracing
    from qtmkit import sweep
    bench = CliReference()
    recorder = tracing.SpanRecorder()
    runs, traced_runs, subs = cli_rounds(bench, sizes.cli_trace_ops, recorder)
    kinds, worst = check_cli_outputs(bench, [o for _, o in runs + traced_runs + subs])
    records_text = (subs[-1][1] or ("",))[0]
    table = rows_table(list(csv_rows(records_text)))[0] if records_text else None
    calls = profiled_calls(lambda: sweep.run_sweep(state["spec"]))
    metrics = trace_report(recorder, statistics.median(t for t, _ in runs),
                           statistics.median(t for t, _ in traced_runs),
                           sizes.cli_trace_ops, "cli_reference")
    metrics.update(cli_probe(bench, runs, subs))
    metrics.update({
        "sweep.run_sweep.us_per_point":
            metrics["sweep.run_sweep.s"] * 1e6 / bench.points,
        "sweep.emit_csv.bytes": len(records_text.encode("utf-8")),
        "sweep.py_calls_per_point": calls / bench.points,
        "sweep.spec_build.s": spec_build_s,
        "regions.boundary_points": 0 if table is None else int(
            sum(r in oracle.BOUNDARIES for r in table["region"])),
        "otto.degenerate_ratio": 0.0 if table is None else float(
            ((table["e_high"] == 0) & (table["e_low"] == 0)).mean()),
        "otto.e_high_rel_err_max": worst,
    })
    return {"kinds": kinds, "metrics": metrics}


def with_cli_probe(traced: dict, sizes: Sizes) -> dict:
    """Add the cli layer's metrics, which do not depend on the workload, to
    another workload's traced run; the probe's outputs are checked too."""
    bench = CliReference()
    runs, _, subs = cli_rounds(bench, sizes.cli_trace_ops)
    kinds, _ = check_cli_outputs(bench, [o for _, o in runs + subs])
    traced["metrics"].update(cli_probe(bench, runs, subs))
    traced["kinds"] += kinds
    return traced


def trace_ring(state, seed, sizes, spec_build_s) -> dict:
    import oracle
    import tracing
    from qtmkit import sweep
    bench = RingDense(state["spec"], sizes)
    recorder = tracing.SpanRecorder()
    untraced, kinds, worst, found = [], [], 0.0, {}
    for is_traced in (False, True, False):  # untraced ops bracket the traced one
        if is_traced:
            with tracing.traced(recorder), recorder.op_span():
                traced_s, outputs = bench.timed_op()
        else:
            elapsed, outputs = bench.timed_op()
            untraced.append(elapsed)
        kind, err = bench.check(outputs, seed)
        kinds.append(kind)
        worst = max(worst, err)
        if is_traced and outputs is not None:
            records = outputs[0]
            found.update(bench.output_bytes(outputs))
            found["regions.boundary_points"] = sum(
                r.region.value in oracle.BOUNDARIES for r in records)
            found["otto.degenerate_ratio"] = sum(
                r.e_high == 0.0 and r.e_low == 0.0 for r in records) / len(records)
        del outputs
    metrics = trace_report(recorder, statistics.median(untraced), traced_s, 1,
                           "ring_dense")
    calls = profiled_calls(lambda: sweep.run_sweep(bench.spec))
    metrics.update(found)
    metrics.update({
        "sweep.spec_build.s": spec_build_s,
        "sweep.run_sweep.us_per_point":
            metrics["sweep.run_sweep.s"] * 1e6 / bench.points,
        "sweep.py_calls_per_point": calls / bench.points,
        "otto.e_high_rel_err_max": worst,
    })
    return with_cli_probe({"kinds": kinds, "metrics": metrics}, sizes)


def trace_scalar(state, seed, sizes, spec_build_s) -> dict:
    import oracle
    import tracing
    bench = ScalarMix()
    batch = scalar_queries(TRACE_SEED, sizes.scalar_trace)

    def untraced_batch() -> tuple[float, list]:
        t0 = time.perf_counter()
        outcomes = [bench.safe_query(q) for q in batch]
        return time.perf_counter() - t0, outcomes

    before, outcomes = untraced_batch()
    recorder = tracing.SpanRecorder()
    traced_outcomes = []
    with tracing.traced(recorder):
        t0 = time.perf_counter()
        for q in batch:
            with recorder.op_span():
                traced_outcomes.append(bench.safe_query(q))
        traced_s = time.perf_counter() - t0
    after, after_outcomes = untraced_batch()  # brackets the traced batch
    kinds = bench.check(batch * 3, outcomes + traced_outcomes + after_outcomes)
    metrics = trace_report(recorder, statistics.median([before, after]),
                           traced_s, 1, "scalar_mix")

    probe = bench.high_temp_probe(seed, sizes.high_temp_probe)
    pool = scalar_queries(seed, sizes.scalar_pool)
    sample = random.Random(seed).sample(pool, 4 * sizes.oracle_sample)
    calls = profiled_calls(lambda: [bench.safe_query(q) for q in batch])
    metrics.update({
        "sweep.spec_build.s": spec_build_s,
        "sweep.py_calls_per_point": calls / len(batch),
        "regions.boundary_points": sum(
            o[0] != "raised" and o[3] in oracle.BOUNDARIES for o in outcomes),
        "otto.degenerate_ratio": probe["degenerate_ratio"],
        "otto.high_temp_failed_ratio": probe["failed_ratio"],
        "otto.e_high_rel_err_max": max(probe["e_high_rel_err_max"], bench.energy_errors(
            sample, [bench.safe_query(q) for q in sample])),
    })
    return with_cli_probe({"kinds": kinds, "metrics": metrics}, sizes)


TRACE = {"cli_reference": trace_cli, "ring_dense": trace_ring,
         "scalar_mix": trace_scalar}


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("workload", choices=WORKLOADS)
    common.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the benchmark's")
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("setup", parents=[common])
    measure = modes.add_parser("measure", parents=[common])
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    modes.add_parser("trace", parents=[common]).add_argument(
        "--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sizes = TINY if args.tiny else Sizes()

    if args.mode == "setup":
        print(json.dumps(setup(args.workload, sizes)[1]))
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    if args.mode == "measure":
        setups = SetupSampler(args.workload, sizes, args.seconds)
        result = MEASURE[args.workload](args.seed, args.seconds, sizes, setups)
        result["setup_s_samples"] = setups.finish()
    else:
        state, times = setup(args.workload, sizes)
        traced = TRACE[args.workload](state, args.seed, sizes, times["spec_build_s"])
        result = {**summarize(traced["kinds"]), "metrics": traced["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
