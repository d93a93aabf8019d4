"""Span recorder for the benchmark's traced run.

:func:`traced` replaces each public qtmkit function at the module binding its
callers look up at call time (``qtmkit.sweep.otto_cycle_energies``,
``qtmkit.otto.occupation``, ...) with a wrapper that records a span, and puts
the original bindings back on exit.  A span is its name, start, end, parent
span and op id; spans live in flat arrays in memory and are written out once,
at the end, by :meth:`SpanRecorder.save`.

Spans are named after the layer that defines the function, so the same
function reached through two bindings counts once per call.

:func:`span_cost` measures what one span adds to a call on its own, so that
the tracing overhead of a run is its span count times that cost.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

#: (module whose binding is replaced, attribute, span name).
#: ``emit`` is split by its ``format`` argument at call time.
BINDINGS = (
    ("qtmkit.cli", "main", "cli.main"),
    ("qtmkit.cli", "run_sweep", "sweep.run_sweep"),
    ("qtmkit.cli", "efficiency_curves", "sweep.efficiency_curves"),
    ("qtmkit.cli", "emit", "sweep.emit"),
    ("qtmkit.cli", "emit_curves", "sweep.emit_curves"),
    ("qtmkit.cli", "default_rho_grid", "sweep.default_rho_grid"),
    ("qtmkit.sweep", "run_sweep", "sweep.run_sweep"),
    ("qtmkit.sweep", "efficiency_curves", "sweep.efficiency_curves"),
    ("qtmkit.sweep", "emit", "sweep.emit"),
    ("qtmkit.sweep", "emit_curves", "sweep.emit_curves"),
    ("qtmkit.sweep", "parse_records", "sweep.parse_records"),
    ("qtmkit.sweep", "ring_medium", "media.ring_medium"),
    ("qtmkit.sweep", "gap_medium", "media.gap_medium"),
    ("qtmkit.sweep", "otto_cycle_energies", "otto.otto_cycle_energies"),
    ("qtmkit.sweep", "classify_region", "regions.classify_region"),
    ("qtmkit.sweep", "admissible_designs", "designs.admissible_designs"),
    ("qtmkit.sweep", "alpha_bounds", "designs.alpha_bounds"),
    ("qtmkit.sweep", "efficiency", "designs.efficiency"),
    ("qtmkit.sweep", "carnot_efficiency", "designs.carnot_efficiency"),
    ("qtmkit.media", "gap_medium", "media.gap_medium"),
    ("qtmkit.otto", "otto_cycle_energies", "otto.otto_cycle_energies"),
    ("qtmkit.otto", "occupation", "otto.occupation"),
    ("qtmkit.regions", "classify_region", "regions.classify_region"),
    ("qtmkit.designs", "admissible_designs", "designs.admissible_designs"),
    ("qtmkit.designs", "alpha_bounds", "designs.alpha_bounds"),
    ("qtmkit.designs", "efficiency", "designs.efficiency"),
    ("qtmkit.designs", "carnot_efficiency", "designs.carnot_efficiency"),
)

#: Span names reported as layer metrics (``<name>.calls``, ``<name>.s``).
MEDIA_SPANS = ("media.ring_medium", "media.gap_medium")
KERNEL_SPANS = (
    "otto.otto_cycle_energies",
    "otto.occupation",
    "regions.classify_region",
    "designs.efficiency",
    "designs.carnot_efficiency",
    "designs.alpha_bounds",
    "designs.admissible_designs",
)
LAYER_SPANS = MEDIA_SPANS + KERNEL_SPANS

OP_SPAN = "bench.op"


class SpanRecorder:
    """Keeps every span of a traced run in flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self):
        """Root span of one op; its spans share the op id."""
        self._op_id += 1
        i = self._open(self._name_id(OP_SPAN))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        if name == "sweep.emit":
            ids = {f: self._name_id(f"sweep.emit_{f}") for f in ("csv", "json")}

            def name_of(args, kwargs):
                fmt = kwargs.get("format", args[1] if len(args) > 1 else "csv")
                return ids.get(fmt, ids["csv"])
        else:
            name_id = self._name_id(name)

            def name_of(args, kwargs):
                return name_id

        def wrapper(*args, **kwargs):
            i = self._open(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        children = np.bincount(
            parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur)
        )
        own = dur - children
        out = {}
        for i, label in enumerate(self.names):
            rows = name == i
            out[label] = {
                "calls": int(rows.sum()),
                "s": float(dur[rows].sum()),
                "self_s": float(own[rows].sum()),
            }
        return out

    def save(self, path: Path) -> None:
        """Write every span (binary arrays plus the name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            names=np.array(json.dumps(self.names)),
        )


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Route every binding in :data:`BINDINGS` through ``recorder``."""
    saved = []
    try:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(original, name))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_cost(calls: int, repeats: int = 3) -> float:
    """Seconds one span adds to a call: ``calls`` calls of a wrapped no-op
    against as many of the bare no-op, median over ``repeats``.

    Pass the span count of the run being corrected: a span costs more as the
    recorder's arrays grow (about 1.0 us at 1e5 spans, 1.6 us at 1.4e6)."""

    def noop(*args, **kwargs):
        return None

    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        wrapped = SpanRecorder().wrap(noop, "calibration")
        t0 = clock()
        for _ in range(calls):
            noop(1, 2)
        t1 = clock()
        for _ in range(calls):
            wrapped(1, 2)
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
