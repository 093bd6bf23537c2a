"""In-memory spans around pinchflow's layer functions.

A Tracer replaces module attributes with timing wrappers, at the place the
caller looks them up (``pinchflow.flow.batch_jets``, not
``pinchflow.grids.batch_jets``), and restores them on exit.  Each call
records one span: (id, parent id, name, start, end, info).  A span started
on a worker thread with an empty stack gets the main thread's innermost
open span as its parent, so the sweep's chunk evaluations count under the
phase that started them.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, info): info maps (args, result) to one
# number stored on the span, or is None
WRAPS = [
    # flow stepping and monitoring, as pinchflow.flow looks them up
    ("pinchflow.flow", "batch_jets", "grids.batch_jets", None),
    ("pinchflow.flow", "step", "flow.step", None),
    ("pinchflow.flow", "_lean_velocity", "flow._lean_velocity", None),
    ("pinchflow.flow", "_advance", "flow._advance", None),
    ("pinchflow.flow", "_refresh_poles", "flow._refresh_poles", None),
    ("pinchflow.flow", "_zonal_filter", "flow._zonal_filter", None),
    ("pinchflow.flow", "monitor", "flow.monitor", None),
    ("pinchflow.flow", "batch_geometry", "tensor_kernel.batch_geometry", None),
    ("pinchflow.flow", "gradient_margins", "identities.gradient_margins", None),
    ("pinchflow.flow", "write_snapshot", "flow.write_artifacts", None),
    ("pinchflow.flow", "write_monitor_csv", "flow.write_artifacts", None),
    # verify, as pinchflow.cli looks them up
    ("pinchflow.cli", "specialize", "frames.specialize", None),
    ("pinchflow.cli", "kperp_checks", "identities.kperp_checks", None),
] + [("pinchflow.cli", fn, "identities.batch", None)
     for fn in ("z_brute_batch", "norms_batch", "kperp_scalar",
                "rm_perp_squared", "r1_batch")] + [
    # sweep phases and chunk evaluations
    ("pinchflow.pinching", "_run_base_sweep", "pinching.base_sweep",
     lambda args, res: res[2]),                      # feasible samples
    ("pinchflow.pinching", "_refine", "pinching.refine", None),
    ("pinchflow.pinching", "_critical_constant", "pinching.critical", None),
    ("pinchflow.pinching", "_sup_at", "pinching.sup_at", None),
    ("pinchflow.pinching", "_scan_range", "pinching.scan_range",
     lambda args, res: len(res)),
    ("pinchflow.pinching", "_lattice_chunk", "pinching.lattice_chunk",
     lambda args, res: args[4] - args[3]),           # hi - lo
    ("pinchflow.pinching", "_eval_configs", "pinching.eval_configs",
     lambda args, res: len(args[2][0])),             # configurations
]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        sid = next(self._ids)  # one C call: atomic under the interpreter lock
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, None))

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = info(args, result) if (info and result is not None) else None
                self.spans.append((sid, parent, name, t0, t1, extra))

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def install(self, wraps) -> None:
        import importlib
        for mod_name, attr, name, info in wraps:
            self.wrap(importlib.import_module(mod_name), attr, name, info)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,id,parent,name,start,end,info\n")
            for sid, parent, name, t0, t1, extra in self.spans:
                fh.write("%s,%d,%d,%s,%r,%r,%s\n" % (
                    self.run_id, sid, parent, name, t0, t1,
                    "" if extra is None else extra))


# ---------------------------------------------------------------------------
# per-layer metrics from a span list


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total


class SpanIndex:
    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            self.children[s[1]].append(s)
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s[2]].append(s)

    def self_time(self, span) -> float:
        t0, t1 = span[3], span[4]
        kids = [(max(c[3], t0), min(c[4], t1)) for c in self.children[span[0]]]
        return (t1 - t0) - _union_length([k for k in kids if k[1] > k[0]])

    def descendants(self, span):
        out = []
        todo = list(self.children[span[0]])
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children[s[0]])
        return out

    def median_self(self, name: str, scale: float) -> float:
        vals = [self.self_time(s) for s in self.by_name.get(name, [])]
        return statistics.median(vals) * scale if vals else 0.0

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, []))

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.by_name.get(name, []))


def _p99(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[98]


SWEEP_LABELS = ("thm1_n2", "thm1_n4", "thm2", "hzero")
SWEEP_FIELDS = ("base_s", "refine_s", "scan_s", "bisect_s", "lattice_points",
                "feasible_ratio", "sup_at_calls")


CHUNK_WORK = ("pinching.lattice_chunk", "pinching.eval_configs")


def _sweep_phases(idx: SpanIndex, root):
    """Phase times and lattice counts of one sweep command span, and the
    busy time of its base phase's chunk evaluations."""
    out = dict.fromkeys(SWEEP_FIELDS, 0.0)
    desc = idx.descendants(root)
    feasible = busy = 0.0
    for b in desc:
        # the base phase proper, not the lattice sweeps of the constant search
        if b[2] != "pinching.base_sweep" or idx.by_id[b[1]][2] == "pinching.sup_at":
            continue
        kids = idx.descendants(b)
        out["base_s"] += b[4] - b[3]
        out["lattice_points"] += sum(c[5] or 0 for c in kids
                                     if c[2] == "pinching.lattice_chunk")
        feasible += b[5] or 0
        busy += sum(c[4] - c[3] for c in kids if c[2] in CHUNK_WORK)
    if out["lattice_points"]:
        out["feasible_ratio"] = feasible / out["lattice_points"]
    out["refine_s"] = sum(s[4] - s[3] for s in desc if s[2] == "pinching.refine")
    for crit in (s for s in desc if s[2] == "pinching.critical"):
        kids = idx.descendants(crit)
        scan_len = sum(s[5] or 0 for s in kids if s[2] == "pinching.scan_range")
        sups = sorted((s for s in kids if s[2] == "pinching.sup_at"),
                      key=lambda s: s[3])
        out["scan_s"] += sum(s[4] - s[3] for s in sups[:scan_len])
        out["bisect_s"] += sum(s[4] - s[3] for s in sups[scan_len:])
        out["sup_at_calls"] += len(sups)
    return out, busy


def per_layer_metrics(spans, workers: int) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    idx = SpanIndex(spans)
    m = {}
    m["grids.batch_jets.ms"] = idx.median_self("grids.batch_jets", 1e3)
    m["grids.batch_jets.calls"] = idx.calls("grids.batch_jets")

    steps = [s[4] - s[3] for s in idx.by_name.get("flow.step", [])]
    m["flow.step.ms"] = statistics.median(steps) * 1e3 if steps else 0.0
    m["flow.step.ms_p99"] = _p99(steps) * 1e3 if steps else 0.0
    m["flow.step.calls"] = len(steps)
    for name in ("_lean_velocity", "_advance", "_refresh_poles", "_zonal_filter"):
        m["flow.%s.ms" % name] = idx.median_self("flow." + name, 1e3)
    for name in ("_refresh_poles", "_zonal_filter"):
        m["flow.%s.calls" % name] = idx.calls("flow." + name)
    m["flow.monitor.ms"] = idx.median_self("flow.monitor", 1e3)
    m["flow.monitor.calls"] = idx.calls("flow.monitor")
    flow_wall = idx.total("op.flow")
    m["flow.monitor.share"] = idx.total("flow.monitor") / flow_wall if flow_wall else 0.0
    m["flow.write_artifacts.ms"] = idx.median_self("flow.write_artifacts", 1e3)

    m["tensor_kernel.batch_geometry.ms"] = idx.median_self("tensor_kernel.batch_geometry", 1e3)
    m["identities.gradient_margins.ms"] = idx.median_self("identities.gradient_margins", 1e3)
    m["identities.kperp_checks.us"] = idx.median_self("identities.kperp_checks", 1e6)
    m["identities.batch.ms"] = idx.median_self("identities.batch", 1e3)
    m["frames.specialize.us"] = idx.median_self("frames.specialize", 1e6)

    busy = capacity = 0.0
    for label in SWEEP_LABELS:
        phases = []
        for root in idx.by_name.get("op.sweep." + label, []):
            phase, chunk_busy = _sweep_phases(idx, root)
            phases.append(phase)
            busy += chunk_busy
            capacity += phase["base_s"] * workers
        for key in SWEEP_FIELDS:
            vals = [p[key] for p in phases]
            m["pinching.%s.%s" % (label, key)] = statistics.median(vals) if vals else 0.0

    evals = idx.by_name.get("pinching.eval_configs", [])
    configs = sum(s[5] or 0 for s in evals)
    m["pinching.eval_configs.ns_per_config"] = (
        sum(s[4] - s[3] for s in evals) / configs * 1e9 if configs else 0.0)
    m["pinching.base.parallel_eff"] = busy / capacity if capacity else 0.0
    return m
