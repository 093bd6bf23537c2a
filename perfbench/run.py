"""pinchflow benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload flow-sphere --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare OLD_RUNS_DIR NEW_RUNS_DIR

Run from the root of a source checkout; the program is imported from its
``src/``.  A run repeats whole rounds of the workload's pinchflow commands
through ``pinchflow.cli.main`` until ``--seconds`` have passed, checks every
command's artifacts, and prints one JSON object as its last line of
standard output.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
wraps the layer functions and reports the per-layer metrics instead.  Each
run also writes a record to perfbench/out/runs/ (and, traced, its spans to
perfbench/out/spans/); ``--compare`` reads two such directories.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def pin_threads() -> int:
    """One BLAS/OpenMP thread; PINCHFLOW_THREADS = min(2, nproc) sweep workers."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    workers = min(2, os.cpu_count() or 1)
    os.environ["PINCHFLOW_THREADS"] = str(workers)
    return workers


def import_program():
    if not os.path.isfile(os.path.join(SRC, "pinchflow", "cli.py")):
        raise SystemExit("no pinchflow sources under %s: run from a source checkout" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import pinchflow.cli
    if not os.path.abspath(pinchflow.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("pinchflow was imported from %s, not %s"
                         % (pinchflow.cli.__file__, SRC))
    return pinchflow.cli


def set_up(workload, seed):
    """Imports and input construction: everything before the first command."""
    t0 = time.perf_counter()
    cli = import_program()
    inputs = workload.inputs(seed)
    return time.perf_counter() - t0, cli, inputs


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, so imports are paid every time."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit("set-up probe failed:\n" + proc.stderr)
    return float(proc.stdout.split()[-1])


def unit_of(name: str) -> str:
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith(".ms") or name.endswith(".ms_p99"):
        return "ms"
    if name.endswith(".us"):
        return "us"
    if name.endswith("ns_per_config"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("calls") or name.endswith("lattice_points"):
        return "count"
    return "1"


def run_rounds(workload, cli, inputs, seed, seconds, tracer):
    out_dir = os.path.join(OUT, workload.name)
    os.makedirs(out_dir, exist_ok=True)
    ops = workload.ops(out_dir, seed)
    round_times, op_times, readouts = [], {}, {}
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + seconds
    while True:
        elapsed = 0.0
        outcomes = []
        for label, argv in ops:
            name = "op.%s" % ("sweep." + label if argv[0] == "sweep" else argv[0])
            span = tracer.span(name) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span, contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(argv)
            except Exception:  # a crash of the program is a failed command
                traceback.print_exc()
                rc = None
            dt = time.perf_counter() - t0
            elapsed += dt
            op_times.setdefault(label, []).append(dt)
            outcomes.append((label, rc))
        round_times.append(elapsed)
        for label, rc in outcomes:
            attempted += 1
            if rc != 0:
                failed += 1
                print("%s: %s exited with %r" % (workload.name, label, rc), file=sys.stderr)
                continue
            problems, values = workload.check(label, out_dir, inputs)
            for key, val in values.items():
                readouts.setdefault(key, []).append(val)
            if problems:
                failed += 1
                correct = False
                print("%s: %s" % (workload.name, "; ".join(problems)), file=sys.stderr)
        if time.perf_counter() >= deadline:
            break
    return dict(round_times=round_times, op_times=op_times, attempted=attempted,
                failed=failed, correct=correct,
                readouts={k: statistics.median(v) for k, v in readouts.items()})


READOUTS = ("oracle_err", "extinction_rel_err", "hzero_critical_err")
SWEEP_TIMES = ("thm1_n2", "thm1_n4", "thm2")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="print every metric of two run-record directories side by side")
    args = ap.parse_args(argv)

    if args.compare:
        from compare import compare
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")

    workers = pin_threads()
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        print(repr(set_up(workload, args.seed)[0]))
        return 0

    setup_samples = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    _, cli, inputs = set_up(workload, args.seed)

    tracer = None
    if args.trace:
        from tracing import WRAPS, Tracer
        tracer = Tracer("%s-seed%d-pid%d" % (workload.name, args.seed, os.getpid()))
        tracer.install(WRAPS)
    try:
        res = run_rounds(workload, cli, inputs, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    extra = {key: res["readouts"].get(key, 0.0) for key in READOUTS}
    for label in SWEEP_TIMES:
        times = res["op_times"].get(label)
        extra["sweep_%s_s" % label] = statistics.median(times) if times else 0.0
    if tracer:
        from tracing import per_layer_metrics
        values = per_layer_metrics(tracer.spans, workers)
        values.update(extra)
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(res["round_times"]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    extra = {k: {"value": v, "unit": unit_of(k)} for k, v in extra.items()}
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "extra": extra,
        "rounds": len(res["round_times"]), "round_times": res["round_times"],
        "setup_samples": setup_samples,
        "env": {"nproc": os.cpu_count(), "pinchflow_threads": workers,
                "numpy": sys.modules["numpy"].__version__,
                "python": sys.version.split()[0]},
    }
    tag = "%s.seed%d.trace%d" % (workload.name, args.seed, args.trace)
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    with open(os.path.join(OUT, "runs", tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write_csv(os.path.join(OUT, "spans", tag + ".csv"))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
