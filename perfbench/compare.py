"""Side-by-side metrics of two sets of benchmark runs.

    python3 perfbench/run.py --compare OLD NEW

OLD and NEW are directories of run records, such as perfbench/out/runs/ of
two checkouts (a parent commit and a change).  For every workload and trace
setting found in both, it prints each metric's median over the records of
each side, the record counts, and the change as a share of the old median.
Metrics that read 0 on both sides (layers the workload never calls) are
left out.  A traced record holds the per-layer metrics, an untraced one the end-to-end
metrics plus the accuracy readouts and per-sweep times.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def load(directory: str) -> dict:
    """{(workload, trace): {metric: (unit, [values])}}"""
    groups = {}
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        raise SystemExit("no run records in %s" % directory)
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        metrics = dict(rec["extra"])
        metrics.update(rec["result"]["metrics"])
        group = groups.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in metrics.items():
            group.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return groups


def compare(old_dir: str, new_dir: str) -> int:
    old, new = load(old_dir), load(new_dir)
    print("%-12s %-5s %-40s %-6s %14s %14s %9s"
          % ("workload", "trace", "metric", "unit", "old", "new", "delta"))
    for key in sorted(set(old) & set(new)):
        for name in sorted(set(old[key]) & set(new[key])):
            unit, a = old[key][name]
            b = new[key][name][1]
            ma, mb = statistics.median(a), statistics.median(b)
            if ma == mb == 0:
                continue  # a layer neither side's workload calls
            delta = "%+8.1f%%" % (100.0 * (mb - ma) / ma) if ma else "%9s" % "-"
            print("%-12s %-5d %-40s %-6s %10.5g (%d) %10.5g (%d) %s"
                  % (key[0], key[1], name, unit, ma, len(a), mb, len(b), delta))
    for key in sorted(set(old) ^ set(new)):
        print("%s trace %d: records on one side only" % key)
    return 0
