"""The four workloads: the pinchflow commands of one round, and their checks.

Every check compares the program's artifacts with a closed form computed
here, or with a property the method must have; none compares with a stored
copy of earlier output.  A workload's ``inputs(seed)`` is its input
construction (timed as set-up); ``ops(out_dir, seed)`` lists the commands of one
round; ``check(label, out_dir, inputs)`` returns (problems, readouts), where
readouts are the accuracy figures the run reports beside its timings.
"""

from __future__ import annotations

import csv
import json
import math
import os

SUP_SIGN_TOL = 1e-9     # the sweep's documented "sup is positive" threshold
ROUNDING = 1e-12        # float noise of a degree-4 polynomial of O(1) inputs


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_monitor(path):
    with open(path) as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# flow-sphere: a geodesic sphere shrinking to its round point

class FlowSphere:
    name = "flow-sphere"
    rho = math.pi / 3
    nu, nv = 32, 64

    def inputs(self, seed):
        return {}

    def ops(self, out_dir, seed):
        return [("flow", ["flow", "--surface", "geodesic-sphere", "--rho", repr(self.rho),
                          "--nu", str(self.nu), "--nv", str(self.nv), "--t-max", "1.0",
                          "--ceiling", "1e3", "--stride", "50", "--output-dir", out_dir])]

    def check(self, label, out_dir, inputs):
        problems = []
        res = _read_json(os.path.join(out_dir, "flow.json"))
        recs = _read_monitor(os.path.join(out_dir, "monitor.csv"))
        c0 = math.cos(self.rho)
        t_star = -math.log(c0) / 2.0
        if res["outcome"] != "Shrinking":
            problems.append("outcome %s, expected Shrinking" % res["outcome"])
        ext = res["extinction_time"]
        ext_err = abs(ext - t_star) / t_star if ext is not None else math.inf
        if not ext_err <= 0.02:
            problems.append("extinction time %r vs %.6f" % (ext, t_star))
        radius_err = max(abs(r - math.acos(c0 * math.exp(2.0 * t)))
                         for t, r in res["radius_trajectory"] if t <= 0.3)
        if not radius_err <= 1e-2:
            problems.append("radius off the ODE by %.3e" % radius_err)
        if not _nonincreasing([r["area"] for r in recs]):
            problems.append("monitored area increased")
        if not abs(recs[-1]["ratio_max"] - 0.5) <= 0.05:
            problems.append("final |A|^2/|H|^2 = %.4f" % recs[-1]["ratio_max"])
        return problems, {"oracle_err": radius_err, "extinction_rel_err": ext_err}


# ---------------------------------------------------------------------------
# flow-torus: a product torus in S^3 x {0}, monitored every step

class FlowTorus:
    name = "flow-torus"
    r1, r2 = 0.6, 0.8
    n = 40
    t_max = 0.25
    # explicit Euler is first order in time: at 40 x 40 area and a2_max sit
    # 0.5 % and 1.4 % off their closed forms by t = 0.25, and r1 2.2e-3
    area_tol = 2e-2
    a2_tol = 5e-2
    r1_tol = 1e-2

    def inputs(self, seed):
        return {}

    def ops(self, out_dir, seed):
        return [("flow", ["flow", "--surface", "flat-torus", "--r1", repr(self.r1),
                          "--r2", repr(self.r2), "--nu", str(self.n), "--nv", str(self.n),
                          "--cone", "thm1", "--stride", "1", "--t-max", repr(self.t_max),
                          "--output-dir", out_dir])]

    def _c(self, t):
        """cos 2theta(t) with r1 = cos theta, r2 = sin theta."""
        return (self.r1 ** 2 - self.r2 ** 2) * math.exp(4.0 * t)

    def check(self, label, out_dir, inputs):
        problems = []
        res = _read_json(os.path.join(out_dir, "flow.json"))
        if res["outcome"] != "Inconclusive" or res["notes"]:
            problems.append("outcome %s, notes %s" % (res["outcome"], res["notes"]))
        path = os.path.join(out_dir, "snapshot_final.txt")
        with open(path) as fh:
            header = fh.readline().split()
            t_final = float(dict(f.split("=", 1) for f in header[3:])["t"])
            radii = [math.hypot(*map(float, line.split()[2:4])) for line in fh]
        r1_exact = math.sqrt((1.0 + self._c(t_final)) / 2.0)
        r1_err = max(abs(r - r1_exact) for r in radii)
        if not (len(radii) == self.n * self.n and r1_err <= self.r1_tol):
            problems.append("final r1 off its closed form by %.3e" % r1_err)
        recs = _read_monitor(os.path.join(out_dir, "monitor.csv"))
        for rec in recs:
            c = self._c(rec["t"])
            area = 2.0 * math.pi ** 2 * math.sqrt(1.0 - c * c)
            a2 = (1.0 - c) / (1.0 + c) + (1.0 + c) / (1.0 - c)
            if not (abs(rec["area"] - area) <= self.area_tol * area
                    and abs(rec["a2_max"] - a2) <= self.a2_tol * a2):
                problems.append("t = %.4f: area %.6f vs %.6f, a2_max %.6f vs %.6f"
                                % (rec["t"], rec["area"], area, rec["a2_max"], a2))
                break
            if not (rec["kperp_min"] == 0.0 and rec["kperp_max"] == 0.0):
                problems.append("t = %.4f: kperp range [%r, %r] in S^3 x {0}"
                                % (rec["t"], rec["kperp_min"], rec["kperp_max"]))
                break
        if not _nonincreasing([r["area"] for r in recs]):
            problems.append("monitored area increased")
        return problems, {"oracle_err": r1_err}


# ---------------------------------------------------------------------------
# sweeps: the three criterion-10 sweeps and the thm1 |H| = 0 stratum

def _thm1_h(n, x, y, hsq):
    """Two-normal special-frame h with |Atr1|^2 = x, |Atr-|^2 = y, |H|^2 = hsq."""
    import numpy as np

    h = np.zeros((n, n, 2))
    for i in range(n):
        h[i, i, 0] = math.sqrt(hsq) / n
    h[0, 0, 0] += math.sqrt(x / 2.0)
    h[1, 1, 0] -= math.sqrt(x / 2.0)
    h[0, 1, 1] = h[1, 0, 1] = math.sqrt(y / 2.0)
    return h


class Sweeps:
    name = "sweeps"
    resolution = 32
    chunk = 8192
    points = 64         # seeded check points per full thm1 sweep

    SWEEPS = {
        "thm1_n2": ["--variant", "thm1", "--n", "2"],
        "thm1_n4": ["--variant", "thm1", "--n", "4"],
        "thm2": ["--variant", "thm2"],
    }

    def ops(self, out_dir, seed):
        lattice = ["--resolution", str(self.resolution), "--chunk", str(self.chunk)]
        ops = [(label, ["sweep"] + args + lattice
                + ["--output-dir", os.path.join(out_dir, label)])
               for label, args in self.SWEEPS.items()]
        # CLI defaults: the bracket of the finding in CHANGES.md
        ops.append(("hzero", ["sweep", "--variant", "thm1", "--stratum", "hzero",
                              "--beta", "1.0", "--output-dir",
                              os.path.join(out_dir, "hzero")]))
        return ops

    def inputs(self, seed):
        """Seeded feasible points of each full thm1 slice, and the point
        x = 1, y = kbar = 0: a hypersurface-type h, where Huisken's identity
        makes the reaction 2|A|^2 Q = 0.

        Points are (x, y, kbar) uniform on the simplex x + y + kbar = 1,
        kept where Q = 0 gives |H|^2 >= 0.
        """
        import numpy as np
        from pinchflow.pinching import ConeParams

        rng = np.random.default_rng(seed)
        out = {}
        for label, n in (("thm1_n2", 2), ("thm1_n4", 4)):
            p = ConeParams("thm1", n=n)
            pts = []
            while len(pts) < self.points:
                x, y, kb = rng.dirichlet([1.0, 1.0, 1.0])
                hsq = (x + y - p.beta * kb) / (p.alpha - 1.0 / n)
                if hsq >= 0.0:
                    pts.append((_thm1_h(n, x, y, hsq), kb))
            zero = (_thm1_h(n, 1.0, 0.0, 1.0 / (p.alpha - 1.0 / n)), 0.0)
            out[label] = (p, pts, zero)
        return out

    def check(self, label, out_dir, inputs):
        from dataclasses import replace
        from pinchflow.pinching import reaction_of_Q

        problems = []
        path = os.path.join(out_dir, label, "sweep_%s_%s.json" % (
            "thm2" if label == "thm2" else "thm1", "hzero" if label == "hzero" else "full"))
        rep = _read_json(path)["report"]
        prm, am, sup = rep["params"], rep["argmax"], rep["sup_value"]
        if label == "thm2":
            a, b, c, kb, hsq = am["a"], am["b"], am["c"], am["kbar"], am["hsq"]
            coords = (a, b, c, kb, hsq)
            norm = a * a + b * b + c * c + kb
            q = (2.0 * (a * a + b * b + c * c) + hsq / 2.0 + 4.0 * prm["gamma"] * a * c
                 - prm["k"] * hsq - prm["epsilon"] * kb)
        else:
            n = prm["n"]
            x, y, kb, hsq = am["x"], am["y"], am["kbar"], am["hsq"]
            coords = (x, y, kb, hsq)
            norm = x + y + kb
            q = x + y + hsq / n - prm["alpha"] * hsq - prm["beta"] * kb
        if not (abs(q) <= SUP_SIGN_TOL and abs(norm - 1.0) <= SUP_SIGN_TOL
                and min(coords) >= 0.0):
            problems.append("%s argmax off the slice: Q = %.3e, norm - 1 = %.3e"
                            % (label, q, norm - 1.0))
        verdicts = [nt for nt in rep["notes"] if nt.startswith("measured sup")]
        holds = sup <= SUP_SIGN_TOL
        if len(verdicts) != 1 or (("holds" in verdicts[0]) != holds):
            problems.append("%s verdict %s for sup %.3e" % (label, verdicts, sup))
        readouts = {}
        if label in inputs:
            p, pts, (h0, kb0) = inputs[label]
            worst = max(float(reaction_of_Q(h, replace(p, kbar=kb))) for h, kb in pts)
            at_zero = float(reaction_of_Q(h0, replace(p, kbar=kb0)))
            if not (abs(at_zero) <= ROUNDING and sup >= at_zero - ROUNDING
                    and sup >= worst - ROUNDING):
                problems.append("%s sup %.3e below a slice point (%.3e, K=0: %.3e)"
                                % (label, sup, worst, at_zero))
        if label == "hzero":
            crit = rep["critical_constant"]
            err = abs(crit - 4.0 / 3.0) if crit is not None else math.inf
            if not (abs(sup + 0.25) <= 1e-6 and err <= 1e-3):
                problems.append("hzero sup %.9f, critical beta %r" % (sup, crit))
            readouts["hzero_critical_err"] = err
        return problems, readouts


# ---------------------------------------------------------------------------
# verify: the randomized identity suites

class Verify:
    name = "verify"
    trials = 10000
    CHECKS = {"z_brute_vs_closed", "rm_perp_eq_4kperp2", "abs_kperp_eq_2a_abs_c",
              "frame_roundtrip", "li_li_nonneg", "kperp_brute_vs_invariant_closed",
              "kperp_printed_gap_is_2Kb2"}

    def inputs(self, seed):
        return {}

    def ops(self, out_dir, seed):
        return [("verify", ["verify", "--trials", str(self.trials), "--seed", str(seed),
                            "--output-dir", out_dir])]

    def check(self, label, out_dir, inputs):
        res = _read_json(os.path.join(out_dir, "verify.json"))
        names = {c["name"] for c in res["checks"]}
        problems = []
        if not (res["all_pass"] and names == self.CHECKS
                and res["config"]["trials"] == self.trials):
            problems.append("verify: all_pass %s, checks %s, trials %s"
                            % (res["all_pass"], sorted(names), res["config"]["trials"]))
        return problems, {}


WORKLOADS = {w.name: w for w in (FlowSphere, FlowTorus, Sweeps, Verify)}
