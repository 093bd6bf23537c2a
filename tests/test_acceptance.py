"""Acceptance gate: eleven numbered criteria, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 2 checks the library's closed normal-curvature reaction
Kperp(|A|^2 + 2|Atr|^2) - 4 kbar Kperp against the brute-force contraction.
Its line also reports the gap of the catalogued form with the extra -2b^2
term, which is exactly 2*Kperp*b^2 (frame-dependent, so not a polynomial in
h and not a reaction; see the kperp_printed_gap_is_2Kb2 check of
``pinchflow verify``).
"""

import json
import time

import numpy as np

from pinchflow.canonical import batch_jets, make_surface, perturb, sample_grid
from pinchflow.cli import main as cli_main
from pinchflow.flow import FlowConfig, run, sphere_ode_oracle
from pinchflow.frames import specialize
from pinchflow.identities import (gradient_margins, kperp_checks,
                                  kperp_scalar, norms_batch, r1_batch,
                                  rm_perp_squared, z_brute_batch)
from pinchflow.pinching import ConeParams, blowup_time, harnack_bound
from pinchflow.tensor_kernel import batch_geometry, point_geometry


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("[criterion %2d] %s: %s%s" % (num, name, tag, suffix))


def _random_population(trials=10000, seed=2024):
    rng = np.random.default_rng(seed)
    h = rng.uniform(-2.0, 2.0, size=(trials, 2, 2, 2))
    return np.ascontiguousarray(np.moveaxis(0.5 * (h + np.swapaxes(h, 1, 2)), 0, -1))


def test_criterion_01_simons_oracle():
    t0 = time.perf_counter()
    h = _random_population()
    zb = z_brute_batch(h)
    normA2, normH2, traceless2 = norms_batch(h)
    kp = kperp_scalar(h)
    zc = (normH2 - normA2) * traceless2 - 2.0 * kp * kp
    resid = (np.abs(zb - zc) / (1.0 + np.abs(zb))).max()
    elapsed = time.perf_counter() - t0
    ok = resid <= 1e-10 and elapsed < 5.0
    _report(1, "simons-nonlinearity-oracle", ok,
            "max resid %.2e, %.2f s" % (resid, elapsed))
    assert resid <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_kperp_reaction_oracle():
    h = _random_population()
    kp = kperp_scalar(h)
    rm_resid = (np.abs(rm_perp_squared(h) - 4.0 * kp**2) / (1.0 + 4.0 * kp**2)).max()
    brute_vs_printed = 0.0
    abs_kp_resid = 0.0
    max_gap = 0.0
    for i in range(2000):
        row = h[..., i]
        chk = kperp_checks(row, kbar=1.0)
        fr = specialize(row)
        scale = 1.0 + abs(chk.reaction_brute)
        brute_vs_printed = max(brute_vs_printed,
                               abs(chk.reaction_brute - chk.reaction_closed) / scale)
        max_gap = max(max_gap, abs(chk.reaction_brute - chk.reaction_printed))
        abs_kp_resid = max(abs_kp_resid,
                           abs(abs(float(kperp_scalar(row))) - 2.0 * fr.a * abs(fr.c)))
    ok = rm_resid <= 1e-10 and abs_kp_resid <= 1e-10 and brute_vs_printed <= 1e-10
    _report(2, "kperp-reaction-oracle", ok,
            "brute-vs-closed resid %.3e; printed-form gap 2*Kperp*b^2 max %.3f; "
            "|Rm_perp|^2 resid %.2e; |Kperp| resid %.2e"
            % (brute_vs_printed, max_gap, rm_resid, abs_kp_resid))
    assert rm_resid <= 1e-10
    assert abs_kp_resid <= 1e-10
    # brute_vs_printed measures brute against reaction_closed; the catalogued
    # printed form, with its extra -2b^2 term, sits 2*Kperp*b^2 away and is
    # only reported above
    assert brute_vs_printed <= 1e-10


def test_criterion_03_li_li_bound():
    h = _random_population()
    trace = h[0, 0] + h[1, 1]
    ht = h.copy()
    ht[0, 0] -= trace / 2.0
    ht[1, 1] -= trace / 2.0
    margin = (1.5 * norms_batch(ht)[2] ** 2 - r1_batch(ht)).min()
    ok = margin >= -1e-12
    _report(3, "li-li-bound", ok, "min margin %.3e" % margin)
    assert margin >= -1e-12


def test_criterion_04_canonical_invariants():
    worst = 0.0
    targets = {
        "clifford": (2.0, 0.0, 0.0, 0.0),
        "veronese": (4.0 / 3.0, 0.0, 2.0 / 3.0, 1.0 / 3.0),
    }
    for kind, (a2, hnorm, kp_abs, gauss) in targets.items():
        geom = point_geometry(make_surface(kind).jet_at(0.9, 1.3), kbar=1.0)
        worst = max(worst,
                    abs(geom.normA2 - a2),
                    abs(np.sqrt(geom.normH2) - hnorm),
                    abs(abs(geom.kperp) - kp_abs),
                    abs(geom.gauss - gauss))
        # classification: |A|^2 = 1 +/- sqrt(1 - 2 Kperp^2), branch chosen
        # by whichever side the fixture actually lies on
        disc = np.sqrt(max(0.0, 1.0 - 2.0 * geom.kperp**2))
        cls_err = min(abs(geom.normA2 - (1.0 + disc)),
                      abs(geom.normA2 - (1.0 - disc)))
        worst = max(worst, cls_err)
    # Veronese Laplacian factor 2 - b^2 - 3a^2 - 3c^2 (orthonormal-frame sff)
    geom = point_geometry(make_surface("veronese").jet_at(0.9, 1.3), kbar=1.0)
    lap = kperp_checks(geom.h, kbar=1.0).laplacian_factor
    worst = max(worst, abs(lap))
    ok = worst <= 1e-9
    _report(4, "canonical-invariants", ok, "worst |diff| %.2e" % worst)
    assert worst <= 1e-9


def test_criterion_05_discrete_convergence():
    def max_err(kind, kw, nu, nv, ref):
        g = sample_grid(make_surface(kind, **kw), nu, nv)
        pos, first, second = batch_jets(g)
        geom = batch_geometry(pos, first, second)
        return np.abs(geom.normA2[g.valid_rows] - ref).max()

    fixtures = (
        ("clifford", {}, 64, 64, 2.0),
        ("flat-torus", {"r1": 0.6, "r2": 0.8}, 64, 64, 337.0 / 144.0),
        ("geodesic-sphere", {"rho": np.pi / 3}, 64, 128, 2.0 / 3.0),
        ("veronese", {}, 64, 128, 4.0 / 3.0),
    )
    worst64 = 0.0
    worst_factor = np.inf
    for kind, kw, nu, nv, ref in fixtures:
        e64 = max_err(kind, kw, nu, nv, ref)
        e128 = max_err(kind, kw, 2 * nu, 2 * nv, ref)
        worst64 = max(worst64, e64)
        worst_factor = min(worst_factor, e64 / e128)
    ok = worst64 <= 1e-4 and worst_factor >= 3.0
    _report(5, "discrete-convergence", ok,
            "worst 64-res err %.2e, worst refinement factor %.1f"
            % (worst64, worst_factor))
    assert worst64 <= 1e-4
    assert worst_factor >= 3.0


def test_criterion_06_flow_vs_ode_oracle():
    t0 = time.perf_counter()
    grid = sample_grid(make_surface("geodesic-sphere", rho=np.pi / 3), 64, 128)
    res = run(grid, FlowConfig(t_max=1.0, ceiling=1e3, stride=50))
    elapsed = time.perf_counter() - t0
    t_star = np.log(2.0) / 2.0
    ext_err = abs(res.extinction_time - t_star) / t_star
    radius_err = 0.0
    for t, r in res.radius_trajectory:
        if t <= 0.3:
            radius_err = max(radius_err,
                             abs(r - sphere_ode_oracle(np.pi / 3, 2, t)))
    ok = ext_err <= 0.02 and radius_err <= 1e-2 and elapsed < 60.0
    _report(6, "flow-vs-ode-oracle", ok,
            "extinction rel err %.2e, radius err %.2e, %.1f s"
            % (ext_err, radius_err, elapsed))
    assert res.extinction_time is not None
    assert ext_err <= 0.02
    assert radius_err <= 1e-2
    assert elapsed < 60.0


def test_criterion_07_stationary_fixtures():
    worst = 0.0
    for kind, kw in (("geodesic-sphere", {"rho": np.pi / 2}), ("clifford", {})):
        grid = sample_grid(make_surface(kind, **kw), 64, 64)
        res = run(grid, FlowConfig(t_max=1.0))
        drift = np.abs(res.final_state.surface.samples - grid.samples).max()
        worst = max(worst, drift / res.final_state.t)
    ok = worst <= 1e-6
    _report(7, "stationary-fixtures", ok, "worst drift %.2e per unit time" % worst)
    assert worst <= 1e-6


def test_criterion_08_pinching_preservation():
    grid = perturb(make_surface("geodesic-sphere", rho=np.pi / 3), (2, 2),
                   0.01, 64, 128, 0)
    cfg = FlowConfig(cone=ConeParams("thm1", n=2), t_max=1.0,
                     ceiling=1e3, stride=50)
    res = run(grid, cfg)
    q_maxes = np.array([r.q_max for r in res.records])
    ratio_last = res.records[-1].ratio_max
    ok = (q_maxes[0] < 0.0 and q_maxes.max() < 0.0
          and res.outcome == "Shrinking" and abs(ratio_last - 0.5) <= 0.05)
    _report(8, "pinching-preservation", ok,
            "q_max in [%.4f, %.4f], outcome %s, final ratio %.4f"
            % (q_maxes.min(), q_maxes.max(), res.outcome, ratio_last))
    assert q_maxes[0] < 0.0
    assert q_maxes.max() < 0.0
    assert res.outcome == "Shrinking"
    assert abs(ratio_last - 0.5) <= 0.05


def test_criterion_09_gradient_inequalities():
    def margins_of(g):
        geom = batch_geometry(*batch_jets(g))
        return gradient_margins(geom, g.du, g.dv, g.topology == "torus")

    grids = [
        sample_grid(make_surface("clifford"), 128, 128),
        sample_grid(make_surface("flat-torus", r1=0.6, r2=0.8), 128, 128),
        sample_grid(make_surface("geodesic-sphere", rho=np.pi / 3), 128, 256),
        sample_grid(make_surface("veronese"), 128, 256),
        perturb(make_surface("geodesic-sphere", rho=np.pi / 3), (2, 2),
                0.01, 128, 256, 0),
        perturb(make_surface("veronese"), (3, 2), 0.02, 128, 256, 1),
    ]
    worst = np.inf
    for g in grids:
        m = margins_of(g)
        worst = min(worst, m.m1.min(), m.m2.min(), m.m3.min())
    ok = worst >= -1e-6
    _report(9, "gradient-inequalities", ok, "worst margin %.3e" % worst)
    assert worst >= -1e-6


def test_criterion_10_sweep_reporting(tmp_path):
    jobs = (
        ("thm1_n4", ["sweep", "--variant", "thm1", "--n", "4"]),
        ("thm1_n2", ["sweep", "--variant", "thm1", "--n", "2"]),
        ("thm2", ["sweep", "--variant", "thm2"]),
    )
    details = []
    results = []
    for label, args in jobs:
        d = tmp_path / label
        full = args + ["--output-dir", str(d)]
        t0 = time.perf_counter()
        rc = cli_main(full)
        elapsed = time.perf_counter() - t0
        artifact = next(d.glob("sweep_*.json"))
        first_bytes = artifact.read_bytes()
        rc2 = cli_main(full)
        identical = artifact.read_bytes() == first_bytes
        rep = json.loads(first_bytes)["report"]
        # a bracket is either numeric or explicitly reported as absent
        bracketed = (rep["bracket_width"] is not None
                     or any("no sign change" in n for n in rep["notes"]))
        verdict = any(("holds" in n) or ("FAILS" in n) for n in rep["notes"])
        results.append((rc, rc2, identical, elapsed, rep, bracketed, verdict))
        details.append("%s sup %.3e in %.0f s%s"
                       % (label, rep["sup_value"], elapsed,
                          "" if identical else " NOT-REPRODUCIBLE"))
    ok = all(rc == 0 and rc2 == 0 and identical and elapsed < 600.0
             and np.isfinite(rep["sup_value"]) and rep["argmax"]
             and bracketed and verdict
             for rc, rc2, identical, elapsed, rep, bracketed, verdict in results)
    _report(10, "sweep-reporting", ok, "; ".join(details))
    for rc, rc2, identical, elapsed, rep, bracketed, verdict in results:
        assert rc == 0 and rc2 == 0
        assert identical
        assert elapsed < 600.0
        assert np.isfinite(rep["sup_value"])
        assert rep["argmax"]
        assert bracketed
        assert verdict


def test_criterion_11_utility_formulas():
    t_star = blowup_time(1.0, 0.0, 2).t_star
    hval = harnack_bound(2.0, 1.0, 0.0, 0.0, 0.5)
    ok = t_star == 0.25 and hval == 1.0
    _report(11, "utility-formulas", ok,
            "blowup_time %.6g, harnack %.6g" % (t_star, hval))
    assert t_star == 0.25
    assert hval == 1.0
