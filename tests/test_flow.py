"""Flow driver: velocities, stepping, monitoring, snapshots, the ODE oracle."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import pinchflow.flow
from pinchflow.canonical import make_surface, perturb, sample_grid
from pinchflow.errors import BadParams, DegenerateJet, Extinct
from pinchflow.flow import (CSV_HEADER, DEFAULT_CFL, FILTER_FRACTION, FLAT_SPAN,
                            NYQUIST_MOMENT, RKL2_ACCURACY, RKL2_MAX_STAGES, RKL2_SAFETY,
                            SCHEMES, SHRINK_MIN_RECORDS, SIGMA1, SIGMA2, SNAPSHOT_VERSION,
                            FlowConfig, FlowState, MonitorRecord, _flat_for_span,
                            _lean_velocity, _mean_radius, _refresh_poles, _stability_bound,
                            _stop, _verdict, _zonal_mask, mcf_velocity, monitor,
                            read_snapshot, run, sphere_extinction_time, sphere_ode_oracle,
                            step, write_monitor_csv, write_snapshot)
from pinchflow.grids import _d1, _d2, _stencil_index, batch_jets
from pinchflow.identities import gradient_margins
from pinchflow.pinching import ConeParams
from pinchflow.tensor_kernel import batch_geometry


def geodesic_grid(rho, nu, nv):
    return sample_grid(make_surface("geodesic-sphere", rho=rho), nu, nv)


def test_sphere_ode_oracle_values():
    assert abs(sphere_extinction_time(np.pi / 3, 2) - np.log(2.0) / 2.0) < 1e-12
    got = sphere_ode_oracle(np.pi / 3, 2, 0.1)
    assert abs(got - np.arccos(0.5 * np.exp(0.2))) < 1e-10
    # the equator is a minimal surface: stationary for all time
    assert abs(sphere_ode_oracle(np.pi / 2, 2, 5.0) - np.pi / 2) < 1e-9
    with pytest.raises(Extinct):
        sphere_ode_oracle(np.pi / 3, 2, 0.4)


def test_sphere_ode_oracle_n3():
    # n = 3: cos rho(t) = cos(rho0) e^{3t}
    t = 0.05
    got = sphere_ode_oracle(np.pi / 3, 3, t)
    assert abs(got - np.arccos(0.5 * np.exp(3 * t))) < 1e-10
    assert abs(sphere_extinction_time(np.pi / 3, 3) - np.log(2.0) / 3.0) < 1e-12


def test_velocity_vanishes_on_minimal_surfaces():
    for kind, kw in (("geodesic-sphere", {"rho": np.pi / 2}),
                     ("clifford", {})):
        surf = make_surface(kind, **kw)
        grid = sample_grid(surf, 32, 64 if kind != "clifford" else 32)
        v = mcf_velocity(grid)
        assert np.abs(v[:, grid.valid_rows]).max() <= 1e-8


def test_velocity_magnitude_geodesic_sphere():
    grid = geodesic_grid(np.pi / 3, 64, 128)
    mag = np.linalg.norm(mcf_velocity(grid), axis=0)[grid.valid_rows]
    # |H| = 2 cot(pi/3) = 2/sqrt(3), pointing down the radius of the cap
    assert abs(mag.max() - 2.0 / np.sqrt(3.0)) < 1e-5
    assert abs(mag.min() - 2.0 / np.sqrt(3.0)) < 1e-5


def test_step_equator_is_fixed_point():
    grid = geodesic_grid(np.pi / 2, 32, 64)
    state = FlowState(0.0, 0, grid.copy_with(grid.samples.copy()), 0.0)
    out = step(state, batch_jets(state.surface), FlowConfig(scheme="euler"))
    assert np.abs(out.surface.samples - grid.samples).max() <= 1e-8
    assert out.step_index == 1
    # a2_max = 0 on the equator, so the max(1, .) floor kicks in
    assert out.dt_last == 0.2 * min(grid.du, grid.dv) ** 2


def test_step_dt_formula():
    grid = geodesic_grid(np.pi / 3, 64, 128)
    state = FlowState(0.0, 0, grid.copy_with(grid.samples.copy()), 0.0)
    out = step(state, batch_jets(state.surface), FlowConfig(scheme="euler"))
    # a2_max = 2/3 < 1 for this cap, floor again active
    assert out.dt_last == 0.2 * min(grid.du, grid.dv) ** 2
    assert out.t == out.dt_last
    # points stay on the unit sphere after the renormalization
    radii = np.linalg.norm(out.surface.samples, axis=0)
    assert np.abs(radii - 1.0).max() <= 1e-12


def test_run_tracks_shrinking_sphere_radius():
    grid = geodesic_grid(np.pi / 3, 64, 128)
    res = run(grid, FlowConfig(t_max=0.1, stride=25))
    traj = np.asarray(res.radius_trajectory)
    assert traj.shape[1] == 2
    assert traj[0, 0] == 0.0
    assert abs(traj[0, 1] - np.pi / 3) < 1e-6
    t_last, r_last = traj[-1]
    assert abs(r_last - sphere_ode_oracle(np.pi / 3, 2, t_last)) < 1e-3


def test_rk2_tracks_sphere_ode_better_than_euler():
    grid = geodesic_grid(np.pi / 3, 32, 64)
    errs = {}
    for scheme in ("rk2", "euler"):
        res = run(grid, FlowConfig(scheme=scheme, t_max=0.1, stride=25))
        errs[scheme] = max(abs(r - sphere_ode_oracle(np.pi / 3, 2, t))
                           for t, r in res.radius_trajectory)
    assert errs["rk2"] < 1e-6
    assert errs["rk2"] < errs["euler"]


def test_rkl2_small_sphere_ends_shrinking_near_extinction():
    """The accuracy cap keeps super-steps short of the extinction time: on
    this grid the stability bound alone allows one super-step from t = 0 to
    past it.  At ceiling 1e2 the run stops with three records in the
    resolved window, the fewest the verdict fits."""
    res = run(geodesic_grid(np.pi / 3, 12, 24), FlowConfig(t_max=1.0, ceiling=1e2))
    t_star = sphere_extinction_time(np.pi / 3, 2)
    assert res.outcome == "Shrinking"
    assert abs(res.extinction_time - t_star) <= 0.05 * t_star


def _flat_stop(records, cfg):
    """_stop without its verdict rules: only a flat a2_max ends a run early."""
    return [] if _flat_for_span(records, cfg.flat_threshold) else None


def _run(grid, cfg, to_ceiling=False):
    """run(grid, cfg); with to_ceiling, a decided verdict does not stop it."""
    with pytest.MonkeyPatch.context() as patch:
        if to_ceiling:
            patch.setattr(pinchflow.flow, "_stop", _flat_stop)
        return run(grid, cfg)


@lru_cache(maxsize=None)
def _sphere_run(nu, nv, amplitude, stride, to_ceiling):
    """A rho = pi/3 sphere, perturbed in mode (2, 2), run at the default ceiling."""
    grid = perturb(make_surface("geodesic-sphere", rho=np.pi / 3), (2, 2), amplitude, nu, nv)
    return _run(grid, FlowConfig(t_max=1.0, stride=stride), to_ceiling)


def _rows(records):
    return [rec.csv_row() for rec in records]


SPHERE_RUNS = pytest.mark.parametrize("nu,nv,amplitude,stride", [
    (12, 24, 0.0, 25), (32, 64, 0.0, 25), (32, 64, 0.01, 50)],
    ids=["12x24", "32x64", "perturbed_32x64"])


@SPHERE_RUNS
def test_sphere_ends_shrinking_at_default_ceiling(nu, nv, amplitude, stride):
    """The verdict is fitted on the records the grid resolves, so the
    unresolved records before the default ceiling do not spoil it (the run
    is taken past its decided verdict)."""
    res = _sphere_run(nu, nv, amplitude, stride, True)
    t_star = sphere_extinction_time(np.pi / 3, 2)
    assert res.outcome == "Shrinking"
    assert abs(res.extinction_time - t_star) <= 0.02 * t_star
    assert any("ceiling 1.000e+06" in note for note in res.notes)


@SPHERE_RUNS
def test_sphere_run_stops_at_its_verdict(nu, nv, amplitude, stride):
    """Once the verdict is decided the run stops: its records are the first
    records of the run to the ceiling, and it takes fewer evaluations.  The
    32 x 64 windows hold enough records for a stable fit; the 12 x 24 window
    holds 3, too few for rule (b), so it stops at the first record past it."""
    res, full = (_sphere_run(nu, nv, amplitude, stride, past) for past in (False, True))
    assert res.outcome == "Shrinking"
    assert abs(res.extinction_time - sphere_extinction_time(np.pi / 3, 2)) <= 2e-3
    assert len(res.notes) == 1 and "verdict decided" in res.notes[0]
    rule = "area below the resolved window" if nu == 12 else "extinction fit stable"
    assert rule in res.notes[0]
    assert len(res.records) < len(full.records)
    assert _rows(res.records) == _rows(full.records[:len(res.records)])
    assert res.final_state.evaluations < full.final_state.evaluations


def test_sphere_run_past_its_window_stops_unresolved():
    """At stride 200 the 12 x 24 window holds too few records for a fit: the
    run stops at the first record past the window, with the verdict of the
    run to the ceiling."""
    grid = geodesic_grid(np.pi / 3, 12, 24)
    res, full = (_run(grid, FlowConfig(stride=200), past) for past in (False, True))
    assert res.outcome == full.outcome == "NumericalBlowup"
    assert res.notes[-1].endswith("area below the resolved window")
    assert res.records[-1].area < 1e-2 * res.records[0].area
    assert _rows(res.records) == _rows(full.records[:len(res.records)])
    assert res.final_state.evaluations < full.final_state.evaluations


def test_decided_verdict_stands_at_t_max():
    """A verdict decided before t_max ends the run Shrinking, with an
    extinction time past t_max; so does one decided on a record at t_max."""
    grid = geodesic_grid(np.pi / 3, 32, 64)
    res = run(grid, FlowConfig(t_max=0.342, stride=25))
    assert res.outcome == "Shrinking" and res.final_state.t < 0.342 < res.extinction_time
    at_t_max = run(grid, FlowConfig(t_max=res.records[-1].t, stride=25))
    assert at_t_max.final_state.t == at_t_max.config.t_max
    assert (at_t_max.outcome, at_t_max.notes) == ("Shrinking", res.notes)


@pytest.mark.parametrize("kind,params,nu,nv,cfg,outcome", [
    ("flat-torus", {"r1": 0.6, "r2": 0.8}, 16, 16,
     FlowConfig(cone=ConeParams("thm1", n=2), stride=1, t_max=0.05), "Inconclusive"),
    ("geodesic-sphere", {"rho": np.pi / 2}, 16, 32, FlowConfig(stride=3),
     "ApproachTotallyGeodesic")],
    ids=["torus", "equator"])
def test_runs_without_a_round_point_ignore_the_stop_rule(kind, params, nu, nv, cfg, outcome):
    grid = sample_grid(make_surface(kind, **params), nu, nv)
    res, full = (_run(grid, cfg, past) for past in (False, True))
    assert res.outcome == full.outcome == outcome
    assert res.notes == full.notes == []
    assert _rows(res.records) == _rows(full.records)


def test_perturbed_sphere_stays_in_the_thm1_cone_to_its_verdict():
    """At the default ceiling the run stops before the unresolved records,
    where q_max leaves the cone (up to about 1e6 on this grid)."""
    grid = perturb(make_surface("geodesic-sphere", rho=np.pi / 3), (2, 2), 0.01, 32, 64)
    res = run(grid, FlowConfig(cone=ConeParams("thm1", n=2), t_max=1.0, stride=50))
    assert res.outcome == "Shrinking"
    assert all(rec.q_max < 0.0 for rec in res.records)


def _sphere_records(times, rho0=np.pi / 3):
    """Monitor records of the exact shrinking geodesic sphere at times:
    area 4 pi sin^2 rho, |H| = 2 cot rho, |A|^2/|H|^2 = 1/2."""
    recs = []
    for t in times:
        rho = sphere_ode_oracle(rho0, 2, t)
        h, a2 = 2.0 / np.tan(rho), 2.0 / np.tan(rho) ** 2
        recs.append(MonitorRecord(t, 4.0 * np.pi * np.sin(rho) ** 2, h, h, a2, np.nan,
                                  np.nan, 0.5, 0.0, 0.0, 0.0, 0))
    return recs


def test_verdict_fits_the_resolved_window():
    t_star = sphere_extinction_time(np.pi / 3, 2)
    recs = _sphere_records(np.linspace(0.0, t_star * (1 - 1e-4), 200))
    window = [r for r in recs if 1e-2 <= r.area / recs[0].area <= 1e-1]
    assert len(window) >= 3
    outcome, extinction = _verdict(recs, FlowConfig(), early=True)
    assert outcome == "Shrinking" and abs(extinction - t_star) <= 2e-3 * t_star
    assert _verdict(recs, FlowConfig(), early=False) == ("Inconclusive", None)
    # an unresolved last record takes no part in the verdict
    blowup = MonitorRecord(t_star, 1e-6, 1e3, 1e3, 1e6, np.nan, np.nan, 900.0, 0.0, 0.0,
                           0.0, 0)
    assert _verdict(recs + [blowup], FlowConfig(), early=True) == (outcome, extinction)
    # too few window records, a ratio off 1/n on one, or a slope off -2/n
    assert _verdict(recs[:1] + window[:2], FlowConfig(), early=True)[0] == "NumericalBlowup"
    window[1].ratio_max = 0.56
    assert _verdict(recs, FlowConfig(), early=True) == ("NumericalBlowup", None)
    window[1].ratio_max = 0.5
    for rec in recs:
        rec.t *= 1.2
    assert _verdict(recs, FlowConfig(), early=True) == ("NumericalBlowup", None)


def test_stop_waits_for_a_stable_window_fit():
    t_star = sphere_extinction_time(np.pi / 3, 2)
    recs = _sphere_records(np.linspace(0.0, t_star * (1 - 1e-4), 200))
    first = next(i for i, r in enumerate(recs) if r.area <= 1e-1 * recs[0].area)
    last = first + SHRINK_MIN_RECORDS      # the first window record past the fit's minimum
    cfg = FlowConfig()
    assert _stop(recs[:last], cfg) is None
    assert _stop(recs[:last + 1], cfg) == [
        "verdict decided at t = %.6f: extinction fit stable to 0.001" % recs[last].t]
    # a newest record that moves the fitted root by more than DECIDED_TOL
    moved = replace(recs[last], h_max=recs[last].h_max * 1.01)
    assert _stop(recs[:last] + [moved], cfg) is None
    assert _stop(recs, cfg)[0].endswith("area below the resolved window")


def test_run_cfl_too_large_blows_up():
    grid = geodesic_grid(np.pi / 3, 32, 64)
    res = run(grid, FlowConfig(scheme="euler", t_max=1.0, cfl=10.0))
    assert res.outcome == "NumericalBlowup"
    assert any("ceiling" in note for note in res.notes)


def test_monitor_without_cone():
    grid = geodesic_grid(np.pi / 3, 64, 128)
    rec = monitor(grid, batch_jets(grid), FlowConfig(), 0.0)
    assert np.isnan(rec.q_min) and np.isnan(rec.q_max)
    assert abs(rec.ratio_max - 0.5) < 1e-9  # |A|^2/|H|^2 on any round cap
    assert abs(rec.kperp_min) < 1e-9 and abs(rec.kperp_max) < 1e-9
    assert rec.harnack_violations == 0
    assert rec.area > 0.0


def test_monitor_grad_ratio_nan_without_stencil():
    # 4 rows leave 2 jet rows between the poles: too few for central differences
    grid = geodesic_grid(np.pi / 3, 4, 8)
    rec = monitor(grid, batch_jets(grid), FlowConfig(), 0.0)
    assert np.isnan(rec.grad_ratio)
    assert rec.area > 0.0


@pytest.mark.parametrize("kind,params,nu,nv,amplitude", [
    ("flat-torus", {}, 24, 24, 0.05), ("geodesic-sphere", {"rho": np.pi / 3}, 16, 32, 0.02),
    ("veronese", {}, 12, 24, 0.02)], ids=["torus", "sphere", "veronese"])
def test_monitor_grad_ratio_reads_the_margins_gradient(kind, params, nu, nv, amplitude):
    """The monitor contracts |grad A|^2 from the gradient gradient_margins
    uses: its grad_ratio equals the one gradient_margins' grad_a2 gives, bit
    for bit, with and without the u-boundary rows."""
    grid = perturb(make_surface(kind, **params), (2, 1), amplitude, nu, nv)
    cfg = FlowConfig(sigma=0.1)
    rec = monitor(grid, batch_jets(grid), cfg, 0.0)
    wrap_u = grid.topology == "torus"
    geom = batch_geometry(*batch_jets(grid))
    g = geom.normH2 / (geom.n - 1.0) - geom.normA2 + 2.0
    g = g if wrap_u else g[1:-1]
    grad_a2 = gradient_margins(geom, grid.du, grid.dv, wrap_u).grad_a2
    assert rec.grad_ratio == float((grad_a2[g > 0] / g[g > 0] ** (2.0 - cfg.sigma)).max())


def test_monitor_with_cone_and_harnack():
    grid = geodesic_grid(np.pi / 3, 64, 128)
    cfg = FlowConfig(cone=ConeParams("thm1", n=2),
                     harnack_csharp=1.0, harnack_delta0=0.1)
    rec = monitor(grid, batch_jets(grid), cfg, 0.0)
    assert abs(rec.q_max - (-11.0 / 9.0)) < 1e-5
    assert abs(rec.q_min - (-11.0 / 9.0)) < 1e-5
    assert rec.harnack_violations == 0
    for key in ("h_max", "a2_max", "q_max"):
        assert key in rec.indices


def test_flow_cone_is_evaluated_at_unit_kbar():
    """Flows run in the unit sphere, so a cone with another kbar is refused
    rather than evaluated at a background curvature the flow does not have."""
    with pytest.raises(BadParams, match="kbar = 1"):
        FlowConfig(cone=ConeParams("thm1", kbar=2.0))
    assert FlowConfig(cone=ConeParams("thm1")).cone == ConeParams("thm1")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_evaluates_jets_once_per_velocity_evaluation(monkeypatch, scheme):
    calls = []

    def counted(surface):
        calls.append(surface)
        return batch_jets(surface)

    monkeypatch.setattr(pinchflow.flow, "batch_jets", counted)
    grid = sample_grid(make_surface("flat-torus"), 16, 16)
    res = run(grid, FlowConfig(scheme=scheme, cone=ConeParams("thm1", n=2), stride=1,
                               t_max=0.1))
    steps = res.final_state.step_index
    assert steps > 1 and len(res.records) == steps + 1
    # the initial surface's jets, then one per velocity evaluation: the
    # monitor and the next step share the jets of each new surface
    assert len(calls) == res.final_state.evaluations + 1


@pytest.mark.parametrize("scheme,per_step", [("euler", 1), ("rk2", 2), ("rkl2", None)])
def test_stride_counts_velocity_evaluations(monkeypatch, scheme, per_step):
    """A record follows each step that crosses a multiple of stride in the
    running count of velocity evaluations."""
    states = []

    def recorded(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(pinchflow.flow, "step", recorded)
    stride = 7
    res = run(geodesic_grid(np.pi / 3, 12, 24), FlowConfig(scheme=scheme, t_max=0.3,
                                                          stride=stride))
    evals = [0] + [st.evaluations for st in states]
    if per_step is not None:
        assert evals == list(range(0, per_step * len(states) + 1, per_step))
    crossed = [st.t for st, a, b in zip(states, evals, evals[1:])
               if b // stride > a // stride]
    assert [rec.t for rec in res.records] == [0.0] + crossed
    assert 1 < len(crossed) < len(states)


def test_monitor_csv_deterministic(tmp_path):
    grid = geodesic_grid(np.pi / 3, 32, 64)
    cfg = FlowConfig()
    jets = batch_jets(grid)
    recs = [monitor(grid, jets, cfg, 0.0), monitor(grid, jets, cfg, 0.1)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_monitor_csv(recs, p1)
    write_monitor_csv(recs, p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.decode().splitlines()[0] == CSV_HEADER


def test_snapshot_roundtrip_bytes(tmp_path):
    grid = geodesic_grid(np.pi / 3, 16, 32)
    p1, p2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    write_snapshot(grid, p1, 0.125)
    back = read_snapshot(p1)
    assert back.topology == grid.topology
    assert (back.nu, back.nv) == (grid.nu, grid.nv)
    assert np.array_equal(back.samples, grid.samples)
    write_snapshot(back, p2, 0.125)
    assert p1.read_bytes() == p2.read_bytes()


def _point_by_point_snapshot(surface, path, t):
    """The snapshot writer that formatted one numpy scalar at a time, kept
    as a test-only reference for the file format."""
    with open(path, "w") as fh:
        fh.write("# pinchflow-snapshot v%d topology=%s nu=%d nv=%d t=%s\n"
                 % (SNAPSHOT_VERSION, surface.topology, surface.nu, surface.nv,
                    repr(float(t))))
        for i in range(surface.nu):
            for j in range(surface.nv):
                coords = " ".join(repr(float(x)) for x in surface.samples[:, i, j])
                fh.write("%d %d %s\n" % (i, j, coords))


def test_snapshot_matches_point_by_point_writer(tmp_path):
    """A perturbed Veronese grid (5 ambient coordinates, nu != nv, last-bit
    values everywhere) writes the bytes of the point-by-point writer, and
    reads back to the same samples."""
    grid = perturb(make_surface("veronese"), (3, 2), 0.02, 12, 20, 1)
    p1, p2 = tmp_path / "new.txt", tmp_path / "old.txt"
    write_snapshot(grid, p1, 0.0625)
    _point_by_point_snapshot(grid, p2, 0.0625)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_snapshot(p1)
    assert (back.topology, back.nu, back.nv) == (grid.topology, 12, 20)
    assert np.array_equal(back.samples, grid.samples)


# ---------------------------------------------------------------------------
# every exit of run: the flat window, the step budget, a failed step, and a
# failed step whose last surface cannot be monitored either

def _failing_on_call(fn, n, message):
    """fn, except that its n-th call raises DegenerateJet(message)."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        if len(calls) == n:
            raise DegenerateJet(message)
        return fn(*args, **kwargs)
    return wrapped


def test_run_equator_approaches_totally_geodesic():
    res = run(geodesic_grid(np.pi / 2, 16, 32), FlowConfig(stride=3))
    assert res.outcome == "ApproachTotallyGeodesic"
    assert FLAT_SPAN <= res.final_state.t < 0.2 * res.config.t_max
    assert all(rec.a2_max < 1e-4 for rec in res.records)
    assert res.notes == [] and res.extinction_time is None


def test_run_step_budget_is_inconclusive(monkeypatch):
    monkeypatch.setattr(pinchflow.flow, "MAX_STEPS", 3)
    res = run(geodesic_grid(np.pi / 3, 12, 24), FlowConfig(stride=1))
    assert res.outcome == "Inconclusive"
    assert res.final_state.step_index == 3 and len(res.records) == 4
    assert res.notes == ["step budget exhausted at t = 0.142045"]


def test_run_failed_step_records_the_last_surface(monkeypatch):
    monkeypatch.setattr(pinchflow.flow, "step", _failing_on_call(step, 3, "det 0"))
    res = run(geodesic_grid(np.pi / 3, 12, 24), FlowConfig(stride=100))
    assert res.outcome == "NumericalBlowup"
    assert [rec.t for rec in res.records] == [0.0, res.final_state.t]
    assert abs(res.final_state.t - 0.1) < 1e-12 and res.final_state.step_index == 2
    assert res.notes == ["geometry degenerated mid-run: det 0"]


def test_run_failed_step_and_final_monitor(monkeypatch):
    monkeypatch.setattr(pinchflow.flow, "step", _failing_on_call(step, 3, "det 0"))
    monkeypatch.setattr(pinchflow.flow, "monitor", _failing_on_call(monitor, 2, "gram 0"))
    res = run(geodesic_grid(np.pi / 3, 12, 24), FlowConfig(stride=100))
    assert res.outcome == "NumericalBlowup"
    assert [rec.t for rec in res.records] == [0.0]
    assert res.notes == ["geometry degenerated mid-run: det 0",
                         "final monitor unavailable (gram 0)"]


# ---------------------------------------------------------------------------
# test-only reference: the point-major stepper that the component-major one
# replaced, with its per-call gather table, np.roll across-pole sums, per-call
# zonal mask and separate fv stencil pass.  The arithmetic is unchanged, so
# the two must agree bit for bit.

def _reference_padded(samples, topology):
    d, nu, nv = samples.shape
    rows = np.arange(-2, nu + 2)
    cols = np.arange(-2, nv + 2)
    if topology == "torus":
        src_rows, shift = rows % nu, 0
    else:
        half = nv // 2
        beyond = (rows < 0) | (rows > nu - 1)
        src_rows = np.where(rows < 0, -rows, np.where(rows > nu - 1, 2 * (nu - 1) - rows, rows))
        shift = half * beyond[:, None]
    flat = src_rows[:, None] * nv + (cols + shift) % nv
    ext = np.take(samples.reshape(d, nu * nv), flat, axis=1)
    if topology == "torus":
        return ext

    def across(row):
        return row + np.roll(row, half, axis=-1)

    for node, (r1, r2, r3) in ((2, (1, 2, 3)), (nu + 1, (nu - 2, nu - 3, nu - 4))):
        pole = (15.0 * across(samples[:, r1]) - 6.0 * across(samples[:, r2])
                + across(samples[:, r3])) / 20.0
        ext[:, node] = (pole / np.linalg.norm(pole, axis=0, keepdims=True))[:, cols % nv]
    return ext


def _reference_jets(topology, rows, du, dv, samples):
    """batch_jets of point-major (nu, nv, d) samples."""
    s = np.moveaxis(samples, -1, 0)
    r0, r1 = rows.start, rows.stop
    euv = _reference_padded(s, topology)
    eu = euv[:, r0:r1 + 4, 2:-2]
    ev = euv[:, r0 + 2:r1 + 2]
    block = np.empty((7,) + s[:, rows].shape)
    pos, first, second = block[0], block[1:3], block[3:].reshape((2, 2) + block.shape[1:])
    pos[...] = s[:, rows]
    _d1(eu, 1, du, first[0])
    _d1(ev, 2, dv, first[1])
    _d2(eu, 1, du, second[0, 0])
    _d1(_d1(euv[:, r0:r1 + 4], 2, dv), 1, du, second[0, 1])
    second[1, 0] = second[0, 1]
    _d2(ev, 2, dv, second[1, 1])
    return pos, first, second


def _reference_advance(grid, samples, vel_valid, dt):
    def unit(x):
        return x / np.sqrt((x * x).sum(axis=0))

    s = np.moveaxis(samples, -1, 0).copy()
    s[:, grid.valid_rows] += dt * vel_valid
    if grid.topology == "sphere":
        _refresh_poles(s)
        s = unit(s)
        spec = np.fft.rfft(s, axis=-1)
        mmax = np.floor(FILTER_FRACTION * (grid.nv / 2.0)
                        * np.abs(np.sin(grid.u_values))).astype(int)
        mask = np.arange(spec.shape[-1])[None, :] <= np.maximum(mmax, 1)[:, None]
        s = np.fft.irfft(spec * mask, n=grid.nv, axis=-1)
    return np.ascontiguousarray(np.moveaxis(unit(s), 0, -1))


def _reference_steps(grid, scheme, steps, cfl=0.2):
    """(samples (nu, nv, d), t) after steps point-major reference steps."""
    samples = np.ascontiguousarray(np.moveaxis(grid.samples, 0, -1))
    t = 0.0

    def jets(x):
        return _reference_jets(grid.topology, grid.valid_rows, grid.du, grid.dv, x)

    for _ in range(steps):
        vel, a2, _ = _lean_velocity(*jets(samples))
        dt = cfl * min(grid.du, grid.dv) ** 2 / max(1.0, float(a2.max()))
        if scheme == "euler":
            samples = _reference_advance(grid, samples, vel, dt)
        else:
            mid = _reference_advance(grid, samples, vel, 0.5 * dt)
            vel2 = _lean_velocity(*jets(mid))[0]
            samples = _reference_advance(grid, samples, vel2, dt)
        t = t + dt
    return samples, t


def _reference_bound(grid, inverse, a2max):
    """_stability_bound written out: the v symbol of each jet row at the
    highest mode the reference filter keeps there, 16/3 on a torus."""
    ga, gb, gc = inverse
    if grid.topology == "sphere":
        mmax = np.floor(FILTER_FRACTION * (grid.nv / 2.0)
                        * np.abs(np.sin(grid.u_values))).astype(int)
        theta = np.maximum(mmax, 1)[1:-1, None] * (2.0 * np.pi / grid.nv)
        v_sym = (30.0 - 32.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)) / 12.0
    else:
        v_sym = 16.0 / 3.0
    du, dv = grid.du, grid.dv
    lam = (ga * (SIGMA2 / (du * du)) + gc * (v_sym / (dv * dv))
           + np.abs(gb) * (2.0 * SIGMA1 * SIGMA1 / (du * dv)))
    return float(lam.max()) + 2.0 * NYQUIST_MOMENT * a2max


def _reference_rkl2_steps(grid, steps, cfl=0.2, t_max=np.inf):
    """[(samples (nu, nv, d), t)] after each of steps point-major RKL2
    super-steps.

    The s-stage recurrence of Meyer, Balsara & Aslam (2014), written out
    with the point-major reference jets and restabilization above:
    Y_1 = Y_0 + mu~_1 tau L(Y_0), and for j = 2 .. s
    Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + (1 - mu_j - nu_j) Y_0
          + mu~_j tau L(Y_{j-1}) + gamma~_j tau L(Y_0).
    tau is the accuracy target, or the stable reach of s stages at
    RKL2_SAFETY * cfl / 0.2 of the bound, whichever is shorter.
    """
    samples = np.ascontiguousarray(np.moveaxis(grid.samples, 0, -1))
    t, out = 0.0, []

    def jets(x):
        return _reference_jets(grid.topology, grid.valid_rows, grid.du, grid.dv, x)

    for _ in range(steps):
        vel0, a2, inverse = _lean_velocity(*jets(samples))
        a2max = float(a2.max())
        unit = RKL2_SAFETY * (cfl / 0.2) * (2.0 / _reference_bound(grid, inverse, a2max))
        target = min(RKL2_ACCURACY / max(1.0, a2max), t_max - t)
        for s in range(2, RKL2_MAX_STAGES + 1):
            if unit * (s * s + s - 2.0) / 4.0 >= target:
                break
        tau = min(target, unit * (s * s + s - 2.0) / 4.0)
        b = [1.0 / 3.0, 1.0 / 3.0] + [(j * j + j - 2.0) / (2.0 * j * (j + 1.0))
                                      for j in range(2, s + 1)]
        w1 = 4.0 / (s * s + s - 2.0)
        ys = [samples, _reference_advance(grid, samples, vel0, b[1] * w1 * tau)]
        for j in range(2, s + 1):
            mu = (2.0 * j - 1.0) / j * b[j] / b[j - 1]
            nu = -(j - 1.0) / j * b[j] / b[j - 2]
            mut = mu * w1
            gamt = -(1.0 - b[j - 1]) * mut
            vel = _lean_velocity(*jets(ys[-1]))[0]
            combo = mu * ys[-1] + nu * ys[-2] + (1.0 - mu - nu) * samples
            # dt = 1.0 adds the stage's velocity terms exactly, then restabilizes
            ys.append(_reference_advance(grid, combo, (mut * tau) * vel + (gamt * tau) * vel0,
                                         1.0))
        samples = ys[-1]
        t = t_max if tau >= t_max - t else t + tau
        out.append((samples, t))
    return out


def test_rkl2_matches_point_major_reference():
    grid = perturb(make_surface("geodesic-sphere"), (2, 2), 0.05, 16, 32)
    state = FlowState(0.0, 0, grid, 0.0)
    for _ in range(5):
        state = step(state, batch_jets(state.surface), FlowConfig(scheme="rkl2"))
    ref, t = _reference_rkl2_steps(grid, 5)[-1]
    assert state.evaluations > 10
    assert np.array_equal(state.surface.samples, np.moveaxis(ref, -1, 0))
    assert state.t == t


@pytest.mark.parametrize("kind,nu,nv,scheme", [
    ("geodesic-sphere", 16, 32, "euler"),
    ("geodesic-sphere", 16, 32, "rk2"),
    ("flat-torus", 12, 12, "euler"),
], ids=["sphere_euler", "sphere_rk2", "torus_euler"])
def test_stepper_matches_point_major_reference(kind, nu, nv, scheme):
    surf = make_surface(kind)
    grid = perturb(surf, (2, 2), 0.05, nu, nv) if kind == "geodesic-sphere" \
        else sample_grid(surf, nu, nv)
    state = FlowState(0.0, 0, grid, 0.0)
    for _ in range(40):
        state = step(state, batch_jets(state.surface), FlowConfig(scheme=scheme))
    ref, t = _reference_steps(grid, scheme, 40)
    assert state.surface.samples.shape == (5, nu, nv)
    assert np.array_equal(state.surface.samples, np.moveaxis(ref, -1, 0))
    assert state.t == t


def test_run_builds_grid_tables_once():
    grid = geodesic_grid(np.pi / 3, 12, 24)
    state = step(FlowState(0.0, 0, grid, 0.0), batch_jets(grid), FlowConfig(scheme="euler"))
    misses = (_stencil_index.cache_info().misses, _zonal_mask.cache_info().misses)
    res = run(state.surface, FlowConfig(scheme="euler", t_max=0.2, stride=5))
    assert res.final_state.step_index > 5
    assert (_stencil_index.cache_info().misses, _zonal_mask.cache_info().misses) == misses


@pytest.mark.parametrize("kind,params,nu,nv,t_max,occupied", [
    ("geodesic-sphere", {"rho": np.pi / 3}, 16, 32, 0.12, 4),
    ("flat-torus", {}, 16, 16, 0.05, 4),
    ("geodesic-sphere", {"rho": np.pi / 3, "m": 3}, 16, 32, 0.12, 4),
    ("veronese", {}, 12, 24, 0.05, 5),
], ids=["sphere", "torus", "sphere_in_s5", "veronese"])
def test_run_steps_on_the_occupied_coordinates(monkeypatch, kind, params, nu, nv, t_max,
                                               occupied):
    """run steps on the ambient coordinates that are not 0.0 on every sample
    and puts the zeros back for each record and the final state.  Its
    records, radius samples and final samples equal those of the point-major
    reference stepping every coordinate, whose zero coordinates stay 0.0."""
    stepped = []

    def counted(surface):
        stepped.append(len(surface.samples))
        return batch_jets(surface)

    monkeypatch.setattr(pinchflow.flow, "batch_jets", counted)
    grid = sample_grid(make_surface(kind, **params), nu, nv)
    cfg = FlowConfig(t_max=t_max, stride=1)
    res = run(grid, cfg)
    assert set(stepped) == {occupied}
    ref = _reference_rkl2_steps(grid, res.final_state.step_index, t_max=t_max)
    surfaces = [grid] + [grid.copy_with(np.ascontiguousarray(np.moveaxis(x, -1, 0)))
                         for x, _ in ref]
    times = [0.0] + [t for _, t in ref]
    assert res.final_state.t == times[-1] == t_max and len(times) > 2
    assert _rows(res.records) == [monitor(sf, batch_jets(sf), cfg, t).csv_row()
                                  for sf, t in zip(surfaces, times)]
    if kind == "geodesic-sphere":
        assert res.radius_trajectory == [(t, _mean_radius(sf, 3))
                                         for sf, t in zip(surfaces, times)]
    final = res.final_state.surface.samples
    assert final.shape == grid.samples.shape
    assert np.array_equal(final, surfaces[-1].samples)
    zero = (grid.samples == 0.0).all(axis=(1, 2))
    assert zero.sum() == len(grid.samples) - occupied
    for samples in (final, surfaces[-1].samples):
        assert (samples[zero] == 0.0).all() and not np.signbit(samples[zero]).any()


# ---------------------------------------------------------------------------
# the rkl2 stability bound against the spectral radius it bounds

def _spectral_radius(grid, eps=1e-7):
    """Spectral radius of the linearized velocity of grid, by Krylov power
    iteration (ARPACK's restarted Arnoldi) on central differences of
    mcf_velocity's route.  A perturbation moves the jet rows; as a stage
    does, each application projects it onto the sphere's tangent space and,
    on a sphere grid, through the zonal filter."""
    linalg = pytest.importorskip("scipy.sparse.linalg")
    rows = grid.valid_rows
    pos = grid.samples[:, rows]
    mask = _zonal_mask(grid.nu, grid.nv)[rows] if grid.topology == "sphere" else None

    def project(x):
        x = x - (x * pos).sum(axis=0) * pos
        if mask is not None:
            x = np.fft.irfft(np.fft.rfft(x, axis=-1) * mask, n=grid.nv, axis=-1)
            x = x - (x * pos).sum(axis=0) * pos
        return x

    def apply(flat):
        x = project(flat.reshape(pos.shape))
        vel = []
        for sign in (1.0, -1.0):
            samples = grid.samples.copy()
            samples[:, rows] += sign * eps * x
            vel.append(_lean_velocity(*batch_jets(grid.copy_with(samples)))[0])
        return project((vel[0] - vel[1]) / (2.0 * eps)).ravel()

    op = linalg.LinearOperator((pos.size, pos.size), matvec=apply, dtype=float)
    v0 = np.random.default_rng(27).standard_normal(pos.size)
    return float(abs(linalg.eigs(op, k=1, which="LM", tol=1e-8, v0=v0,
                                 return_eigenvectors=False)[0]))


def _sphere_after_super_steps(steps):
    state = FlowState(0.0, 0, geodesic_grid(np.pi / 3, 32, 64), 0.0)
    for _ in range(steps):
        state = step(state, batch_jets(state.surface), FlowConfig())
    return state.surface


@pytest.mark.parametrize("name", ["sphere_t0", "sphere_20_super_steps", "flat_torus",
                                  "veronese"])
def test_stability_bound_covers_the_spectral_radius(name):
    """The bound that sizes rkl2's super-steps is at least the measured
    spectral radius (the ratios are 1.15, 1.15, 1.006 and 1.20).  On the flat
    torus the top mode is the grid's highest, and the principal part alone
    falls short of it: the metric's response to that mode adds
    (5/3) |A|^2 - 2 there, which the a2_max term covers."""
    grid = {"sphere_t0": lambda: geodesic_grid(np.pi / 3, 32, 64),
            "sphere_20_super_steps": lambda: _sphere_after_super_steps(20),
            "flat_torus": lambda: sample_grid(make_surface("flat-torus"), 40, 40),
            "veronese": lambda: sample_grid(make_surface("veronese"), 32, 64)}[name]()
    _, a2, inverse = _lean_velocity(*batch_jets(grid))
    measured = _spectral_radius(grid)
    assert _stability_bound(grid, inverse, float(a2.max())) >= measured
    if name == "flat_torus":
        assert _stability_bound(grid, inverse, 0.0) < measured


# ---------------------------------------------------------------------------
# --cfl under rkl2

def test_rkl2_super_step_scales_with_cfl():
    """rkl2 reaches RKL2_SAFETY * cfl / DEFAULT_CFL of the stable length
    (2 / bound) (s^2 + s - 2) / 4 with the fewest stages that cover the
    accuracy target.  On the 32 x 64 sphere a smaller cfl takes more stages,
    and at cfl 0.05 the stage cap binds and the super-step falls short."""
    grid = geodesic_grid(np.pi / 3, 32, 64)
    jets = batch_jets(grid)
    _, a2, inverse = _lean_velocity(*jets)
    a2max = float(a2.max())
    target = RKL2_ACCURACY / max(1.0, a2max)
    plans = []
    for cfl in (0.05, DEFAULT_CFL, DEFAULT_CFL / RKL2_SAFETY):
        out = step(FlowState(0.0, 0, grid, 0.0), jets, FlowConfig(cfl=cfl))
        unit = RKL2_SAFETY * (cfl / DEFAULT_CFL) * 2.0 / _stability_bound(grid, inverse, a2max)
        s = next((s for s in range(2, RKL2_MAX_STAGES + 1)
                  if unit * (s * s + s - 2.0) / 4.0 >= target), RKL2_MAX_STAGES)
        assert (out.evaluations, out.dt_last) == (s, min(target, unit * (s * s + s - 2.0) / 4.0))
        plans.append((s, out.dt_last))
    assert plans[0] == (RKL2_MAX_STAGES, plans[0][1]) and plans[0][1] < target
    assert plans[0][0] > plans[1][0] > plans[2][0]


def test_rkl2_cfl_past_its_stability_bound_is_refused():
    """A cfl whose super-steps would pass the bound is refused before the
    first step; euler and rk2 take any positive cfl."""
    FlowConfig(cfl=DEFAULT_CFL / RKL2_SAFETY)
    for cfl in (1.001 * DEFAULT_CFL / RKL2_SAFETY, 10.0):
        with pytest.raises(BadParams, match="stability bound"):
            FlowConfig(scheme="rkl2", cfl=cfl)
    for scheme in ("euler", "rk2"):
        assert FlowConfig(scheme=scheme, cfl=10.0).cfl == 10.0
