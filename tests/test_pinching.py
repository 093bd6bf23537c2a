"""Pinching quantities, cone reactions, sweeps, and closed-form utilities."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from pinchflow import pinching
from pinchflow.canonical import make_surface
from pinchflow.cli import main
from pinchflow.errors import (BadDims, BadParams, EmptyFeasibleSet,
                              SlicePolynomialMismatch)
from pinchflow.frames import specialize, split_traceless
from pinchflow.identities import norms_batch
from pinchflow.pinching import (ConeParams, SweepGrid, _chunk_ranges,
                                _config_h, _eval_configs, _lattice_chunk, _reaction,
                                _slice_configs, blowup_time,
                                discriminant_report, harnack_bound, q_value,
                                reaction_of_Q, reaction_sweep, realize_argmax,
                                thm1_config_h, thm2_config_h)
from pinchflow.tensor_kernel import point_geometry


def geometry_of(kind, **kw):
    surf = make_surface(kind, **kw)
    return point_geometry(surf.jet_at(0.9, 1.3))


def test_cone_params_default_resolution():
    p = ConeParams("thm1", n=2)
    assert abs(p.alpha - 2.0 / 3.0) < 1e-15 and p.beta == 1.0
    p3 = ConeParams("thm1", n=3)
    assert abs(p3.alpha - 4.0 / 9.0) < 1e-15 and p3.beta == 1.5
    p5 = ConeParams("thm1", n=5)
    assert p5.alpha == 0.25 and p5.beta == 2.0
    t = ConeParams("thm2")
    assert t.k == 29.0 / 40.0
    assert abs(t.gamma - (1.0 - 4.0 * t.k / 3.0)) < 1e-12
    assert abs(t.epsilon - 4.0 * (t.k - 0.5)) < 1e-12


def test_cone_params_gamma_must_be_nonnegative():
    with pytest.raises(BadParams):
        ConeParams("thm2", k=0.8)  # gamma = 1 - 4k/3 < 0


@pytest.mark.parametrize("variant,name", [
    ("thm1", "alpha"), ("thm1", "beta"), ("thm1", "kbar"), ("thm2", "k"),
    ("thm2", "gamma"), ("thm2", "epsilon"), ("thm2", "delta"), ("thm2", "kbar"),
])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_cone_params_reject_non_finite_constants(variant, name, value):
    with pytest.raises(BadParams, match="%s must be finite" % name):
        ConeParams(variant, **{name: value})


def test_cone_params_delta_needs_the_gamma_rule():
    """delta enters only through the default gamma rule: with it the cone
    accepts delta (and keeps it through replace), with an explicit gamma off
    the rule it rejects a nonzero delta."""
    p = ConeParams("thm2", k=0.6, delta=0.1)
    assert abs(p.gamma - (1.0 - 4.0 * 0.6 / 3.0 - 0.1)) < 1e-15
    assert replace(p, kbar=0.5).gamma == p.gamma
    assert ConeParams("thm2", gamma=0.1).delta == 0.0
    with pytest.raises(BadParams, match="explicit gamma"):
        ConeParams("thm2", gamma=0.1, delta=0.2)


def test_cone_params_variant_is_thm1_or_thm2():
    for variant in ("1", "2", "THM1"):
        with pytest.raises(BadParams):
            ConeParams(variant)


def test_q_value_geodesic_sphere_thm1():
    g = geometry_of("geodesic-sphere", rho=np.pi / 3)
    q = q_value(g, ConeParams("thm1", n=2))
    assert abs(q - (-11.0 / 9.0)) < 1e-9


def test_q_value_veronese_thm2():
    g = geometry_of("veronese")
    q = q_value(g, ConeParams("thm2", k=29.0 / 40.0))
    assert abs(q - 43.0 / 90.0) < 1e-9
    assert q > 0  # the Veronese sits outside the Thm2 cone


def test_q_value_clifford_thm1():
    g = geometry_of("clifford")
    q = q_value(g, ConeParams("thm1", n=2))
    assert abs(q - 1.0) < 1e-9  # 2 - 0 - 1 > 0: outside the cone


def test_q_value_totally_geodesic():
    g = geometry_of("geodesic-sphere", rho=np.pi / 2)
    p1 = ConeParams("thm1", n=2, beta=1.0)
    p2 = ConeParams("thm2")
    assert abs(q_value(g, p1) + p1.beta) < 1e-12
    assert abs(q_value(g, p2) + p2.epsilon) < 1e-12


def test_reaction_zero_input():
    assert reaction_of_Q(np.zeros((2, 2, 2)), ConeParams("thm1", n=2)) == 0.0
    assert reaction_of_Q(np.zeros((2, 2, 2)), ConeParams("thm2")) == 0.0


def test_reaction_umbilic_hand_value():
    # h_1 = t*I, h_2 = 0, kbar = 0: reaction = -8 t^4 / 3 for alpha = 2/3
    params = ConeParams("thm1", n=2, alpha=2.0 / 3.0, kbar=0.0)
    for t in (0.5, 1.0, 1.7):
        h = np.zeros((2, 2, 2))
        h[:, :, 0] = t * np.eye(2)
        val = reaction_of_Q(h, params)
        assert abs(val - (-8.0 * t**4 / 3.0)) < 1e-10 * (1 + t**4)


def test_reaction_scale_covariance():
    rng = np.random.default_rng(3)
    for variant in ("thm1", "thm2"):
        for _ in range(50):
            h = rng.uniform(-1, 1, size=(2, 2, 2))
            h = 0.5 * (h + np.swapaxes(h, 0, 1))
            lam = rng.uniform(0.3, 2.0)
            p1 = ConeParams(variant, n=2, kbar=0.7)
            p2 = ConeParams(variant, n=2, kbar=0.7 * lam**2)
            r1 = reaction_of_Q(h, p1)
            r2 = reaction_of_Q(lam * h, p2)
            assert abs(r2 - lam**4 * r1) < 1e-9 * (1 + abs(r1))


def test_reaction_hypersurface_huisken_oracle():
    # single active normal: independent inline expansion of the Thm1 reaction
    rng = np.random.default_rng(17)
    params = ConeParams("thm1", n=2, alpha=0.61, kbar=1.3)
    for _ in range(1000):
        h = np.zeros((2, 2, 2))
        m = rng.uniform(-1, 1, size=(2, 2))
        h[:, :, 0] = 0.5 * (m + m.T)
        a2 = (h[:, :, 0] ** 2).sum()
        hsq = (h[0, 0, 0] + h[1, 1, 0]) ** 2
        t2 = a2 - hsq / 2.0
        expected = (2.0 * a2**2 - 2.0 * params.alpha * hsq * a2
                    - 4.0 * params.kbar * t2
                    - 4.0 * (params.alpha - 0.5) * params.kbar * hsq)
        got = reaction_of_Q(h, params)
        assert abs(got - expected) <= 1e-10 * (1.0 + abs(expected))


def test_config_builders_roundtrip():
    # thm1: (x, y) = (|Ao_1|^2, |Ao_-|^2); thm2: the (a, b, c) scalars
    h = thm1_config_h(2, 0.4, 0.25, 1.8)[..., 0]
    sp = split_traceless(h)
    assert abs(sp.normA1_2 - 0.4) < 1e-12
    assert abs(sp.normAminus_2 - 0.25) < 1e-12
    _, h2, _ = norms_batch(h[..., None])
    assert abs(h2[0] - 1.8) < 1e-12

    h = thm2_config_h(0.3, 0.2, 0.5, 2.2)[..., 0]
    fr = specialize(h)
    assert abs(fr.a - 0.3) < 1e-12
    assert abs(abs(fr.b) - 0.2) < 1e-12
    assert abs(abs(fr.c) - 0.5) < 1e-12
    assert abs(fr.h_norm**2 - 2.2) < 1e-12


def test_blowup_time_examples():
    rec = blowup_time(1.0, 0.0, 2)
    assert rec.t_star == 0.25
    assert blowup_time(0.5, 1.0, 4).t_star == 2.0
    # b(tau) = b0 for any inputs; b grows toward the pole
    assert abs(rec.b(0.0) - 1.0) < 1e-15
    assert rec.b(0.2) > rec.b(0.1) > rec.b(0.0)


def test_harnack_bound_examples():
    assert harnack_bound(2.0, 1.0, 0.0, 0.0, 0.0) == 2.0
    assert harnack_bound(2.0, 1.0, 0.0, 0.0, 0.5) == 1.0
    prev = np.inf
    for d in np.linspace(0.0, 3.0, 13):
        val = harnack_bound(2.0, 1.0, 0.3, 0.2, d)
        assert val <= prev
        prev = val


def test_discriminant_report_printed_values():
    rec = discriminant_report(2, 2.0 / 3.0, 1.0)
    assert abs(rec["delta_printed_1"] - 24.0) < 1e-12
    assert rec["direct_negativity"] is True
    assert rec["quadrant_max"] < 0.0
    rec4 = discriminant_report(4, 1.0 / 3.0, 2.0)
    assert abs(rec4["delta_printed_2"] - 96.0) < 1e-12
    rec5 = discriminant_report(5, 0.25, 2.0)
    assert abs(rec5["delta_printed_2"] - 144.0) < 1e-12
    with pytest.raises(BadParams):
        discriminant_report(2, 0.5, 1.0)


@pytest.mark.parametrize("n,alpha,beta,qmax", [
    (2, 2.0 / 3.0, 1.0, -2.0 / 9.0), (4, 1.0 / 3.0, 2.0, -8.0 / 19.0),
    (5, 0.25, 2.0, -24.0 / 29.0), (2, 2.0, 1.0, 10.0 / 3.0)])
def test_discriminant_quadrant_max_is_exact(n, alpha, beta, qmax):
    """quadrant_max is the maximum of the quadratic form on x + w = 1, at the
    vertex of the parabola or (the last case, a convex one) at an end, and
    direct_negativity is its sign."""
    rec = discriminant_report(n, alpha, beta)
    assert abs(rec["quadrant_max"] - qmax) <= 1e-14 * max(1.0, abs(qmax))
    assert rec["direct_negativity"] is (qmax < 0.0)


def test_sweep_hzero_critical_beta():
    # H = 0 stratum: reaction crosses zero at beta = 2n/3 exactly
    rep = reaction_sweep(ConeParams("thm1", n=2, beta=1.0),
                         SweepGrid(resolution=100, refine_rounds=2,
                                   stratum="hzero"))
    # lattice max approaches the true sup -1/4 from below
    assert abs(rep.sup_value - (-0.25)) < 1e-6
    assert rep.critical_constant is not None
    assert abs(rep.critical_constant - 4.0 / 3.0) < 1e-3
    assert rep.bracket_width <= 1e-4


def test_sweep_argmax_reproduces_sup():
    params = ConeParams("thm2")
    rep = reaction_sweep(params, SweepGrid(resolution=40, refine_rounds=2,
                                           bisect=False))
    h, realized_params = realize_argmax(params, rep.argmax)
    again = reaction_of_Q(h, realized_params)
    assert abs(again - rep.sup_value) < 1e-12 * (1 + abs(rep.sup_value))


def test_sweep_determinism():
    params = ConeParams("thm1", n=2)
    grid = SweepGrid(resolution=30, refine_rounds=1, bisect=False)
    a = asdict(reaction_sweep(params, grid))
    b = asdict(reaction_sweep(params, grid))
    assert a == b


@pytest.mark.parametrize("params", [ConeParams("thm1", n=4), ConeParams("thm2")],
                         ids=["thm1_n4", "thm2"])
def test_sweep_independent_of_chunk_size(params):
    """Chunk size changes the pass over the lattice, never the report: one
    chunk or fourteen."""
    a, b = (asdict(reaction_sweep(params, SweepGrid(resolution=24, chunk=chunk)))
            for chunk in (1024, 131072))
    assert a == b


@pytest.mark.parametrize("n", [2, 4])
def test_thm1_sweep_independent_of_chunk_size(n):
    """The thm1 lattice has resolution^2 points: at resolution 64 that is
    four chunks of 1024 configurations or one chunk."""
    params = ConeParams("thm1", n=n)
    a, b = (asdict(reaction_sweep(params, SweepGrid(resolution=64, chunk=chunk,
                                                    bisect=False)))
            for chunk in (1024, 131072))
    assert a == b


@pytest.mark.parametrize("n", [2, 3, 4])
def test_thm1_lattice_is_the_xy_slice(n):
    """The thm1 base lattice samples (x, y) on [0, 1]^2, so it has at most
    resolution^2 feasible points, and its argmax is the vertex x = 1, y = 0,
    the only zero of the reaction on the slice."""
    res = 24
    rep = reaction_sweep(ConeParams("thm1", n=n),
                         SweepGrid(resolution=res, refine_rounds=0, bisect=False))
    assert 0 < rep.samples <= res ** 2
    assert (rep.argmax["x"], rep.argmax["y"]) == (1.0, 0.0)
    assert abs(rep.sup_value) < 1e-12


def _eval_everything(params, stratum, coords):
    """Reference _eval_configs that evaluates the reaction at every point,
    clipping infeasible coordinates, and masks infeasible values to -inf."""
    if params.variant == "thm1" and stratum == "hzero":
        tau = coords[0]
        s_tot = params.beta / (1.0 + params.beta)
        x, y = tau * s_tot, (1.0 - tau) * s_tot
        kb = np.full_like(x, 1.0 / (1.0 + params.beta))
        hsq = np.zeros_like(x)
        ok = (tau >= 0.0) & (tau <= 1.0)
        h = thm1_config_h(params.n, np.clip(x, 0.0, None), np.clip(y, 0.0, None), hsq)
        return np.where(ok, _reaction(params, h, kb), -np.inf), None, ok
    if params.variant == "thm1":
        x, y = coords
        kb = 1.0 - x - y
        ok = (x >= 0.0) & (y >= 0.0) & (kb >= -1e-15)
        kb = np.clip(kb, 0.0, None)
        hsq = (x + y - params.beta * kb) / (params.alpha - 1.0 / params.n)
        ok &= hsq >= 0.0
        hsq = np.where(ok, hsq, 0.0)
        h = thm1_config_h(params.n, np.clip(x, 0.0, None), np.clip(y, 0.0, None), hsq)
        return np.where(ok, _reaction(params, h, kb), -np.inf), None, ok
    a, b, c = coords
    kb = 1.0 - (a * a + b * b + c * c)
    ok = (a >= 0.0) & (b >= 0.0) & (c >= 0.0) & (kb >= -1e-15)
    kb = np.clip(kb, 0.0, None)
    hsq = (2.0 * (a * a + b * b + c * c) + 4.0 * params.gamma * a * c
           - params.epsilon * kb) / (params.k - 0.5)
    ok &= hsq >= 0.0
    hsq = np.where(ok, hsq, 0.0)
    reaction = _reaction(params, thm2_config_h(a, b, c, hsq), kb)
    printed = reaction - 4.0 * params.gamma * (2.0 * a * c) * (b * b)
    return np.where(ok, reaction, -np.inf), np.where(ok, printed, -np.inf), ok


# (params, stratum, lattice index range) at resolution 24.  thm2's chunk
# [13272, 13824) has a = 1 and b > 0, outside the ball, so no feasible point
FEASIBLE_CASES = {
    "thm1_n2": (ConeParams("thm1", n=2), "full", (0, 24 ** 2)),
    "thm1_n3": (ConeParams("thm1", n=3), "full", (192, 384)),
    "thm1_n4": (ConeParams("thm1", n=4), "full", (0, 24 ** 2)),
    "thm2": (ConeParams("thm2"), "full", (0, 24 ** 3)),
    "thm2_infeasible_chunk": (ConeParams("thm2"), "full", (13272, 24 ** 3)),
    "hzero": (ConeParams("thm1", n=2, beta=1.0), "hzero", (0, 24)),
}


@pytest.mark.parametrize("case", sorted(FEASIBLE_CASES))
def test_eval_configs_matches_evaluate_everything(case):
    """The slice polynomial on the feasible entries agrees with evaluating
    _reaction at every entry and masking, to the bound of
    test_eval_configs_matches_reaction_of_q, and every other entry is -inf;
    the feasibility masks agree exactly."""
    params, stratum, (lo, hi) = FEASIBLE_CASES[case]
    coords = [np.ravel(co) for co in np.broadcast_arrays(
        *_lattice_chunk(params, stratum, 24, lo, hi))]
    vals, printed, ok, _ = _eval_configs(params, stratum, coords)
    ref_vals, ref_printed, ref_ok = _eval_everything(params, stratum, coords)
    assert np.array_equal(ok, ref_ok)
    bound = 1e-12 * np.maximum(1.0, np.abs(ref_vals[ok]))
    assert np.all(np.abs(vals[ok] - ref_vals[ok]) <= bound)
    assert np.all(vals[~ok] == -np.inf)
    if params.variant == "thm2":
        assert np.all(np.abs(printed[ok] - ref_printed[ok]) <= bound)
        assert np.all(printed[~ok] == -np.inf)
    else:
        assert printed is None and ref_printed is None
    assert ok.any() == (case != "thm2_infeasible_chunk")


def test_sweep_rejects_thm2_k_half():
    """At k = 1/2 the |H|^2 terms of Q cancel, so Q = 0 cannot fix |H|^2: the
    sweep is rejected before its first chunk."""
    with pytest.raises(BadParams, match=r"\|H\|\^2 drops out of Q"):
        reaction_sweep(ConeParams("thm2", k=0.5),
                       SweepGrid(resolution=24, refine_rounds=0, bisect=False))


def test_sweep_sign_is_relative_to_the_reaction_size():
    """Near k = 1/2 the argmax has |H|^2 = 2e5 and the contractions round at
    1e-16 of |H|^4, so the recheck's 3.8e-6 is roundoff, not a positive sup."""
    rep = reaction_sweep(ConeParams("thm2", k=0.5 + 1e-5),
                         SweepGrid(resolution=16, bisect=False))
    assert 1e-9 < rep.sup_value < 1e-12 * (1.0 + rep.argmax["hsq"]) ** 2
    assert any("negativity claim holds" in note for note in rep.notes)


def test_argmax_recheck_note_uses_the_sign_test_scale(monkeypatch):
    """The recheck at the argmax (|H|^2 = 2e5) differs from the polynomial's
    max by roundoff of terms of size 4e10: no move is noted.  An offset past
    the sign test's tolerance is still reported."""
    params = ConeParams("thm2", k=0.50001)
    grid = SweepGrid(resolution=16, bisect=False)
    rep = reaction_sweep(params, grid)
    assert not any("argmax recheck moved" in note for note in rep.notes)
    tol = 1e-12 * (1.0 + rep.argmax["hsq"]) ** 2
    monkeypatch.setattr(pinching, "reaction_of_Q",
                        lambda h, p: reaction_of_Q(h, p) + 10.0 * tol)
    moved = reaction_sweep(params, grid)
    assert moved.sup_value == rep.sup_value + 10.0 * tol
    assert any(note.startswith("argmax recheck moved sup") for note in moved.notes)


@pytest.mark.parametrize("params", [ConeParams("thm1", n=2), ConeParams("thm1", n=3),
                                    ConeParams("thm1", n=4), ConeParams("thm2")],
                         ids=["thm1_n2", "thm1_n3", "thm1_n4", "thm2"])
def test_eval_configs_matches_reaction_of_q(params):
    """The sweep's batched reaction agrees with reaction_of_Q at the realized
    point, at 2000 seeded feasible slice points.  einsum reduces a one-point
    batch in another order, so the two differ in the last bits; the scale is
    max(1, |reaction|) because the reaction cancels towards 0 on the slice."""
    rng = np.random.default_rng(20041)
    dim = 3 if params.variant == "thm2" else 2
    vals, _, ok, cfg = _eval_configs(params, "full", tuple(rng.random((dim, 8000))))
    points = np.flatnonzero(ok)[:2000]
    assert points.size == 2000
    for i in points:
        h, p = realize_argmax(params, {key: v[i] for key, v in cfg.items()})
        ref = reaction_of_Q(h, p)
        assert abs(vals[i] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_sweep_empty_feasible_set():
    with pytest.raises(EmptyFeasibleSet):
        reaction_sweep(ConeParams("thm2", k=0.4),
                       SweepGrid(resolution=16, refine_rounds=0, bisect=False))


def test_thm2_requires_two_two():
    g3 = point_geometry(
        make_surface("geodesic-sphere", rho=np.pi / 3).jet_at(0.9, 1.3))
    # geometry carries kperp here; strip it to simulate higher codimension
    from dataclasses import replace
    with pytest.raises(BadDims):
        q_value(replace(g3, kperp=None), ConeParams("thm2"))


# ---------------------------------------------------------------------------
# the slice polynomial against the contractions

DUAL_CASES = {
    **{"thm1_n%d" % n: (ConeParams("thm1", n=n), "full") for n in range(2, 7)},
    "hzero_n2": (ConeParams("thm1", n=2, beta=1.0), "hzero"),
    "hzero_n4": (ConeParams("thm1", n=4, beta=1.5), "hzero"),
    **{"thm2_k%s" % k: (ConeParams("thm2", k=k), "full")
       for k in (0.52, 29.0 / 40.0, 0.70, 0.7499)},
}


@pytest.mark.parametrize("case", sorted(DUAL_CASES))
def test_slice_polynomial_matches_reaction(case):
    """The sweep's slice polynomial against _reaction on the realized h at
    5000 seeded feasible points, thm1 for n = 2..6, the |H| = 0 stratum and
    thm2 across its critical scan.  The bound is relative to the largest
    |reaction| on the sample: at k = 0.52, |H|^2 = num/(k - 1/2) is large and
    both routes carry roundoff of that size where the reaction cancels."""
    params, stratum = DUAL_CASES[case]
    dim = 1 if stratum == "hzero" else (3 if params.variant == "thm2" else 2)
    coords = tuple(np.random.default_rng(20).random((dim, 20000)))
    vals, _, ok, cfg = _eval_configs(params, stratum, coords)
    keep = np.flatnonzero(ok)[:5000]
    assert keep.size == 5000
    at = {key: v[keep] for key, v in cfg.items()}
    ref = _reaction(params, _config_h(params, at), at["kbar"])
    assert np.max(np.abs(vals[keep] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("params,stratum", [
    (ConeParams("thm1", n=2), "full"), (ConeParams("thm1", n=3, beta=1.0), "hzero"),
    (ConeParams("thm2"), "full")], ids=["thm1", "hzero", "thm2"])
def test_reaction_off_the_polynomial_raises(monkeypatch, params, stratum):
    """A reaction the fitted polynomial cannot reproduce (a degree-5 term in
    the entries of h) stops the sweep: no fallback to the contractions."""
    reaction = pinching._reaction
    monkeypatch.setattr(pinching, "_reaction",
                        lambda p, h, kb: reaction(p, h, kb) + 1e-6 * h[0, 1, 1] ** 5)
    with pytest.raises(SlicePolynomialMismatch, match="misses _reaction"):
        reaction_sweep(params, SweepGrid(resolution=8, refine_rounds=0, bisect=False,
                                         stratum=stratum))


def test_reaction_off_the_polynomial_exits_3(monkeypatch, tmp_path, capsys):
    reaction = pinching._reaction
    monkeypatch.setattr(pinching, "_reaction",
                        lambda p, h, kb: reaction(p, h, kb) + 1e-6 * h[0, 1, 1] ** 5)
    rc = main(["sweep", "--variant", "thm2", "--resolution", "8", "--no-bisect",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    assert "misses _reaction" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


FIT_CASES = {
    **{"thm1_n%d" % n: ConeParams("thm1", n=n) for n in range(2, 7)},
    **{"thm2_k%s" % k: ConeParams("thm2", k=k) for k in (0.52, 0.7499)},
    **{"thm2_k%s_gamma" % k: ConeParams("thm2", k=k, gamma=0.4) for k in (0.52, 0.7499)},
}


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fitted_polynomial_matches_reaction(case):
    """The reaction fit against _reaction at 2000 seeded points that are not
    fit nodes: kbar, the slice coordinates and |H|^2 up to 50 drawn at
    random, and 5 random cone constants (alpha in (1/n, 2), or k with
    gamma by its rule or at random), to 1e-12 of the reaction's size."""
    params = FIT_CASES[case]
    rng = np.random.default_rng(2026)
    fit = pinching._fit_reaction(params)
    monomials = pinching._FIT_MONOMIALS[params.variant][0]
    for _ in range(5):
        if params.variant == "thm1":
            at = replace(params, alpha=1.0 / params.n + rng.uniform(1e-3, 2.0 - 1.0 / params.n))
        elif case.endswith("gamma"):
            at = replace(params, k=rng.uniform(0.52, 0.7499), gamma=rng.uniform(0.0, 1.0))
        else:
            at = replace(params, k=rng.uniform(0.52, 0.7499), gamma=None, epsilon=None)
        fv = rng.random((len(monomials[0]), 2000))
        fv[-1] *= 50.0
        ref = _reaction(at, *pinching._realize(at, fv))
        got = pinching._monomial_values(monomials, fv) @ (pinching._multipliers(at) @ fit)
        size = np.maximum(np.abs(ref), (1.0 + fv[-1]) ** 2)
        assert np.max(np.abs(got - ref) / size) <= 1e-12


@pytest.mark.parametrize("params,stratum", [
    (ConeParams("thm1", n=2), "full"), (ConeParams("thm1", n=2, beta=1.0), "hzero"),
    (ConeParams("thm2"), "full")], ids=["thm1", "hzero", "thm2"])
def test_bisected_sweep_fits_once(monkeypatch, params, stratum):
    """A bisected sweep fits the reaction once: its 33 or 29 lattice passes
    substitute their constant into that fit, and _reaction runs only for the
    fit and the argmax recheck."""
    counts = {"fits": 0, "reactions": 0}
    fit, reaction = pinching._fit_reaction, pinching._reaction

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(pinching, "_fit_reaction", counting("fits", fit))
    monkeypatch.setattr(pinching, "_reaction", counting("reactions", reaction))
    rep = reaction_sweep(params, SweepGrid(resolution=8, refine_rounds=0, stratum=stratum))
    assert rep.critical_constant is not None
    assert counts == {"fits": 1,
                      "reactions": len(pinching._FIT_CONSTANTS[params.variant]) + 1}


def _contraction_eval_configs(params, stratum, coords, poly=None):
    """The lattice evaluation the slice polynomial replaced, kept as a
    test-only oracle: the reaction from the identities contractions on the
    realized h of every feasible entry.  The sweep's slice polynomial poly
    goes unused."""
    ok, cfg = _slice_configs(params, stratum, coords)
    cfg = dict(zip(cfg, np.broadcast_arrays(*cfg.values())))
    at = {key: v[ok] for key, v in cfg.items()}
    vals = np.full(ok.shape, -np.inf)
    vals[ok] = _reaction(params, _config_h(params, at), at["kbar"])
    if params.variant == "thm1":
        return vals, None, ok, cfg
    printed = np.full(ok.shape, -np.inf)
    printed[ok] = vals[ok] - 4.0 * params.gamma * (2.0 * at["a"] * at["c"]) * at["b"] ** 2
    return vals, printed, ok, cfg


@pytest.mark.parametrize("params,stratum", [
    (ConeParams("thm1", n=2), "full"), (ConeParams("thm1", n=4), "full"),
    (ConeParams("thm2"), "full"), (ConeParams("thm1", n=2, beta=1.0), "hzero")],
    ids=["thm1_n2", "thm1_n4", "thm2", "hzero"])
def test_contraction_oracle_reproduces_report(monkeypatch, params, stratum):
    """At resolution 16, every report of the polynomial route, bisection
    included, is the one the contraction lattice writes."""
    grid = SweepGrid(resolution=16, stratum=stratum)
    report = asdict(reaction_sweep(replace(params), grid))
    monkeypatch.setattr(pinching, "_eval_configs", _contraction_eval_configs)
    assert asdict(reaction_sweep(replace(params), grid)) == report


@pytest.mark.parametrize("params", [
    ConeParams("thm1", n=2, beta=1e3), ConeParams("thm1", n=4, beta=1e4),
    ConeParams("thm1", n=2, alpha=0.5 + 1e-5),
    ConeParams("thm2", k=0.7, gamma=0.5, epsilon=1e3)],
    ids=["beta1e3", "n4_beta1e4", "alpha_near_half", "epsilon1e3"])
def test_thin_or_steep_slice_fits(monkeypatch, params):
    """A thin feasible band (x + y >= beta/(1 + beta), a^2 + b^2 + c^2 >=
    epsilon/(2 + epsilon)) or a steep |H|^2 = num/(alpha - 1/n) still fits:
    written in kbar, the polynomial is well conditioned there, and the sweep
    finds the contraction lattice's argmax and sup."""
    grid = SweepGrid(resolution=16, bisect=False)
    report = reaction_sweep(replace(params), grid)
    monkeypatch.setattr(pinching, "_eval_configs", _contraction_eval_configs)
    oracle = reaction_sweep(replace(params), grid)
    assert (report.argmax, report.sup_value) == (oracle.argmax, oracle.sup_value)


@pytest.mark.parametrize("res,dim,chunk", [(24, 3, 1024), (24, 3, 131072), (33, 3, 1024),
                                           (64, 2, 1024), (5, 1, 3), (40, 3, 1024)])
def test_chunks_cover_the_lattice_in_order(res, dim, chunk):
    """The chunk ranges tile the lattice in lexicographic order, in chunks of
    whole slabs, of rows within a slab (res 33 and 40 split each slab
    unevenly) or of single points, and each chunk's broadcast axes list its
    points in that order."""
    params = ConeParams("thm2") if dim == 3 else ConeParams("thm1", n=2)
    stratum = "hzero" if dim == 1 else "full"
    flat = np.stack(np.unravel_index(np.arange(res ** dim), (res,) * dim)) / (res - 1.0)
    done = 0
    for lo, hi in _chunk_ranges(params, stratum, res, chunk):
        assert lo == done and hi - lo <= max(1024, chunk)
        block = np.stack([np.ravel(co) for co in np.broadcast_arrays(
            *_lattice_chunk(params, stratum, res, lo, hi))])
        assert np.array_equal(block, flat[:, lo:hi])
        done = hi
    assert done == res ** dim
