"""Reaction terms, the nonlinearity oracle, and discrete gradient margins.

The closed forms under test here are only ever asserted against literal
index-sum oracles evaluated in this file or in the library's brute routes;
no expected value is copied in from anywhere the code cannot check.
"""

import numpy as np
import pytest

from pinchflow.canonical import make_surface, perturb, sample_grid
from pinchflow.errors import BadDims, InsufficientStencil
from pinchflow.grids import batch_jets
from pinchflow.identities import (CurvatureField, gradient_margins,
                                  kperp_checks, kperp_scalar, norms_batch,
                                  r1_batch, r2_batch, reaction_terms,
                                  rm_perp_squared, z_brute_batch)
from pinchflow.tensor_kernel import batch_geometry


def special_example():
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = np.diag([2.2, 0.8])
    h[:, :, 1] = np.array([[0.3, 0.5], [0.5, -0.3]])
    return h


def veronese_h():
    r = 1.0 / np.sqrt(3.0)
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = np.diag([r, -r])
    h[:, :, 1] = np.array([[0.0, r], [r, 0.0]])
    return h


def random_h(rng, count, k=2):
    h = rng.uniform(-1.0, 1.0, size=(count, 2, 2, k))
    return 0.5 * (h + np.swapaxes(h, 1, 2))


def project_out_mean(h):
    mean = np.einsum("...iia->...a", h) / 2.0
    out = h.copy()
    out[..., 0, 0, :] -= mean
    out[..., 1, 1, :] -= mean
    return out


# --- loop-based oracles, written independently of the library routes ------

def r1_loop(h):
    n, k = h.shape[0], h.shape[2]
    s = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            s[a, b] = (h[:, :, a] * h[:, :, b]).sum()
    rm = 0.0
    for a in range(k):
        for b in range(k):
            for i in range(n):
                for j in range(n):
                    term = 0.0
                    for p in range(n):
                        term += h[i, p, a] * h[j, p, b] - h[j, p, a] * h[i, p, b]
                    rm += term * term
    return (s * s).sum() + rm, rm


def r2_loop(h):
    hv = h[0, 0] + h[1, 1]
    out = 0.0
    for i in range(2):
        for j in range(2):
            out += (hv * h[i, j]).sum() ** 2
    return out


def test_reaction_terms_frozen_example():
    rt = reaction_terms(special_example())
    assert abs(rt.r1 - 32.8056) < 1e-10
    assert abs(rt.r2 - 49.32) < 1e-10
    # Kperp (|A|^2 + 2|Ao|^2) at Kperp = 0.7, |A|^2 = 6.16, |Ao|^2 = 1.66
    assert abs(rt.r3 - 0.7 * (6.16 + 3.32)) < 1e-10
    assert abs(rt.z_brute - 3.7344) < 1e-10
    assert abs(rt.z_closed - 3.7344) < 1e-10
    assert abs(rt.rm_perp_2 - 4.0 * 0.7**2) < 1e-10


def test_reaction_terms_zero():
    rt = reaction_terms(np.zeros((2, 2, 2)))
    assert rt.r1 == rt.r2 == rt.r3 == rt.z_brute == rt.z_closed == 0.0


def test_reaction_terms_match_loop_oracles():
    rng = np.random.default_rng(21)
    for row in random_h(rng, 100):
        rt = reaction_terms(row)
        r1_ref, rm_ref = r1_loop(row)
        assert abs(rt.r1 - r1_ref) < 1e-10 * (1 + abs(r1_ref))
        assert abs(rt.rm_perp_2 - rm_ref) < 1e-10 * (1 + rm_ref)
        assert abs(rt.r2 - r2_loop(row)) < 1e-10 * (1 + rt.r2)


def test_veronese_simons_balance():
    # minimal case: Z + 2 kbar |Ao|^2 vanishes on the Veronese invariants
    rt = reaction_terms(veronese_h())
    _, _, t2 = norms_batch(veronese_h()[None])
    assert abs(rt.z_closed + 2.0 * t2[0]) < 1e-12
    assert abs(rt.z_brute - rt.z_closed) < 1e-12


def test_z_oracle_random_population():
    rng = np.random.default_rng(100)
    h = random_h(rng, 4000)
    zb = z_brute_batch(h)
    a2, h2, t2 = norms_batch(h)
    kp = kperp_scalar(h)
    zc = (h2 - a2) * t2 - 2.0 * kp * kp
    assert (np.abs(zb - zc) <= 1e-10 * (1.0 + np.abs(zb))).all()


def test_rm_perp_equals_4_kperp_squared():
    rng = np.random.default_rng(101)
    h = random_h(rng, 4000)
    assert (np.abs(rm_perp_squared(h) - 4.0 * kperp_scalar(h) ** 2)
            <= 1e-10 * (1.0 + rm_perp_squared(h))).all()


def test_general_codimension_batches():
    # r1/r2/rm accept k != 2; only the closed forms are (2,2)-specific
    rng = np.random.default_rng(55)
    h = random_h(rng, 40, k=3)
    for row in h:
        r1_ref, _ = r1_loop(row)
        assert abs(r1_batch(row[None])[0] - r1_ref) < 1e-10 * (1 + abs(r1_ref))
        assert abs(r2_batch(row[None])[0] - r2_loop(row)) < 1e-10


def test_kperp_checks_frozen_example():
    chk = kperp_checks(special_example(), kbar=1.0)
    # closed form: K_perp(|A|^2 + 2|Ao|^2) - 4 kbar K_perp = 6.636 - 2.8
    assert abs(chk.reaction_closed - 3.836) < 1e-10
    # catalogued form: K_perp(|A|^2 + 2|Ao|^2 - 2 b^2) - 4 kbar K_perp = 6.51 - 2.8
    assert abs(chk.reaction_printed - 3.71) < 1e-10
    # the brute sum agrees with the closed form, and the difference against
    # the catalogued form is exactly 2 K_perp b^2
    assert abs(chk.reaction_brute - chk.reaction_closed) < 1e-10
    gap = chk.reaction_brute - chk.reaction_printed
    assert abs(gap - 2.0 * 0.7 * 0.3**2) < 1e-10
    # laplacian factor 2 - b^2 - 3a^2 - 3c^2 at (0.7, 0.3, 0.5)
    assert abs(chk.laplacian_factor - (2 - 0.09 - 3 * 0.49 - 3 * 0.25)) < 1e-10


def test_kperp_gap_identity_random():
    rng = np.random.default_rng(77)
    from pinchflow.frames import specialize
    for row in random_h(rng, 300):
        chk = kperp_checks(row, kbar=0.3)
        fr = specialize(row)
        kp = float(kperp_scalar(row))
        scale = 1.0 + abs(chk.reaction_brute)
        assert abs(chk.reaction_brute - chk.reaction_closed) < 1e-10 * scale
        gap = chk.reaction_brute - chk.reaction_printed
        assert abs(gap - 2.0 * kp * fr.b**2) < 1e-10 * scale


def test_kperp_checks_veronese_stationarity():
    chk = kperp_checks(veronese_h(), kbar=1.0)
    assert abs(chk.laplacian_factor) < 1e-12
    # minimal with parallel A (|grad A|^2 = R1 - 2 kbar |A|^2 = 0), so K_perp
    # is constant along the flow and its reaction vanishes
    assert abs(chk.reaction_brute) < 1e-12
    assert abs(chk.reaction_closed) < 1e-12


def test_li_li_margin_clifford_type():
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = np.diag([1.0, -1.0])
    chk = kperp_checks(h)
    assert abs(chk.li_li_margin - 2.0) < 1e-12


def test_li_li_margin_random_traceless():
    rng = np.random.default_rng(13)
    h = project_out_mean(random_h(rng, 4000))
    _, _, t2 = norms_batch(h)
    margin = 1.5 * t2**2 - r1_batch(h)
    assert margin.min() >= -1e-12


def test_kperp_checks_rejects_wrong_dims():
    with pytest.raises(BadDims):
        kperp_checks(np.zeros((2, 2, 3)))
    # reaction_terms stays general-codimension; the (2,2)-only closed forms
    # are simply not populated there
    rt = reaction_terms(np.zeros((3, 3, 2)))
    assert rt.r3 is None and rt.z_closed is None
    assert rt.r1 == 0.0


# --- gradient margins on discrete fields -----------------------------------

def field_of(grid):
    pos, first, second = batch_jets(grid)
    geom = batch_geometry(pos, first, second)
    return CurvatureField.from_batch(geom, grid.du, grid.dv,
                                     grid.topology == "torus", True)


def test_margins_vanish_on_parallel_fields():
    # parallel second fundamental form: all gradients are discretization noise
    for kind in ["clifford", "geodesic-sphere"]:
        grid = sample_grid(make_surface(kind), 64, 64)
        m = gradient_margins(field_of(grid))
        assert np.abs(m.m1).max() < 1e-8
        assert np.abs(m.m2).max() < 1e-8
        assert np.abs(m.m3).max() < 1e-8
        assert m.grad_a2.max() < 1e-8


def test_margins_nonnegative_on_perturbed_fields():
    geo = perturb(make_surface("geodesic-sphere"), (2, 2), 0.01, 64, 64)
    ver = perturb(make_surface("veronese"), (3, 2), 0.02, 64, 64, direction=1)
    for grid in (geo, ver):
        m = gradient_margins(field_of(grid))
        assert m.m1.min() >= -1e-6
        assert m.m2.min() >= -1e-6
        assert m.m3.min() >= -1e-6


def test_margins_m2_is_fixed_fraction_of_m1_pieces():
    # m2 = (|grad A|^2 - |grad H|^2/2) - (1/3)|grad A|^2 for n = 2; check the
    # arithmetic relation m2 = m1/3 + (1/2 - 1/6)... via independent recompute
    grid = perturb(make_surface("geodesic-sphere"), (2, 2), 0.05, 48, 48)
    fld = field_of(grid)
    m = gradient_margins(fld)
    # reconstruct from the reported gradient norms
    ga2, gh2 = m.grad_a2, m.grad_h2
    m1_ref = ga2 - 0.75 * gh2
    m2_ref = (ga2 - 0.5 * gh2) - ga2 / 3.0
    assert np.abs(m.m1 - m1_ref).max() < 1e-12
    assert np.abs(m.m2 - m2_ref).max() < 1e-12


def test_margins_insufficient_stencil():
    grid = sample_grid(make_surface("geodesic-sphere"), 4, 16)
    pos, first, second = batch_jets(grid)
    geom = batch_geometry(pos, first, second)
    fld = CurvatureField.from_batch(geom, grid.du, grid.dv, False, True)
    with pytest.raises(InsufficientStencil):
        gradient_margins(fld)
