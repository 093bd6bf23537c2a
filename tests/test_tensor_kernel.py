"""Pointwise extrinsic geometry from second-order jets."""

import numpy as np
import pytest

from pinchflow.canonical import make_surface, sample_grid
from pinchflow.errors import DegenerateJet, OffSphere
from pinchflow.grids import batch_jets
from pinchflow.tensor_kernel import Jet2, batch_geometry, point_geometry

SURFACES = ["clifford", "flat-torus", "geodesic-sphere", "veronese"]


def test_clifford_point_values():
    surf = make_surface("clifford")
    for u, v in [(0.0, 0.0), (0.9, 1.3), (3.1, 5.2), (2.2, 0.4)]:
        g = point_geometry(surf.jet_at(u, v))
        assert np.abs(g.metric - 0.5 * np.eye(2)).max() < 1e-12
        assert abs(g.normA2 - 2.0) < 1e-10
        assert abs(g.normH2) < 1e-10
        assert abs(g.kperp) < 1e-10
        assert abs(g.gauss) < 1e-10


def test_geodesic_sphere_point_values():
    surf = make_surface("geodesic-sphere", rho=np.pi / 3)
    g = point_geometry(surf.jet_at(1.1, 0.7))
    assert abs(np.sqrt(g.normH2) - 2.0 / np.sqrt(3.0)) < 1e-10
    assert abs(g.normA2 - 2.0 / 3.0) < 1e-10
    assert abs(g.normTracelessA2) < 1e-10
    assert abs(g.kperp) < 1e-10
    assert abs(g.gauss - 4.0 / 3.0) < 1e-10


def test_equatorial_sphere_is_totally_geodesic():
    surf = make_surface("geodesic-sphere", rho=np.pi / 2)
    g = point_geometry(surf.jet_at(0.8, 2.9))
    assert abs(g.normA2) < 1e-12
    assert abs(g.normH2) < 1e-12


def test_veronese_point_values():
    surf = make_surface("veronese")
    g = point_geometry(surf.jet_at(0.9, 1.3))
    assert abs(g.normA2 - 4.0 / 3.0) < 1e-10
    assert abs(g.normH2) < 1e-10
    assert abs(abs(g.kperp) - 2.0 / 3.0) < 1e-10
    assert abs(g.gauss - 1.0 / 3.0) < 1e-10


def test_traceless_and_gauss_identities_on_catalog():
    """|Ao|^2 = |A|^2 - |H|^2/2 and K = 1 + (|H|^2 - |A|^2)/2 everywhere."""
    rng = np.random.default_rng(5)
    for kind in SURFACES:
        surf = make_surface(kind)
        for _ in range(25):
            u = rng.uniform(0.2, np.pi - 0.2)
            v = rng.uniform(0.0, 2 * np.pi)
            g = point_geometry(surf.jet_at(u, v))
            assert abs(g.normTracelessA2 - (g.normA2 - g.normH2 / 2.0)) < 1e-10
            assert abs(g.gauss - (1.0 + (g.normH2 - g.normA2) / 2.0)) < 1e-9


def test_frame_construction_orthonormality():
    surf = make_surface("veronese")
    g = point_geometry(surf.jet_at(1.7, 4.1))
    tf, nf = g.tangent, g.normal
    pos = surf.jet_at(1.7, 4.1).position
    assert np.abs(tf @ tf.T - np.eye(2)).max() < 1e-10
    assert np.abs(nf @ nf.T - np.eye(2)).max() < 1e-10
    assert np.abs(nf @ pos).max() < 1e-10
    assert np.abs(nf @ tf.T).max() < 1e-10


def test_trace_consistency_exact():
    surf = make_surface("flat-torus")
    g = point_geometry(surf.jet_at(0.3, 2.0))
    h = g.h
    trace = h[0, 0] + h[1, 1]
    assert np.abs(trace - g.mean).max() == 0.0


def test_frame_independence_under_reparametrization():
    # linear chart change: first' = L @ first, second' = L second L^T
    rng = np.random.default_rng(9)
    surf = make_surface("veronese")
    jet = surf.jet_at(1.2, 2.6)
    base = point_geometry(jet)
    for _ in range(50):
        ell = rng.uniform(-1, 1, size=(2, 2))
        if abs(np.linalg.det(ell)) < 0.1:
            continue
        first = ell @ jet.first_derivs
        second = np.einsum("ai,bj,ijm->abm", ell, ell, jet.second_derivs)
        second = 0.5 * (second + np.swapaxes(second, 0, 1))  # exact symmetry
        g = point_geometry(Jet2(jet.position, first, second))
        assert abs(g.normA2 - base.normA2) < 1e-10
        assert abs(g.normH2 - base.normH2) < 1e-10
        assert abs(g.normTracelessA2 - base.normTracelessA2) < 1e-10
        assert abs(abs(g.kperp) - abs(base.kperp)) < 1e-10
        assert abs(g.gauss - base.gauss) < 1e-9


def test_degenerate_jet_raises():
    jet = make_surface("clifford").jet_at(0.4, 1.9)
    bad = Jet2(jet.position, np.stack([jet.first_derivs[0], jet.first_derivs[0]]), jet.second_derivs)
    with pytest.raises(DegenerateJet):
        point_geometry(bad)


def test_off_sphere_raises():
    jet = make_surface("clifford").jet_at(0.4, 1.9)
    bad = Jet2(jet.position * 1.01, jet.first_derivs, jet.second_derivs)
    with pytest.raises(OffSphere):
        point_geometry(bad)


def test_batch_matches_pointwise():
    surf = make_surface("veronese")
    grid = sample_grid(surf, 24, 24)
    pos, first, second = batch_jets(grid)
    bg = batch_geometry(pos, first, second)
    vr = grid.valid_rows
    u = grid.u_values[vr]
    v = grid.v_values
    for it in range(0, len(u), 7):
        for jt in range(0, len(v), 5):
            jet = Jet2(pos[:, it, jt], first[:, :, it, jt], second[:, :, :, it, jt])
            g = point_geometry(jet)
            assert abs(bg.normA2[it, jt] - g.normA2) < 1e-12
            assert abs(bg.normH2[it, jt] - g.normH2) < 1e-12
            assert abs(bg.kperp[it, jt] - g.kperp) < 1e-12
            assert abs(bg.gauss[it, jt] - g.gauss) < 1e-12
