"""Finite-difference jets on structured grids."""

import numpy as np
import pytest

from pinchflow.canonical import make_surface, sample_grid
from pinchflow.errors import BadParams, PoleRow
from pinchflow.grids import GridSurface, batch_jets, discrete_jet
from pinchflow.tensor_kernel import batch_geometry, point_geometry


def max_a2_error(kind, nu, nv):
    surf = make_surface(kind)
    grid = sample_grid(surf, nu, nv)
    pos, first, second = batch_jets(grid)
    geom = batch_geometry(pos, first, second)
    return np.abs(geom.normA2 - surf.reference["normA2"]).max()


def test_clifford_jets_64():
    # exact Clifford samples at 64x64: |A|^2 = 2 everywhere, up to the
    # 4th-order truncation floor (measured ~2e-5, well under the 1e-4 gate)
    assert max_a2_error("clifford", 64, 64) < 1e-4


def test_geodesic_sphere_jets_64x128():
    surf = make_surface("geodesic-sphere", rho=np.pi / 3)
    grid = sample_grid(surf, 64, 128)
    pos, first, second = batch_jets(grid)
    geom = batch_geometry(pos, first, second)
    h = np.sqrt(geom.normH2)
    assert np.abs(h - 2.0 / np.sqrt(3.0)).max() < 1e-5


def test_refinement_shrinks_error():
    for kind in ("clifford", "veronese"):
        coarse = max_a2_error(kind, 32, 64)
        fine = max_a2_error(kind, 64, 128)
        assert fine < coarse / 3.0


def test_torus_wrap_is_seamless():
    # errors at the periodic seam match interior errors
    surf = make_surface("flat-torus")
    grid = sample_grid(surf, 48, 48)
    pos, first, second = batch_jets(grid)
    geom = batch_geometry(pos, first, second)
    err = np.abs(geom.normA2 - surf.reference["normA2"])
    assert err[0].max() < 10 * max(err[20:30].max(), 1e-14)


def test_pole_rows_are_excluded():
    grid = sample_grid(make_surface("geodesic-sphere"), 16, 32)
    with pytest.raises(PoleRow):
        discrete_jet(grid, 0, 3)
    with pytest.raises(PoleRow):
        discrete_jet(grid, 15, 3)
    assert grid.valid_rows == slice(1, 15)


def test_discrete_jet_matches_batch_row():
    grid = sample_grid(make_surface("veronese"), 32, 48)
    pos, first, second = batch_jets(grid)
    jet = discrete_jet(grid, 7, 11)
    # batch arrays cover valid rows only: batch row 6 is grid row 7
    assert np.array_equal(jet.position, pos[:, 6, 11])
    assert np.array_equal(jet.first_derivs, first[:, :, 6, 11])
    assert np.array_equal(jet.second_derivs, second[:, :, :, 6, 11])
    g = point_geometry(jet)
    assert abs(g.normA2 - 4.0 / 3.0) < 1e-3


def test_coarse_grid_truncation_is_flagged_by_refinement():
    # an 8x8 grid of a curved surface carries visible truncation error;
    # comparing against the refined grid exposes it
    coarse = max_a2_error("veronese", 8, 8)
    fine = max_a2_error("veronese", 64, 64)
    assert coarse > 10 * fine


def test_grid_spacing_metadata():
    grid = sample_grid(make_surface("geodesic-sphere"), 33, 64)
    assert abs(grid.du - np.pi / 32) < 1e-15
    assert abs(grid.dv - 2 * np.pi / 64) < 1e-15
    tor = sample_grid(make_surface("clifford"), 16, 20)
    assert abs(tor.du - 2 * np.pi / 16) < 1e-15
    assert abs(tor.dv - 2 * np.pi / 20) < 1e-15



def test_minimum_grid_sizes():
    # the smallest grids that give a nondegenerate jet, and the next size down
    cases = (("geodesic-sphere", (4, 4), [(3, 4), (4, 2)]),
             ("flat-torus", (3, 3), [(2, 3), (3, 2)]))
    for kind, size, smaller in cases:
        surf = make_surface(kind)
        geom = batch_geometry(*batch_jets(sample_grid(surf, *size)))
        assert np.isfinite(geom.normA2).all()
        for nu, nv in smaller:
            with pytest.raises(BadParams):
                sample_grid(surf, nu, nv)


def test_grid_rejects_point_major_samples():
    # samples are component-major, (d, nu, nv)
    grid = sample_grid(make_surface("clifford"), 8, 8)
    assert grid.samples.shape == (5, 8, 8)
    with pytest.raises(ValueError):
        GridSurface("torus", 8, 8, np.moveaxis(grid.samples, 0, -1).copy())
