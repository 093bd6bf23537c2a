"""Catalog surfaces: reference invariants, charts, grids, perturbations."""

import numpy as np
import pytest

from pinchflow.canonical import (_analytic_normals, geodesic_sphere_jet, make_surface,
                                 perturb, sample_grid)
from pinchflow.errors import BadParams, DegenerateAfterPerturb
from pinchflow.grids import batch_jets
from pinchflow.tensor_kernel import batch_geometry, point_geometry

RNG = np.random.default_rng(2024)


def geometry_at(surface, u, v):
    return point_geometry(surface.jet_at(u, v))


def test_reference_values_recomputed_from_jets():
    """Every catalog reference value is re-derived from the analytic chart."""
    for kind in ["clifford", "flat-torus", "geodesic-sphere", "veronese"]:
        surf = make_surface(kind)
        for _ in range(20):
            u = RNG.uniform(0.15, np.pi - 0.15)
            v = RNG.uniform(0.0, 2 * np.pi)
            g = geometry_at(surf, u, v)
            assert abs(g.normA2 - surf.reference["normA2"]) < 1e-9
            assert abs(g.normH2 - surf.reference["normH2"]) < 1e-9
            assert abs(g.normTracelessA2 - surf.reference["normTracelessA2"]) < 1e-9
            assert abs(abs(g.kperp) - surf.reference["kperp_abs"]) < 1e-9
            assert abs(g.gauss - surf.reference["gauss"]) < 1e-9


def test_flat_torus_example_values():
    surf = make_surface("flat-torus", r1=0.6, r2=0.8)
    assert abs(np.sqrt(surf.reference["normH2"]) - 7.0 / 12.0) < 1e-12
    assert abs(surf.reference["normA2"] - 2.340277778) < 1e-9
    assert surf.reference["gauss"] == 0.0


def test_minimality_residuals():
    for kind in ["clifford", "veronese"]:
        surf = make_surface(kind)
        assert surf.reference["minimal"]
        worst = 0.0
        for _ in range(40):
            u = RNG.uniform(0.1, np.pi - 0.1)
            v = RNG.uniform(0.0, 2 * np.pi)
            worst = max(worst, np.sqrt(geometry_at(surf, u, v).normH2))
        assert worst < 1e-9


def test_classification_formula_consistency():
    # |A|^2 = 1 +/- sqrt(1 - 2 |Kperp|^2) on the two minimal fixtures:
    # Clifford 2 = 1 + sqrt(1), Veronese 4/3 = 1 + sqrt(1/9)
    for kind in ("clifford", "veronese"):
        g = geometry_at(make_surface(kind), 1.0, 2.0)
        root = np.sqrt(1.0 - 2.0 * g.kperp**2)
        branch_err = min(abs(g.normA2 - (1 + root)), abs(g.normA2 - (1 - root)))
        assert branch_err < 1e-9


def test_veronese_chart_lands_on_unit_sphere():
    for _ in range(100):
        u = RNG.uniform(0, np.pi)
        v = RNG.uniform(0, 2 * np.pi)
        jet = make_surface("veronese").jet_at(u, v)
        assert abs(np.linalg.norm(jet.position) - 1.0) < 1e-12


def test_make_surface_parameter_validation():
    with pytest.raises(BadParams):
        make_surface("geodesic-sphere", rho=0.0)
    with pytest.raises(BadParams):
        make_surface("geodesic-sphere", rho=np.pi)
    with pytest.raises(BadParams):
        make_surface("flat-torus", r1=0.5, r2=0.5)  # r1^2 + r2^2 != 1
    with pytest.raises(BadParams):
        make_surface("flat-torus", r1=-0.6, r2=0.8)
    with pytest.raises(BadParams):
        make_surface("clifford", rho=1.0)
    with pytest.raises(BadParams):
        make_surface("veronese", r1=0.6)
    with pytest.raises(BadParams):
        make_surface("moebius")


def test_geodesic_sphere_reference_scaling():
    rho = 1.1
    surf = make_surface("geodesic-sphere", rho=rho)
    cot = np.cos(rho) / np.sin(rho)
    assert abs(surf.reference["normH2"] - (2 * cot) ** 2) < 1e-12
    assert abs(surf.reference["gauss"] - 1.0 / np.sin(rho) ** 2) < 1e-12
    g = geometry_at(surf, 0.8, 0.3)
    assert abs(g.normH2 - surf.reference["normH2"]) < 1e-9


def test_geodesic_sphere_jet_general_dimension():
    # n = 3 geodesic sphere in S^5: |H| = 3 cot(rho), |Ao|^2 = 0
    rho = np.pi / 4
    jet = geodesic_sphere_jet(rho, 3, 2, [0.7, 1.2, 2.9])
    g = point_geometry(jet)
    assert abs(np.sqrt(g.normH2) - 3.0 / np.tan(rho)) < 1e-9
    assert abs(g.normTracelessA2) < 1e-9
    assert g.kperp is None  # only defined for (n, k) = (2, 2)
    with pytest.raises(BadParams):
        geodesic_sphere_jet(rho, 3, 2, [0.7, 1.2])


def test_sample_grid_shapes_and_topology():
    geo = sample_grid(make_surface("geodesic-sphere"), 17, 34)
    assert geo.topology == "sphere"
    assert geo.samples.shape == (5, 17, 34)
    assert np.abs(np.linalg.norm(geo.samples, axis=0) - 1.0).max() < 1e-12
    tor = sample_grid(make_surface("clifford"), 16, 16)
    assert tor.topology == "torus"
    # torus charts wrap: no duplicated seam row
    assert np.abs(tor.samples[:, 0] - tor.samples[:, -1]).max() > 1e-3


def test_perturb_zero_amplitude_is_identity():
    surf = make_surface("geodesic-sphere")
    a = sample_grid(surf, 24, 24).samples
    b = perturb(surf, (2, 2), 0.0, 24, 24).samples
    assert np.array_equal(a, b)


def test_perturb_deviation_scales_with_amplitude():
    surf = make_surface("geodesic-sphere", rho=np.pi / 3)
    devs = []
    for amp in (0.01, 0.02):
        grid = perturb(surf, (2, 2), amp, 48, 96)
        pos, first, second = batch_jets(grid)
        geom = batch_geometry(pos, first, second)
        devs.append(np.abs(geom.normA2 - 2.0 / 3.0).max())
    assert 0.0 < devs[0] < 0.2
    # O(amplitude): doubling the amplitude at most ~doubles the deviation
    assert devs[1] / devs[0] < 3.0


def test_perturb_keeps_samples_on_sphere():
    grid = perturb(make_surface("veronese"), (3, 2), 0.05, 32, 32, direction=1)
    assert np.abs(np.linalg.norm(grid.samples, axis=0) - 1.0).max() < 1e-12


def test_veronese_analytic_normals_are_orthonormal_normals():
    """n0 = B(x, x) - B(y, y) and n1 = B(x, y) are orthogonal without a
    Gram-Schmidt step, and both are normal to the chart at every interior
    point of a 24 x 48 grid."""
    surf = make_surface("veronese")
    grid = sample_grid(surf, 24, 48)
    uu, vv = np.meshgrid(grid.u_values[grid.valid_rows], grid.v_values, indexing="ij")
    pos, first, _ = surf.chart(uu, vv)
    n0, n1 = _analytic_normals(surf, uu, vv)
    assert np.abs(np.einsum("m...,m...->...", n0, n1)).max() <= 1e-15
    for nvec in (n0, n1):
        assert np.abs(np.linalg.norm(nvec, axis=0) - 1.0).max() <= 1e-15
        for vec in (pos, first[0], first[1]):
            assert np.abs(np.einsum("m...,m...->...", nvec, vec)).max() <= 1e-14


def test_perturb_excessive_amplitude_degenerates():
    surf = make_surface("geodesic-sphere", rho=np.pi / 3)
    perturb(surf, (2, 2), 1.0, 32, 64)  # embeds
    with pytest.raises(DegenerateAfterPerturb):
        perturb(surf, (2, 2), 2.0, 32, 64)


def test_perturb_parameter_validation():
    surf = make_surface("geodesic-sphere")
    with pytest.raises(BadParams):
        perturb(surf, (2, 2), 0.01, 16, 32, direction=5)
    with pytest.raises(BadParams):
        perturb(surf, (-1, 2), 0.01, 16, 32)
    with pytest.raises(BadParams):
        perturb(surf, (2, 0.5), 0.01, 16, 32)


def test_perturbed_sphere_profile_vanishes_at_poles():
    # pole rows must stay exactly at the unperturbed samples
    surf = make_surface("geodesic-sphere", rho=np.pi / 3)
    base = sample_grid(surf, 32, 64).samples
    pert = perturb(surf, (2, 2), 0.05, 32, 64).samples
    assert np.array_equal(base[:, 0], pert[:, 0])
    assert np.array_equal(base[:, -1], pert[:, -1])
    assert np.abs(base[:, 16] - pert[:, 16]).max() > 1e-4
