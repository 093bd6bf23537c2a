"""Special-frame reduction (a, b, c, |H|) and the traceless splitting."""

import numpy as np
import pytest

from pinchflow.errors import BadDims
from pinchflow.frames import (ABCFrame, _first_normal, reconstruct, specialize,
                              split_traceless)
from pinchflow.identities import kperp_checks, kperp_scalar, norms_batch


def special_example():
    # frame already special: A_1 = diag(2.2, 0.8), A_2 = [[0.3, 0.5], [0.5, -0.3]]
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = np.diag([2.2, 0.8])
    h[:, :, 1] = np.array([[0.3, 0.5], [0.5, -0.3]])
    return h


def random_h(rng, count):
    """count forms drawn row by row, laid out as (2, 2, 2, count)."""
    h = rng.uniform(-1.0, 1.0, size=(count, 2, 2, 2))
    return np.ascontiguousarray(np.moveaxis(0.5 * (h + np.swapaxes(h, 1, 2)), 0, -1))


def test_specialize_on_already_special_input():
    fr = specialize(special_example())
    assert abs(fr.a - 0.7) < 1e-12
    assert abs(fr.b - 0.3) < 1e-12
    assert abs(fr.c - 0.5) < 1e-12
    assert abs(fr.h_norm - 3.0) < 1e-12
    # K_perp = 2ac and the traceless norm from the frame scalars
    assert abs(kperp_scalar(special_example()) - 0.7) < 1e-12
    assert abs(2 * (fr.a**2 + fr.b**2 + fr.c**2) - 1.66) < 1e-12


def test_specialize_zero_input():
    fr = specialize(np.zeros((2, 2, 2)))
    assert fr.a == 0.0 and fr.b == 0.0 and fr.c == 0.0 and fr.h_norm == 0.0


def test_specialize_rejects_wrong_dims():
    with pytest.raises(BadDims):
        specialize(np.zeros((3, 3, 2)))


def test_roundtrip_and_invariants_random():
    """reconstruct(specialize(h)) == h, plus the three frame identities."""
    rng = np.random.default_rng(42)
    h = random_h(rng, 2000)
    _, _, traceless2 = norms_batch(h)
    for i, t2 in enumerate(traceless2):
        row = h[..., i]
        fr = specialize(row)
        assert fr.a >= 0.0
        back = reconstruct(fr)
        assert np.abs(back - row).max() < 1e-10
        assert abs(2 * (fr.a**2 + fr.b**2 + fr.c**2) - t2) < 1e-10
        assert abs(abs(float(kperp_scalar(row))) - 2.0 * fr.a * abs(fr.c)) < 1e-10


def test_specialize_tangent_rotation_invariance():
    # a, b^2, c^2, |H| are gauge-invariant once the frame is canonicalized
    rng = np.random.default_rng(7)
    for _ in range(200):
        h = random_h(rng, 1)[..., 0]
        fr = specialize(h)
        th = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        hr = np.einsum("ki,lj,ija->kla", rot, rot, h)
        fr2 = specialize(hr)
        assert abs(fr.a - fr2.a) < 1e-9
        assert abs(fr.b**2 - fr2.b**2) < 1e-9
        assert abs(fr.c**2 - fr2.c**2) < 1e-9
        assert abs(fr.h_norm - fr2.h_norm) < 1e-12


def test_h_zero_fallback_is_deterministic():
    # H = 0, h_1 = diag(1, -1), h_2 = 0: the fallback picks the first normal
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = np.diag([1.0, -1.0])
    fr = specialize(h)
    assert abs(fr.a - 1.0) < 1e-12
    assert abs(fr.b) < 1e-12 and abs(fr.c) < 1e-12
    assert fr.h_norm == 0.0


def test_h_zero_fallback_veronese_type():
    # minimal surface with a = c = 1/sqrt(3), b = 0; fallback must recover it
    r = 1.0 / np.sqrt(3.0)
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = np.diag([r, -r])
    h[:, :, 1] = np.array([[0.0, r], [r, 0.0]])
    fr = specialize(h)
    assert abs(fr.a - r) < 1e-10
    assert abs(fr.b) < 1e-10
    assert abs(abs(fr.c) - r) < 1e-10
    assert abs(abs(kperp_scalar(h)) - 2.0 / 3.0) < 1e-12


def test_batched_stack_matches_rows():
    """A (2, 2, 2, N) stack gives the per-row frames, rebuilds and checks."""
    rng = np.random.default_rng(2026)
    h = random_h(rng, 1200)
    r = 1.0 / np.sqrt(3.0)
    h[..., :3] = 0.0                                # zero form
    h[:, :, 0, 1] = np.diag([1.0, -1.0])            # H = 0, tied eigenvalues
    h[:, :, 0, 2] = np.diag([r, -r])                # Veronese type, H = 0
    h[:, :, 1, 2] = np.array([[0.0, r], [r, 0.0]])
    fr = specialize(h)
    back = reconstruct(fr)
    chk = kperp_checks(h, kbar=0.7)
    for i in range(h.shape[-1]):
        row = h[..., i]
        one = specialize(row)
        for name in ("a", "b", "c", "h_norm", "tangent_rotation", "normal_rotation"):
            assert np.abs(getattr(fr, name)[..., i] - getattr(one, name)).max() <= 1e-14
        assert np.abs(back[..., i] - reconstruct(one)).max() <= 1e-14
        ref = kperp_checks(row, kbar=0.7)
        for name in ("reaction_brute", "reaction_closed", "reaction_printed",
                     "laplacian_factor", "li_li_margin"):
            want = getattr(ref, name)
            assert abs(getattr(chk, name)[i] - want) <= 1e-14 * (1.0 + abs(want))
    assert fr.h_norm[0] == 0.0 and abs(fr.a[1] - 1.0) < 1e-12 and abs(fr.a[2] - r) < 1e-10
    with pytest.raises(BadDims):
        specialize(np.zeros((3, 3, 2, 1200)))


def _eigh_specialize(h):
    """The eigh-based specialize the closed-form tangent rotation replaced,
    kept as a test-only reference: LAPACK eigenvectors of h . nu_1 in
    descending order, the second flipped where needed for det = +1."""
    _, h_norm, u = _first_normal(h)
    amats, u = np.moveaxis(h, (0, 1, 2), (-2, -1, -3)), np.moveaxis(u, 0, -1)
    nrot = np.empty(u.shape + (2,))
    nrot[..., 0, :] = u
    nrot[..., 1, 0] = -u[..., 1]
    nrot[..., 1, 1] = u[..., 0]
    aprime = np.einsum("...ab,...bij->...aij", nrot, amats)
    _, evecs = np.linalg.eigh(aprime[..., 0, :, :])
    e1, e2 = evecs[..., :, 1], evecs[..., :, 0]
    flip = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0] < 0
    e2 = np.where(flip[..., None], -e2, e2)

    def form(x, alpha, y):
        return np.einsum("...i,...ij,...j->...", x, aprime[..., alpha, :, :], y)

    return ABCFrame(a=0.5 * (form(e1, 0, e1) - form(e2, 0, e2)), b=form(e1, 1, e1),
                    c=form(e1, 1, e2), h_norm=h_norm,
                    tangent_rotation=np.moveaxis(np.stack([e1, e2], axis=-2), (-2, -1), (0, 1)),
                    normal_rotation=np.moveaxis(nrot, (-2, -1), (0, 1)))


def edge_rows():
    """Zero forms, tied h . nu_1 (q = 0, p = r) with zeros of either sign,
    and the H = 0 fallback rows of test_batched_stack_matches_rows."""
    r = 1.0 / np.sqrt(3.0)
    second = np.array([[0.3, 0.5], [0.5, -0.3]])
    rows = [np.zeros((2, 2, 2)), np.full((2, 2, 2), -0.0)]
    for scale in (1.0, -1.0, 2.5):
        for zero in (0.0, -0.0):
            tied = np.array([[scale, zero], [zero, scale]])
            for first, other in ((tied, second), (second, tied), (tied, np.zeros((2, 2)))):
                rows.append(np.stack([first, other], axis=-1))
    rows.append(np.stack([np.diag([1.0, -1.0]), np.zeros((2, 2))], axis=-1))
    rows.append(np.stack([np.diag([r, -r]), np.array([[0.0, r], [r, 0.0]])], axis=-1))
    return np.stack(rows, axis=-1)


def test_closed_form_frame_matches_eigh_reference():
    """a, b, c and |H| agree with the eigh route to roundoff, the normal
    rotation exactly and the tangent rotation up to the eigenvectors' sign,
    on 10k random rows and on the zero, tied and H = 0 edge rows."""
    rng = np.random.default_rng(1616)
    h = np.concatenate([edge_rows(), random_h(rng, 10000)], axis=-1)
    got, want = specialize(h), _eigh_specialize(h)
    for name in ("a", "b", "c", "h_norm"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-13, name
    assert np.array_equal(got.normal_rotation, want.normal_rotation)
    sign = np.where(np.einsum("ij...,ij...->...", got.tangent_rotation,
                              want.tangent_rotation) < 0, -1.0, 1.0)
    assert np.abs(got.tangent_rotation - sign * want.tangent_rotation).max() <= 1e-13
    det = (got.tangent_rotation[0, 0] * got.tangent_rotation[1, 1]
           - got.tangent_rotation[0, 1] * got.tangent_rotation[1, 0])
    assert np.abs(det - 1.0).max() <= 1e-15 and got.a.min() >= 0.0
    assert np.abs(reconstruct(got) - h).max() <= 1e-13


def test_split_traceless_flat_torus_values():
    # principal curvatures r2/r1 = 4/3 and -r1/r2 = -3/4 in the first normal
    h = np.zeros((2, 2, 2))
    h[:, :, 0] = np.diag([4.0 / 3.0, -3.0 / 4.0])
    sp = split_traceless(h)
    assert abs(sp.normA1_2 - 2.0 * (25.0 / 24.0) ** 2) < 1e-10
    assert sp.normAminus_2 < 1e-12


def test_split_traceless_special_example():
    sp = split_traceless(special_example())
    assert abs(sp.normA1_2 - 0.98) < 1e-10
    assert abs(sp.normAminus_2 - 0.68) < 1e-10


def test_split_traceless_zero():
    sp = split_traceless(np.zeros((2, 2, 2)))
    assert sp.normA1_2 == 0.0 and sp.normAminus_2 == 0.0


def test_split_traceless_sums_to_traceless_norm():
    rng = np.random.default_rng(11)
    h = random_h(rng, 500)
    _, _, traceless2 = norms_batch(h)
    for i, t2 in enumerate(traceless2):
        sp = split_traceless(h[..., i])
        assert abs(sp.normA1_2 + sp.normAminus_2 - t2) < 1e-10
