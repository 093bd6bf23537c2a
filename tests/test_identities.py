"""Reaction terms, the nonlinearity oracle, and discrete gradient margins.

The closed forms under test here are only ever asserted against literal
index-sum oracles evaluated in this file or in the library's brute routes;
no expected value is copied in from anywhere the code cannot check.
"""

import numpy as np
import pytest

from pinchflow.canonical import make_surface, perturb, sample_grid
from pinchflow.errors import BadDims, InsufficientStencil
from pinchflow.frames import specialize
from pinchflow.grids import batch_jets
from pinchflow.identities import (_quartic_reaction, gradient_margins, kperp_checks,
                                  kperp_scalar, mean_vector, norms_batch,
                                  r1_batch, r2_batch, reaction_terms,
                                  rm_perp_squared, s_matrix, z_brute_batch)
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
    """count forms drawn row by row, laid out as (2, 2, k, count)."""
    h = rng.uniform(-1.0, 1.0, size=(count, 2, 2, k))
    return np.ascontiguousarray(np.moveaxis(0.5 * (h + np.swapaxes(h, 1, 2)), 0, -1))


def rows(h):
    """The single forms of a (n, n, k, m) batch, one per last-axis index."""
    return [h[..., i] for i in range(h.shape[-1])]


def project_out_mean(h):
    mean = np.einsum("iia...->a...", h) / 2.0
    out = h.copy()
    out[0, 0] -= mean
    out[1, 1] -= mean
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


def mean_loop(h):
    n, k = h.shape[0], h.shape[2]
    return np.array([sum(h[i, i, a] for i in range(n)) for a in range(k)])


def r2_loop(h):
    n = h.shape[0]
    hv = mean_loop(h)
    out = 0.0
    for i in range(n):
        for j in range(n):
            out += (hv * h[i, j]).sum() ** 2
    return out


def norms_loop(h):
    n, k = h.shape[0], h.shape[2]
    a2 = 0.0
    for i in range(n):
        for j in range(n):
            for a in range(k):
                a2 += h[i, j, a] * h[i, j, a]
    h2 = (mean_loop(h) ** 2).sum()
    return a2, h2, a2 - h2 / n


def s_loop(h):
    k = h.shape[2]
    return np.array([[(h[:, :, a] * h[:, :, b]).sum() for b in range(k)]
                     for a in range(k)])


# The point-major einsum route the component-major primitives replaced, kept
# as a test-only reference: it sums over the small axes innermost.

def _point_major_reference(h):
    n = h.shape[-3]
    s = np.einsum("...ija,...ijb->...ab", h, h)
    t = np.einsum("...ipa,...jpb->...ijab", h, h)
    rp = t - np.swapaxes(t, -4, -3)
    rm = np.einsum("...ijab,...ijab->...", rp, rp)
    mean = np.einsum("...iia->...a", h)
    hh = np.einsum("...a,...ija->...ij", mean, h)
    a2 = np.einsum("...ija,...ija->...", h, h)
    h2 = np.einsum("...a,...a->...", mean, mean)
    return dict(s=s, mean=mean, rm=rm, r1=np.einsum("...ab,...ab->...", s, s) + rm,
                r2=np.einsum("...ij,...ij->...", hh, hh),
                normA2=a2, normH2=h2, traceless=a2 - h2 / n)


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
    for row in rows(random_h(rng, 100)):
        rt = reaction_terms(row)
        r1_ref, rm_ref = r1_loop(row)
        assert abs(rt.r1 - r1_ref) < 1e-10 * (1 + abs(r1_ref))
        assert abs(rt.rm_perp_2 - rm_ref) < 1e-10 * (1 + rm_ref)
        assert abs(rt.r2 - r2_loop(row)) < 1e-10 * (1 + rt.r2)


def test_veronese_simons_balance():
    # minimal case: Z + 2 kbar |Ao|^2 vanishes on the Veronese invariants
    rt = reaction_terms(veronese_h())
    _, _, t2 = norms_batch(veronese_h()[..., None])
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
    for row in rows(h):
        r1_ref, _ = r1_loop(row)
        assert abs(r1_batch(row[..., None])[0] - r1_ref) < 1e-10 * (1 + abs(r1_ref))
        assert abs(r2_batch(row[..., None])[0] - r2_loop(row)) < 1e-10


@pytest.mark.parametrize("layout", ["point-major", "component-major-storage"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_primitives_match_loops_any_dimension(n, k, layout):
    """S, the mean vector, r1, r2, |Rmperp|^2 and the norms against the index
    loops and the point-major einsum route, on (n, n, k, m) storage as the
    sweep builders return it.  Tolerance 1e-12 (1 + |ref|): the sums are the
    same, only their order differs.  The same batch laid out point-major,
    (m, n, n, k), is refused by the primitives that guard their layout."""
    rng = np.random.default_rng(1000 + 10 * n + k)
    h = rng.uniform(-1.0, 1.0, size=(30, n, n, k))
    h = np.ascontiguousarray(np.moveaxis(0.5 * (h + np.swapaxes(h, 1, 2)), 0, -1))
    assert h.flags.c_contiguous and h.shape == (n, n, k, 30)
    if layout == "point-major":
        for primitive in (rm_perp_squared, r1_batch, z_brute_batch):
            with pytest.raises(BadDims):
                primitive(np.moveaxis(h, -1, 0))
        return
    ref = _point_major_reference(np.moveaxis(h, -1, 0))
    a2, h2, t2 = norms_batch(h)
    got = dict(s=s_matrix(h), mean=mean_vector(h), rm=rm_perp_squared(h),
               r1=r1_batch(h), r2=r2_batch(h), normA2=a2, normH2=h2, traceless=t2)
    for row, hrow in enumerate(rows(h)):
        r1_ref, rm_ref = r1_loop(hrow)
        loops = dict(s=s_loop(hrow), mean=mean_loop(hrow), rm=rm_ref, r1=r1_ref,
                     r2=r2_loop(hrow))
        loops.update(zip(("normA2", "normH2", "traceless"), norms_loop(hrow)))
        for name, want in loops.items():
            for value in (got[name][..., row], ref[name][row]):
                assert np.shape(value) == np.shape(want), name
                assert np.all(np.abs(value - want) <= 1e-12 * (1.0 + np.abs(want))), name


def test_point_major_batch_is_refused():
    """A batch laid out point-major, (m, 2, 2, 2), raises BadDims before
    rm_perp_squared can build its (m, m, 2, 2) intermediate."""
    h = np.moveaxis(random_h(np.random.default_rng(5), 10000), -1, 0)
    assert h.shape == (10000, 2, 2, 2)
    for primitive in (rm_perp_squared, r1_batch, z_brute_batch, kperp_scalar):
        with pytest.raises(BadDims):
            primitive(h)


@pytest.mark.parametrize("kernel", [s_matrix, mean_vector, r2_batch, norms_batch],
                         ids=["s_matrix", "mean_vector", "r2_batch", "norms_batch"])
def test_kernel_refuses_point_major_batch(kernel):
    """A point-major (30, 2, 2, 2) batch raises BadDims in every kernel, not
    only in those that would otherwise fail: s_matrix would return sums over
    the batch."""
    h = np.moveaxis(random_h(np.random.default_rng(6), 30), -1, 0)
    assert h.shape == (30, 2, 2, 2)
    with pytest.raises(BadDims):
        kernel(h)


@pytest.mark.parametrize("grid", [
    perturb(make_surface("veronese"), (3, 2), 0.02, 48, 48, direction=1),
    sample_grid(make_surface("veronese"), 24, 48),
    sample_grid(make_surface("geodesic-sphere", rho=np.pi / 3), 32, 64),
    sample_grid(make_surface("flat-torus", r1=0.6, r2=0.8), 40, 40),
], ids=["veronese48", "veronese_h0", "sphere32x64", "torus40"])
def test_grid_geometry_feeds_identities_and_frames(grid):
    """batch_geometry's h goes into the identities and the special frame as
    it is: the norms match its own bit for bit and Kperp to 1e-14."""
    geom = batch_geometry(*batch_jets(grid))
    for got, want in zip(norms_batch(geom.h), (geom.normA2, geom.normH2, geom.normTracelessA2)):
        assert np.array_equal(got, want)
    assert np.abs(kperp_scalar(geom.h) - geom.kperp).max() <= 1e-14
    assert np.abs(specialize(geom.h).kperp - geom.kperp).max() <= 1e-14


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
    # the special frame the printed route used comes back with the checks
    assert abs(chk.frame.a - 0.7) < 1e-10
    assert abs(chk.frame.b - 0.3) < 1e-10
    assert abs(chk.frame.c - 0.5) < 1e-10


def _point_major_quartic(amats):
    """The point-major route _quartic_reaction replaced, kept as a test-only
    reference: the same index sums over trailing (..., k, n, n) axes."""
    s = np.einsum("...aij,...bij->...ab", amats, amats)
    p = np.einsum("...aip,...apj->...ij", amats, amats)
    rmats = (
        np.einsum("...ab,...bij->...aij", s, amats)
        + np.einsum("...ip,...apj->...aij", p, amats)
        + np.einsum("...aip,...pj->...aij", amats, p)
        - 2.0 * np.einsum("...bip,...apq,...bqj->...aij", amats, amats, amats)
    )
    a1, a2 = amats[..., 0, :, :], amats[..., 1, :, :]
    r1m, r2m = rmats[..., 0, :, :], rmats[..., 1, :, :]
    return np.sum(r1m[..., 0, :] * a2[..., 1, :] + a1[..., 0, :] * r2m[..., 1, :]
                  - r1m[..., 1, :] * a2[..., 0, :] - a1[..., 1, :] * r2m[..., 0, :],
                  axis=-1)


def test_quartic_reaction_matches_point_major_reference():
    """The component-major brute quartic equals the point-major one to
    roundoff, relative to the quartic's scale |A|^4, row by row."""
    rng = np.random.default_rng(1616)
    h = random_h(rng, 10000)
    h[..., :2] = 0.0
    h[:, :, 0, 1] = np.diag([1.0, -1.0])
    got = _quartic_reaction(h)
    want = _point_major_quartic(np.moveaxis(h, (2, 3), (-3, 0)))
    assert got.shape == (10000,) and got[0] == 0.0
    assert np.all(np.abs(got - want) <= 1e-13 * norms_batch(h)[0] ** 2)
    chk = kperp_checks(h, kbar=0.0)
    assert np.array_equal(chk.reaction_brute, got)


def test_kperp_gap_identity_random():
    rng = np.random.default_rng(77)
    for row in rows(random_h(rng, 300)):
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


def test_li_li_margin_vanishes_at_umbilic_h():
    """An umbilic h = t g nu has no traceless part, so the Li-Li margin is 0."""
    t = np.array([0.5, 1.0, 2.0, 3.0])
    nu = np.array([0.6, 0.8])
    h = np.einsum("ij,a,m->ijam", np.eye(2), nu, t)
    chk = kperp_checks(h)
    assert np.abs(chk.li_li_margin).max() <= 1e-12


def test_li_li_margin_random_with_mean_curvature():
    """The margin is Li-Li's bound on the traceless part, so it holds for h
    with H != 0 too."""
    rng = np.random.default_rng(29)
    h = random_h(rng, 4000)
    assert np.abs(mean_vector(h)).min() > 0.0
    assert kperp_checks(h).li_li_margin.min() >= -1e-12


def test_kperp_checks_rejects_wrong_dims():
    with pytest.raises(BadDims):
        kperp_checks(np.zeros((2, 2, 3)))
    # reaction_terms stays general-codimension; the (2,2)-only closed forms
    # are simply not populated there
    rt = reaction_terms(np.zeros((3, 3, 2)))
    assert rt.r3 is None and rt.z_closed is None
    assert rt.r1 == 0.0


def test_verify_contractions_are_shared_bit_for_bit():
    """verify reads the norms and Kperp from kperp_checks and hands its
    rm_perp_squared to z_brute_batch instead of contracting h again; the
    shared values are the kernels' own, bit for bit."""
    h = np.random.default_rng(11).normal(size=(2, 2, 2, 50))
    h = h + h.transpose(1, 0, 2, 3)
    chk = kperp_checks(h)
    for got, ref in zip(chk.norms, norms_batch(h)):
        assert np.array_equal(got, ref)
    assert np.array_equal(chk.kperp, kperp_scalar(h))
    assert np.array_equal(z_brute_batch(h, rm_perp_squared(h)), z_brute_batch(h))


# --- gradient margins on discrete fields -----------------------------------

def margins_of(grid):
    geom = batch_geometry(*batch_jets(grid))
    return gradient_margins(geom, grid.du, grid.dv, grid.topology == "torus")


def test_margins_vanish_on_parallel_fields():
    # parallel second fundamental form: all gradients are discretization noise
    for kind in ["clifford", "geodesic-sphere"]:
        grid = sample_grid(make_surface(kind), 64, 64)
        m = margins_of(grid)
        assert np.abs(m.m1).max() < 1e-8
        assert np.abs(m.m2).max() < 1e-8
        assert np.abs(m.m3).max() < 1e-8
        assert m.grad_a2.max() < 1e-8


def test_margins_nonnegative_on_perturbed_fields():
    geo = perturb(make_surface("geodesic-sphere"), (2, 2), 0.01, 64, 64)
    ver = perturb(make_surface("veronese"), (3, 2), 0.02, 64, 64, direction=1)
    for grid in (geo, ver):
        m = margins_of(grid)
        assert m.m1.min() >= -1e-6
        assert m.m2.min() >= -1e-6
        assert m.m3.min() >= -1e-6


def test_margins_m2_is_fixed_fraction_of_m1_pieces():
    # m2 = (|grad A|^2 - |grad H|^2/2) - (1/3)|grad A|^2 for n = 2; check the
    # arithmetic relation m2 = m1/3 + (1/2 - 1/6)... via independent recompute
    grid = perturb(make_surface("geodesic-sphere"), (2, 2), 0.05, 48, 48)
    m = margins_of(grid)
    # reconstruct from the reported gradient norms
    ga2, gh2 = m.grad_a2, m.grad_h2
    m1_ref = ga2 - 0.75 * gh2
    m2_ref = (ga2 - 0.5 * gh2) - ga2 / 3.0
    assert np.abs(m.m1 - m1_ref).max() < 1e-12
    assert np.abs(m.m2 - m2_ref).max() < 1e-12


def test_margins_insufficient_stencil():
    grid = sample_grid(make_surface("geodesic-sphere"), 4, 16)
    with pytest.raises(InsufficientStencil):
        margins_of(grid)


# --- brute-route oracle for the monitor kernels ------------------------------
#
# The point-major route the component-major kernels replaced, kept as a
# test-only reference: tangent frame from the Cholesky factor of the Gram
# matrix and its inverse, normals by einsum Gram-Schmidt, and the
# four-operand einsum transport of each neighbor's h.

def _reference_geometry(pos, first, second):
    gram = np.einsum("...ia,...ja->...ij", first, first)
    coeff = np.linalg.inv(np.linalg.cholesky(gram))
    tangent = coeff @ first
    k = pos.shape[-1] - 1 - first.shape[-2]
    normal = np.zeros(pos.shape[:-1] + (k, pos.shape[-1]))
    count = np.zeros(pos.shape[:-1], dtype=np.int64)
    for a in range(pos.shape[-1]):
        v = np.zeros_like(pos)
        v[..., a] = 1.0
        for _ in range(2):
            v = v - np.einsum("...m,...m->...", v, pos)[..., None] * pos
            v = v - np.einsum("...i,...im->...m",
                              np.einsum("...m,...im->...i", v, tangent), tangent)
            v = v - np.einsum("...s,...sm->...m",
                              np.einsum("...m,...sm->...s", v, normal), normal)
        r = np.linalg.norm(v, axis=-1)
        accept = (r >= 1e-8) & (count < k)
        for s in range(k):
            m = accept & (count == s)
            normal[m, s, :] = v[m] / r[m][..., None]
        count = count + accept
    assert (count == k).all()
    sec = np.einsum("...ia,...jb,...abm->...ijm", coeff, coeff, second, optimize=True)
    h = sec @ np.swapaxes(normal, -1, -2)[..., None, :, :]
    h = 0.5 * (h + np.swapaxes(h, -3, -2))
    mean = np.einsum("...iia->...a", h)
    kperp = np.einsum("...pa,...pb,ab->...", h[..., 0, :, :], h[..., 1, :, :],
                      np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return dict(h=h, coeff=coeff, tangent=tangent, normal=normal,
                normA2=np.einsum("...ija,...ija->...", h, h),
                normH2=np.einsum("...a,...a->...", mean, mean), kperp=kperp)


def _reference_margins(geo, du, dv, wrap_u):
    def polar(m):
        u, _, vt = np.linalg.svd(m)
        return u @ vt

    def aligned_shift(axis, shift):
        hs = np.roll(geo["h"], -shift, axis=axis)
        ts = np.roll(geo["tangent"], -shift, axis=axis)
        ns = np.roll(geo["normal"], -shift, axis=axis)
        # the closest orthogonal matrix, proper or not: the SVD polar factor
        rt = polar(geo["tangent"] @ np.swapaxes(ts, -1, -2))
        rn = polar(geo["normal"] @ np.swapaxes(ns, -1, -2))
        return np.einsum("...iI,...jJ,...aA,...IJA->...ija", rt, rt, rn, hs,
                         optimize=True)

    dup = (aligned_shift(0, 1) - aligned_shift(0, -1)) / (2.0 * du)
    dvp = (aligned_shift(1, 1) - aligned_shift(1, -1)) / (2.0 * dv)
    chart = np.stack([dup, dvp], axis=2)
    grad = np.einsum("...qc,...cija->...qija", geo["coeff"], chart)
    perms = ["qija", "iqja", "jiqa", "qjia", "ijqa", "jqia"]
    grad = sum(np.einsum("...qija->..." + p, grad) for p in perms) / 6.0
    if not wrap_u:
        grad = grad[1:-1]
    grad_a2 = np.einsum("...qija,...qija->...", grad, grad)
    grad_h = np.einsum("...qiia->...qa", grad)
    grad_h2 = np.einsum("...qa,...qa->...", grad_h, grad_h)
    evol = np.einsum("...qpa,...qpb,ab->...", grad[..., 0, :, :], grad[..., 1, :, :],
                     np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return dict(grad_a2=grad_a2, m1=grad_a2 - 0.75 * grad_h2,
                m2=(grad_a2 - grad_h2 / 2.0) - grad_a2 / 3.0, m3=grad_a2 - 2.0 * evol)


@pytest.mark.parametrize("grid", [
    sample_grid(make_surface("flat-torus", r1=0.6, r2=0.8), 40, 40),
    sample_grid(make_surface("geodesic-sphere", rho=np.pi / 3), 32, 64),
    perturb(make_surface("veronese"), (3, 2), 0.02, 48, 48, direction=1),
], ids=["torus40", "sphere32x64", "veronese48"])
def test_monitor_kernels_match_point_major_reference(grid):
    """Component-major geometry and margins against the brute route, 1e-12
    relative.  The scale of each field is its maximum over the grid, floored
    at its natural size (|A|^2 for invariants, |A|^4 for gradient terms): a
    field that vanishes in exact arithmetic (kperp of a surface in a great
    S^3, |grad A|^2 of a parallel form) is compared at its roundoff floor,
    not by the ratio of two roundoffs."""
    wrap_u = grid.topology == "torus"
    pos, first, second = batch_jets(grid)
    # the reference works point-major: (rows, cols, ...) with the small axes last
    ref = _reference_geometry(np.moveaxis(pos, 0, -1), np.moveaxis(first, (0, 1), (-2, -1)),
                              np.moveaxis(second, (0, 1, 2), (-3, -2, -1)))
    ref.update(_reference_margins(ref, grid.du, grid.dv, wrap_u))
    geom = batch_geometry(pos, first, second)
    got = {"normA2": geom.normA2, "normH2": geom.normH2, "kperp": geom.kperp}
    margins = gradient_margins(geom, grid.du, grid.dv, wrap_u)
    got.update(grad_a2=margins.grad_a2, m1=margins.m1, m2=margins.m2, m3=margins.m3)
    a2 = ref["normA2"].max()
    for name, value in got.items():
        floor = a2 if name in ("normA2", "normH2", "kperp") else a2 * a2
        scale = max(np.abs(ref[name]).max(), floor)
        assert value.shape == ref[name].shape, name
        assert np.abs(value - ref[name]).max() <= 1e-12 * scale, name
    if wrap_u:
        # the flat torus lies in a great S^3: its normal curvature is an exact zero
        assert np.all(geom.kperp == 0.0) and not np.signbit(geom.kperp).any()
