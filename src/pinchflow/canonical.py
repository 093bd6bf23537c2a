"""Closed-form catalog of test surfaces in the unit sphere.

Each surface provides an analytic chart with exact first/second derivatives
plus a record of reference invariants.  The charts are the ground truth the
discrete machinery is tested against; the reference values are themselves
re-verified from the analytic jets in the test suite rather than assumed.

Catalog:
    clifford          minimal torus in S^3 x {0} c S^4, |A|^2 = 2
    flat-torus        product torus S^1(r1) x S^1(r2) in S^3 x {0}
    geodesic-sphere   round n-sphere of geodesic radius rho in S^(n+m)
    veronese          minimal projective plane in S^4, |A|^2 = 4/3

Charts and normal frames are component-major, the small axes first and the
parameter axes last: a chart returns pos (d, ...), first (2, d, ...) and
second (2, 2, d, ...), which at a single point is the layout of Jet2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BadParams, DegenerateAfterPerturb, DegenerateJet, OffSphere
from .grids import GridSurface, batch_jets
from .tensor_kernel import Jet2, batch_geometry

SQ3 = np.sqrt(3.0)
CLIFFORD_RADIUS = 1.0 / np.sqrt(2.0)  # clifford is the flat torus with r1 = r2 = this


@dataclass
class CanonicalSurface:
    kind: str
    params: dict
    topology: str
    ambient_dim: int
    reference: dict
    chart: Callable = field(repr=False)

    def jet_at(self, u: float, v: float) -> Jet2:
        pos, first, second = self.chart(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        return Jet2(pos, first, second)


def _pack(u, v, comps_pos, comps_fu, comps_fv, comps_fuu, comps_fuv, comps_fvv, dim):
    """Assemble batched (pos, first, second) from per-coordinate arrays."""
    shape = (dim,) + np.broadcast(u, v).shape
    pos, fu, fv, fuu, fuv, fvv = (np.zeros(shape) for _ in range(6))
    for arrs, target in (
        (comps_pos, pos), (comps_fu, fu), (comps_fv, fv),
        (comps_fuu, fuu), (comps_fuv, fuv), (comps_fvv, fvv),
    ):
        for idx, val in arrs:
            target[idx] = val
    return pos, np.stack([fu, fv]), np.stack([np.stack([fuu, fuv]), np.stack([fuv, fvv])])


def _flat_torus_chart(r1, r2):
    def chart(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        return _pack(
            u, v,
            [(0, r1 * cu), (1, r1 * su), (2, r2 * cv), (3, r2 * sv)],
            [(0, -r1 * su), (1, r1 * cu)],
            [(2, -r2 * sv), (3, r2 * cv)],
            [(0, -r1 * cu), (1, -r1 * su)],
            [],
            [(2, -r2 * cv), (3, -r2 * sv)],
            5,
        )
    return chart


def _geodesic_sphere_chart(rho, dim):
    sr, cr = np.sin(rho), np.cos(rho)

    def chart(u, v):
        cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
        return _pack(
            u, v,
            [(0, sr * su * cv), (1, sr * su * sv), (2, sr * cu),
             (3, cr * np.ones_like(su * sv))],
            [(0, sr * cu * cv), (1, sr * cu * sv), (2, -sr * su)],
            [(0, -sr * su * sv), (1, sr * su * cv)],
            [(0, -sr * su * cv), (1, -sr * su * sv), (2, -sr * cu)],
            [(0, -sr * cu * sv), (1, sr * cu * cv)],
            [(0, -sr * su * cv), (1, -sr * su * sv)],
            dim,
        )
    return chart


def _veronese_bilinear(p, q):
    """The symmetric bilinear map whose quadratic form is the embedding."""
    out = np.zeros((5,) + np.broadcast(p[0], q[0]).shape)
    out[0] = (p[0] * q[1] + p[1] * q[0]) / (2.0 * SQ3)
    out[1] = (p[0] * q[2] + p[2] * q[0]) / (2.0 * SQ3)
    out[2] = (p[1] * q[2] + p[2] * q[1]) / (2.0 * SQ3)
    out[3] = (p[0] * q[0] - p[1] * q[1]) / (2.0 * SQ3)
    out[4] = (p[0] * q[0] + p[1] * q[1] - 2.0 * p[2] * q[2]) / 6.0
    return out


def _veronese_chart(u, v):
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    zero = np.zeros_like(su * sv)
    w = SQ3 * np.stack([su * cv, su * sv, cu + zero])
    wu = SQ3 * np.stack([cu * cv, cu * sv, -su + zero])
    wv = SQ3 * np.stack([-su * sv, su * cv, zero])
    wuu = -w
    wuv = SQ3 * np.stack([-cu * sv, cu * cv, zero])
    wvv = SQ3 * np.stack([-su * cv, -su * sv, zero])
    b = _veronese_bilinear
    pos = b(w, w)
    fu = 2.0 * b(w, wu)
    fv = 2.0 * b(w, wv)
    fuu = 2.0 * b(wu, wu) + 2.0 * b(w, wuu)
    fuv = 2.0 * b(wu, wv) + 2.0 * b(w, wuv)
    fvv = 2.0 * b(wv, wv) + 2.0 * b(w, wvv)
    return pos, np.stack([fu, fv]), np.stack([np.stack([fuu, fuv]), np.stack([fuv, fvv])])


def make_surface(kind: str, **params) -> CanonicalSurface:
    kind = kind.lower().replace("_", "-")
    if kind == "clifford":
        if params:
            raise BadParams("clifford takes no parameters")
        ref = dict(normA2=2.0, normH2=0.0, normTracelessA2=2.0, kperp_abs=0.0,
                   gauss=0.0, minimal=True)
        return CanonicalSurface("clifford", {}, "torus", 5, ref,
                                _flat_torus_chart(CLIFFORD_RADIUS, CLIFFORD_RADIUS))

    if kind == "flat-torus":
        r1 = params.pop("r1", 0.6)
        r2 = params.pop("r2", 0.8)
        if params:
            raise BadParams("unknown flat-torus parameters %s" % sorted(params))
        if not (r1 > 0 and r2 > 0 and abs(r1 * r1 + r2 * r2 - 1.0) <= 1e-12):  # NaN fails
            raise BadParams("need r1, r2 > 0 with r1^2 + r2^2 = 1")
        k1, k2 = r2 / r1, -r1 / r2
        h = k1 + k2
        ref = dict(normA2=k1 * k1 + k2 * k2, normH2=h * h,
                   normTracelessA2=k1 * k1 + k2 * k2 - h * h / 2.0,
                   kperp_abs=0.0, gauss=0.0, minimal=False)
        return CanonicalSurface("flat-torus", {"r1": r1, "r2": r2}, "torus", 5, ref,
                                _flat_torus_chart(r1, r2))

    if kind == "geodesic-sphere":
        rho = params.pop("rho", np.pi / 3.0)
        n = int(params.pop("n", 2))
        m = int(params.pop("m", 2))
        if params:
            raise BadParams("unknown geodesic-sphere parameters %s" % sorted(params))
        if not (0.0 < rho < np.pi):
            raise BadParams("need 0 < rho < pi")
        if n != 2:
            raise BadParams("the grid chart is two-dimensional; use "
                            "geodesic_sphere_jet for other n")
        if m < 2:
            raise BadParams("need at least 2 normal directions (m >= 2)")
        cot = np.cos(rho) / np.sin(rho)
        ref = dict(normA2=n * cot * cot, normH2=(n * cot) ** 2,
                   normTracelessA2=0.0, kperp_abs=0.0,
                   gauss=1.0 / np.sin(rho) ** 2,
                   minimal=bool(abs(rho - np.pi / 2) < 1e-15))
        return CanonicalSurface("geodesic-sphere", {"rho": rho, "n": n, "m": m},
                                "sphere", n + m + 1, ref, _geodesic_sphere_chart(rho, n + m + 1))

    if kind == "veronese":
        if params:
            raise BadParams("veronese takes no parameters")
        ref = dict(normA2=4.0 / 3.0, normH2=0.0, normTracelessA2=4.0 / 3.0,
                   kperp_abs=2.0 / 3.0, gauss=1.0 / 3.0, minimal=True)
        return CanonicalSurface("veronese", {}, "sphere", 5, ref, _veronese_chart)

    raise BadParams("unknown surface kind %r" % kind)


# ---------------------------------------------------------------------------
# general-dimension geodesic spheres (pointwise jets only)

def _hyperspherical_factors(n):
    """Coordinate j of the unit n-sphere is a product of angle factors."""
    return ([[(i, "s") for i in range(j)] + [(j, "c")] for j in range(n)]
            + [[(i, "s") for i in range(n)]])


def _factor_value(kind, theta, order):
    if kind == "s":
        return (np.sin(theta), np.cos(theta), -np.sin(theta))[order]
    return (np.cos(theta), -np.sin(theta), -np.cos(theta))[order]


def geodesic_sphere_jet(rho: float, n: int, m: int, angles) -> Jet2:
    """Analytic jet of the radius-rho geodesic n-sphere in S^(n+m).

    angles: n chart angles (hyperspherical coordinates on the unit n-sphere
    of directions).  Useful for exercising the tensor kernel away from
    n = 2; the grid machinery stays two-dimensional.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (n,):
        raise BadParams("need exactly n angles")
    if not (0.0 < rho < np.pi):
        raise BadParams("need 0 < rho < pi")
    dim = n + m + 1
    coords = _hyperspherical_factors(n)
    sr, cr = np.sin(rho), np.cos(rho)

    def omega(derivs):
        out = np.zeros(n + 1)
        for ci, factors in enumerate(coords):
            val = 1.0
            for (ang, kind) in factors:
                val *= _factor_value(kind, angles[ang], derivs.get(ang, 0))
            # a derivative in an angle the factor list does not contain kills it
            for ang in derivs:
                if all(a != ang for a, _ in factors):
                    val = 0.0
            out[ci] = val
        return out

    pos = np.zeros(dim)
    pos[: n + 1] = sr * omega({})
    pos[n + 1] = cr
    first = np.zeros((n, dim))
    for a in range(n):
        first[a, : n + 1] = sr * omega({a: 1})
    second = np.zeros((n, n, dim))
    for a in range(n):
        for b_ in range(a, n):
            d = {a: 2} if a == b_ else {a: 1, b_: 1}
            second[a, b_, : n + 1] = sr * omega(d)
            second[b_, a] = second[a, b_]
    return Jet2(pos, first, second)


# ---------------------------------------------------------------------------
# grid sampling and perturbations

def _analytic_normals(surface: CanonicalSurface, uu, vv) -> np.ndarray:
    """Chart-smooth orthonormal normal frames, shape (2, dim, ...).

    batch_geometry's frames are canonicalized pointwise and may flip or
    rotate discontinuously across a grid, which is harmless for invariant
    reporting but fatal for displacement fields; perturbations therefore
    use these closed-form frames instead.
    """
    cu, su, cv, sv = np.cos(uu), np.sin(uu), np.cos(vv), np.sin(vv)
    shape = np.broadcast(uu, vv).shape
    dim = surface.ambient_dim
    frame = np.zeros((2, dim) + shape)
    if surface.kind in ("clifford", "flat-torus"):
        r1 = surface.params.get("r1", CLIFFORD_RADIUS)
        r2 = surface.params.get("r2", CLIFFORD_RADIUS)
        frame[0, 0] = -r2 * cu
        frame[0, 1] = -r2 * su
        frame[0, 2] = r1 * cv
        frame[0, 3] = r1 * sv
        frame[1, 4] = 1.0
    elif surface.kind == "geodesic-sphere":
        rho = surface.params["rho"]
        sr, cr = np.sin(rho), np.cos(rho)
        frame[0, 0] = cr * su * cv
        frame[0, 1] = cr * su * sv
        frame[0, 2] = cr * cu
        frame[0, 3] = -sr
        frame[1, 4] = 1.0
    elif surface.kind == "veronese":
        # tangent frame of the direction sphere; normals are the traceless
        # quadratics built on it
        x = np.stack([cu * cv, cu * sv, -su])
        y = np.stack([-sv, cv, np.zeros_like(sv)])
        n0 = _veronese_bilinear(x, x) - _veronese_bilinear(y, y)
        n1 = _veronese_bilinear(x, y)
        n0 /= np.linalg.norm(n0, axis=0)
        n1 /= np.linalg.norm(n1, axis=0)
        frame[0] = n0
        frame[1] = n1
    else:  # pragma: no cover - catalog is closed
        raise BadParams("no analytic normal frame for %r" % surface.kind)
    return frame


def sample_grid(surface: CanonicalSurface, nu: int, nv: int) -> GridSurface:
    """Sample the chart on the standard grid for its topology: the chart's
    positions are the (ambient_dim, nu, nv) samples GridSurface stores."""
    if surface.topology == "torus":
        u = 2.0 * np.pi * np.arange(nu) / nu
    else:
        u = np.pi * np.arange(nu) / (nu - 1)
    v = 2.0 * np.pi * np.arange(nv) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pos, _, _ = surface.chart(uu, vv)
    meta = {"kind": surface.kind, **surface.params}
    return GridSurface(surface.topology, nu, nv, pos, meta)


def perturb(surface: CanonicalSurface, mode=(2, 2), amplitude: float = 0.0,
            nu: int = 64, nv: int = 64, direction: int = 0) -> GridSurface:
    """Displace grid samples along a chosen chart normal and renormalize.

    The displacement profile is a trigonometric mode along unit normal
    number `direction` of the analytic chart: cos(mu u) cos(mv v) on torus
    charts, and cos(mu u) sin(u)^mv cos(mv v) on sphere charts (the extra
    sin factor makes the profile a polynomial in the ambient coordinates,
    so it closes up smoothly at the poles instead of kinking).  Zero
    amplitude returns the plain grid samples byte-for-byte, after the mode
    and direction are validated as at any other amplitude.  Pole rows of
    sphere charts are left unperturbed (the profile vanishes there anyway;
    they are excluded from jets and refreshed during flow).
    """
    mu, mv = mode
    if mu != int(mu) or mv != int(mv) or mu < 0 or mv < 0:
        raise BadParams("mode wavenumbers must be nonnegative integers")
    if direction not in (0, 1):
        raise BadParams("direction must be 0 or 1")
    if not np.isfinite(amplitude):
        raise BadParams("amplitude must be finite")
    grid = sample_grid(surface, nu, nv)
    if amplitude == 0.0:
        return grid

    vr = grid.valid_rows
    u = grid.u_values[vr]
    v = grid.v_values
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pos, _, _ = surface.chart(uu, vv)
    nvec = _analytic_normals(surface, uu, vv)[direction]
    disp = amplitude * np.cos(mu * uu) * np.cos(mv * vv)
    if grid.topology == "sphere":
        disp = disp * np.sin(uu) ** mv
    moved = pos + disp * nvec
    moved /= np.linalg.norm(moved, axis=0)
    samples = grid.samples.copy()
    samples[:, vr] = moved
    out = grid.copy_with(samples)
    _check_embedded(out)
    return out


def _check_embedded(grid: GridSurface):
    """Reject perturbations that fold or degenerate the sampled immersion."""
    try:
        pos, first, second = batch_jets(grid)
        batch_geometry(pos, first, second)
    except (DegenerateJet, OffSphere) as exc:
        raise DegenerateAfterPerturb(str(exc)) from exc

    p = grid.samples
    e1 = np.diff(p, axis=1)
    if grid.topology == "torus":
        e1 = np.concatenate([e1, (p[:, :1] - p[:, -1:])], axis=1)
        anchor = slice(None)
    else:
        # pole rows collapse to points; anchor cells on interior rows only
        anchor = slice(1, grid.nu - 1)
    e2 = np.roll(p, -1, axis=2) - p
    a = e1[:, anchor]
    b = e2[:, anchor]
    g11 = np.einsum("m...,m...->...", a, a)
    g22 = np.einsum("m...,m...->...", b, b)
    g12 = np.einsum("m...,m...->...", a, b)
    area2 = g11 * g22 - g12 * g12
    med = np.median(area2)
    if med <= 0 or area2.min() <= 1e-3 * med:
        raise DegenerateAfterPerturb(
            "cell area collapsed (min/median = %.3e)" % (area2.min() / max(med, 1e-300))
        )
