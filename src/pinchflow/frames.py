"""Special orthonormal frames for codimension-two surfaces.

For (n, k) = (2, 2) the second fundamental form reduces, after rotating the
normal frame so nu_1 points along the mean curvature vector and rotating the
tangent frame to diagonalize h.nu_1 (in closed form, no eigen-solver), to
four numbers (a, b, c, |H|):

    h . nu_1 = [[|H|/2 + a, 0], [0, |H|/2 - a]]
    h . nu_2 = [[b, c], [c, -b]]

with the gauge fixed by a >= 0.  The normal curvature is 2ac in this frame
and |Atraceless|^2 = 2(a^2 + b^2 + c^2).

When H = 0 the frame is under-determined; the fallback rule (documented
below) picks nu_1 as the normal direction maximizing |h . nu|, with ties
broken in favor of the first input normal direction.  This reproduces the
minimal-surface computations that use (a, b, c) without a mean-curvature
direction.  Arrays are component-major, the small axes first and any batch
shape last: h is (2, 2, 2, ...) and each rotation (2, 2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDims

H_ZERO_TOL = 1e-12
EIG_TIE_REL = 1e-9


@dataclass
class ABCFrame:
    """Special frame of h, batched like its input.

    a, b, c and h_norm have the batch shape of the input (scalars for a
    single (2, 2, 2) form); the rotations are (2, 2, ...).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    h_norm: np.ndarray
    tangent_rotation: np.ndarray
    normal_rotation: np.ndarray

    @property
    def kperp(self):
        return 2.0 * self.a * self.c

    @property
    def normTracelessA2(self):
        return 2.0 * (self.a * self.a + self.b * self.b + self.c * self.c)


@dataclass
class TracelessSplit:
    normA1_2: float
    normAminus_2: float


def _fallback_direction(h: np.ndarray) -> np.ndarray:
    """Unit k-vectors (k, m) maximizing |h . nu| when H vanishes, for h of
    shape (n, n, k, m).

    Top eigenvector of the normal-space Gram matrix <A_alpha, A_beta>;
    a (numerically) degenerate top eigenvalue falls back to the first
    normal direction.  The sign is canonicalized so the largest-magnitude
    component (the first one on ties) is positive.
    """
    k = h.shape[2]
    evals, evecs = np.linalg.eigh(np.einsum("ija...,ijb...->...ab", h, h))
    top = evals[..., -1]
    gap = top - evals[..., -2] if k > 1 else top
    tie = (top <= H_ZERO_TOL) | (gap <= EIG_TIE_REL * np.maximum(top, 1.0))
    u = np.moveaxis(evecs[..., -1], -1, 0)  # eigh keeps the matrix axes last
    pivot = np.take_along_axis(u, np.argmax(np.abs(u), axis=0)[None], axis=0)
    u = np.where(pivot < 0, -u, u)
    u[:, tie] = np.eye(k, 1)
    return u


def _first_normal(h: np.ndarray):
    """(mean, |H|, nu_1) for h of shape (n, n, k, ...): nu_1 is the unit
    mean-curvature direction, or the fallback direction where H = 0."""
    mean = np.einsum("iia...->a...", h)
    h_norm = np.linalg.norm(mean, axis=0)
    weak = h_norm <= H_ZERO_TOL
    u = mean / np.where(weak, 1.0, h_norm)
    if weak.any():
        u[:, weak] = _fallback_direction(h[..., weak])
    return mean, h_norm, u


def specialize(h) -> ABCFrame:
    """Reduce (2, 2) second fundamental forms, shape (2, 2, 2, ...), to
    their ABCFrame.

    The returned rotations satisfy: rotating the input normal frame by
    normal_rotation and the tangent frame by tangent_rotation puts h into
    the canonical (a, b, c, |H|) shape.  Both are proper rotations, so the
    sign of the normal curvature is preserved: K_perp(input) = 2ac.  The
    tangent rotation by theta = atan2(q, (p - r)/2)/2 puts the larger
    eigenvalue of h . nu_1 = [[p, q], [q, r]] first: a = hypot((p - r)/2, q).
    A tie (a = 0) takes theta = pi/2, as eigh does for a multiple of I.
    """
    c = np.asarray(h, dtype=float)
    if c.shape[:3] != (2, 2, 2):
        raise BadDims("specialize requires (n, k) = (2, 2), got shape %s" % (c.shape,))
    _, h_norm, (u0, u1) = _first_normal(c)
    # proper rotation sending the input normal frame to (nu1, nu2)
    nrot = np.stack([np.stack([u0, u1]), np.stack([-u1, u0])])
    p, q, r = (u0 * c[i, j, 0] + u1 * c[i, j, 1] for i, j in ((0, 0), (0, 1), (1, 1)))
    m00, m01, m10, m11 = (u0 * c[i, j, 1] - u1 * c[i, j, 0]
                          for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    half_gap = 0.5 * (p - r)
    a = np.hypot(half_gap, q)
    theta = 0.5 * np.arctan2(q, np.where(a == 0.0, -1.0, half_gap))
    cs, sn = np.cos(theta), np.sin(theta)
    return ABCFrame(
        a=a,
        b=cs * cs * m00 + cs * sn * (m01 + m10) + sn * sn * m11,   # e1 . A'_2 . e1
        c=cs * cs * m01 - sn * sn * m10 + cs * sn * (m11 - m00),   # e1 . A'_2 . e2
        h_norm=h_norm,
        # rows e1 = (cos, sin), e2 = (-sin, cos): det = +1 by construction
        tangent_rotation=np.stack([np.stack([cs, sn]), np.stack([-sn, cs])]),
        normal_rotation=nrot,
    )


def reconstruct(frame: ABCFrame) -> np.ndarray:
    """Rebuild h (in the original input frames) from an ABCFrame, batched:
    h_{ij alpha} = sum_beta N_{beta alpha} (T^t A'_beta T)_{ij}, plane by plane."""
    e1, e2 = frame.tangent_rotation
    nrot = frame.normal_rotation
    d1, d2 = 0.5 * frame.h_norm + frame.a, 0.5 * frame.h_norm - frame.a
    out = np.empty((2, 2, 2) + np.shape(frame.h_norm))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        x, y = e1[i] * e1[j], e2[i] * e2[j]
        first = d1 * x + d2 * y
        second = frame.b * (x - y) + frame.c * (e1[i] * e2[j] + e2[i] * e1[j])
        for alpha in range(2):
            out[i, j, alpha] = out[j, i, alpha] = nrot[0, alpha] * first + nrot[1, alpha] * second
    return out


def split_traceless(h) -> TracelessSplit:
    """Split |Atraceless|^2 into the mean-curvature direction and the rest.

    Works for any (n, k).  With H = 0 the direction is chosen by the same
    fallback rule as specialize, so the two operations stay consistent on
    minimal surfaces.
    """
    comp = np.asarray(h, dtype=float)
    n = comp.shape[0]
    mean, _, u = _first_normal(comp)
    a_nu1 = np.einsum("a,ija->ij", u, comp)
    tracefree = a_nu1 - (np.trace(a_nu1) / n) * np.eye(n)
    norm_a1 = float(np.einsum("ij,ij->", tracefree, tracefree))
    normA2 = float(np.einsum("ija,ija->", comp, comp))
    normH2 = float(mean @ mean)
    total = normA2 - normH2 / n
    return TracelessSplit(normA1_2=norm_a1, normAminus_2=total - norm_a1)
