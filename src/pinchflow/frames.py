"""Special orthonormal frames for codimension-two surfaces.

For (n, k) = (2, 2) the second fundamental form reduces, after rotating the
normal frame so nu_1 points along the mean curvature vector and rotating the
tangent frame to diagonalize h.nu_1, to four numbers (a, b, c, |H|):

    h . nu_1 = [[|H|/2 + a, 0], [0, |H|/2 - a]]
    h . nu_2 = [[b, c], [c, -b]]

with the gauge fixed by a >= 0.  The normal curvature is 2ac in this frame
and |Atraceless|^2 = 2(a^2 + b^2 + c^2).

When H = 0 the frame is under-determined; the fallback rule (documented
below) picks nu_1 as the normal direction maximizing |h . nu|, with ties
broken in favor of the first input normal direction.  This reproduces the
minimal-surface computations that use (a, b, c) without a mean-curvature
direction.
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
    single (2, 2, 2) form); the rotations are (..., 2, 2).
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


def _fallback_direction(amats: np.ndarray) -> np.ndarray:
    """Unit k-vectors maximizing |h . nu| when H vanishes, batched over
    amats of shape (..., k, n, n).

    Top eigenvector of the normal-space Gram matrix <A_alpha, A_beta>;
    a (numerically) degenerate top eigenvalue falls back to the first
    normal direction.  The sign is canonicalized so the largest-magnitude
    component (the first one on ties) is positive.
    """
    k = amats.shape[-3]
    gram = np.einsum("...aij,...bij->...ab", amats, amats)
    evals, evecs = np.linalg.eigh(gram)
    top = evals[..., -1]
    gap = top - evals[..., -2] if k > 1 else top
    tie = (top <= H_ZERO_TOL) | (gap <= EIG_TIE_REL * np.maximum(top, 1.0))
    u = evecs[..., :, -1]
    pivot = np.take_along_axis(u, np.argmax(np.abs(u), axis=-1)[..., None], axis=-1)
    u = np.where(pivot < 0, -u, u)
    first = np.zeros(k)
    first[0] = 1.0
    return np.where(tie[..., None], first, u)


def _first_normal(amats: np.ndarray):
    """(mean, |H|, nu_1) for amats of shape (..., k, n, n): nu_1 is the unit
    mean-curvature direction, or the fallback direction where H = 0."""
    mean = np.einsum("...aii->...a", amats)
    h_norm = np.linalg.norm(mean, axis=-1)
    weak = h_norm <= H_ZERO_TOL
    u = mean / np.where(weak, 1.0, h_norm)[..., None]
    if weak.any():
        u[weak] = _fallback_direction(amats[weak])
    return mean, h_norm, u


def specialize(h) -> ABCFrame:
    """Reduce (2, 2) second fundamental forms, shape (..., 2, 2, 2), to
    their ABCFrame.

    The returned rotations satisfy: rotating the input normal frame by
    normal_rotation and the tangent frame by tangent_rotation puts h into
    the canonical (a, b, c, |H|) shape.  Both are proper rotations, so the
    sign of the normal curvature is preserved: K_perp(input) = 2ac.
    """
    comp = np.asarray(h, dtype=float)
    if comp.shape[-3:] != (2, 2, 2):
        raise BadDims("specialize requires (n, k) = (2, 2), got shape %s" % (comp.shape,))
    amats = np.moveaxis(comp, -1, -3)  # (..., k, n, n)
    _, h_norm, u = _first_normal(amats)
    # proper rotation sending the input normal frame to (nu1, nu2)
    nrot = np.empty(u.shape + (2,))
    nrot[..., 0, :] = u
    nrot[..., 1, 0] = -u[..., 1]
    nrot[..., 1, 1] = u[..., 0]
    aprime = np.einsum("...ab,...bij->...aij", nrot, amats)

    _, evecs = np.linalg.eigh(aprime[..., 0, :, :])
    # rows of the tangent rotation: descending eigenvalue order gives the
    # nonnegative gap a; the second row is flipped where needed for det = +1
    e1, e2 = evecs[..., :, 1], evecs[..., :, 0]
    flip = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0] < 0
    e2 = np.where(flip[..., None], -e2, e2)

    def form(x, alpha, y):  # x . A'_alpha . y
        return np.einsum("...i,...ij,...j->...", x, aprime[..., alpha, :, :], y)

    return ABCFrame(
        a=0.5 * (form(e1, 0, e1) - form(e2, 0, e2)),
        b=form(e1, 1, e1),
        c=form(e1, 1, e2),
        h_norm=h_norm,
        tangent_rotation=np.stack([e1, e2], axis=-2),
        normal_rotation=nrot,
    )


def reconstruct(frame: ABCFrame) -> np.ndarray:
    """Rebuild h (in the original input frames) from an ABCFrame, batched."""
    half = 0.5 * frame.h_norm
    canon = np.zeros(np.shape(frame.h_norm) + (2, 2, 2))  # (..., normal, i, j)
    canon[..., 0, 0, 0] = half + frame.a
    canon[..., 0, 1, 1] = half - frame.a
    canon[..., 1, 0, 0] = frame.b
    canon[..., 1, 1, 1] = -frame.b
    canon[..., 1, 0, 1] = frame.c
    canon[..., 1, 1, 0] = frame.c
    trot = frame.tangent_rotation[..., None, :, :]
    ap = np.swapaxes(trot, -1, -2) @ canon @ trot
    amats = np.einsum("...ab,...aij->...bij", frame.normal_rotation, ap)
    return np.moveaxis(amats, -3, -1)


def split_traceless(h) -> TracelessSplit:
    """Split |Atraceless|^2 into the mean-curvature direction and the rest.

    Works for any (n, k).  With H = 0 the direction is chosen by the same
    fallback rule as specialize, so the two operations stay consistent on
    minimal surfaces.
    """
    comp = np.asarray(h, dtype=float)
    n = comp.shape[0]
    amats = np.moveaxis(comp, -1, 0)
    mean, _, u = _first_normal(amats)
    a_nu1 = np.einsum("a,aij->ij", u, amats)
    tracefree = a_nu1 - (np.trace(a_nu1) / n) * np.eye(n)
    norm_a1 = float(np.einsum("ij,ij->", tracefree, tracefree))
    normA2 = float(np.einsum("aij,aij->", amats, amats))
    normH2 = float(mean @ mean)
    total = normA2 - normH2 / n
    return TracelessSplit(normA1_2=norm_a1, normAminus_2=total - norm_a1)
