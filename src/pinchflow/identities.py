"""Reaction terms and algebraic identities, each with a brute-force oracle.

Every quantity here is a polynomial contraction of the second fundamental
form.  The brute-force routes evaluate the literal index sums; the closed
forms are the catalogued simplifications.  Tests compare the two on large
random populations — the closed forms are claims under test, never a
substitute for the oracle.

Conventions (all in orthonormal frames):
    S_{ab}     = sum_{ij} h_{ija} h_{ijb}
    Rperp_{ij,ab} = sum_p (h_{ipa} h_{jpb} - h_{jpa} h_{ipb})
    |Rmperp|^2 = full square sum of Rperp (equals 4 Kperp^2 for n = k = 2)
    R1 = sum S^2 + |Rmperp|^2
    R2 = sum_{ij} (sum_a H_a h_{ija})^2
    R3 = Kperp (|A|^2 + 2|Atr|^2)                (n = k = 2)
    Z  = sum H_a h_{ipa} h_{ijb} h_{pjb} - sum S^2 - |Rmperp|^2
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDims, InsufficientStencil
from .frames import specialize
from .tensor_kernel import BatchGeometry

_PERP = np.array([[0.0, 1.0], [-1.0, 0.0]])


# ---------------------------------------------------------------------------
# batched primitives (leading batch shape arbitrary, h is (..., n, n, k))

def s_matrix(h: np.ndarray) -> np.ndarray:
    return np.einsum("...ija,...ijb->...ab", h, h)


def mean_vector(h: np.ndarray) -> np.ndarray:
    return np.einsum("...iia->...a", h)


def rm_perp_squared(h: np.ndarray) -> np.ndarray:
    t = np.einsum("...ipa,...jpb->...ijab", h, h)
    rp = t - np.swapaxes(t, -4, -3)
    return np.einsum("...ijab,...ijab->...", rp, rp)


def kperp_scalar(h: np.ndarray) -> np.ndarray:
    """Normal-bundle curvature sum_p (h_{1p1} h_{2p2} - h_{2p1} h_{1p2})."""
    if h.shape[-1] != 2 or h.shape[-2] != 2:
        raise BadDims("kperp needs (n, k) = (2, 2)")
    return np.einsum("...pa,...pb,ab->...", h[..., 0, :, :], h[..., 1, :, :], _PERP)


def r1_batch(h: np.ndarray) -> np.ndarray:
    s = s_matrix(h)
    return np.einsum("...ab,...ab->...", s, s) + rm_perp_squared(h)


def r2_batch(h: np.ndarray) -> np.ndarray:
    hh = np.einsum("...a,...ija->...ij", mean_vector(h), h)
    return np.einsum("...ij,...ij->...", hh, hh)


def z_brute_batch(h: np.ndarray) -> np.ndarray:
    s = s_matrix(h)
    hh = np.einsum("...a,...ipa->...ip", mean_vector(h), h)
    cubic = np.einsum("...ip,...ijb,...pjb->...", hh, h, h)
    return cubic - np.einsum("...ab,...ab->...", s, s) - rm_perp_squared(h)


def norms_batch(h: np.ndarray):
    """(normA2, normH2, traceless) for a batch of h."""
    n = h.shape[-3]
    normA2 = np.einsum("...ija,...ija->...", h, h)
    mean = mean_vector(h)
    normH2 = np.einsum("...a,...a->...", mean, mean)
    return normA2, normH2, normA2 - normH2 / n


# ---------------------------------------------------------------------------

@dataclass
class ReactionTerms:
    r1: float
    r2: float
    r3: float | None
    z_brute: float
    z_closed: float | None
    rm_perp_2: float


def reaction_terms(h) -> ReactionTerms:
    """Evaluate the reaction-term catalog at a single h.

    The catalogued terms are pure contractions of h and do not involve the
    background curvature.  r3 and z_closed are populated only for
    (n, k) = (2, 2); r3 is the Kperp reaction that kperp_checks' brute
    route computes, without its background-curvature term.
    """
    comp = np.asarray(h, dtype=float)
    n, k = comp.shape[0], comp.shape[2]
    r1 = float(r1_batch(comp))
    r2 = float(r2_batch(comp))
    zb = float(z_brute_batch(comp))
    rm2 = float(rm_perp_squared(comp))
    r3 = None
    zc = None
    if (n, k) == (2, 2):
        normA2, normH2, traceless = norms_batch(comp)
        kp = float(kperp_scalar(comp))
        r3 = float(kp * (normA2 + 2.0 * traceless))
        zc = float((normH2 - normA2) * traceless - 2.0 * kp * kp)
    return ReactionTerms(r1=r1, r2=r2, r3=r3, z_brute=zb, z_closed=zc, rm_perp_2=rm2)


@dataclass
class KperpChecks:
    """Normal-curvature reaction routes, batched like the input h."""

    reaction_brute: np.ndarray
    reaction_closed: np.ndarray
    reaction_printed: np.ndarray
    laplacian_factor: np.ndarray
    li_li_margin: np.ndarray


def _quartic_reaction(amats: np.ndarray) -> np.ndarray:
    """Quartic part of the Kperp reaction, batched over amats (..., k, n, n).

    The bracketed quartic sums of the normal-curvature evolution, one
    n x n matrix per normal direction,

        R_a = sum_b S_{ab} A_b + P A_a + A_a P - 2 sum_b A_b A_a A_b,
        P   = sum_b A_b A_b,

    paired with h through the product rule for the Rperp component.
    """
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


def kperp_checks(h, kbar: float = 1.0) -> KperpChecks:
    """Dual-route evaluation of the normal-curvature reaction, (n,k) = (2,2),
    for h of shape (..., 2, 2, 2).

    reaction_brute pairs the quartic evolution sums with h through the
    product rule for the Rperp component.  The background-curvature terms
    2*kbar*H*g - n*kbar*h of the evolution of h contribute -2n*kbar*Kperp
    (the H*g part cancels), i.e. -4*kbar*Kperp for n = 2.  reaction_closed
    is Kperp(|A|^2 + 2|Atr|^2) - 4*kbar*Kperp.

    reaction_printed is the catalogued Kperp(|A|^2 + 2|Atr|^2 - 2b^2)
    - 4*kbar*Kperp, kept as a dual route.  It cannot be the reaction: b is
    read off the special frame, so Kperp*b^2 is not a polynomial in h,
    while the brute route is quartic.  brute - printed = 2*Kperp*b^2
    exactly, which keeps the discrepancy measurable instead of hidden.
    """
    comp = np.asarray(h, dtype=float)
    if comp.shape[-3:] != (2, 2, 2):
        raise BadDims("kperp_checks requires (n, k) = (2, 2)")
    normA2, normH2, traceless = norms_batch(comp)
    li_li = 1.5 * traceless * traceless - r1_batch(comp)
    kp = kperp_scalar(comp)
    background = -4.0 * kbar * kp
    brute = _quartic_reaction(np.moveaxis(comp, -1, -3)) + background
    closed = kp * (normA2 + 2.0 * traceless) + background
    frame = specialize(comp)
    printed = kp * (normA2 + 2.0 * traceless - 2.0 * frame.b ** 2) + background
    lap = 2.0 - frame.b ** 2 - 3.0 * frame.a ** 2 - 3.0 * frame.c ** 2
    return KperpChecks(
        reaction_brute=brute,
        reaction_closed=closed,
        reaction_printed=printed,
        laplacian_factor=lap,
        li_li_margin=li_li,
    )


# ---------------------------------------------------------------------------
# discrete gradient margins

@dataclass
class CurvatureField:
    """Gridded pointwise geometry for covariant-difference estimates.

    h:           (nu, nv, n, n, k) components in the local orthonormal frames
    chart_coeff: (nu, nv, n, n) with e_i = sum_a C_{ia} dF_a
    tangent:     (nu, nv, n, m+1) ambient tangent frames
    normal:      (nu, nv, k, m+1) ambient normal frames
    du, dv:      chart spacings
    wrap_u/v:    periodicity flags; a non-periodic axis loses its two
                 boundary rows/columns in the output.
    """

    h: np.ndarray
    chart_coeff: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    du: float
    dv: float
    wrap_u: bool
    wrap_v: bool

    @classmethod
    def from_batch(cls, geom: BatchGeometry, du: float, dv: float,
                   wrap_u: bool, wrap_v: bool) -> "CurvatureField":
        return cls(
            h=geom.h,
            chart_coeff=geom.chart_coeff,
            tangent=geom.tangent,
            normal=geom.normal,
            du=du,
            dv=dv,
            wrap_u=wrap_u,
            wrap_v=wrap_v,
        )


@dataclass
class GradientMargins:
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray | None
    grad_a2: np.ndarray
    grad_h2: np.ndarray


def _best_orthogonal(m: np.ndarray) -> np.ndarray:
    """Closest orthogonal matrix to a batch of 2x2 matrices (closed form).

    Compares the best proper rotation against the best reflection and keeps
    the better fit, so frames of either relative orientation are aligned
    exactly.  Larger blocks fall back to an SVD polar factor.
    """
    if m.shape[-1] == 2 and m.shape[-2] == 2:
        al = m[..., 0, 0] + m[..., 1, 1]
        be = m[..., 0, 1] - m[..., 1, 0]
        ga = m[..., 0, 0] - m[..., 1, 1]
        de = m[..., 0, 1] + m[..., 1, 0]
        rot_gain = np.hypot(al, be)
        ref_gain = np.hypot(ga, de)
        out = np.empty_like(m)
        rg = np.where(rot_gain < 1e-300, 1.0, rot_gain)
        fg = np.where(ref_gain < 1e-300, 1.0, ref_gain)
        use_rot = rot_gain >= ref_gain
        out[..., 0, 0] = np.where(use_rot, al / rg, ga / fg)
        out[..., 0, 1] = np.where(use_rot, be / rg, de / fg)
        out[..., 1, 0] = np.where(use_rot, -be / rg, de / fg)
        out[..., 1, 1] = np.where(use_rot, al / rg, -ga / fg)
        return out
    u, _, vt = np.linalg.svd(m)
    return u @ vt


def _aligned_shift(field: CurvatureField, axis: int, shift: int) -> np.ndarray:
    """h of the grid neighbor, re-expressed in the center point's frames.

    Components are transported by the orthogonal alignment of the tangent
    and normal frames; naive differencing of raw components would inject
    spurious gradient wherever the frames rotate across the grid.
    """
    hs = np.roll(field.h, -shift, axis=axis)
    ts = np.roll(field.tangent, -shift, axis=axis)
    ns = np.roll(field.normal, -shift, axis=axis)
    rt = _best_orthogonal(field.tangent @ np.swapaxes(ts, -1, -2))
    rn = _best_orthogonal(field.normal @ np.swapaxes(ns, -1, -2))
    return np.einsum("...iI,...jJ,...aA,...IJA->...ija", rt, rt, rn, hs,
                     optimize=True)


def _symmetrize3(t: np.ndarray) -> np.ndarray:
    """Total symmetrization over the three tangent slots (q, i, j).

    The continuum covariant derivative of h is fully symmetric in a
    constant-curvature background; the discrete difference breaks that at
    truncation order.  Projecting back onto the symmetric subspace restores
    the algebraic inequalities exactly, so the margins measure roundoff
    instead of stencil error.
    """
    return (
        t
        + np.swapaxes(t, -4, -3)
        + np.swapaxes(t, -4, -2)
        + np.swapaxes(t, -3, -2)
        + np.swapaxes(np.swapaxes(t, -4, -3), -3, -2)
        + np.swapaxes(np.swapaxes(t, -4, -2), -3, -2)
    ) / 6.0


def gradient_margins(field: CurvatureField) -> GradientMargins:
    """Pointwise gradient-inequality margins on a gridded field.

    m1 = |grad A|^2 - 3/(n+2) |grad H|^2
    m2 = (|grad A|^2 - |grad H|^2/n) - 2(n-1)/(3n) |grad A|^2
    m3 = |grad A|^2 - 2 grad_evol Kperp            (n = 2 only)

    grad h is estimated by frame-aligned central differences (second
    order), converted to orthonormal tangent directions through the chart
    coefficients, and totally symmetrized.
    """
    nu, nv = field.h.shape[:2]
    need_u = 0 if field.wrap_u else 1
    need_v = 0 if field.wrap_v else 1
    if nu < 2 * need_u + 1 or nv < 2 * need_v + 1:
        raise InsufficientStencil("grid too small for central differences")

    dup = (_aligned_shift(field, 0, +1) - _aligned_shift(field, 0, -1)) / (2.0 * field.du)
    dvp = (_aligned_shift(field, 1, +1) - _aligned_shift(field, 1, -1)) / (2.0 * field.dv)
    chart = np.stack([dup, dvp], axis=2)  # (nu, nv, axis, n, n, k)
    flat = chart.reshape(chart.shape[:3] + (-1,))
    grad = (field.chart_coeff @ flat).reshape(chart.shape)
    grad = _symmetrize3(grad)

    usl = slice(need_u, nu - need_u) if need_u else slice(None)
    vsl = slice(need_v, nv - need_v) if need_v else slice(None)
    grad = grad[usl, vsl]

    n = field.h.shape[2]
    grad_a2 = np.einsum("...qija,...qija->...", grad, grad)
    grad_h = np.einsum("...qiia->...qa", grad)
    grad_h2 = np.einsum("...qa,...qa->...", grad_h, grad_h)

    m1 = grad_a2 - (3.0 / (n + 2)) * grad_h2
    m2 = (grad_a2 - grad_h2 / n) - (2.0 * (n - 1) / (3.0 * n)) * grad_a2
    m3 = None
    if n == 2 and field.h.shape[-1] == 2:
        evol = np.einsum(
            "...qpa,...qpb,ab->...", grad[..., 0, :, :], grad[..., 1, :, :], _PERP,
            optimize=True,
        )
        m3 = grad_a2 - 2.0 * evol
    return GradientMargins(m1=m1, m2=m2, m3=m3, grad_a2=grad_a2, grad_h2=grad_h2)
