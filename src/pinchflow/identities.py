"""Reaction terms and algebraic identities, each with a brute-force oracle.

Every quantity here is a polynomial contraction of the second fundamental
form.  The brute-force routes evaluate the literal index sums; the closed
forms are the catalogued simplifications.  Tests compare the two on large
random populations — the closed forms are claims under test, never a
substitute for the oracle.  Every array is component-major, as
batch_geometry returns its fields: the small axes first and the batch or
grid axes last, so h is (n, n, k, ...).

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
from .frames import ABCFrame, specialize
from .tensor_kernel import BatchGeometry

# ---------------------------------------------------------------------------
# batched primitives: h is one (n, n, k) form or an (n, n, k, ...) batch

def _layout(h: np.ndarray) -> np.ndarray:
    """h, after checking that it is laid out (n, n, k, ...).  A point-major
    batch (m, n, n, k) would make the einsums sum over the batch, or build
    batch^2 planes in rm_perp_squared."""
    if h.ndim < 3 or h.shape[0] != h.shape[1]:
        raise BadDims("h must be (n, n, k, ...), got shape %s" % (h.shape,))
    return h


def s_matrix(h: np.ndarray) -> np.ndarray:
    h = _layout(h)
    return np.einsum("ija...,ijb...->ab...", h, h)


def mean_vector(h: np.ndarray) -> np.ndarray:
    return np.einsum("iia...->a...", _layout(h))


def rm_perp_squared(h: np.ndarray) -> np.ndarray:
    h = _layout(h)
    t = np.einsum("ipa...,jpb...->ijab...", h, h)
    rp = t - np.swapaxes(t, 0, 1)
    return np.einsum("ijab...,ijab...->...", rp, rp)


def kperp_scalar(h: np.ndarray) -> np.ndarray:
    """Normal-bundle curvature sum_p (h_{1p1} h_{2p2} - h_{2p1} h_{1p2})."""
    if h.shape[:3] != (2, 2, 2):
        raise BadDims("kperp needs (n, k) = (2, 2), got shape %s" % (h.shape,))
    return (np.einsum("p...,p...->...", h[0, :, 0], h[1, :, 1])
            - np.einsum("p...,p...->...", h[1, :, 0], h[0, :, 1]))


def r1_batch(h: np.ndarray) -> np.ndarray:
    s = s_matrix(h)
    return np.einsum("ab...,ab...->...", s, s) + rm_perp_squared(h)


def r2_batch(h: np.ndarray) -> np.ndarray:
    hh = np.einsum("a...,ija...->ij...", mean_vector(h), h)  # mean_vector checks h
    return np.einsum("ij...,ij...->...", hh, hh)


def z_brute_batch(h: np.ndarray, rm2: np.ndarray | None = None) -> np.ndarray:
    """Z by its index sums; rm2 is rm_perp_squared(h) if the caller has it."""
    if rm2 is None:
        rm2 = rm_perp_squared(h)  # first, so its layout check runs before any einsum
    s = s_matrix(h)
    hh = np.einsum("a...,ipa...->ip...", mean_vector(h), h)
    cubic = np.einsum("ip...,ijb...,pjb...->...", hh, h, h)
    return cubic - np.einsum("ab...,ab...->...", s, s) - rm2


def norms_batch(h: np.ndarray):
    """(normA2, normH2, traceless) for a batch of h."""
    normA2 = np.einsum("ija...,ija...->...", _layout(h), h)
    mean = mean_vector(h)
    normH2 = np.einsum("a...,a...->...", mean, mean)
    return normA2, normH2, normA2 - normH2 / h.shape[0]


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
    frame: ABCFrame
    # the contractions of h the routes share: norms_batch(h), kperp_scalar(h)
    norms: tuple
    kperp: np.ndarray


def _quartic_reaction(c: np.ndarray) -> np.ndarray:
    """Quartic part of the Kperp reaction, batched over c = h_{ij alpha}.

    The bracketed quartic sums of the normal-curvature evolution, one
    n x n matrix per normal direction,

        R_a = sum_b S_{ab} A_b + P A_a + A_a P - 2 sum_b A_b A_a A_b,
        P   = sum_b A_b A_b,

    paired with h through the product rule for the Rperp component.
    """
    p = np.einsum("ipa...,pja...->ij...", c, c)
    r = (
        np.einsum("ab...,ijb...->ija...", s_matrix(c), c)
        + np.einsum("ip...,pja...->ija...", p, c)
        + np.einsum("ipa...,pj...->ija...", c, p)
        - 2.0 * np.einsum("ipb...,pqa...,qjb...->ija...", c, c, c)
    )
    return np.sum(r[0, :, 0] * c[1, :, 1] + c[0, :, 0] * r[1, :, 1]
                  - r[1, :, 0] * c[0, :, 1] - c[1, :, 0] * r[0, :, 1], axis=0)


def kperp_checks(h, kbar: float = 1.0) -> KperpChecks:
    """Dual-route evaluation of the normal-curvature reaction, (n,k) = (2,2),
    for h of shape (2, 2, 2, ...).

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

    li_li_margin is 3/2 |Atr|^4 - R1(Atr), Li-Li's bound on the traceless
    part Atr = h - (H/2) g, so it is >= 0 and vanishes at umbilic h.
    """
    comp = np.asarray(h, dtype=float)
    if comp.shape[:3] != (2, 2, 2):
        raise BadDims("kperp_checks requires (n, k) = (2, 2)")
    normA2, normH2, traceless = norms_batch(comp)
    atr = comp - np.einsum("ij,a...->ija...", np.eye(2), mean_vector(comp) / 2.0)
    li_li = 1.5 * traceless * traceless - r1_batch(atr)
    kp = kperp_scalar(comp)
    background = -4.0 * kbar * kp
    brute = _quartic_reaction(comp) + background
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
        frame=frame,
        norms=(normA2, normH2, traceless),
        kperp=kp,
    )


# ---------------------------------------------------------------------------
# discrete gradient margins

@dataclass
class GradientMargins:
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray | None
    grad_a2: np.ndarray
    grad_h2: np.ndarray


def _best_orthogonal(m: np.ndarray) -> np.ndarray:
    """Closest orthogonal matrix to each r x r block of m, (r, r, ...).

    Component-major: the block indices lead and the batch trails.  For 2x2
    blocks a closed form compares the best proper rotation against the best
    reflection and keeps the better fit, so frames of either relative
    orientation are aligned exactly.  Larger blocks fall back to an SVD
    polar factor.  The closed form commutes with transposition exactly.
    """
    if m.shape[:2] == (2, 2):
        al = m[0, 0] + m[1, 1]
        be = m[0, 1] - m[1, 0]
        ga = m[0, 0] - m[1, 1]
        de = m[0, 1] + m[1, 0]
        rot_gain = np.hypot(al, be)
        ref_gain = np.hypot(ga, de)
        use_rot = rot_gain >= ref_gain
        gain = np.maximum(rot_gain, ref_gain)
        gain[gain < 1e-300] = 1.0
        out = np.empty_like(m)
        c, s = out[0, 0], out[0, 1]
        np.divide(np.where(use_rot, al, ga), gain, out=c)
        np.divide(np.where(use_rot, be, de), gain, out=s)
        out[1, 0] = np.where(use_rot, -s, s)
        out[1, 1] = np.where(use_rot, c, -c)
        return out
    u, _, vt = np.linalg.svd(np.moveaxis(m, (0, 1), (-2, -1)))
    return np.moveaxis(u @ vt, (-2, -1), (0, 1))


def _transport(rt: np.ndarray, rn: np.ndarray, h: np.ndarray) -> np.ndarray:
    """rt_iI rt_jJ rn_aA h_IJA, one small axis at a time (component-major)."""
    x = np.einsum("aA...,IJA...->IJa...", rn, h)
    x = np.einsum("jJ...,IJa...->Ija...", rt, x)
    return np.einsum("iI...,Ija...->ija...", rt, x)


def _aligned_difference(h, tangent, normal, axis: int, spacing: float) -> np.ndarray:
    """Central difference of h along a grid axis, in each point's frames.

    Component-major: h (n, n, k, nu, nv), tangent (n, m+1, nu, nv), normal
    (k, m+1, nu, nv); axis is the grid axis (0 = u, 1 = v).  The neighbors'
    components are transported by the orthogonal alignment of the tangent
    and normal frames; naive differencing of raw components would inject
    spurious gradient wherever the frames rotate across the grid.  The
    alignment to the previous node is the transpose of that node's
    alignment to its next one, so each axis aligns its frames once.
    """
    axis -= 2

    def align_next(frame):
        nxt = np.roll(frame, -1, axis=axis)
        return _best_orthogonal(np.einsum("im...,Im...->iI...", frame, nxt))

    rt, rn = align_next(tangent), align_next(normal)
    ahead = _transport(rt, rn, np.roll(h, -1, axis=axis))
    behind = _transport(*(np.swapaxes(np.roll(r, 1, axis=axis), 0, 1) for r in (rt, rn)),
                        np.roll(h, 1, axis=axis))
    return (ahead - behind) / (2.0 * spacing)


def _symmetrize3(t: np.ndarray) -> np.ndarray:
    """Total symmetrization over the three leading tangent slots (q, i, j).

    The continuum covariant derivative of h is fully symmetric in a
    constant-curvature background; the discrete difference breaks that at
    truncation order.  Projecting back onto the symmetric subspace restores
    the algebraic inequalities exactly, so the margins measure roundoff
    instead of stencil error.
    """
    return (
        t
        + np.swapaxes(t, 0, 1)
        + np.swapaxes(t, 0, 2)
        + np.swapaxes(t, 1, 2)
        + np.swapaxes(np.swapaxes(t, 0, 1), 1, 2)
        + np.swapaxes(np.swapaxes(t, 0, 2), 1, 2)
    ) / 6.0


def gradient_margins(geom: BatchGeometry, du: float, dv: float,
                     wrap_u: bool) -> GradientMargins:
    """Pointwise gradient-inequality margins of a gridded geometry.

    m1 = |grad A|^2 - 3/(n+2) |grad H|^2
    m2 = (|grad A|^2 - |grad H|^2/n) - 2(n-1)/(3n) |grad A|^2
    m3 = |grad A|^2 - 2 grad_evol Kperp            (n = 2 only)

    grad h is estimated by frame-aligned central differences (second
    order), converted to orthonormal tangent directions through the chart
    coefficients, and totally symmetrized.

    geom is batch_geometry's output on an (nu, nv) grid of chart nodes.  The
    v axis is periodic; so is u when wrap_u, and otherwise the two boundary
    rows have no central difference and are left out of the output.
    """
    h, tangent, normal = geom.h, geom.tangent, geom.normal
    if not wrap_u and h.shape[-2] < 3:
        raise InsufficientStencil("grid too small for central differences")

    chart = np.stack([_aligned_difference(h, tangent, normal, 0, du),
                      _aligned_difference(h, tangent, normal, 1, dv)])
    grad = _symmetrize3(np.einsum("qc...,cija...->qija...", geom.chart_coeff, chart))
    if not wrap_u:
        grad = grad[..., 1:-1, :]

    n = geom.n
    grad_a2 = np.einsum("qija...,qija...->...", grad, grad)
    grad_h = np.trace(grad, axis1=1, axis2=2)  # (q, a, ...)
    grad_h2 = np.einsum("qa...,qa...->...", grad_h, grad_h)

    m1 = grad_a2 - (3.0 / (n + 2)) * grad_h2
    m2 = (grad_a2 - grad_h2 / n) - (2.0 * (n - 1) / (3.0 * n)) * grad_a2
    m3 = None
    if n == 2 and geom.k == 2:
        # sum_qp (d_q h_{1p1} d_q h_{2p2} - d_q h_{1p2} d_q h_{2p1})
        evol = np.einsum("qp...,qp...->...", grad[:, 0, :, 0], grad[:, 1, :, 1]) - \
            np.einsum("qp...,qp...->...", grad[:, 0, :, 1], grad[:, 1, :, 0])
        m3 = grad_a2 - 2.0 * evol
    return GradientMargins(m1=m1, m2=m2, m3=m3, grad_a2=grad_a2, grad_h2=grad_h2)
