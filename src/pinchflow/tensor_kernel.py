"""Pointwise extrinsic geometry of immersed submanifolds of the round sphere.

Everything is computed from second-order jets of the immersion in ambient
Euclidean coordinates: an n-submanifold of the unit sphere S^{n+k} sitting
inside R^{n+k+1}.  The sphere-valued second fundamental form is obtained by
projecting the chart second derivatives orthogonally to both the tangent
space and the radial direction.

Background curvature other than 1 is handled by exact rescaling (lengths
scale by 1/sqrt(kbar), squared curvatures by kbar); there is no second code
path for non-unit spheres.

batch_geometry works component-major: the small axes (ambient, tangent,
normal) lead and the batch axes trail, so each contraction is a sum of
products of whole batch planes.  A single jet, as Jet2 holds it, is the
case of an empty batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateJet, OffSphere

GRAM_DET_TOL = 1e-12
SPHERE_TOL = 1e-6
NORMAL_RESIDUAL_TOL = 1e-8


@dataclass
class Jet2:
    """Second-order jet of an immersion chart at one parameter point.

    position: ambient point, shape (m+1,) with m = n + k.
    first_derivs: chart partials, shape (n, m+1).
    second_derivs: chart second partials, shape (n, n, m+1), symmetric in
        the two tangent slots.
    """

    position: np.ndarray
    first_derivs: np.ndarray
    second_derivs: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.first_derivs = np.asarray(self.first_derivs, dtype=float)
        self.second_derivs = np.asarray(self.second_derivs, dtype=float)

    def validate(self):
        if abs(np.linalg.norm(self.position) - 1.0) > SPHERE_TOL:
            raise OffSphere(
                "position is off the unit sphere by %.3e"
                % abs(np.linalg.norm(self.position) - 1.0)
            )
        if not np.array_equal(self.second_derivs, np.swapaxes(self.second_derivs, 0, 1)):
            raise ValueError("second_derivs must be exactly symmetric")
        gram = self.first_derivs @ self.first_derivs.T
        if np.linalg.det(gram) <= GRAM_DET_TOL:
            raise DegenerateJet("Gram determinant %.3e" % np.linalg.det(gram))


@dataclass
class BatchGeometry:
    """Extrinsic geometry of jets over an arbitrary batch shape.

    Component-major: every array ends in the batch shape, which is empty
    for a single jet, behind its small axes: metric and chart_coeff
    (n, n, ...), tangent (n, m+1, ...), normal (k, m+1, ...), h
    (n, n, k, ...), mean (k, ...), and one value per point for the scalars.
    `kperp`/`gauss` are None when (n, k) != (2, 2) / n != 2 respectively.
    """

    metric: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    chart_coeff: np.ndarray
    h: np.ndarray
    mean: np.ndarray
    normA2: np.ndarray
    normH2: np.ndarray
    normTracelessA2: np.ndarray
    kperp: np.ndarray | None
    gauss: np.ndarray | None
    kbar: float

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def k(self) -> int:
        return self.h.shape[2]


def _dot(a, b):
    """Sum of products over the leading (component) axis: one value per point."""
    return np.einsum("m...,m...->...", a, b)


def _orthonormal_normals(position, tangent, k):
    """Deterministic Gram-Schmidt of the ambient standard basis against
    {position, tangent frame}, batched.

    Component-major: position (m+1, ...), tangent (n, m+1, ...), result
    (k, m+1, ...).  Candidates are processed in coordinate order; a
    candidate is skipped where its projection residual falls below
    NORMAL_RESIDUAL_TOL.  The accepted-slot bookkeeping is per batch
    element, so different points may accept different candidates (this
    happens on charts that sweep past a coordinate plane).
    """
    m1 = position.shape[0]
    batch = position.shape[1:]
    normal = np.zeros((k, m1) + batch)
    count = np.zeros(batch, dtype=np.int64)
    against = [position] + list(tangent)
    for a in range(m1):
        v = np.zeros((m1,) + batch)
        v[a] = 1.0
        # two projection passes for numerical orthogonality
        # (slots that no point has filled yet are zero: skip them)
        for _ in range(2):
            for e in against + list(normal[:count.max()]):
                v -= _dot(v, e) * e
        r = np.sqrt(_dot(v, v))
        accept = (r >= NORMAL_RESIDUAL_TOL) & (count < k)
        if not accept.any():
            continue
        unit = np.divide(v, r, out=np.zeros_like(v), where=r > 0)
        for s in range(k):
            normal[s] = np.where(accept & (count == s), unit, normal[s])
        count = count + accept
        if (count >= k).all():
            break
    if (count < k).any():
        raise DegenerateJet("could not complete the normal frame")
    return normal


def batch_geometry(position, first, second, kbar: float = 1.0) -> BatchGeometry:
    """Compute extrinsic geometry for a batch of second-order jets.

    Component-major, as batch_jets returns them: position (m+1, ...),
    first (n, m+1, ...), second (n, n, m+1, ...); the returned fields keep
    that layout.

    The tangent frame is Gram-Schmidt of the chart partials in index order:
    dF_i = sum_j L_ij e_j with L lower triangular, gram = L L^T, and the
    chart coefficients C = L^{-1} give e_i = sum_a C_ia dF_a.
    """
    pos = np.asarray(position, dtype=float)
    fst = np.asarray(first, dtype=float)
    sec = np.asarray(second, dtype=float)
    n, m1 = fst.shape[:2]
    k = m1 - 1 - n
    if k < 1:
        raise ValueError("ambient dimension leaves no normal directions")

    pos_err = np.abs(np.sqrt(_dot(pos, pos)) - 1.0)
    if (pos_err > SPHERE_TOL).any():
        raise OffSphere("max |pos|-1 deviation %.3e" % pos_err.max())

    batch = pos.shape[1:]
    chol = np.zeros((n, n) + batch)
    tangent = np.empty((n, m1) + batch)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n):
            v = fst[i].copy()
            for j in range(i):
                chol[i, j] = _dot(fst[i], tangent[j])
                v -= chol[i, j] * tangent[j]
            chol[i, i] = np.sqrt(_dot(v, v))
            tangent[i] = v / chol[i, i]
        det = np.prod(chol[range(n), range(n)] ** 2, axis=0)
        if not (det > GRAM_DET_TOL).all():
            raise DegenerateJet("min Gram determinant %.3e" % det.min())
    # C = L^{-1} by forward substitution
    coeff = np.zeros_like(chol)
    for i in range(n):
        coeff[i, i] = 1.0 / chol[i, i]
        for j in range(i):
            coeff[i, j] = -sum(chol[i, p] * coeff[p, j] for p in range(j, i)) * coeff[i, i]
    gram = np.einsum("im...,jm...->ij...", fst, fst)
    normal = _orthonormal_normals(pos, tangent, k)

    # h_ija = C_ip C_jq <d2F_pq, nu_a>, one small axis at a time
    proj = np.einsum("pqm...,am...->pqa...", sec, normal)
    h = np.einsum("ip...,pja...->ija...", coeff, np.einsum("jq...,pqa...->pja...", coeff, proj))
    h = 0.5 * (h + np.swapaxes(h, 0, 1))  # enforce exact (i,j) symmetry

    mean = np.trace(h)
    normA2 = np.einsum("ija...,ija...->...", h, h)
    normH2 = _dot(mean, mean)

    # exact background-curvature rescaling
    if kbar != 1.0:
        s = np.sqrt(kbar)
        h = h * s
        mean = mean * s
        normA2 = normA2 * kbar
        normH2 = normH2 * kbar
        gram = gram / kbar
        coeff = coeff * s

    traceless = normA2 - normH2 / n

    kperp = None
    if n == 2 and k == 2:
        # sum_p h_{1p1} h_{2p2} - h_{2p1} h_{1p2}, with rows = tangent slot 1/2
        t = h[0, :, 0] * h[1, :, 1] - h[1, :, 0] * h[0, :, 1]
        kperp = t[0] + t[1]

    gauss = None
    if n == 2:
        gauss = kbar + (normH2 - normA2) / 2.0

    return BatchGeometry(
        metric=gram,
        tangent=tangent,
        normal=normal,
        chart_coeff=coeff,
        h=h,
        mean=mean,
        normA2=normA2,
        normH2=normH2,
        normTracelessA2=traceless,
        kperp=kperp,
        gauss=gauss,
        kbar=kbar,
    )


def point_geometry(jet: Jet2, kbar: float = 1.0) -> BatchGeometry:
    """Validate a single jet and return its geometry (empty batch shape)."""
    jet.validate()
    return batch_geometry(jet.position, jet.first_derivs, jet.second_derivs, kbar=kbar)
