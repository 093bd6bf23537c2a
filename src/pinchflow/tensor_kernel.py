"""Pointwise extrinsic geometry of immersed submanifolds of the round sphere.

Everything is computed from second-order jets of the immersion in ambient
Euclidean coordinates: an n-submanifold of the unit sphere S^{n+k} sitting
inside R^{n+k+1}.  The sphere-valued second fundamental form is obtained by
projecting the chart second derivatives orthogonally to both the tangent
space and the radial direction.

Background curvature other than 1 is handled by exact rescaling (lengths
scale by 1/sqrt(kbar), squared curvatures by kbar); there is no second code
path for non-unit spheres.

batch_geometry operates on arrays with arbitrary leading shape; a single jet
is the case of an empty batch shape.
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

    All arrays share the leading batch shape, which is empty for a single
    jet; `kperp`/`gauss` are None when (n, k) != (2, 2) / n != 2
    respectively.
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
        return self.h.shape[-3]

    @property
    def k(self) -> int:
        return self.h.shape[-1]


def _orthonormal_normals(position, tangent, k):
    """Deterministic Gram-Schmidt of the ambient standard basis against
    {position, tangent frame}, batched.

    Candidates are processed in coordinate order; a candidate is skipped
    where its projection residual falls below NORMAL_RESIDUAL_TOL.  The
    accepted-slot bookkeeping is per batch element, so different points may
    accept different candidates (this happens on charts that sweep past a
    coordinate plane).
    """
    batch = position.shape[:-1]
    m1 = position.shape[-1]
    normal = np.zeros(batch + (k, m1))
    count = np.zeros(batch, dtype=np.int64)
    for a in range(m1):
        v = np.zeros(batch + (m1,))
        v[..., a] = 1.0
        # two projection passes for numerical orthogonality
        for _ in range(2):
            v = v - np.einsum("...m,...m->...", v, position)[..., None] * position
            proj_t = np.einsum("...m,...im->...i", v, tangent)
            v = v - np.einsum("...i,...im->...m", proj_t, tangent)
            proj_n = np.einsum("...m,...sm->...s", v, normal)
            v = v - np.einsum("...s,...sm->...m", proj_n, normal)
        r = np.linalg.norm(v, axis=-1)
        accept = (r >= NORMAL_RESIDUAL_TOL) & (count < k)
        if not accept.any():
            continue
        unit = np.zeros_like(v)
        good = r > 0
        unit[good] = v[good] / r[good][..., None]
        for s in range(k):
            m = accept & (count == s)
            if m.any():
                normal[m, s, :] = unit[m]
        count = count + accept
        if (count >= k).all():
            break
    if (count < k).any():
        raise DegenerateJet("could not complete the normal frame")
    return normal


def batch_geometry(position, first, second, kbar: float = 1.0) -> BatchGeometry:
    """Compute extrinsic geometry for a batch of second-order jets.

    position: (..., m+1); first: (..., n, m+1); second: (..., n, n, m+1).
    The tangent frame is Gram-Schmidt of the chart partials in index order
    (realized through the Cholesky factor of the Gram matrix, which gives
    the identical frame deterministically).
    """
    position = np.asarray(position, dtype=float)
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    n = first.shape[-2]
    m1 = position.shape[-1]
    k = m1 - 1 - n
    if k < 1:
        raise ValueError("ambient dimension leaves no normal directions")

    pos_err = np.abs(np.linalg.norm(position, axis=-1) - 1.0)
    if (pos_err > SPHERE_TOL).any():
        raise OffSphere("max |pos|-1 deviation %.3e" % pos_err.max())

    gram = np.einsum("...ia,...ja->...ij", first, first)
    det = np.linalg.det(gram)
    if (det <= GRAM_DET_TOL).any():
        raise DegenerateJet("min Gram determinant %.3e" % det.min())

    # e_i = sum_a C_{ia} dF_a with C = L^{-1}, gram = L L^T
    chol = np.linalg.cholesky(gram)
    coeff = np.linalg.inv(chol)
    tangent = coeff @ first
    normal = _orthonormal_normals(position, tangent, k)

    sec_frame = np.einsum("...ia,...jb,...abm->...ijm", coeff, coeff, second,
                          optimize=True)
    h = sec_frame @ np.swapaxes(normal, -1, -2)[..., None, :, :]
    h = 0.5 * (h + np.swapaxes(h, -3, -2))  # enforce exact (i,j) symmetry

    mean = np.einsum("...iia->...a", h)
    normA2 = np.einsum("...ija,...ija->...", h, h)
    normH2 = np.einsum("...a,...a->...", mean, mean)

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
        h1, h2 = h[..., 0, :, :], h[..., 1, :, :]
        kperp = (h1[..., 0] * h2[..., 1] - h2[..., 0] * h1[..., 1]).sum(axis=-1)

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
