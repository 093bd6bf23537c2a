"""Structured grids on closed surfaces and finite-difference jets.

Two chart topologies are supported:

* Torus: both directions periodic with period 2*pi.
* Sphere: latitude-longitude chart, u in [0, pi] including both pole rows,
  v periodic.  Pole rows are excluded from jet evaluation (the chart is
  parametrically degenerate there); the stencil reaches past the poles
  through the exact identification F(-u, v) = F(u, v + pi), which needs nv
  even.

Derivatives are 4th-order central differences in chart coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import BadParams, PoleRow
from .tensor_kernel import Jet2


@dataclass
class GridSurface:
    """Samples of a closed surface on a chart grid, component-major.

    samples[:, i, j] is the unit vector at chart node (u_i, v_j): the ambient
    components lead and the grid axes trail, so every stencil, dot product
    and FFT of the flow runs over whole (nu, nv) planes.
    """

    topology: str  # "torus" | "sphere"
    nu: int
    nv: int
    samples: np.ndarray  # (ambient_dim, nu, nv), unit vectors
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.topology not in ("torus", "sphere"):
            raise ValueError("unknown topology %r" % self.topology)
        if self.samples.shape[1:] != (self.nu, self.nv):
            raise ValueError("samples must be (ambient_dim, nu, nv) = (d, %d, %d), got %s"
                             % (self.nu, self.nv, self.samples.shape))
        if self.topology == "sphere" and self.nv % 2 != 0:
            raise BadParams("sphere topology needs an even nv for the pole stencil")
        # a periodic axis of fewer than 3 nodes has coinciding stencil
        # neighbours, so every first derivative along it is zero; the sphere's
        # pole rebuild in _padded reads three rows past each pole
        min_nu = 4 if self.topology == "sphere" else 3
        if self.nu < min_nu or self.nv < 3:
            raise BadParams("a %s grid needs nu >= %d and nv >= 3, got %d x %d"
                            % (self.topology, min_nu, self.nu, self.nv))

    @property
    def du(self) -> float:
        if self.topology == "torus":
            return 2.0 * np.pi / self.nu
        return np.pi / (self.nu - 1)

    @property
    def dv(self) -> float:
        return 2.0 * np.pi / self.nv

    @property
    def u_values(self) -> np.ndarray:
        return np.arange(self.nu) * self.du

    @property
    def v_values(self) -> np.ndarray:
        return np.arange(self.nv) * self.dv

    @property
    def valid_rows(self) -> slice:
        """Rows where jets are defined (pole rows excluded on the sphere)."""
        if self.topology == "torus":
            return slice(0, self.nu)
        return slice(1, self.nu - 1)

    def copy_with(self, samples: np.ndarray) -> "GridSurface":
        return GridSurface(self.topology, self.nu, self.nv, samples, dict(self.meta))


@lru_cache(maxsize=32)
def _stencil_index(topology: str, nu: int, nv: int):
    """Tables of _padded for one grid shape, built once and read-only.

    Returns (flat, opposite): flat (nu + 4, nv + 4) indexes the flattened
    (nu * nv) sample planes, padded node (e, f) reading chart node
    (e - 2, f - 2) through the chart's identifications; opposite (nv,) maps
    column j to the column half a turn away, j + nv/2 mod nv, for the
    across-pole sums (None on the torus).
    """
    rows = np.arange(-2, nu + 2)
    cols = np.arange(-2, nv + 2)
    if topology == "torus":
        src_rows, shift, opposite = rows % nu, 0, None
    else:
        half = nv // 2
        beyond = (rows < 0) | (rows > nu - 1)
        src_rows = np.where(rows < 0, -rows, np.where(rows > nu - 1, 2 * (nu - 1) - rows, rows))
        shift = half * beyond[:, None]
        opposite = (np.arange(nv) + half) % nv
        opposite.flags.writeable = False
    flat = src_rows[:, None] * nv + (cols + shift) % nv
    flat.flags.writeable = False
    return flat, opposite


def _padded(samples: np.ndarray, topology: str) -> np.ndarray:
    """Samples with two ghost nodes on each side of both chart axes.

    Component-major layout: samples is (ambient_dim, nu, nv) and the result
    (ambient_dim, nu + 4, nv + 4), padded node (e, f) holding chart node
    (e - 2, f - 2), gathered in one pass through the grid's _stencil_index
    table.  v is periodic; u is periodic on the torus, and on the sphere the
    ghost rows beyond both poles come from F(-u, v) = F(u, v + pi): they are
    exact samples of the same smooth surface, not extrapolations.

    The stored pole rows themselves are NOT trusted as stencil nodes: a
    pole row holds a single point whatever refresh policy maintains it, and
    an averaged refresh is only O(du^2) accurate, which the d2 stencil at
    the adjacent row would amplify to an O(1) curvature error.  The u = 0
    and u = pi node values are instead rebuilt per meridian by 6th-order
    interpolation through the same across-pole identification, e.g.
        F(0, v) ~ (15 A1 - 6 A2 + A3) / 20,  Aj = F(uj, v) + F(uj, v+pi).
    """
    d, nu, nv = samples.shape
    flat, opposite = _stencil_index(topology, nu, nv)
    ext = np.take(samples.reshape(d, nu * nv), flat, axis=1)
    if topology == "torus":
        return ext
    # rows 1, 2, 3 from the north pole and from the south pole
    near = samples[:, [1, 2, 3, nu - 2, nu - 3, nu - 4]].reshape(d, 2, 3, nv)
    across = near + near[..., opposite]
    pole = (15.0 * across[:, :, 0] - 6.0 * across[:, :, 1] + across[:, :, 2]) / 20.0
    pole /= np.linalg.norm(pole, axis=0, keepdims=True)
    # row 2 of the table is chart row 0 on wrapped columns
    ext[:, [2, nu + 1]] = pole[:, :, flat[2]]
    return ext


def _d1(ext: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """First derivative along a (+2/-2)-padded axis, one value per node.

    The stencils fill their output in place (in the order of the plain
    expression, so the values are bit-for-bit the same): on the flow's hot
    path each fresh full-size temporary costs page faults as well as a pass.
    """
    e = np.moveaxis(ext, axis, 0)
    if out is None:
        shape = list(ext.shape)
        shape[axis] -= 4
        out = np.empty(shape)
    d = np.moveaxis(out, axis, 0)
    # (-e[4:] + 8 e[3:-1] - 8 e[1:-3] + e[:-4]) / 12h
    np.multiply(e[3:-1], 8.0, out=d)
    d -= e[4:]
    d -= 8.0 * e[1:-3]
    d += e[:-4]
    d /= 12.0 * h
    return out


def _d2(ext: np.ndarray, axis: int, h: float, out: np.ndarray) -> np.ndarray:
    e = np.moveaxis(ext, axis, 0)
    d = np.moveaxis(out, axis, 0)
    # (-e[4:] + 16 e[3:-1] - 30 e[2:-2] + 16 e[1:-3] - e[:-4]) / 12h^2
    np.multiply(e[3:-1], 16.0, out=d)
    d -= e[4:]
    d -= 30.0 * e[2:-2]
    d += 16.0 * e[1:-3]
    d -= e[:-4]
    d /= 12.0 * h * h
    return out


def batch_jets(surface: GridSurface):
    """Finite-difference jets on all jet-valid rows, component-major.

    Reads the component-major samples as they are and returns (position,
    first, second) with shapes (d, r, nv), (2, d, r, nv) and
    (2, 2, d, r, nv), where r = number of valid rows: the small axes lead
    and the grid axes trail, so the flow's dot products run over whole
    (r, nv) planes.  A single point's slice [..., i, j] is a Jet2.
    """
    s = surface.samples
    rows = surface.valid_rows
    r0, r1 = rows.start, rows.stop
    euv = _padded(s, surface.topology)
    eu = euv[:, r0:r1 + 4, 2:-2]   # returned rows with 2 u-ghosts either side
    ev = euv[:, r0 + 2:r1 + 2]     # returned rows, v-padded
    # the whole jet (pos, fu, fv, fuu, fuv, fvu, fvv) in one allocation: a
    # few large blocks per flow step, rather than many, keep the allocator
    # from handing memory back and page-faulting it in again every step
    block = np.empty((7,) + s[:, rows].shape)
    pos, first, second = block[0], block[1:3], block[3:].reshape((2, 2) + block.shape[1:])
    pos[...] = s[:, rows]
    # v-difference on the returned rows and their u-ghosts: the mixed
    # derivative differences it along u, and its middle rows are fv itself
    dv_rows = _d1(euv[:, r0:r1 + 4], 2, surface.dv)
    _d1(eu, 1, surface.du, first[0])
    first[1] = dv_rows[:, 2:-2]
    _d2(eu, 1, surface.du, second[0, 0])
    _d1(dv_rows, 1, surface.du, second[0, 1])
    second[1, 0] = second[0, 1]
    _d2(ev, 2, surface.dv, second[1, 1])
    return pos, first, second


def discrete_jet(surface: GridSurface, i: int, j: int) -> Jet2:
    """Single-point jet; raises PoleRow on excluded sphere rows."""
    vr = surface.valid_rows
    if not (vr.start <= i < vr.stop):
        raise PoleRow("row %d is a pole row" % i)
    return Jet2(*(x[..., i - vr.start, j] for x in batch_jets(surface)))
