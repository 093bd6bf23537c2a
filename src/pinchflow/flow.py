"""Mean curvature flow of gridded surfaces in the unit sphere.

Explicit time stepping of dF/dt = H_S (the mean curvature vector within the
sphere) with parabolic CFL control, per-stage renormalization onto the
sphere, and a monitor pipeline recording every trackable curvature quantity.
Latitude-longitude sphere grids get two stabilizers: pole rows are refreshed
from the adjacent latitude after each stage, and a zonal low-pass filter
removes longitudinal modes finer than the local physical resolution (the
usual cure for the pole clustering of such grids).  Every stage of every
scheme goes through the same restabilization, _restabilize.

euler takes the Euler step dt_E = cfl * h^2 / max(1, a2_max), rk2 takes it
with a midpoint stage, and rkl2 (the default) takes one Runge-Kutta-Legendre
super-step of s <= RKL2_MAX_STAGES stages (Meyer, Balsara & Aslam, J.
Comput. Phys. 257, 2014), whose stability interval grows like s^2 while its
cost grows like s.  rkl2 sizes it from a frozen-coefficient bound on the
spectral radius of the linearized velocity (_stability_bound), not from
dt_E; there cfl scales the share of the stable length a super-step reaches,
and a cfl that would pass it is refused.  Every scheme shortens its last
step so that the flow lands on t_max.  A step counts its velocity
evaluations (1, 2 and s), and run takes a monitor record after each step
that crosses a multiple of the stride in that count.  After each record run
asks _stop whether the outcome is decided: the round-point fit over the
resolved records is stable, or the surface has shrunk past them.

The time stepper uses a lean velocity evaluation (projection of the
chart-trace of the second derivatives onto the normal space), which needs no
normal frames; full frame-based geometry is computed only at monitor strides.
Everything from the grid samples to the monitor record is component-major,
the small axes first and the grid axes last, so stencils, dot products, FFTs
and frame contractions run over whole grid planes; an Euler stage copies the
samples once and updates that copy in place, and an RKL2 stage builds its
combination of earlier stages as one new array.  The tables that depend
only on the grid shape (the stencil gather, the zonal mode mask and its
symbols) are built once per shape.  run evaluates each surface's jets once
and hands the same tuple to monitor and to the next step.  It steps only the
ambient coordinates that are not 0.0 on every sample, as a coordinate that
is 0.0 everywhere stays 0.0 under every stage (a surface in S^3 x {0} never
leaves it), and puts the zeros back for each record and the final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .errors import (BadParams, BlowupDetected, DegenerateJet, Extinct,
                     InsufficientStencil, OffSphere)
from .grids import GridSurface, batch_jets
# the monitor reads |grad A|^2 only; perfbench/tracing.py wraps gradient_margins here
from .identities import gradient_margins, symmetrized_gradient  # noqa: F401
from .pinching import ConeParams, harnack_bound, q_from_invariants
from .tensor_kernel import batch_geometry

SNAPSHOT_VERSION = 1
H_THRESHOLD = 1e-3          # |H| cutoff for ratio_max
MAX_STEPS = 2_000_000       # step budget of run
FILTER_FRACTION = 0.75      # resolvable share of the zonal band (_zonal_filter)
SHRINK_WINDOW = (1e-2, 1e-1)  # resolved records of _verdict: area / initial area
SHRINK_MIN_RECORDS = 3      # resolved records a Shrinking fit needs
SLOPE_TOL = 0.1             # fitted slope of 1/|H|^2 within this share of -2/n
RATIO_TOL = 0.05            # |A|^2/|H|^2 within this of 1/n on resolved records
FLAT_SPAN = 0.1             # flow time a2_max stays flat for ApproachTotallyGeodesic
DECIDED_TOL = 1e-3          # relative change of the fitted extinction time that ends a run
RADIUS_AXIS = 3             # ambient axis of a geodesic sphere's radius trajectory
SCHEMES = ("euler", "rk2", "rkl2")
DEFAULT_CFL = 0.2           # FlowConfig.cfl; rkl2 reaches RKL2_SAFETY of its bound at it
# Peak |symbol| (times h^2, resp. h) of grids' 4th-order stencils: the second
# difference (-1, 16, -30, 16, -1) / 12 at phase pi, and the first difference
# (1, -8, 0, 8, -1) / 12, sin(th) (4 - cos th) / 3, at cos th = 1 - sqrt(3/2).
SIGMA2 = 16.0 / 3.0
_COS1 = 1.0 - math.sqrt(1.5)
SIGMA1 = math.sqrt(1.0 - _COS1 * _COS1) * (4.0 - _COS1) / 3.0
NYQUIST_MOMENT = 5.0 / 3.0  # |sum_m c_m (-1)^m m| over the first difference's weights c_m
# RKL2 super-step rules.  The s-stage recurrence is stable for steps up to
# (2 / lambda) (s^2 + s - 2) / 4, lambda the spectral radius of the
# linearized velocity.  _stability_bound bounds lambda; Arnoldi iteration on
# the linearized velocity (tests/test_flow.py) measures it at 1/1.15 of the
# bound on the 32 x 64 rho = pi/3 sphere, at t = 0 and after 20 super-steps,
# at 1/1.006 on the 40 x 40 flat torus and at 1/1.20 on the 32 x 64 Veronese
# grid.  RKL2_SAFETY leaves room for lambda's growth within a super-step and
# for the per-stage projection, which the linear analysis omits: at the full
# bound the 32 x 64 and 64 x 128 spheres still ran to the end of their
# resolution with caps 16 to 32.  RKL2_MAX_STAGES trades evaluations for
# the accuracy of long super-steps: on criterion 6's 64 x 128 sphere caps
# 16, 20 and 24 take 800, 714 and 656 evaluations, with radius errors 2.2e-4,
# 5.1e-4 and 8.3e-4 (1.0e-4 under the old plan, 1260 evaluations).
RKL2_MAX_STAGES = 20
RKL2_SAFETY = 0.7
# Accuracy cap tau <= RKL2_ACCURACY / max(1, a2_max): |A|^2 sets the rate at
# which curvature changes, so this bounds the change of one super-step.
# Without it a 12 x 24 geodesic sphere crossed its extinction time in one
# super-step, from t = 0, and the run could not classify it.
RKL2_ACCURACY = 0.05


@dataclass
class FlowState:
    t: float
    step_index: int
    surface: GridSurface
    dt_last: float
    evaluations: int = 0             # velocity evaluations of the steps so far


@dataclass
class MonitorRecord:
    t: float
    area: float
    h_min: float
    h_max: float
    a2_max: float
    q_min: float
    q_max: float
    ratio_max: float
    grad_ratio: float
    kperp_min: float
    kperp_max: float
    harnack_violations: int
    indices: dict = field(default_factory=dict)

    def csv_row(self) -> str:
        return ",".join(str(int(getattr(self, f.name))) if f.type == "int"
                        else repr(float(getattr(self, f.name))) for f in CSV_FIELDS)


# the monitor.csv columns: every MonitorRecord field but the argmax indices
CSV_FIELDS = [f for f in fields(MonitorRecord) if f.name != "indices"]
CSV_HEADER = ",".join(f.name for f in CSV_FIELDS)


@dataclass
class FlowConfig:
    scheme: str = "rkl2"             # one of SCHEMES
    cfl: float = DEFAULT_CFL         # step size; see step and _rkl2_fraction
    t_max: float = 1.0
    ceiling: float = 1e6             # a2_max that stops a run
    flat_threshold: float = 1e-4     # a2_max of ApproachTotallyGeodesic
    stride: int = 25                 # velocity evaluations between monitor records
    sigma: float = 0.5               # grad_ratio exponent: |grad A|^2 / g^(2 - sigma)
    cone: ConeParams | None = None   # evaluated at the unit sphere's kbar = 1
    harnack_csharp: float | None = None
    harnack_delta0: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise BadParams("scheme must be one of %s" % ", ".join(SCHEMES))
        for name in ("cfl", "t_max", "sigma", "ceiling", "flat_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise BadParams("%s must be finite" % name)
        if self.cfl <= 0 or self.t_max <= 0 or self.stride < 1:
            raise BadParams("cfl and t_max must be positive and stride at least 1")
        if self.scheme == "rkl2" and _rkl2_fraction(self.cfl) > 1.0:
            raise BadParams("rkl2 at cfl %r steps past its stability bound: cfl must be "
                            "at most %.6g" % (self.cfl, DEFAULT_CFL / RKL2_SAFETY))
        if (self.harnack_csharp is None) != (self.harnack_delta0 is None):
            raise BadParams("harnack audit needs both csharp and delta0")
        if self.harnack_csharp is not None and not (
                0 < self.harnack_csharp < math.inf and math.isfinite(self.harnack_delta0)):
            # a NaN or infinite constant makes every bound pass vacuously
            raise BadParams("harnack_csharp must be finite and positive, harnack_delta0 finite")
        if self.cone is not None and self.cone.kbar != 1.0:
            # flows run in the unit sphere; the cones are homogeneous, so
            # kbar = 1 covers every background curvature
            raise BadParams("a flow cone is evaluated at kbar = 1, got kbar %r"
                            % self.cone.kbar)


@dataclass
class FlowResult:
    outcome: str
    records: list
    final_state: FlowState
    extinction_time: float | None
    radius_trajectory: list
    notes: list
    config: FlowConfig


# ---------------------------------------------------------------------------
# velocity

def _lean_velocity(pos, first, second):
    """(H_S vector, |A|^2, (g^uu, g^uv, g^vv)) without constructing normal frames.

    Takes component-major jets as batch_jets returns them: pos (d, ...),
    first (2, d, ...), second (2, 2, d, ...); velocity (d, ...).  H_S is the
    orthogonal projection of g^{ab} d2F_ab onto the complement of
    span{F, dF}; |A|^2 contracts the normal-projected second derivatives.
    """
    # hand-unrolled n = 2 contractions: this is the per-step hot loop, and
    # with the ambient components on the leading axis every dot product is
    # a sum of d products of whole grid planes
    def dot(a, b):
        return np.einsum("m...,m...->...", a, b)

    fu, fv = first
    g11, g22, g12 = dot(fu, fu), dot(fv, fv), dot(fu, fv)
    det = g11 * g22 - g12 * g12
    if det.min() <= 0 or not np.isfinite(det).all():
        raise DegenerateJet("induced metric degenerated (min det = %.3e)" % det.min())
    ga, gb, gc = g22 / det, -g12 / det, g11 / det

    # normal part of each second derivative (uu, uv, vv); the projection is
    # linear, so the velocity is just the g-trace of these
    normal = []
    for s in (second[0, 0], second[0, 1], second[1, 1]):
        s1, s2 = dot(s, fu), dot(s, fv)
        normal.append(s - dot(s, pos) * pos - (ga * s1 + gb * s2) * fu
                      - (gb * s1 + gc * s2) * fv)
    nuu, nuv, nvv = normal
    vel = ga * nuu + (2.0 * gb) * nuv + gc * nvv

    # |A|^2 = g^{ac} g^{bd} <N_ab, N_cd>, summed over the packed pairs
    a2 = (ga * ga * dot(nuu, nuu) + 2.0 * (ga * gc + gb * gb) * dot(nuv, nuv)
          + gc * gc * dot(nvv, nvv) + 4.0 * ga * gb * dot(nuu, nuv)
          + 2.0 * gb * gb * dot(nuu, nvv) + 4.0 * gb * gc * dot(nuv, nvv))
    return vel, a2, (ga, gb, gc)


def mcf_velocity(surface: GridSurface) -> np.ndarray:
    """Mean curvature vector field within the sphere, zero on pole rows."""
    vel = _lean_velocity(*batch_jets(surface))[0]
    out = np.zeros_like(surface.samples)
    out[:, surface.valid_rows] = vel
    return out


# ---------------------------------------------------------------------------
# stepping (component-major samples: (ambient_dim, nu, nv))

def _unit(samples: np.ndarray) -> np.ndarray:
    """Renormalize samples onto the unit sphere in place."""
    samples /= np.sqrt((samples * samples).sum(axis=0))
    return samples


def _refresh_poles(samples: np.ndarray) -> None:
    for row, src in ((0, 1), (-1, -2)):
        mean = samples[:, src].mean(axis=-1)
        mean /= np.linalg.norm(mean)
        samples[:, row] = mean[:, None]


@lru_cache(maxsize=32)
def _zonal_mask(nu: int, nv: int) -> np.ndarray:
    """Longitudinal modes _zonal_filter keeps on an nu x nv sphere grid.

    Row i keeps modes m <= max(1, floor(FILTER_FRACTION * (nv/2) * sin u_i)):
    the mode count a latitude circle of radius sin(u) can support shrinks
    toward the poles, and unfiltered grids go unstable there long before the
    interior.  Returns a read-only (nu, nv // 2 + 1) boolean mask.
    """
    u = np.arange(nu) * (np.pi / (nu - 1))  # GridSurface.u_values of a sphere grid
    mmax = np.floor(FILTER_FRACTION * (nv / 2.0) * np.abs(np.sin(u))).astype(int)
    mmax = np.maximum(mmax, 1)
    mask = np.arange(nv // 2 + 1)[None, :] <= mmax[:, None]
    mask.flags.writeable = False
    return mask


def _zonal_filter(samples: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero the longitudinal Fourier modes outside mask (see _zonal_mask).

    samples is (d, nu, nv); returns a new array of the same shape.
    """
    spec = np.fft.rfft(samples, axis=-1)
    spec *= mask
    return np.fft.irfft(spec, n=samples.shape[-1], axis=-1)


def _restabilize(surface: GridSurface, samples: np.ndarray) -> GridSurface:
    """surface with new samples (d, nu, nv), projected back onto the sphere.

    Sphere grids also get the pole refresh and the zonal filter.  samples
    is updated in place.
    """
    if surface.topology == "sphere":
        _refresh_poles(samples)
        samples = _zonal_filter(_unit(samples), _zonal_mask(surface.nu, surface.nv))
    return surface.copy_with(_unit(samples))


def _advance(surface: GridSurface, vel_valid: np.ndarray, dt: float) -> GridSurface:
    """Move the valid rows by dt * vel_valid (d, r, nv) and restabilize."""
    samples = surface.samples.copy()
    samples[:, surface.valid_rows] += dt * vel_valid
    return _restabilize(surface, samples)


def _checked_velocity(jets, ceiling: float, t: float):
    """(velocity, a2_max, inverse metric) of one surface's jets;
    BlowupDetected past ceiling."""
    vel, a2, inverse = _lean_velocity(*jets)
    a2max = float(a2.max())
    if not math.isfinite(a2max) or a2max > ceiling:
        raise BlowupDetected("a2_max = %.6e beyond ceiling %.3e at t = %.8f"
                             % (a2max, ceiling, t))
    return vel, a2max, inverse


@lru_cache(maxsize=32)
def _v_symbol(topology: str, nu: int, nv: int):
    """Peak |symbol| of the v second difference on the jet rows, times dv^2:
    SIGMA2 on a torus; on a sphere grid, per row (a read-only (nu - 2, 1)
    array), the symbol (30 - 32 cos th + 2 cos 2th) / 12 of the highest mode
    _zonal_mask keeps there, as the filter removes the finer ones each stage."""
    if topology == "torus":
        return SIGMA2
    top = _zonal_mask(nu, nv)[1:-1].sum(axis=1) - 1     # the mask keeps modes 0 .. top
    theta = top[:, None] * (2.0 * np.pi / nv)
    sym = (30.0 - 32.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)) / 12.0
    sym.flags.writeable = False
    return sym


def _stability_bound(surface: GridSurface, inverse, a2max: float) -> float:
    """Frozen-coefficient (von Neumann) bound on the spectral radius of the
    linearized velocity, from the inverse metric (g^uu, g^uv, g^vv).

    The principal part g^{ab} D_ab of batch_jets' stencils gives the max over
    points of g^uu SIGMA2 / du^2 + g^vv sigma2(row) / dv^2
    + 2 |g^uv| SIGMA1^2 / (du dv), sigma2(row) from _v_symbol.  At the
    highest grid mode a first difference of a turning normal N reads
    NYQUIST_MOMENT |dN| rather than 0, so the metric's response adds up to
    2 NYQUIST_MOMENT |A|^2: on a flat torus the spectral radius exceeds the
    principal part by (5/3) |A|^2 - 2.
    """
    ga, gb, gc = inverse
    du, dv = surface.du, surface.dv
    v_sym = _v_symbol(surface.topology, surface.nu, surface.nv)
    lam = (ga * (SIGMA2 / (du * du)) + gc * (v_sym / (dv * dv))
           + np.abs(gb) * (2.0 * SIGMA1 * SIGMA1 / (du * dv)))
    return float(lam.max()) + 2.0 * NYQUIST_MOMENT * a2max


def _rkl2_fraction(cfl: float) -> float:
    """Share of the stable length an rkl2 super-step may reach: RKL2_SAFETY
    at the default cfl, in proportion to cfl."""
    return RKL2_SAFETY * (cfl / DEFAULT_CFL)


def _rkl2_coefficients(s: int):
    """(mu, nu, 1 - mu - nu, mu~, gamma~) of the s-stage RKL2 recurrence.

    Each is a list indexed by the stage j = 0 .. s; entries a stage does not
    use are 0.  From b_j = (j^2 + j - 2) / (2 j (j + 1)) with
    b_0 = b_1 = b_2 = 1/3, a_j = 1 - b_j and w_1 = 4 / (s^2 + s - 2).
    """
    b = [1.0 / 3.0, 1.0 / 3.0] + [(j * j + j - 2.0) / (2.0 * j * (j + 1.0))
                                  for j in range(2, s + 1)]
    w1 = 4.0 / (s * s + s - 2.0)
    mu, nu, rest, mut, gamt = ([0.0] * (s + 1) for _ in range(5))
    mut[1] = b[1] * w1
    for j in range(2, s + 1):
        mu[j] = (2.0 * j - 1.0) / j * b[j] / b[j - 1]
        nu[j] = -(j - 1.0) / j * b[j] / b[j - 2]
        rest[j] = 1.0 - mu[j] - nu[j]
        mut[j] = mu[j] * w1
        gamt[j] = -(1.0 - b[j - 1]) * mut[j]
    return mu, nu, rest, mut, gamt


def _rkl2_plan(bound: float, a2max: float, remaining: float, fraction: float):
    """(tau, s) of one RKL2 super-step: the fewest stages whose reach,
    fraction of the stable length (2 / bound) (s^2 + s - 2) / 4, covers the
    accuracy target, capped at RKL2_MAX_STAGES."""
    target = min(RKL2_ACCURACY / max(1.0, a2max), remaining)
    unit = fraction * (2.0 / bound)
    for s in range(2, RKL2_MAX_STAGES + 1):
        reach = unit * (s * s + s - 2.0) / 4.0
        if reach >= target:
            break
    return min(target, reach), s


def _rkl2(surf: GridSurface, vel0: np.ndarray, tau: float, s: int,
          ceiling: float, t: float) -> GridSurface:
    """One s-stage RKL2 super-step of length tau from surf, whose velocity
    is vel0; each stage is restabilized and its a2_max checked."""
    mu, nu, rest, mut, gamt = _rkl2_coefficients(s)
    rows = surf.valid_rows
    prev2, prev = surf, _advance(surf, vel0, mut[1] * tau)
    for j in range(2, s + 1):
        vel = _checked_velocity(batch_jets(prev), ceiling, t)[0]
        samples = mu[j] * prev.samples + nu[j] * prev2.samples + rest[j] * surf.samples
        samples[:, rows] += (mut[j] * tau) * vel + (gamt[j] * tau) * vel0
        prev2, prev = prev, _restabilize(surf, samples)
    return prev


def step(state: FlowState, jets, cfg: FlowConfig) -> FlowState:
    """One step of cfg.scheme, shortened to land on t_max.

    jets is batch_jets(state.surface).  euler and rk2 step by the Euler
    step dt_E = cfl * (min spacing)^2 / max(1, a2_max); rkl2 takes one
    super-step sized by _rkl2_plan from _stability_bound.
    """
    surf, ceiling = state.surface, cfg.ceiling
    vel, a2max, inverse = _checked_velocity(jets, ceiling, state.t)
    dt = cfg.cfl * min(surf.du, surf.dv) ** 2 / max(1.0, a2max)
    remaining = cfg.t_max - state.t
    if cfg.scheme == "euler":
        dt, evals = min(dt, remaining), 1
        new = _advance(surf, vel, dt)
    elif cfg.scheme == "rk2":
        dt, evals = min(dt, remaining), 2
        mid = _advance(surf, vel, 0.5 * dt)
        vel2 = _checked_velocity(batch_jets(mid), ceiling, state.t)[0]
        new = _advance(surf, vel2, dt)
    else:
        dt, evals = _rkl2_plan(_stability_bound(surf, inverse, a2max), a2max, remaining,
                               _rkl2_fraction(cfg.cfl))
        new = _rkl2(surf, vel, dt, evals, ceiling, state.t)
    t = cfg.t_max if dt >= remaining else state.t + dt
    return FlowState(t=t, step_index=state.step_index + 1, surface=new, dt_last=dt,
                     evaluations=state.evaluations + evals)


# ---------------------------------------------------------------------------
# the exact comparison solution

def sphere_ode_oracle(rho0: float, n: int, t) -> float | np.ndarray:
    """Radius of a shrinking geodesic sphere: rho(t) = arccos(cos rho0 e^{nt}).

    The radius ODE rho' = -n cot rho integrates in closed form; the argument
    leaving (-1, 1) means the sphere is extinct (or the backwards solution
    left the hemisphere picture).
    """
    if not (0.0 < rho0 < math.pi):
        raise BadParams("need rho0 in (0, pi)")
    arg = np.cos(rho0) * np.exp(n * np.asarray(t, dtype=float))
    if np.any(arg >= 1.0) or np.any(arg <= -1.0):
        raise Extinct("cos(rho0) * e^{nt} leaves (-1, 1)")
    out = np.arccos(arg)
    return float(out) if out.ndim == 0 else out


def sphere_extinction_time(rho0: float, n: int) -> float:
    if not (0.0 < rho0 < math.pi):
        raise BadParams("need rho0 in (0, pi)")
    c = abs(math.cos(rho0))
    return -math.log(c) / n if c > 0.0 else math.inf


# ---------------------------------------------------------------------------
# monitors

def _grad_ratio(geom, surface, cfg):
    wrap_u = surface.topology == "torus"
    try:
        grad = symmetrized_gradient(geom, surface.du, surface.dv, wrap_u)
    except (InsufficientStencil, np.linalg.LinAlgError):
        return float("nan")
    n = geom.n
    g = geom.normH2 / (n - 1.0) - geom.normA2 + 2.0  # the last term is 2 kbar
    if not wrap_u:
        g = g[1:-1]
    pos = g > 0
    if not pos.any():
        return float("nan")
    grad_a2 = np.einsum("qija...,qija...->...", grad, grad)
    return float((grad_a2[pos] / g[pos] ** (2.0 - cfg.sigma)).max())


def _harnack_violations(pos, habs, cfg, t):
    """Count grid points where measured |H| undercuts the path lower bound.

    Distances are lengths of grid-line paths (down the column to the target
    row, then around the row), an upper bound for the intrinsic distance, so
    the path-form lower bound applies and flagged violations are sound.
    pos is component-major, (d, rows, cols).
    """
    i0, j0 = np.unravel_index(int(np.argmax(habs)), habs.shape)
    h0 = float(habs[i0, j0])
    if h0 <= 0:
        return 0
    rows = habs.shape[0]
    seg_u = np.linalg.norm(np.diff(pos[:, :, j0], axis=1), axis=0)
    dcol = np.zeros(rows)
    if i0 + 1 < rows:
        dcol[i0 + 1:] = np.cumsum(seg_u[i0:])
    if i0 > 0:
        dcol[:i0] = np.cumsum(seg_u[:i0][::-1])[::-1]
    segs = np.linalg.norm(np.roll(pos, -1, axis=2) - pos, axis=0)
    s = np.roll(segs, -j0, axis=1)
    fw = np.concatenate([np.zeros((rows, 1)), np.cumsum(s[:, :-1], axis=1)], axis=1)
    total = s.sum(axis=1, keepdims=True)
    drow = np.roll(np.minimum(fw, total - fw), j0, axis=1)
    d = dcol[:, None] + drow
    bound = harnack_bound(h0, cfg.harnack_csharp, t, cfg.harnack_delta0, d)
    return int(np.sum(habs < (1.0 - 1e-9) * bound - 1e-12))


def monitor(surface: GridSurface, jets, cfg: FlowConfig, t: float) -> MonitorRecord:
    """One monitor record of surface at time t; jets is batch_jets(surface)."""
    geom = batch_geometry(*jets)
    det = geom.metric[0, 0] * geom.metric[1, 1] - geom.metric[0, 1] ** 2
    area = float(np.sum(np.sqrt(det)) * surface.du * surface.dv)

    offset = 1 if surface.topology == "sphere" else 0
    habs = np.sqrt(geom.normH2)
    ih = np.unravel_index(int(np.argmax(habs)), habs.shape)
    ia = np.unravel_index(int(np.argmax(geom.normA2)), geom.normA2.shape)
    indices = {"h_max": (int(ih[0]) + offset, int(ih[1])),
               "a2_max": (int(ia[0]) + offset, int(ia[1]))}

    if cfg.cone is not None:
        q = q_from_invariants(geom.normA2, geom.normH2, geom.kperp, cfg.cone)
        iq = np.unravel_index(int(np.argmax(q)), q.shape)
        indices["q_max"] = (int(iq[0]) + offset, int(iq[1]))
        q_min, q_max = float(q.min()), float(q.max())
    else:
        q_min = q_max = float("nan")

    strong = habs > H_THRESHOLD
    if strong.any():
        ratio_max = float((geom.normA2[strong] / geom.normH2[strong]).max())
    else:
        ratio_max = float("nan")

    if geom.kperp is not None:
        kp_min, kp_max = float(geom.kperp.min()), float(geom.kperp.max())
    else:
        kp_min = kp_max = float("nan")

    violations = 0
    if cfg.harnack_csharp is not None:
        violations = _harnack_violations(jets[0], habs, cfg, t)

    return MonitorRecord(
        t=t,
        area=area,
        h_min=float(habs.min()),
        h_max=float(habs.max()),
        a2_max=float(geom.normA2.max()),
        q_min=q_min,
        q_max=q_max,
        ratio_max=ratio_max,
        grad_ratio=_grad_ratio(geom, surface, cfg),
        kperp_min=kp_min,
        kperp_max=kp_max,
        harnack_violations=violations,
        indices=indices,
    )


# ---------------------------------------------------------------------------
# driver

def _occupied(samples: np.ndarray) -> np.ndarray:
    """Indices of the ambient coordinates that are not 0.0 on every sample."""
    return np.flatnonzero((samples != 0.0).any(axis=(1, 2)))


def _embed(x: np.ndarray, occupied: np.ndarray, dim: int) -> np.ndarray:
    """x (..., len(occupied), nu, nv) on the occupied ambient coordinates,
    with 0.0 put back at the others: (..., dim, nu, nv)."""
    if len(occupied) == dim:
        return x
    out = np.zeros(x.shape[:-3] + (dim,) + x.shape[-2:])
    out[..., occupied, :, :] = x
    return out


def _mean_radius(surface: GridSurface, axis: int) -> float:
    dots = surface.samples[axis, surface.valid_rows]
    return float(np.mean(np.arccos(np.clip(dots, -1.0, 1.0))))


def _flat_for_span(records, threshold: float) -> bool:
    """a2_max below threshold on every record of the last FLAT_SPAN of flow
    time, the record that opens the span included."""
    start = records[-1].t - FLAT_SPAN
    for rec in reversed(records):
        if not rec.a2_max < threshold:
            return False
        if rec.t <= start:
            return True
    return False


def _round_point_fit(records):
    """Extinction time of the type-I round point that records show, or None:
    1/|H|^2 affine in t with slope -2/n and |A|^2/|H|^2 = 1/n (Huisken, J.
    Differential Geom. 20, 1984; Andrews & Baker, J. Differential Geom. 85,
    2010) on at least SHRINK_MIN_RECORDS records of the resolved window.  It
    is the root of the least-squares line of 1/h_max^2 in t."""
    n, (lo, hi), a0 = 2, SHRINK_WINDOW, records[0].area   # every grid is a surface
    window = [rec for rec in records if lo <= rec.area / a0 <= hi]
    if len(window) >= SHRINK_MIN_RECORDS and all(
            abs(rec.ratio_max - 1.0 / n) <= RATIO_TOL for rec in window):
        slope, icept = np.polyfit([r.t for r in window], [r.h_max ** -2 for r in window], 1)
        if abs(slope + 2.0 / n) <= SLOPE_TOL * 2.0 / n:
            return float(-icept / slope)
    return None


def _verdict(records, cfg: FlowConfig, early: bool):
    """(outcome, extinction_time) of a run from its monitor records."""
    if _flat_for_span(records, cfg.flat_threshold):
        return "ApproachTotallyGeodesic", None
    if not early:
        return "Inconclusive", None
    extinction = _round_point_fit(records)
    return ("NumericalBlowup", None) if extinction is None else ("Shrinking", extinction)


def _stop(records, cfg: FlowConfig):
    """Notes of a stop after the newest record, or None to go on: none once
    a2_max is flat for FLAT_SPAN, one once the verdict of an early stop is
    decided, as the newest record lies past the window or moves the fit's
    extinction time by at most DECIDED_TOL."""
    if _flat_for_span(records, cfg.flat_threshold):
        return []
    area, (lo, hi) = records[-1].area / records[0].area, SHRINK_WINDOW
    if area > hi:
        return None
    decided = "verdict decided at t = %.6f: " % records[-1].t
    if area < lo:
        return [decided + "area below the resolved window"]
    full, prior = _round_point_fit(records), _round_point_fit(records[:-1])
    if None not in (full, prior) and abs(full - prior) <= DECIDED_TOL * abs(full):
        return [decided + "extinction fit stable to %g" % DECIDED_TOL]
    return None


def run(surface: GridSurface, config: FlowConfig | None = None) -> FlowResult:
    """Evolve until t_max, FLAT_SPAN of flat flow time, or an early stop.

    A run stops early, with a note, at the blowup ceiling, when a step or
    monitor fails, or once _stop finds its verdict decided.  _verdict
    decides the outcome from the records: ApproachTotallyGeodesic,
    Inconclusive (t_max or step budget), or for an early stop Shrinking or
    NumericalBlowup; the ceiling takes no part.  A decided verdict stands
    even if its record lands on t_max, and its extinction time may lie past
    t_max.

    Pure computation: no files are written; see write_monitor_csv and
    write_snapshot for the artifact formats.
    """
    cfg = config or FlowConfig()
    axis = RADIUS_AXIS if surface.meta.get("kind") == "geodesic-sphere" else None
    # coordinates that are 0.0 everywhere stay 0.0 under every stage, so the
    # steps run on the others and each record puts the zeros back
    dim, occupied = len(surface.samples), _occupied(surface.samples)
    state = FlowState(t=0.0, step_index=0, surface=surface.copy_with(surface.samples[occupied]),
                      dt_last=0.0)
    records, radius, notes = [], [], []

    def observe(jets, failure=None):
        """Record state's surface from its jets.  If the monitor fails, note
        failure % the error and return False; with no failure text, raise."""
        full = state.surface.copy_with(_embed(state.surface.samples, occupied, dim))
        try:
            records.append(monitor(full, tuple(_embed(x, occupied, dim) for x in jets),
                                   cfg, state.t))
        except (DegenerateJet, OffSphere) as exc:
            if failure is None:
                raise
            notes.append(failure % exc)
            return False
        if axis is not None:
            radius.append((state.t, _mean_radius(full, axis)))
        return True

    jets, stop = batch_jets(state.surface), None
    observe(jets)
    while True:
        if state.t >= cfg.t_max:
            break
        if state.step_index >= MAX_STEPS:
            notes.append("step budget exhausted at t = %.6f" % state.t)
            break
        evaluated, note = state.evaluations, None
        try:
            state = step(state, jets, cfg)
        except BlowupDetected as exc:
            note = str(exc)
        except (DegenerateJet, OffSphere) as exc:
            note = "geometry degenerated mid-run: %s" % exc
        if note is not None:
            # state, and so jets, is still the last surface; it is monitored out
            # here, as the traceback would keep the failed step's arrays alive
            notes.append(note)
            if records[-1].t != state.t:
                observe(jets, "final monitor unavailable (%s)")
            break
        jets = batch_jets(state.surface)
        if state.evaluations // cfg.stride > evaluated // cfg.stride:
            if not observe(jets, "monitor failed mid-run: %s"):
                break
            if (stop := _stop(records, cfg)) is not None:
                notes.extend(stop)
                break

    # a failed step or monitor stops the run short of both limits; a decided
    # verdict (a note from _stop) is an early stop wherever it falls
    early = bool(stop) or (state.t < cfg.t_max and state.step_index < MAX_STEPS)
    outcome, extinction = _verdict(records, cfg, early)
    state.surface = state.surface.copy_with(_embed(state.surface.samples, occupied, dim))
    return FlowResult(outcome=outcome, records=records, final_state=state,
                      extinction_time=extinction, radius_trajectory=radius, notes=notes,
                      config=cfg)


# ---------------------------------------------------------------------------
# artifact writers

def write_monitor_csv(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def write_snapshot(surface: GridSurface, path, t: float = 0.0) -> None:
    with open(path, "w") as fh:
        fh.write("# pinchflow-snapshot v%d topology=%s nu=%d nv=%d t=%s\n"
                 % (SNAPSHOT_VERSION, surface.topology, surface.nu, surface.nv,
                    repr(float(t))))
        points = surface.samples.reshape(len(surface.samples), -1).T.tolist()
        for p, coords in enumerate(points):   # (i, j) in row-major order
            fh.write("%d %d %s\n" % (*divmod(p, surface.nv), " ".join(map(repr, coords))))


def read_snapshot(path) -> GridSurface:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# pinchflow-snapshot v"):
            raise BadParams("not a snapshot file: %r" % header)
        keys = dict(part.split("=", 1) for part in header.split()[3:])
        nu, nv = int(keys["nu"]), int(keys["nv"])
        rows = []
        for line in fh:
            parts = line.split()
            rows.append((int(parts[0]), int(parts[1]),
                         [float(x) for x in parts[2:]]))
    dim = len(rows[0][2])
    samples = np.zeros((dim, nu, nv))
    for i, j, coords in rows:
        samples[:, i, j] = coords
    return GridSurface(keys["topology"], nu, nv, samples, {})
