"""Mean curvature flow of gridded surfaces in the unit sphere.

Explicit time stepping of dF/dt = H_S (the mean curvature vector within the
sphere) with parabolic CFL control, per-stage renormalization onto the
sphere, and a monitor pipeline recording every trackable curvature quantity.
Latitude-longitude sphere grids get two stabilizers: pole rows are refreshed
from the adjacent latitude after each stage, and a zonal low-pass filter
removes longitudinal modes finer than the local physical resolution (the
usual cure for the pole clustering of such grids).

The time stepper uses a lean velocity evaluation (projection of the
chart-trace of the second derivatives onto the normal space), which needs no
normal frames; full frame-based geometry is computed only at monitor strides.
Stepping works on component-major arrays, (ambient_dim, nu, nv), so its dot
products and FFTs run over whole grid planes; the surfaces it returns keep
the (nu, nv, ambient_dim) layout of GridSurface.  Monitors take the same
component-major jets: batch_geometry and gradient_margins compute over whole
grid planes too, and read the point-major views they are handed without a
copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadParams, BlowupDetected, DegenerateJet, Extinct,
                     InsufficientStencil, OffSphere)
from .grids import GridSurface, batch_jets
from .identities import CurvatureField, gradient_margins
from .pinching import ConeParams, harnack_bound, q_from_invariants
from .tensor_kernel import batch_geometry

SNAPSHOT_VERSION = 1
CSV_HEADER = ("t,area,h_min,h_max,a2_max,q_min,q_max,ratio_max,grad_ratio,"
              "kperp_min,kperp_max,harnack_violations")
H_THRESHOLD = 1e-3          # |H| cutoff for ratio_max
MAX_STEPS = 2_000_000       # step budget of run
FILTER_FRACTION = 0.75      # resolvable share of the zonal band (_zonal_filter)
SHRINK_AREA_FRAC = 0.05     # Shrinking: final area below this share of the initial
SHRINK_RATIO_TOL = 0.1      # Shrinking: |A|^2/|H|^2 within this of 1/2
RADIUS_AXIS = 3             # ambient axis of a geodesic sphere's radius trajectory


@dataclass
class FlowState:
    t: float
    step_index: int
    surface: GridSurface
    dt_last: float


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
        vals = [self.t, self.area, self.h_min, self.h_max, self.a2_max,
                self.q_min, self.q_max, self.ratio_max, self.grad_ratio,
                self.kperp_min, self.kperp_max]
        return ",".join(repr(float(v)) for v in vals) + "," + str(int(self.harnack_violations))


@dataclass
class FlowConfig:
    scheme: str = "euler"            # "euler" | "rk2"
    cfl: float = 0.2
    t_max: float = 1.0
    blowup_ceiling: float = 1e6
    flat_threshold: float = 1e-4
    flat_window: int = 50            # consecutive monitor records below threshold
    stride: int = 25                 # steps between monitor records
    sigma: float = 0.5               # grad_ratio exponent: |grad A|^2 / g^(2 - sigma)
    kbar: float = 1.0
    cone: ConeParams | None = None
    harnack_csharp: float | None = None
    harnack_delta0: float | None = None

    def __post_init__(self):
        if self.scheme not in ("euler", "rk2"):
            raise BadParams("scheme must be euler or rk2")
        if self.cfl <= 0 or self.t_max <= 0:
            raise BadParams("cfl and t_max must be positive")
        if self.stride < 1 or self.flat_window < 1:
            raise BadParams("stride and flat_window must be at least 1")
        if (self.harnack_csharp is None) != (self.harnack_delta0 is None):
            raise BadParams("harnack audit needs both csharp and delta0")


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
    """(H_S vector, |A|^2) without constructing normal frames.

    Takes and returns component-major jets (batch_jets(...,
    components_first=True)): pos (d, ...), first (2, d, ...), second
    (2, 2, d, ...), velocity (d, ...).  H_S is the orthogonal projection of
    g^{ab} d2F_ab onto the complement of span{F, dF}; |A|^2 contracts the
    normal-projected second derivatives.
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
    return vel, a2


def mcf_velocity(surface: GridSurface) -> np.ndarray:
    """Mean curvature vector field within the sphere, zero on pole rows."""
    vel, _ = _lean_velocity(*batch_jets(surface, components_first=True))
    out = np.zeros_like(surface.samples)
    out[surface.valid_rows] = np.moveaxis(vel, 0, -1)
    return out


# ---------------------------------------------------------------------------
# stepping (component-major samples: (ambient_dim, nu, nv))

def _unit(samples: np.ndarray) -> np.ndarray:
    return samples / np.sqrt((samples * samples).sum(axis=0))


def _refresh_poles(samples: np.ndarray) -> None:
    for row, src in ((0, 1), (-1, -2)):
        mean = samples[:, src].mean(axis=-1)
        mean /= np.linalg.norm(mean)
        samples[:, row] = mean[:, None]


def _zonal_filter(samples: np.ndarray, u_values: np.ndarray, frac: float) -> np.ndarray:
    """Zero longitudinal Fourier modes beyond the local resolvable band.

    Row i keeps modes m <= max(1, floor(frac * (nv/2) * sin u_i)): the mode
    count a latitude circle of radius sin(u) can support shrinks toward the
    poles, and unfiltered grids go unstable there long before the interior.
    """
    nv = samples.shape[-1]
    spec = np.fft.rfft(samples, axis=-1)
    mmax = np.floor(frac * (nv / 2.0) * np.abs(np.sin(u_values))).astype(int)
    mmax = np.maximum(mmax, 1)
    modes = np.arange(spec.shape[-1])
    mask = modes[None, :] <= mmax[:, None]
    return np.fft.irfft(spec * mask, n=nv, axis=-1)


def _advance(surface: GridSurface, vel_valid: np.ndarray, dt: float) -> GridSurface:
    """Move the valid rows by dt * vel_valid (d, r, nv) and restabilize."""
    samples = np.moveaxis(surface.samples, -1, 0).copy()
    samples[:, surface.valid_rows] += dt * vel_valid
    if surface.topology == "sphere":
        _refresh_poles(samples)
        samples = _zonal_filter(_unit(samples), surface.u_values, FILTER_FRACTION)
    samples = _unit(samples)
    return surface.copy_with(np.ascontiguousarray(np.moveaxis(samples, 0, -1)))


def step(state: FlowState, scheme: str = "euler", cfl: float = 0.2,
         ceiling: float = 1e6) -> FlowState:
    """One explicit step with dt = cfl * (min spacing)^2 / max(1, a2_max)."""
    surf = state.surface
    vel, a2 = _lean_velocity(*batch_jets(surf, components_first=True))
    a2max = float(a2.max())
    if not math.isfinite(a2max) or a2max > ceiling:
        raise BlowupDetected("a2_max = %.6e beyond ceiling %.3e at t = %.8f"
                             % (a2max, ceiling, state.t))
    dt = cfl * min(surf.du, surf.dv) ** 2 / max(1.0, a2max)
    if scheme == "euler":
        new = _advance(surf, vel, dt)
    elif scheme == "rk2":
        mid = _advance(surf, vel, 0.5 * dt)
        vel2, a2b = _lean_velocity(*batch_jets(mid, components_first=True))
        if float(a2b.max()) > ceiling:
            raise BlowupDetected("a2_max exceeded ceiling at the RK2 midpoint")
        new = _advance(surf, vel2, dt)
    else:
        raise BadParams("scheme must be euler or rk2")
    return FlowState(t=state.t + dt, step_index=state.step_index + 1,
                     surface=new, dt_last=dt)


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
    if out.ndim == 0:
        return float(out)
    return out


def sphere_extinction_time(rho0: float, n: int) -> float:
    if not (0.0 < rho0 < math.pi):
        raise BadParams("need rho0 in (0, pi)")
    c = abs(math.cos(rho0))
    if c == 0.0:
        return math.inf
    return -math.log(c) / n


# ---------------------------------------------------------------------------
# monitors

def _grad_ratio(geom, surface, cfg):
    wrap_u = surface.topology == "torus"
    fld = CurvatureField.from_batch(geom, surface.du, surface.dv, wrap_u, True)
    try:
        margins = gradient_margins(fld)
    except (InsufficientStencil, np.linalg.LinAlgError):
        return float("nan")
    n = geom.n
    g = geom.normH2 / (n - 1.0) - geom.normA2 + 2.0 * cfg.kbar
    if not wrap_u:
        g = g[1:-1]
    pos = g > 0
    if not pos.any():
        return float("nan")
    return float((margins.grad_a2[pos] / g[pos] ** (2.0 - cfg.sigma)).max())


def _harnack_violations(pos, habs, cfg, t):
    """Count grid points where measured |H| undercuts the path lower bound.

    Distances are lengths of grid-line paths (down the column to the target
    row, then around the row), an upper bound for the intrinsic distance, so
    the path-form lower bound applies and flagged violations are sound.
    """
    i0, j0 = np.unravel_index(int(np.argmax(habs)), habs.shape)
    h0 = float(habs[i0, j0])
    if h0 <= 0:
        return 0
    col = pos[:, j0]
    seg_u = np.linalg.norm(np.diff(col, axis=0), axis=-1)
    dcol = np.zeros(pos.shape[0])
    if i0 + 1 < pos.shape[0]:
        dcol[i0 + 1:] = np.cumsum(seg_u[i0:])
    if i0 > 0:
        dcol[:i0] = np.cumsum(seg_u[:i0][::-1])[::-1]
    segs = np.linalg.norm(np.roll(pos, -1, axis=1) - pos, axis=-1)
    s = np.roll(segs, -j0, axis=1)
    fw = np.concatenate([np.zeros((pos.shape[0], 1)), np.cumsum(s[:, :-1], axis=1)], axis=1)
    total = s.sum(axis=1, keepdims=True)
    drow = np.roll(np.minimum(fw, total - fw), j0, axis=1)
    d = dcol[:, None] + drow
    bound = harnack_bound(h0, cfg.harnack_csharp, t, cfg.harnack_delta0, d)
    return int(np.sum(habs < (1.0 - 1e-9) * bound - 1e-12))


def monitor(surface: GridSurface, cfg: FlowConfig, t: float) -> MonitorRecord:
    # point-major views of the component-major jets: batch_geometry reads
    # them back component-major, so neither direction copies
    pos, first, second = batch_jets(surface, components_first=True)
    pos = np.moveaxis(pos, 0, -1)
    geom = batch_geometry(pos, np.moveaxis(first, (0, 1), (-2, -1)),
                          np.moveaxis(second, (0, 1, 2), (-3, -2, -1)), kbar=cfg.kbar)
    det = (geom.metric[..., 0, 0] * geom.metric[..., 1, 1]
           - geom.metric[..., 0, 1] ** 2)
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
        violations = _harnack_violations(pos, habs, cfg, t)

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

def _mean_radius(surface: GridSurface, axis: int) -> float:
    dots = surface.samples[surface.valid_rows, :, axis]
    return float(np.mean(np.arccos(np.clip(dots, -1.0, 1.0))))


def _extinction_estimate(records) -> float | None:
    if len(records) < 2:
        return None
    a, b = records[-2], records[-1]
    if not (b.area < a.area and b.t > a.t and b.area > 0):
        return None
    return b.t + b.area * (b.t - a.t) / (a.area - b.area)


def run(surface: GridSurface, config: FlowConfig | None = None) -> FlowResult:
    """Evolve until t_max, a sustained-flat window, or the blowup ceiling.

    Outcomes: Shrinking (ceiling hit with area collapsed and |A|^2/|H|^2
    near 1/n), NumericalBlowup (ceiling hit without the shrinking
    signature), ApproachTotallyGeodesic (a2_max below flat_threshold for
    flat_window consecutive records), Inconclusive (t_max or step budget).

    Pure computation: no files are written; see write_monitor_csv and
    write_snapshot for the artifact formats.
    """
    cfg = config or FlowConfig()
    axis = RADIUS_AXIS if surface.meta.get("kind") == "geodesic-sphere" else None

    state = FlowState(t=0.0, step_index=0, surface=surface, dt_last=0.0)
    records = [monitor(surface, cfg, 0.0)]
    radius = [] if axis is None else [(0.0, _mean_radius(surface, axis))]
    notes = []
    initial_area = records[0].area
    flat_count = 1 if records[0].a2_max < cfg.flat_threshold else 0
    outcome = None
    aborted = False

    while True:
        if state.t >= cfg.t_max:
            outcome = "Inconclusive"
            break
        if state.step_index >= MAX_STEPS:
            outcome = "Inconclusive"
            notes.append("step budget exhausted at t = %.6f" % state.t)
            break
        try:
            state = step(state, scheme=cfg.scheme, cfl=cfg.cfl,
                         ceiling=cfg.blowup_ceiling)
        except BlowupDetected as exc:
            notes.append(str(exc))
            aborted = True
            break
        except (DegenerateJet, OffSphere) as exc:
            notes.append("geometry degenerated mid-run: %s" % exc)
            aborted = True
            break
        if state.step_index % cfg.stride == 0:
            rec = monitor(state.surface, cfg, state.t)
            records.append(rec)
            if axis is not None:
                radius.append((state.t, _mean_radius(state.surface, axis)))
            flat_count = flat_count + 1 if rec.a2_max < cfg.flat_threshold else 0
            if flat_count >= cfg.flat_window:
                outcome = "ApproachTotallyGeodesic"
                break

    if aborted:
        try:
            rec = monitor(state.surface, cfg, state.t)
            records.append(rec)
            if axis is not None:
                radius.append((state.t, _mean_radius(state.surface, axis)))
        except (DegenerateJet, OffSphere) as exc:
            notes.append("final monitor unavailable (%s); classifying from last record"
                         % exc)
        last = records[-1]
        shrunk = (last.area < SHRINK_AREA_FRAC * initial_area
                  and math.isfinite(last.ratio_max)
                  and abs(last.ratio_max - 1.0 / 2.0) < SHRINK_RATIO_TOL)
        outcome = "Shrinking" if shrunk else "NumericalBlowup"

    extinction = _extinction_estimate(records) if outcome == "Shrinking" else None
    return FlowResult(
        outcome=outcome,
        records=records,
        final_state=state,
        extinction_time=extinction,
        radius_trajectory=radius,
        notes=notes,
        config=cfg,
    )


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
        for i in range(surface.nu):
            for j in range(surface.nv):
                coords = " ".join(repr(float(x)) for x in surface.samples[i, j])
                fh.write("%d %d %s\n" % (i, j, coords))


def read_snapshot(path) -> GridSurface:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# pinchflow-snapshot v"):
            raise BadParams("not a snapshot file: %r" % header)
        fields = dict(part.split("=", 1) for part in header.split()[3:])
        nu, nv = int(fields["nu"]), int(fields["nv"])
        rows = []
        for line in fh:
            parts = line.split()
            rows.append((int(parts[0]), int(parts[1]),
                         [float(x) for x in parts[2:]]))
    dim = len(rows[0][2])
    samples = np.zeros((nu, nv, dim))
    for i, j, coords in rows:
        samples[i, j] = coords
    return GridSurface(fields["topology"], nu, nv, samples, {})
