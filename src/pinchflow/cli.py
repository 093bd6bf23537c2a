"""Command-line entry point.

Subcommands:
    verify      randomized property suites for the frame/identity layers
    canonical   reference-vs-computed invariants of a catalog surface
    sweep       reaction-negativity sweep, emits a SweepReport JSON
    flow        evolve a surface, emits monitor CSV + snapshots + summary
    report      human-readable digest of artifacts in an output directory

Exit codes: 0 all checks passed, 1 check failure, 2 configuration error,
3 numerical abort.  All artifacts embed the fully-resolved configuration;
reruns with identical config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import numpy as np

from . import canonical as canonical_mod
from . import flow as flow_mod
from .errors import (BadDims, BadParams, EmptyFeasibleSet, PinchflowError)
# specialize is no longer called here (kperp_checks returns its frame), but
# perfbench/tracing.py wraps it under this module's name
from .frames import reconstruct, specialize  # noqa: F401
from .identities import (kperp_checks, kperp_scalar, norms_batch, r1_batch,
                         rm_perp_squared, z_brute_batch)
from .pinching import (ConeParams, SweepGrid, discriminant_report,
                       reaction_sweep, thread_count)
from .tensor_kernel import point_geometry


def _emit(payload: dict, path: str) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# verify

def _random_h(rng, trials):
    h = rng.standard_normal((trials, 2, 2, 2))
    return 0.5 * (h + np.swapaxes(h, 1, 2))


def _traceless(h):
    mean = np.einsum("...iia->...a", h)
    out = h.copy()
    for i in range(2):
        out[:, i, i, :] -= mean / 2.0
    return out


def cmd_verify(args) -> int:
    trials = args.trials
    if trials < 1:
        raise BadParams("--trials must be at least 1")
    rng = np.random.default_rng(args.seed)
    tol = args.tol
    h = _random_h(rng, trials)

    zb = z_brute_batch(h)
    normA2, normH2, traceless2 = norms_batch(h)
    kp = kperp_scalar(h)
    zc = (normH2 - normA2) * traceless2 - 2.0 * kp * kp
    z_resid = float((np.abs(zb - zc) / (1.0 + np.abs(zb))).max())

    rm2 = rm_perp_squared(h)
    rm_resid = float((np.abs(rm2 - 4.0 * kp * kp) / (1.0 + rm2)).max())

    ht = _traceless(h)
    li_min = float((1.5 * norms_batch(ht)[2] ** 2 - r1_batch(ht)).min())

    chk = kperp_checks(h, kbar=1.0)
    scale = 1.0 + np.abs(chk.reaction_brute)
    brute_closed_resid = float(
        (np.abs(chk.reaction_brute - chk.reaction_closed) / scale).max())
    gap = chk.reaction_brute - chk.reaction_printed
    printed_gap = float(np.abs(gap).max())
    fr = chk.frame
    gap_identity_resid = float((np.abs(gap - 2.0 * kp * fr.b ** 2) / scale).max())
    kp_abs_resid = float(np.abs(np.abs(kp) - 2.0 * fr.a * np.abs(fr.c)).max())
    roundtrip_resid = float(np.abs(reconstruct(fr) - h).max())

    checks = [
        {"name": "z_brute_vs_closed", "max_residual": z_resid, "tolerance": tol},
        {"name": "rm_perp_eq_4kperp2", "max_residual": rm_resid, "tolerance": tol},
        {"name": "abs_kperp_eq_2a_abs_c", "max_residual": kp_abs_resid, "tolerance": tol},
        {"name": "frame_roundtrip", "max_residual": roundtrip_resid, "tolerance": 1e-9},
        {"name": "li_li_nonneg", "max_residual": max(0.0, -li_min), "tolerance": 1e-12},
        {"name": "kperp_brute_vs_invariant_closed",
         "max_residual": brute_closed_resid, "tolerance": tol},
        {"name": "kperp_printed_gap_is_2Kb2",
         "max_residual": gap_identity_resid, "tolerance": tol},
    ]
    for c in checks:
        c["pass"] = bool(c["max_residual"] <= c["tolerance"])
    all_pass = all(c["pass"] for c in checks)
    payload = {
        "command": "verify",
        "config": {"trials": trials, "seed": args.seed, "tol": tol,
                   "output_dir": args.output_dir},
        "checks": checks,
        "all_pass": all_pass,
        "info": {
            "kperp_printed_closed_max_gap": printed_gap,
            "note": ("the frame-invariant closed form matches the brute "
                     "normal-curvature reaction; the catalogued printed form "
                     "differs from it by exactly 2*Kperp*b^2, which the gap "
                     "identity above pins"),
        },
    }
    print(_emit(payload, os.path.join(args.output_dir, "verify.json")))
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# canonical

def _surface_params(args) -> dict:
    params = {}
    for key in ("rho", "r1", "r2"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return params


def cmd_canonical(args) -> int:
    surf = canonical_mod.make_surface(args.surface, **_surface_params(args))
    jet = surf.jet_at(0.9, 1.3)
    geom = point_geometry(jet, kbar=1.0)
    computed = {
        "normA2": float(geom.normA2),
        "normH2": float(geom.normH2),
        "normTracelessA2": float(geom.normTracelessA2),
        "kperp_abs": abs(float(geom.kperp)) if geom.kperp is not None else None,
        "gauss": float(geom.gauss),
    }
    rows = []
    ok = True
    for key, ref in surf.reference.items():
        if key == "minimal" or computed.get(key) is None:
            continue
        diff = abs(computed[key] - ref)
        state = diff <= args.tol
        ok = ok and state
        rows.append({"quantity": key, "computed": computed[key],
                     "reference": ref, "abs_diff": diff, "pass": bool(state)})
        print("%-18s computed %.9f  reference %.9f  |diff| %.3e  %s"
              % (key, computed[key], ref, diff, "ok" if state else "FAIL"))
    payload = {
        "command": "canonical",
        "config": {"surface": surf.kind, "params": surf.params, "tol": args.tol,
                   "output_dir": args.output_dir, "seed": args.seed},
        "rows": rows,
        "all_pass": bool(ok),
    }
    _emit(payload, os.path.join(args.output_dir, "canonical_%s.json" % surf.kind))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sweep

def _cone_from_args(args) -> ConeParams:
    return ConeParams(
        variant=args.variant,
        n=args.n,
        alpha=args.alpha,
        beta=args.beta,
        k=args.k,
        gamma=args.gamma,
        epsilon=args.epsilon,
        delta=args.delta,
    )


def cmd_sweep(args) -> int:
    params = _cone_from_args(args)
    grid = SweepGrid(resolution=args.resolution,
                     refine_rounds=args.refine_rounds,
                     chunk=args.chunk,
                     stratum=args.stratum,
                     bisect=not args.no_bisect)
    report = reaction_sweep(params, grid)
    payload = {
        "command": "sweep",
        "config": {
            "variant": params.variant, "n": params.n, "alpha": params.alpha,
            "beta": params.beta, "k": params.k, "gamma": params.gamma,
            "epsilon": params.epsilon, "delta": params.delta,
            "resolution": grid.resolution, "refine_rounds": grid.refine_rounds,
            "chunk": grid.chunk, "stratum": grid.stratum,
            "bisect": not args.no_bisect, "seed": args.seed,
            "threads": thread_count(), "output_dir": args.output_dir,
        },
        "report": report.to_dict(),
    }
    if args.discriminant and params.variant == "thm1":
        payload["discriminant"] = discriminant_report(params.n, params.alpha,
                                                      params.beta)
    name = "sweep_%s_%s.json" % (params.variant, grid.stratum)
    print(_emit(payload, os.path.join(args.output_dir, name)))
    return 0


# ---------------------------------------------------------------------------
# flow

def cmd_flow(args) -> int:
    surf = canonical_mod.make_surface(args.surface, **_surface_params(args))
    if args.amplitude != 0.0:
        grid = canonical_mod.perturb(surf, (args.mu, args.mv), args.amplitude,
                                     args.nu, args.nv, args.direction)
    else:
        grid = canonical_mod.sample_grid(surf, args.nu, args.nv)

    cone = None
    if args.cone is not None:
        cone = ConeParams(variant=args.cone, n=2, alpha=args.alpha,
                          beta=args.beta, k=args.k, gamma=args.gamma,
                          epsilon=args.epsilon, delta=args.delta)
    cfg = flow_mod.FlowConfig(
        scheme=args.scheme, cfl=args.cfl, t_max=args.t_max,
        blowup_ceiling=args.ceiling, stride=args.stride,
        flat_threshold=args.flat_threshold, flat_window=args.flat_window,
        kbar=args.kbar, cone=cone, sigma=args.sigma,
        harnack_csharp=args.harnack_csharp, harnack_delta0=args.harnack_delta0,
    )
    flow_mod.write_snapshot(grid, os.path.join(args.output_dir,
                                               args.prefix + "snapshot_initial.txt"), 0.0)
    result = flow_mod.run(grid, cfg)
    flow_mod.write_monitor_csv(result.records,
                               os.path.join(args.output_dir, args.prefix + "monitor.csv"))
    flow_mod.write_snapshot(result.final_state.surface,
                            os.path.join(args.output_dir,
                                         args.prefix + "snapshot_final.txt"),
                            result.final_state.t)
    payload = {
        "command": "flow",
        "config": {
            "surface": surf.kind, "params": surf.params, "nu": args.nu,
            "nv": args.nv, "amplitude": args.amplitude, "mode": [args.mu, args.mv],
            "direction": args.direction, "scheme": args.scheme, "cfl": args.cfl,
            "t_max": args.t_max, "ceiling": args.ceiling, "stride": args.stride,
            "flat_threshold": args.flat_threshold, "flat_window": args.flat_window,
            "kbar": args.kbar, "sigma": args.sigma,
            "cone": cone.describe() if cone is not None else None,
            "harnack_csharp": args.harnack_csharp,
            "harnack_delta0": args.harnack_delta0,
            "seed": args.seed, "output_dir": args.output_dir, "prefix": args.prefix,
        },
        "outcome": result.outcome,
        "final_t": result.final_state.t,
        "steps": result.final_state.step_index,
        "extinction_time": result.extinction_time,
        "records": len(result.records),
        "radius_trajectory": [[t, r] for t, r in result.radius_trajectory],
        "notes": result.notes,
    }
    print(_emit(payload, os.path.join(args.output_dir, args.prefix + "flow.json")))
    return 0


# ---------------------------------------------------------------------------
# report

def cmd_report(args) -> int:
    lines = []
    ok = True
    for path in sorted(glob.glob(os.path.join(args.output_dir, "*.json"))):
        base = os.path.basename(path)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError
            lines.append("%s: unreadable (%s)" % (base, exc))
            ok = False
            continue
        cmd = data.get("command")
        if cmd == "verify":
            ok = ok and data.get("all_pass", False)
            worst = max(data.get("checks", []),
                        key=lambda c: c["max_residual"] / max(c["tolerance"], 1e-300),
                        default=None)
            lines.append("%s: all_pass=%s (worst check: %s, residual %.3e)"
                         % (base, data.get("all_pass"),
                            worst["name"] if worst else "-",
                            worst["max_residual"] if worst else 0.0))
        elif cmd == "canonical":
            ok = ok and data.get("all_pass", False)
            lines.append("%s: surface %s, all_pass=%s"
                         % (base, data["config"].get("surface"), data.get("all_pass")))
        elif cmd == "sweep":
            rep = data.get("report", {})
            lines.append("%s: %s sup=%.6e critical=%s samples=%d"
                         % (base, rep.get("variant"), rep.get("sup_value", float("nan")),
                            rep.get("critical_constant"), rep.get("samples", 0)))
            for note in rep.get("notes", []):
                lines.append("    note: %s" % note)
        elif cmd == "flow":
            lines.append("%s: outcome=%s final_t=%.6f extinction=%s"
                         % (base, data.get("outcome"), data.get("final_t", 0.0),
                            data.get("extinction_time")))
    if not lines:
        lines.append("no artifacts found in %s" % args.output_dir)
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(args.output_dir, "report.txt"), "w") as fh:
        fh.write(text + "\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser plumbing

def _add_common(p):
    p.add_argument("--output-dir", default=".", help="artifact directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None,
                   help="JSON file of option defaults (flags still win)")


def _add_cone_flags(p):
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.0)


def build_parser():
    parser = argparse.ArgumentParser(prog="pinchflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    table = {}

    p = sub.add_parser("verify", help="randomized identity/frame suites")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    table["verify"] = p

    p = sub.add_parser("canonical", help="reference invariants of a surface")
    p.add_argument("--surface", required=True,
                   choices=["geodesic-sphere", "clifford", "flat-torus", "veronese"])
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--r2", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)
    p.set_defaults(func=cmd_canonical)
    table["canonical"] = p

    p = sub.add_parser("sweep", help="reaction negativity sweep")
    p.add_argument("--variant", required=True, choices=["thm1", "thm2"])
    _add_cone_flags(p)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--refine-rounds", type=int, default=3)
    p.add_argument("--chunk", type=int, default=131072)
    p.add_argument("--stratum", choices=["full", "hzero"], default="full")
    p.add_argument("--no-bisect", action="store_true")
    p.add_argument("--discriminant", action="store_true",
                   help="append the discriminant record (thm1)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)
    table["sweep"] = p

    p = sub.add_parser("flow", help="evolve a surface by mean curvature flow")
    p.add_argument("--surface", required=True,
                   choices=["geodesic-sphere", "clifford", "flat-torus", "veronese"])
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--r2", type=float, default=None)
    p.add_argument("--nu", type=int, default=64)
    p.add_argument("--nv", type=int, default=64)
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--mu", type=int, default=2)
    p.add_argument("--mv", type=int, default=2)
    p.add_argument("--direction", type=int, default=0)
    p.add_argument("--scheme", choices=["euler", "rk2"], default="euler")
    p.add_argument("--cfl", type=float, default=0.2)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--ceiling", type=float, default=1e6)
    p.add_argument("--stride", type=int, default=25)
    p.add_argument("--flat-threshold", type=float, default=1e-4)
    p.add_argument("--flat-window", type=int, default=50)
    p.add_argument("--kbar", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--cone", choices=["thm1", "thm2"], default=None)
    _add_cone_flags(p)
    p.add_argument("--harnack-csharp", type=float, default=None)
    p.add_argument("--harnack-delta0", type=float, default=None)
    p.add_argument("--prefix", default="")
    _add_common(p)
    p.set_defaults(func=cmd_flow)
    table["flow"] = p

    p = sub.add_parser("report", help="digest artifacts in an output directory")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    table["report"] = p

    return parser, table


def _apply_config_file(parser, table, argv):
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("command", nargs="?")
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    if known.command not in table:
        raise BadParams("config file given without a valid subcommand")
    with open(known.config) as fh:
        cfg = json.load(fh)
    sub = table[known.command]
    valid = {a.dest for a in sub._actions}
    unknown = sorted(set(cfg) - valid)
    if unknown:
        raise BadParams("unknown config keys: %s" % ", ".join(unknown))
    sub.set_defaults(**cfg)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, table = build_parser()
    try:
        _apply_config_file(parser, table, argv)
        args = parser.parse_args(argv)
        os.makedirs(args.output_dir, exist_ok=True)
        return args.func(args)
    except (BadParams, BadDims, EmptyFeasibleSet) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except PinchflowError as exc:
        print("numerical abort: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
