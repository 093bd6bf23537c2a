"""Command-line entry point.

Subcommands:
    verify      randomized property suites for the frame/identity layers
    canonical   reference-vs-computed invariants of a catalog surface
    sweep       reaction-negativity sweep, emits a SweepReport JSON
    flow        evolve a surface, emits monitor CSV + snapshots + summary
    report      human-readable digest of artifacts in an output directory

Exit codes: 0 all checks passed, 1 check failure, 2 configuration error,
3 numerical abort.  All artifacts embed the fully-resolved configuration,
which includes verify's --seed; reruns with an identical configuration are
byte-identical.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import canonical as canonical_mod
from . import flow as flow_mod
from .errors import (BadDims, BadParams, EmptyFeasibleSet, PinchflowError)
# specialize, r1_batch, norms_batch and kperp_scalar are not called here
# (kperp_checks returns the frame, the Li-Li margin, the norms and Kperp);
# perfbench/tracing.py wraps them under this module
from .frames import reconstruct, specialize  # noqa: F401
from .identities import kperp_scalar, norms_batch, r1_batch  # noqa: F401
from .identities import kperp_checks, rm_perp_squared, z_brute_batch
from .pinching import ConeParams, SweepGrid, discriminant_report, reaction_sweep
from .tensor_kernel import point_geometry


# the cone constants that sweep and flow take as flags, each defaulting to ConeParams'
CONE_FLAGS = ("alpha", "beta", "k", "gamma", "epsilon", "delta")


def _emit(payload: dict, path: str) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# verify

def _random_h(rng, trials):
    """trials symmetric forms, drawn row by row and laid out as (2, 2, 2, trials)."""
    h = rng.standard_normal((trials, 2, 2, 2))
    return np.ascontiguousarray(np.moveaxis(0.5 * (h + np.swapaxes(h, 1, 2)), 0, -1))


def _tolerance(args) -> float:
    """args.tol, which must be finite and positive: at inf every check
    passes, and at NaN or below zero every check fails."""
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise BadParams("--tol must be finite and positive, got %r" % args.tol)
    return args.tol


def cmd_verify(args) -> int:
    trials = args.trials
    if trials < 1:
        raise BadParams("--trials must be at least 1")
    if args.seed < 0:
        raise BadParams("--seed must be non-negative")
    tol = _tolerance(args)
    rng = np.random.default_rng(args.seed)
    h = _random_h(rng, trials)

    rm2 = rm_perp_squared(h)
    zb = z_brute_batch(h, rm2)
    chk = kperp_checks(h, kbar=1.0)
    normA2, normH2, traceless2 = chk.norms
    kp = chk.kperp
    zc = (normH2 - normA2) * traceless2 - 2.0 * kp * kp
    z_resid = float((np.abs(zb - zc) / (1.0 + np.abs(zb))).max())
    rm_resid = float((np.abs(rm2 - 4.0 * kp * kp) / (1.0 + rm2)).max())

    li_min = float(chk.li_li_margin.min())
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
    return {key: getattr(args, key) for key in ("rho", "r1", "r2")
            if getattr(args, key, None) is not None}


def cmd_canonical(args) -> int:
    tol = _tolerance(args)
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
        state = diff <= tol
        ok = ok and state
        rows.append({"quantity": key, "computed": computed[key],
                     "reference": ref, "abs_diff": diff, "pass": bool(state)})
        print("%-18s computed %.9f  reference %.9f  |diff| %.3e  %s"
              % (key, computed[key], ref, diff, "ok" if state else "FAIL"))
    payload = {
        "command": "canonical",
        "config": {"surface": surf.kind, "params": surf.params, "tol": tol,
                   "output_dir": args.output_dir},
        "rows": rows,
        "all_pass": bool(ok),
    }
    _emit(payload, os.path.join(args.output_dir, "canonical_%s.json" % surf.kind))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sweep

def _cone_from_args(args, variant: str, n: int) -> ConeParams:
    return ConeParams(variant=variant, n=n, **{key: getattr(args, key) for key in CONE_FLAGS})


def cmd_sweep(args) -> int:
    params = _cone_from_args(args, args.variant, args.n)
    if args.discriminant and params.variant != "thm1":
        raise BadParams("--discriminant is a thm1 record")
    grid = SweepGrid(resolution=args.resolution,
                     refine_rounds=args.refine_rounds,
                     chunk=args.chunk,
                     stratum=args.stratum,
                     bisect=not args.no_bisect)
    report = reaction_sweep(params, grid)
    config = {**asdict(params), **asdict(grid), "output_dir": args.output_dir}
    del config["kbar"]  # a slice coordinate of the sweep, not a setting
    payload = {"command": "sweep", "config": config, "report": asdict(report)}
    if args.discriminant:
        payload["discriminant"] = discriminant_report(params.n, params.alpha,
                                                      params.beta)
    name = "sweep_%s_%s.json" % (params.variant, grid.stratum)
    print(_emit(payload, os.path.join(args.output_dir, name)))
    return 0


# ---------------------------------------------------------------------------
# flow

def cmd_flow(args) -> int:
    surf = canonical_mod.make_surface(args.surface, **_surface_params(args))
    grid = canonical_mod.perturb(surf, (args.mu, args.mv), args.amplitude,
                                 args.nu, args.nv, args.direction)
    settings = {f.name: getattr(args, f.name) for f in fields(flow_mod.FlowConfig)}
    if args.cone is not None:
        # flow cones are surface cones
        settings["cone"] = _cone_from_args(args, args.cone, 2)
    elif any(getattr(args, key) != getattr(ConeParams, key) for key in CONE_FLAGS):
        raise BadParams("cone constants given without --cone")
    cfg = flow_mod.FlowConfig(**settings)
    prefix = os.path.join(args.output_dir, args.prefix)
    flow_mod.write_snapshot(grid, prefix + "snapshot_initial.txt", 0.0)
    result = flow_mod.run(grid, cfg)
    flow_mod.write_monitor_csv(result.records, prefix + "monitor.csv")
    flow_mod.write_snapshot(result.final_state.surface, prefix + "snapshot_final.txt",
                            result.final_state.t)
    payload = {
        "command": "flow",
        "config": {
            **asdict(cfg), "surface": surf.kind, "params": surf.params, "nu": args.nu,
            "nv": args.nv, "amplitude": args.amplitude, "mode": [args.mu, args.mv],
            "direction": args.direction, "output_dir": args.output_dir, "prefix": args.prefix,
        },
        "outcome": result.outcome,
        "final_t": result.final_state.t,
        "steps": result.final_state.step_index,
        "evaluations": result.final_state.evaluations,
        "extinction_time": result.extinction_time,
        "records": len(result.records),
        "radius_trajectory": [[t, r] for t, r in result.radius_trajectory],
        "notes": result.notes,
    }
    print(_emit(payload, prefix + "flow.json"))
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
    p.add_argument("--config", default=None,
                   help="JSON file of option defaults (flags still win)")


def _add_cone_flags(p):
    for key in CONE_FLAGS:
        p.add_argument("--" + key, type=float, default=getattr(ConeParams, key))


def build_parser():
    parser = argparse.ArgumentParser(prog="pinchflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    table = {}

    p = sub.add_parser("verify", help="randomized identity/frame suites")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--n", type=int, default=ConeParams.n)
    _add_cone_flags(p)
    p.add_argument("--resolution", type=int, default=SweepGrid.resolution)
    p.add_argument("--refine-rounds", type=int, default=SweepGrid.refine_rounds)
    p.add_argument("--chunk", type=int, default=SweepGrid.chunk)
    p.add_argument("--stratum", choices=["full", "hzero"], default=SweepGrid.stratum)
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
    # each FlowConfig setting is the flag of its name, with its default
    flow_cfg = flow_mod.FlowConfig
    p.add_argument("--scheme", choices=flow_mod.SCHEMES, default=flow_cfg.scheme)
    for key in ("cfl", "t_max", "ceiling", "flat_threshold", "kbar", "sigma",
                "harnack_csharp", "harnack_delta0"):
        p.add_argument("--" + key.replace("_", "-"), type=float, default=getattr(flow_cfg, key))
    p.add_argument("--stride", type=int, default=flow_cfg.stride,
                   help="velocity evaluations between monitor records")
    p.add_argument("--cone", choices=["thm1", "thm2"], default=None)
    _add_cone_flags(p)
    p.add_argument("--prefix", default="")
    _add_common(p)
    p.set_defaults(func=cmd_flow)
    table["flow"] = p

    p = sub.add_parser("report", help="digest artifacts in an output directory")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    table["report"] = p

    return parser, table


def _apply_config_file(table, argv):
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("command", nargs="?")
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return
    if known.command not in table:
        raise BadParams("config file given without a valid subcommand")
    try:
        with open(known.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise BadParams("cannot read config file %s: %s" % (known.config, exc)) from exc
    if not isinstance(cfg, dict):
        raise BadParams("config file %s does not hold a JSON object" % known.config)
    actions = {a.dest: a for a in table[known.command]._actions}
    unknown = sorted(set(cfg) - set(actions))
    if unknown:
        raise BadParams("unknown config keys: %s" % ", ".join(unknown))
    table[known.command].set_defaults(**{key: _config_value(actions[key], value)
                                          for key, value in cfg.items()})


def _config_value(action, value):
    """A config-file value as its flag takes it on the command line.  A
    store_true flag takes only a JSON boolean, and null only a flag whose
    default is None; anything else the flag would reject is BadParams."""
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
    elif value is None:
        if action.default is None:
            return None
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            parsed = (action.type or str)(str(value))
        except ValueError:
            parsed = None
        if parsed is not None and (action.choices is None or parsed in action.choices):
            return parsed
    raise BadParams("config key %s: %s is not a valid %s"
                    % (action.dest, json.dumps(value), action.option_strings[0]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, table = build_parser()
    try:
        _apply_config_file(table, argv)
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
