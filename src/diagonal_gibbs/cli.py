"""Command-line front end.

Subcommands cover trajectory simulation, exact grid evolution, mixing-time
search, the verification suite, constants evaluation, heatmap export, and
worst-case pair distances.  Every run writes ``manifest.json`` into the
output directory with the fully resolved configuration; two runs with
identical manifests produce byte-identical outputs.  Machine-readable
results go to standard output, progress chatter to standard error.

Exit codes: 0 success (all requested checks passed), 1 verification
failure, 2 usage error, 3 numerical non-convergence (diagnostics file
written next to the manifest).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .chains import (
    run_w,
    run_w_ensemble,
    run_x,
    run_x_ensemble,
    run_xstar,
    run_y,
    run_y_ensemble,
    run_y_prime,
    run_y_prime_ensemble,
    run_z,
    run_z_ensemble,
)
from .constants import ConstantsConfig, constants_report
from .coupling import couple_z_yprime, verify_dominance_inequality
from .density import ModelParams
from .grid import (
    CORNER_BOXES,
    MixingNotConverged,
    build_discretized_target,
    evolve_2d,
    export_heatmap,
    find_mixing_time,
    point_mass,
    set_probability,
    tv_distance,
    worst_case_distance_d,
    worst_case_distance_dbar,
)
from .version import __version__

OUT_DIR_ENV = "DIAGONAL_GIBBS_OUT"

_PROCESS_RUNNERS = {
    "x": run_x,
    "xstar": run_xstar,
    "y": run_y,
    "yprime": run_y_prime,
    "z": run_z,
    "w": run_w,
}

_PLANAR = ("x", "xstar")

# Per-subcommand defaults, applied after any --config file so that explicit
# command-line flags always win over both.
_DEFAULTS = {
    "sim": {
        "a": 10.0,
        "delta": 0.05,
        "steps": 1000,
        "seed": 0,
        "trajectories": 1,
        "threads": 1,
        "start": None,
        "process": "x",
    },
    "evolve": {
        "a": 10.0,
        "delta": 0.05,
        "n": 500,
        "steps": 100,
        "start": "0,0",
        "pgm": None,
    },
    "mix": {
        "a": 10.0,
        "delta": 0.05,
        "n": 500,
        "eps": 0.25,
        "start": "0,0",
        "max_steps": 1_000_000,
    },
    "verify": {
        "a": 10.0,
        "delta": 0.05,
        "n": 500,
        "n_pairs": 100,
        "seed": 0,
        "trajectories": 2000,
        "steps": 400,
        "threads": 1,
        "grid": 200,
    },
    "constants": {"alpha": 0.10, "delta": 0.0, "eps_slack": 0.0},
    "heatmap": {
        "a": 10.0,
        "delta": 0.05,
        "n": 500,
        "steps": None,
        "start": "0,0",
        "out": "target.pgm",
    },
    "dbar": {"a": 10.0, "delta": 0.05, "n": 100, "s": 50, "t": 50},
}


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _count_at_least(least: int):
    """argparse type for an integer count no smaller than ``least``."""

    # argparse reports a non-integer as "invalid integer value", by this name
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


_NONNEGATIVE = _count_at_least(0)
_POSITIVE = _count_at_least(1)
_AT_LEAST_2 = _count_at_least(2)


def _parse_start(conf: dict, command: str):
    """The --start value for ``command``: one number for the one-dimensional
    sim processes, a 'u,v' pair otherwise; None (sim's default) stays None.

    A malformed value raises ArgumentTypeError, which ``main`` reports as a
    usage error before anything is written.
    """
    text = conf.get("start")
    if text is None:
        return None
    text = str(text)
    scalar = command == "sim" and conf["process"] not in _PLANAR
    parts = text.split(",")
    try:
        if scalar:
            return float(text)
        if len(parts) == 2:
            return float(parts[0]), float(parts[1])
    except ValueError:
        pass
    expected = "one number" if scalar else "'u,v'"
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagonal-gibbs",
        description="Gibbs sampler laboratory for the diagonal-band target on the unit square.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with flag defaults; explicit flags win")
        p.add_argument("--out-dir", dest="out_dir", help=f"output directory (default ${OUT_DIR_ENV} or '.')")

    p = sub.add_parser("sim", help="simulate one trajectory or an ensemble of a named process")
    common(p)
    p.add_argument("--process", choices=sorted(_PROCESS_RUNNERS))
    p.add_argument("--a", type=_positive_float)
    p.add_argument("--delta", type=float)
    p.add_argument("--steps", type=_NONNEGATIVE)
    p.add_argument("--seed", type=_NONNEGATIVE)
    p.add_argument("--trajectories", type=_POSITIVE)
    p.add_argument("--threads", type=_POSITIVE)
    p.add_argument("--start", help="scalar for y/yprime/z/w, 'u,v' for x/xstar")

    p = sub.add_parser("evolve", help="evolve a point mass under the exact grid operator")
    common(p)
    p.add_argument("--a", type=_positive_float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=_AT_LEAST_2)
    p.add_argument("--steps", type=_NONNEGATIVE)
    p.add_argument("--start", help="'u,v' starting point")
    p.add_argument("--pgm", help="also export the evolved distribution as a PGM heatmap")

    p = sub.add_parser("mix", help="first time the evolved distribution is within eps of the target")
    common(p)
    p.add_argument("--a", type=_positive_float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=_AT_LEAST_2)
    p.add_argument("--eps", type=float)
    p.add_argument("--start", help="'u,v' starting point")
    p.add_argument("--max-steps", dest="max_steps", type=_NONNEGATIVE)

    p = sub.add_parser("verify", help="run the inequality and invariance suite; nonzero exit on violation")
    common(p)
    p.add_argument("--a", type=_positive_float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=_AT_LEAST_2, help="grid for the stationarity check")
    p.add_argument("--n-pairs", dest="n_pairs", type=_AT_LEAST_2, help="grid for d/dbar checks")
    p.add_argument("--seed", type=_NONNEGATIVE)
    p.add_argument("--trajectories", type=_POSITIVE, help="coupled trajectories for the ordering check")
    p.add_argument("--steps", type=_NONNEGATIVE, help="steps per coupled trajectory")
    p.add_argument("--threads", type=_POSITIVE)
    p.add_argument("--grid", type=_AT_LEAST_2, help="points per axis in the dominance sweep")

    p = sub.add_parser("constants", help="closed-form constants report")
    common(p)
    p.add_argument("--alpha", type=_positive_float)
    p.add_argument("--delta", type=float)
    p.add_argument("--eps-slack", dest="eps_slack", type=float)

    p = sub.add_parser("heatmap", help="export the target (or an evolved state) as 16-bit PGM")
    common(p)
    p.add_argument("--a", type=_positive_float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=_AT_LEAST_2)
    p.add_argument("--steps", type=_NONNEGATIVE, help="evolve a point mass this many steps; omit for the target")
    p.add_argument("--start", help="'u,v' starting point when --steps is given")
    p.add_argument("--out", help="output PGM filename (within --out-dir)")

    p = sub.add_parser("dbar", help="worst-case pair distances and the submultiplicativity check")
    common(p)
    p.add_argument("--a", type=_positive_float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=_AT_LEAST_2)
    p.add_argument("--s", type=_NONNEGATIVE)
    p.add_argument("--t", type=_NONNEGATIVE)

    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge explicit flags over --config file entries over built-in defaults.

    File entries are parsed as the flags they name, so they pass the same
    checks; a bad one is a usage error (exit 2).
    """
    resolved = dict(_DEFAULTS[args.command])
    if args.config:
        with open(args.config) as fh:
            file_conf = {key.replace("-", "_"): value for key, value in json.load(fh).items()}
        keys = [key for key in resolved if file_conf.get(key) is not None]
        flags = [f"--{key.replace('_', '-')}={file_conf[key]}" for key in keys]
        file_args = build_parser().parse_args([args.command, *flags])
        resolved.update((key, getattr(file_args, key)) for key in keys)
    for key in resolved:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    resolved["out_dir"] = out_dir
    return resolved


def _write_manifest(conf: dict, command: str) -> str:
    out_dir = conf["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"command": command, "config": conf, "version": __version__}
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, manifest)
    return out_dir


def _cmd_sim(conf: dict) -> int:
    process = conf["process"]
    params = ModelParams(conf["a"], conf["delta"])
    out_dir = conf["out_dir"]
    steps, seed, trajectories = conf["steps"], conf["seed"], conf["trajectories"]

    start = _parse_start(conf, "sim")
    if start is None:
        start = (0.5, 0.5) if process in _PLANAR else 0.5

    if trajectories > 1 and process == "xstar":
        print("ensemble mode supports x, y, yprime, z, w", file=sys.stderr)
        return 2

    if trajectories <= 1:
        _progress(f"simulating {process} for {steps} steps")
        record = _PROCESS_RUNNERS[process](start, steps, params, seed)
        csv_path = os.path.join(out_dir, "trajectory.csv")
        record.to_csv(csv_path)
        summary = record.summary()
        _write_json(os.path.join(out_dir, "result.json"), summary)
        _emit(summary)
        return 0

    _progress(f"simulating {trajectories} {process} trajectories x {steps} steps")
    result = _run_ensemble(process, start, steps, params, seed, trajectories, conf["threads"])
    _write_json(os.path.join(out_dir, "result.json"), result)
    _emit(result)
    return 0


def _quantiles(values: np.ndarray) -> dict:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {"reached_fraction": 0.0}
    qs = np.quantile(finite, [0.25, 0.5, 0.75])
    return {
        "reached_fraction": float(finite.size / values.size),
        "q25": float(qs[0]),
        "median": float(qs[1]),
        "q75": float(qs[2]),
    }


def _run_ensemble(process, start, steps, params, seed, trajectories, threads) -> dict:
    base = {
        "process": process,
        "a": params.a,
        "delta": params.delta,
        "steps": steps,
        "seed": seed,
        "trajectories": trajectories,
    }
    if process in _PLANAR:
        ens = run_x_ensemble(start, steps, params, seed, trajectories, threads)
        base["terminal_u_mean"] = float(np.mean(ens.u))
        base["terminal_v_mean"] = float(np.mean(ens.v))
        # a run without steps has no direction fraction; JSON has no NaN
        base["u_direction_fraction"] = (
            float(np.sum(ens.u_direction_count) / (steps * trajectories)) if steps else None
        )
        base["mean_direction_changes"] = float(np.mean(ens.direction_changes))
        return base
    if process == "y":
        ens = run_y_ensemble(start, steps, params, seed, trajectories, threads)
        base["terminal_mean"] = float(np.mean(ens.terminal))
        base["nu_m"] = _quantiles(np.asarray(ens.nu_m, dtype=float))
        base["nu_m_tilde"] = _quantiles(np.asarray(ens.nu_m_tilde, dtype=float))
        return base
    if process == "yprime":
        ens = run_y_prime_ensemble(start, steps, params, seed, trajectories, threads)
        base["terminal_mean"] = float(np.mean(ens.terminal))
        base["nu_m_hat"] = _quantiles(np.asarray(ens.nu_m_hat, dtype=float))
        return base
    if process == "z":
        ens = run_z_ensemble(start, steps, params, seed, trajectories, threads)
        base["terminal_abs_mean"] = float(np.mean(ens.terminal_abs))
        base["terminal_signed_var"] = float(np.var(ens.terminal_signed))
        return base
    ens = run_w_ensemble(start, steps, params, seed, trajectories, threads)
    base["terminal_mean"] = float(np.mean(ens.terminal))
    base["nu_c2"] = _quantiles(np.asarray(ens.nu_c2, dtype=float))
    base["exit_fraction"] = float(np.mean(np.isfinite(np.asarray(ens.nu_c2, dtype=float))))
    return base


def _cmd_evolve(conf: dict) -> int:
    params = ModelParams(conf["a"], conf["delta"])
    n, steps = conf["n"], conf["steps"]
    u0, v0 = _parse_start(conf, "evolve")
    out_dir = conf["out_dir"]

    _progress(f"evolving point mass at ({u0}, {v0}) for {steps} steps on the {n}x{n} grid")
    t0 = time.time()
    dist = evolve_2d(point_mass(u0, v0, n), steps, params)
    target = build_discretized_target(params, n)
    result = {
        "a": params.a,
        "n": n,
        "steps": steps,
        "start": [u0, v0],
        "tv_to_target": tv_distance(dist, target),
        "corner_set_mass": set_probability(dist, CORNER_BOXES),
        "corner_set_mass_target": set_probability(target, CORNER_BOXES),
    }
    _progress(f"done in {time.time() - t0:.1f}s")
    if conf["pgm"]:
        export_heatmap(dist, os.path.join(out_dir, conf["pgm"]), params)
        result["pgm"] = conf["pgm"]
    _write_json(os.path.join(out_dir, "result.json"), result)
    _emit(result)
    return 0


def _cmd_mix(conf: dict) -> int:
    params = ModelParams(conf["a"], conf["delta"])
    n = conf["n"]
    u0, v0 = _parse_start(conf, "mix")
    out_dir = conf["out_dir"]

    _progress(f"searching mixing time at a={params.a}, n={n}, eps={conf['eps']}")
    t0 = time.time()
    try:
        result = find_mixing_time((u0, v0), conf["eps"], params, n, conf["max_steps"])
    except MixingNotConverged as exc:
        diag_path = os.path.join(out_dir, "diagnostics.json")
        curve = exc.tv_curve
        _write_json(
            diag_path,
            {
                "error": str(exc),
                "a": params.a,
                "n": n,
                "epsilon": conf["eps"],
                "max_steps": conf["max_steps"],
                "tv_tail": [float(x) for x in curve[-10:]],
            },
        )
        payload = {"status": "not_converged", "diagnostics": diag_path}
        _emit(payload)
        return 3
    _progress(f"t_mix = {result.t_mix} in {time.time() - t0:.1f}s")
    result.tv_curve_csv(os.path.join(out_dir, "tv_curve.csv"))
    payload = result.as_dict()
    _write_json(os.path.join(out_dir, "result.json"), payload)
    _emit(payload)
    return 0


def _cmd_verify(conf: dict) -> int:
    params = ModelParams(conf["a"], conf["delta"])
    out_dir = conf["out_dir"]
    checks = {}

    _progress("dominance sweep")
    gap = verify_dominance_inequality(conf["grid"], conf["grid"], params)
    checks["dominance_min_gap"] = {"value": gap, "passed": bool(gap >= -1e-12)}

    _progress("monotone coupling ordering")
    report = couple_z_yprime(
        0.5,
        conf["steps"],
        params,
        conf["seed"],
        trajectories=conf["trajectories"],
        threads=conf["threads"],
    )
    checks["coupling_ordering_violations"] = {
        "value": report.ordering_violations,
        "passed": bool(report.ordering_violations == 0),
    }

    _progress("stationarity fixed point")
    target = build_discretized_target(params, conf["n"])
    drift = tv_distance(evolve_2d(target, 1, params), target)
    checks["stationarity_tv"] = {"value": drift, "passed": bool(drift < 1e-12)}

    _progress("distance sandwich and submultiplicativity")
    n_pairs = conf["n_pairs"]
    s = t = 50
    d_t = worst_case_distance_d(t, params, n_pairs)
    dbar_s, dbar_t, dbar_st = worst_case_distance_dbar(s, t, params, n_pairs)
    checks["sandwich"] = {
        "d": d_t,
        "dbar": dbar_t,
        "passed": bool(d_t <= dbar_t + 1e-12 and dbar_t <= 2.0 * d_t + 1e-12),
    }
    checks["submultiplicative"] = {
        "dbar_s": dbar_s,
        "dbar_t": dbar_t,
        "dbar_s_plus_t": dbar_st,
        "passed": bool(dbar_st <= dbar_s * dbar_t * (1.0 + 1e-9)),
    }

    all_passed = all(entry["passed"] for entry in checks.values())
    payload = {
        "a": params.a,
        "seed": conf["seed"],
        "checks": checks,
        "passed": all_passed,
    }
    _write_json(os.path.join(out_dir, "result.json"), payload)
    _emit(payload)
    return 0 if all_passed else 1


def _cmd_constants(conf: dict) -> int:
    config = ConstantsConfig(conf["alpha"], conf["delta"], conf["eps_slack"])
    payload = constants_report(config)
    _write_json(os.path.join(conf["out_dir"], "result.json"), payload)
    _emit(payload)
    return 0


def _cmd_heatmap(conf: dict) -> int:
    params = ModelParams(conf["a"], conf["delta"])
    n = conf["n"]
    out_dir = conf["out_dir"]
    if conf["steps"] is None:
        _progress(f"exporting the discretized target at a={params.a}, n={n}")
        dist = build_discretized_target(params, n)
        steps = None
    else:
        u0, v0 = _parse_start(conf, "heatmap")
        steps = conf["steps"]
        _progress(f"evolving ({u0}, {v0}) for {steps} steps before export")
        dist = evolve_2d(point_mass(u0, v0, n), steps, params)
    path = os.path.join(out_dir, conf["out"])
    export_heatmap(dist, path, params)
    payload = {"a": params.a, "n": n, "steps": steps, "pgm": conf["out"]}
    _write_json(os.path.join(out_dir, "result.json"), payload)
    _emit(payload)
    return 0


def _cmd_dbar(conf: dict) -> int:
    params = ModelParams(conf["a"], conf["delta"])
    n, s, t = conf["n"], conf["s"], conf["t"]
    _progress(f"computing worst-case pair distances at a={params.a}, n={n}")
    dbar_s, dbar_t, dbar_st = worst_case_distance_dbar(s, t, params, n)
    d_s = worst_case_distance_d(s, params, n)
    d_t = worst_case_distance_d(t, params, n)
    payload = {
        "a": params.a,
        "n": n,
        "s": s,
        "t": t,
        "d_s": d_s,
        "d_t": d_t,
        "dbar_s": dbar_s,
        "dbar_t": dbar_t,
        "dbar_s_plus_t": dbar_st,
        "submultiplicative": bool(dbar_st <= dbar_s * dbar_t * (1.0 + 1e-9)),
        "sandwich_ok": bool(
            d_s <= dbar_s + 1e-12
            and dbar_s <= 2.0 * d_s + 1e-12
            and d_t <= dbar_t + 1e-12
            and dbar_t <= 2.0 * d_t + 1e-12
        ),
    }
    _write_json(os.path.join(conf["out_dir"], "result.json"), payload)
    _emit(payload)
    return 0


_COMMANDS = {
    "sim": _cmd_sim,
    "evolve": _cmd_evolve,
    "mix": _cmd_mix,
    "verify": _cmd_verify,
    "constants": _cmd_constants,
    "heatmap": _cmd_heatmap,
    "dbar": _cmd_dbar,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    conf = resolve_config(args)
    try:
        _parse_start(conf, args.command)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"argument --start: {exc}")
    _write_manifest(conf, args.command)
    return _COMMANDS[args.command](conf)


if __name__ == "__main__":
    sys.exit(main())
