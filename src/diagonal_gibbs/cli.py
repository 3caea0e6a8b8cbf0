"""Command-line front end.

Subcommands cover trajectory simulation, exact grid evolution, mixing-time
search, the verification suite, constants evaluation, heatmap export, and
worst-case pair distances.  Every run writes ``manifest.json`` into the
output directory with the fully resolved configuration; two runs with
identical manifests produce byte-identical outputs.  Machine-readable
results go to standard output, progress chatter to standard error.

Each handler returns its result payload and writes only its side files
(trajectory, TV curve, PGM); ``main`` writes the manifest, ``result.json``
and standard output, and picks the exit code: 0 success, 1 a payload whose
``passed`` is false (a verification failure), 2 usage error, 3 numerical
non-convergence (diagnostics file written next to the manifest).
"""

from __future__ import annotations

import argparse
import json
import math
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
from .coupling import DOMINANCE_TOL, couple_z_yprime, verify_dominance_inequality
from .density import ModelParams
from .grid import (
    CORNER_BOXES,
    DBAR_MAX_N,
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

_PROCESS_NAMES = ", ".join(sorted(_PROCESS_RUNNERS))
_PLANAR = ("x", "xstar")
_HALF_LINE = ("yprime", "z")

# absolute slack of the d/dbar sandwich and of submultiplicativity: where
# dbar is at its roundoff floor (about 5e-16), dbar(s) dbar(t) is far below it
DISTANCE_TOL = 1e-12


def _count_in(least: int, most: float = math.inf):
    """argparse type for an integer count in [least, most]."""

    # argparse reports a non-integer as "invalid integer value", by this name
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value

    return integer


_NONNEGATIVE = _count_in(0)
_POSITIVE = _count_in(1)
_AT_LEAST_2 = _count_in(2)
_PAIR_GRID = _count_in(2, DBAR_MAX_N)


def _open_unit(text: str) -> float:
    """argparse type for a number strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


# the files a run itself writes into --out-dir
_RUN_FILES = ("manifest.json", "result.json", "diagnostics.json", "trajectory.csv", "tv_curve.csv")


def _file_name(text: str) -> str:
    """argparse type for a plain file name, written inside --out-dir.

    Neither the name nor its ``<name>.json`` sidecar may be one of the
    run's own files, since one write would overwrite the other.
    """
    if text in ("", ".", "..") or os.path.basename(text) != text:
        raise argparse.ArgumentTypeError(f"must be a plain file name, got {text!r}")
    if text in _RUN_FILES or text + ".json" in _RUN_FILES:
        raise argparse.ArgumentTypeError(f"{text!r} would overwrite a file the run writes")
    return text


def _process(text: str) -> str:
    if text not in _PROCESS_RUNNERS:
        raise argparse.ArgumentTypeError(f"must be one of {_PROCESS_NAMES}, got {text!r}")
    return text


# Each subcommand's flags as (name, type, default, help): the one place a flag
# is declared.  The type parses the flag and its --config entry alike; the
# model values a, delta and alpha are checked by ModelParams and
# ConstantsConfig, before anything is written.
_A = ("a", float, 10.0, None)
_DELTA = ("delta", float, 0.05, None)
_FLAGS = {
    "sim": (
        ("process", _process, "x", f"one of {_PROCESS_NAMES}"),
        _A,
        _DELTA,
        ("steps", _NONNEGATIVE, 1000, None),
        ("seed", _NONNEGATIVE, 0, None),
        ("trajectories", _POSITIVE, 1, None),
        ("threads", _POSITIVE, 1, None),
        ("start", str, None, "scalar for y/yprime/z/w, 'u,v' for x/xstar"),
    ),
    "evolve": (
        _A,
        _DELTA,
        ("n", _AT_LEAST_2, 500, None),
        ("steps", _NONNEGATIVE, 100, None),
        ("start", str, "0,0", "'u,v' starting point"),
        ("pgm", _file_name, None, "also export the evolved state as this PGM file in --out-dir"),
    ),
    "mix": (
        _A,
        _DELTA,
        ("n", _AT_LEAST_2, 500, None),
        ("eps", _open_unit, 0.25, "TV threshold in (0, 1)"),
        ("start", str, "0,0", "'u,v' starting point"),
        ("max_steps", _NONNEGATIVE, 1_000_000, None),
    ),
    "verify": (
        _A,
        _DELTA,
        ("n", _AT_LEAST_2, 500, "grid for the stationarity check"),
        ("n_pairs", _PAIR_GRID, 100, "grid for d/dbar checks"),
        ("seed", _NONNEGATIVE, 0, None),
        ("trajectories", _POSITIVE, 2000, "coupled trajectories for the ordering check"),
        ("steps", _NONNEGATIVE, 400, "steps per coupled trajectory"),
        ("threads", _POSITIVE, 1, None),
        ("grid", _AT_LEAST_2, 200, "points per axis in the dominance sweep"),
    ),
    "constants": (
        ("alpha", float, 0.10, None),
        ("delta", float, 0.0, None),
        ("eps_slack", float, 0.0, None),
    ),
    "heatmap": (
        _A,
        _DELTA,
        ("n", _AT_LEAST_2, 500, None),
        ("steps", _NONNEGATIVE, None, "evolve a point mass this many steps; omit for the target"),
        ("start", str, "0,0", "'u,v' starting point when --steps is given"),
        ("out", _file_name, "target.pgm", "output PGM file name in --out-dir"),
    ),
    "dbar": (
        _A,
        _DELTA,
        ("n", _PAIR_GRID, 100, None),
        ("s", _NONNEGATIVE, 50, None),
        ("t", _NONNEGATIVE, 50, None),
    ),
}


def _parse_start(conf: dict):
    """The --start value as numbers: one for the one-dimensional sim
    processes, a (u, v) pair otherwise; None for a command without --start.

    sim's default is the middle of the line or the square.  Each coordinate
    lies in [0, 1], or in [0, inf) for the half-line processes.  A bad value
    raises ArgumentTypeError, which ``main`` reports as a usage error before
    anything is written.
    """
    if "start" not in conf:
        return None
    process = conf.get("process", "x")  # only sim has a process
    scalar = process not in _PLANAR
    text = conf["start"]
    if text is None:
        return 0.5 if scalar else (0.5, 0.5)
    try:
        values = [float(part) for part in str(text).split(",")]
    except ValueError:
        values = []
    if len(values) != (1 if scalar else 2):
        expected = "one number" if scalar else "'u,v'"
        raise argparse.ArgumentTypeError(f"argument --start: expected {expected}, got {text!r}")
    upper, interval = (math.inf, "[0, inf)") if process in _HALF_LINE else (1.0, "[0, 1]")
    if not all(math.isfinite(x) and 0.0 <= x <= upper for x in values):
        raise argparse.ArgumentTypeError(f"argument --start: {text!r} lies outside {interval}")
    return values[0] if scalar else tuple(values)


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
    for command, handler in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.add_argument("--config", help="JSON file with flag defaults; explicit flags win")
        p.add_argument("--out-dir", dest="out_dir", help=f"output directory (default ${OUT_DIR_ENV} or '.')")
        for name, kind, _, text in _FLAGS[command]:
            p.add_argument("--" + name.replace("_", "-"), type=kind, help=text)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge explicit flags over --config file entries over the table's defaults.

    A file entry is parsed by its flag's type, so it passes the same checks;
    a null entry keeps the default.  A bad value, or a key that names no flag
    of the subcommand, raises ArgumentTypeError (a usage error in ``main``).
    """
    kinds = {name: kind for name, kind, _, _ in _FLAGS[args.command]}
    resolved = {name: default for name, _, default, _ in _FLAGS[args.command]}
    if args.config:
        with open(args.config) as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise argparse.ArgumentTypeError(f"--config {args.config}: expected a JSON object")
        for key, value in file_conf.items():
            name = key.replace("-", "_")
            if name not in kinds:
                raise argparse.ArgumentTypeError(
                    f"--config {args.config}: {key!r} is not a flag of {args.command}"
                )
            if value is not None:
                try:
                    resolved[name] = kinds[name](str(value))
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    message = f"--config {args.config}: {key}: {exc}"
                    raise argparse.ArgumentTypeError(message) from None
    for name in resolved:
        cli_value = getattr(args, name)
        if cli_value is not None:
            resolved[name] = cli_value
    resolved["out_dir"] = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    return resolved


def _cmd_sim(conf: dict, params: ModelParams, start) -> dict:
    """simulate one trajectory or an ensemble of a named process"""
    process = conf["process"]
    steps, seed, trajectories = conf["steps"], conf["seed"], conf["trajectories"]

    if trajectories <= 1:
        _progress(f"simulating {process} for {steps} steps")
        record = _PROCESS_RUNNERS[process](start, steps, params, seed)
        record.to_csv(os.path.join(conf["out_dir"], "trajectory.csv"))
        return record.summary()

    _progress(f"simulating {trajectories} {process} trajectories x {steps} steps")
    return _run_ensemble(process, start, steps, params, seed, trajectories, conf["threads"])


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


def _cmd_evolve(conf: dict, params: ModelParams, start) -> dict:
    """evolve a point mass under the exact grid operator"""
    n, steps = conf["n"], conf["steps"]
    u0, v0 = start

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
        export_heatmap(dist, os.path.join(conf["out_dir"], conf["pgm"]), params)
        result["pgm"] = conf["pgm"]
    return result


def _cmd_mix(conf: dict, params: ModelParams, start) -> dict:
    """first time the evolved distribution is within eps of the target"""
    _progress(f"searching mixing time at a={params.a}, n={conf['n']}, eps={conf['eps']}")
    t0 = time.time()
    result = find_mixing_time(start, conf["eps"], params, conf["n"], conf["max_steps"])
    _progress(f"t_mix = {result.t_mix} in {time.time() - t0:.1f}s")
    result.tv_curve_csv(os.path.join(conf["out_dir"], "tv_curve.csv"))
    return result.as_dict()


def _distance_checks(s: int, t: int, params: ModelParams, n: int) -> dict:
    """d and dbar at s and t, the sandwich d <= dbar <= 2 d at both, and the
    submultiplicativity dbar(s + t) <= dbar(s) dbar(t)."""
    dbar_s, dbar_t, dbar_st = worst_case_distance_dbar(s, t, params, n)
    d = {u: worst_case_distance_d(u, params, n) for u in {s, t}}
    return {
        "d_s": d[s],
        "d_t": d[t],
        "dbar_s": dbar_s,
        "dbar_t": dbar_t,
        "dbar_s_plus_t": dbar_st,
        "submultiplicative": bool(dbar_st <= dbar_s * dbar_t * (1.0 + 1e-9) + DISTANCE_TOL),
        "sandwich_ok": all(
            d[u] <= dbar_u + DISTANCE_TOL and dbar_u <= 2.0 * d[u] + DISTANCE_TOL
            for u, dbar_u in ((s, dbar_s), (t, dbar_t))
        ),
    }


def _cmd_verify(conf: dict, params: ModelParams, _start) -> dict:
    """run the inequality and invariance suite; nonzero exit on violation"""
    checks = {}

    _progress("dominance sweep")
    gap = verify_dominance_inequality(conf["grid"], conf["grid"], params)
    checks["dominance_min_gap"] = {"value": gap, "passed": bool(gap >= -DOMINANCE_TOL)}

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
    dist = _distance_checks(50, 50, params, conf["n_pairs"])
    checks["sandwich"] = {"d": dist["d_t"], "dbar": dist["dbar_t"], "passed": dist["sandwich_ok"]}
    checks["submultiplicative"] = {
        "dbar_s": dist["dbar_s"],
        "dbar_t": dist["dbar_t"],
        "dbar_s_plus_t": dist["dbar_s_plus_t"],
        "passed": dist["submultiplicative"],
    }

    passed = all(entry["passed"] for entry in checks.values())
    return {"a": params.a, "seed": conf["seed"], "checks": checks, "passed": passed}


def _cmd_constants(_conf: dict, config: ConstantsConfig, _start) -> dict:
    """closed-form constants report"""
    return constants_report(config)


def _cmd_heatmap(conf: dict, params: ModelParams, start) -> dict:
    """export the target (or an evolved state) as 16-bit PGM"""
    n = conf["n"]
    if conf["steps"] is None:
        _progress(f"exporting the discretized target at a={params.a}, n={n}")
        dist = build_discretized_target(params, n)
        steps = None
    else:
        u0, v0 = start
        steps = conf["steps"]
        _progress(f"evolving ({u0}, {v0}) for {steps} steps before export")
        dist = evolve_2d(point_mass(u0, v0, n), steps, params)
    export_heatmap(dist, os.path.join(conf["out_dir"], conf["out"]), params)
    return {"a": params.a, "n": n, "steps": steps, "pgm": conf["out"]}


def _cmd_dbar(conf: dict, params: ModelParams, _start) -> dict:
    """worst-case pair distances and the submultiplicativity check"""
    n, s, t = conf["n"], conf["s"], conf["t"]
    _progress(f"computing worst-case pair distances at a={params.a}, n={n}")
    return {"a": params.a, "n": n, "s": s, "t": t, **_distance_checks(s, t, params, n)}


# subcommand -> handler (conf, model, start) -> result payload; each
# handler's docstring is its --help line
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
    # every input is checked here, before the manifest is written
    try:
        conf = resolve_config(args)
        if args.command == "constants":
            model = ConstantsConfig(conf["alpha"], conf["delta"], conf["eps_slack"])
        else:
            model = ModelParams(conf["a"], conf["delta"])
        start = _parse_start(conf)
        if conf.get("process") == "xstar" and conf["trajectories"] > 1:
            raise argparse.ArgumentTypeError(
                "argument --trajectories: ensemble mode supports x, y, yprime, z, w"
            )
        # last, so that a run rejected above leaves no directory behind
        out_dir = conf["out_dir"]
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))
    manifest = {"command": args.command, "config": conf, "version": __version__}
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    try:
        payload = _COMMANDS[args.command](conf, model, start)
    except MixingNotConverged as exc:  # raised by mix only
        diagnostics = os.path.join(out_dir, "diagnostics.json")
        _write_json(diagnostics, {
            "error": str(exc),
            "a": conf["a"],
            "n": conf["n"],
            "epsilon": conf["eps"],
            "max_steps": conf["max_steps"],
            "tv_tail": [float(x) for x in exc.tv_curve[-10:]],
        })
        _emit({"status": "not_converged", "diagnostics": diagnostics})
        return 3
    _write_json(os.path.join(out_dir, "result.json"), payload)
    _emit(payload)
    return 1 if payload.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
