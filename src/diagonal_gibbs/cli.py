"""Command-line front end.

Subcommands cover trajectory simulation, exact grid evolution, mixing-time
search, the verification suite, constants evaluation, target heatmap export,
and worst-case pair distances.  Every run writes ``manifest.json`` into the
output directory with the fully resolved configuration; two runs with
identical manifests produce byte-identical outputs.  Machine-readable
results go to standard output, progress chatter to standard error.

Each handler returns its result payload and writes only its side files
(trajectory, TV curve, PGM); ``main`` writes the manifest, ``result.json``
and standard output, and picks the exit code: 0 success, 1 a payload whose
``passed`` is false (a verification failure), 2 usage error, 3 numerical
non-convergence (diagnostics file written next to the manifest).

Two tables declare the interface, each fact once.  ``_COMMANDS`` has one row
per subcommand: its handler, whose docstring is the --help line, and its
flags as (name, type, default, help); the parser, the --config merge and
``main`` read it, together with ``_OUT_DIR``, the flag every subcommand has.
``_PROCESSES`` has one row per ``sim`` process: its single-run runner, its
ensemble runner with the summary of its result (or None without an ensemble
mode), the number and upper end of its --start coordinates, and whether it
draws truncated to [0, 1]; ``--process``, --start parsing, the ensemble
check, the --a check and the ``sim`` handler read it.

Two things are worked out rather than set.  ``sim`` and ``verify`` run their
ensembles on ``THREADS`` threads, one per CPU the process may run on; since
the draws depend only on (seed, trajectory index), no output depends on it,
and ``taskset`` limits it.  ``dbar --n`` and ``verify --n-pairs`` take any
grid of at least 2 cells: the pair scan costs about n^3, like the kernel
powers (``grid``'s module docstring gives measured times).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

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
from .density import DegenerateTruncationError, ModelParams, TruncatedGaussian
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
    worst_case_distances,
)
from .version import __version__

OUT_DIR_ENV = "DIAGONAL_GIBBS_OUT"

# absolute slack of the d/dbar sandwich and of submultiplicativity: where
# dbar is at its roundoff floor (about 5e-16), dbar(s) dbar(t) is far below it
DISTANCE_TOL = 1e-12

# ensemble threads: one per CPU the process may run on (module docstring)
THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _quantiles(values) -> dict:
    values = np.asarray(values, dtype=float)
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


class _Process(NamedTuple):
    """A sim process: the one place it is declared."""

    run: Callable  # single trajectory
    ensemble: tuple | None  # (runner, summary of its NamedTuple); None: no ensemble mode
    dims: int  # number of --start coordinates
    upper: float  # upper end of their range
    truncated: bool  # draws from N(center, sigma^2) truncated to [0, 1]


_PROCESSES = {
    "x": _Process(run_x, (run_x_ensemble, lambda ens: {
        "terminal_u_mean": float(np.mean(ens.u)),
        "terminal_v_mean": float(np.mean(ens.v)),
        # a run without steps has no direction fraction; JSON has no NaN
        "u_direction_fraction": (
            float(np.sum(ens.u_direction_count) / (ens.steps * ens.u.size)) if ens.steps else None
        ),
        "mean_direction_changes": float(np.mean(ens.direction_changes)),
    }), 2, 1.0, True),
    "xstar": _Process(run_xstar, None, 2, 1.0, True),
    "y": _Process(run_y, (run_y_ensemble, lambda ens: {
        "terminal_mean": float(np.mean(ens.terminal)),
        "nu_m": _quantiles(ens.nu_m),
        "nu_m_tilde": _quantiles(ens.nu_m_tilde),
    }), 1, 1.0, True),
    "yprime": _Process(run_y_prime, (run_y_prime_ensemble, lambda ens: {
        "terminal_mean": float(np.mean(ens.terminal)),
        "nu_m_hat": _quantiles(ens.nu_m_hat),
    }), 1, math.inf, False),
    "z": _Process(run_z, (run_z_ensemble, lambda ens: {
        "terminal_abs_mean": float(np.mean(ens.terminal_abs)),
        "terminal_signed_var": float(np.var(ens.terminal_signed)),
    }), 1, math.inf, False),
    "w": _Process(run_w, (run_w_ensemble, lambda ens: {
        "terminal_mean": float(np.mean(ens.terminal)),
        "nu_c2": _quantiles(ens.nu_c2),
        "exit_fraction": float(np.mean(np.isfinite(np.asarray(ens.nu_c2, dtype=float)))),
    }), 1, 1.0, False),
}


def _processes(keep, sep: str = "/") -> str:
    """The names of the processes whose row passes ``keep``, in table order."""
    return sep.join(name for name, row in _PROCESSES.items() if keep(row))


_PROCESS_NAMES = ", ".join(sorted(_PROCESSES))


def _count_in(least: int):
    """argparse type for an integer count of at least ``least``."""

    # argparse reports a non-integer as "invalid integer value", by this name
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


_NONNEGATIVE = _count_in(0)
_POSITIVE = _count_in(1)
_AT_LEAST_2 = _count_in(2)


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
    if text not in _PROCESSES:
        raise argparse.ArgumentTypeError(f"must be one of {_PROCESS_NAMES}, got {text!r}")
    return text


_A = ("a", float, 10.0, None)
_OUT_DIR = ("out_dir", str, None, f"output directory (default ${OUT_DIR_ENV} or '.')")
_START_HELP = (
    f"scalar for {_processes(lambda p: p.dims == 1)}, 'u,v' for {_processes(lambda p: p.dims == 2)}"
)


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
    _, _, dims, upper, _ = _PROCESSES[conf.get("process", "x")]  # only sim has a process
    text = conf["start"]
    try:
        values = [0.5] * dims if text is None else [float(part) for part in str(text).split(",")]
    except ValueError:
        values = []
    if len(values) != dims:
        expected = "one number" if dims == 1 else "'u,v'"
        raise argparse.ArgumentTypeError(f"argument --start: expected {expected}, got {text!r}")
    if not all(math.isfinite(x) and 0.0 <= x <= upper for x in values):
        interval = "[0, inf)" if upper == math.inf else "[0, 1]"
        raise argparse.ArgumentTypeError(f"argument --start: {text!r} lies outside {interval}")
    return values[0] if dims == 1 else tuple(values)


def _check_unit_window(params: ModelParams) -> None:
    """Reject an a so small that the [0, 1] window's mass Phi(beta) - Phi(alpha)
    cancels to 0, as it does near sigma = 7e16.

    Both ends round to 1/2 first at center 1/3, since the floats just below
    1/2 lie twice as close together as those just above it.
    """
    try:
        TruncatedGaussian(1.0 / 3.0, params.sigma2, 0.0, 1.0)
    except DegenerateTruncationError as exc:
        raise argparse.ArgumentTypeError(f"argument --a: {params.a:g} is too small: {exc}") from exc


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
    for command, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.add_argument("--config", help="JSON file with flag defaults; explicit flags win")
        for name, kind, _, text in (_OUT_DIR, *flags):
            p.add_argument("--" + name.replace("_", "-"), type=kind, help=text)
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge explicit flags over --config file entries over the table's defaults.

    A file entry is parsed by its flag's type, so it passes the same checks;
    a null entry keeps the default.  A bad value, or a key that names no flag
    of the subcommand, raises ArgumentTypeError (a usage error in ``main``).
    --out-dir is a flag of every subcommand, so a run's manifest config
    replays as a --config file; set by neither, the output directory is
    $DIAGONAL_GIBBS_OUT, then '.'.
    """
    flags = (_OUT_DIR, *_COMMANDS[args.command][1])
    kinds = {name: kind for name, kind, _, _ in flags}
    resolved = {name: default for name, _, default, _ in flags}
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
    resolved["out_dir"] = resolved["out_dir"] or os.environ.get(OUT_DIR_ENV) or "."
    return resolved


def _cmd_sim(conf: dict, params: ModelParams, start) -> dict:
    """simulate one trajectory or an ensemble of a named process"""
    process = conf["process"]
    steps, seed, trajectories = conf["steps"], conf["seed"], conf["trajectories"]

    if trajectories <= 1:
        _progress(f"simulating {process} for {steps} steps")
        record = _PROCESSES[process].run(start, steps, params, seed)
        record.to_csv(os.path.join(conf["out_dir"], "trajectory.csv"))
        return record.summary()

    _progress(f"simulating {trajectories} {process} trajectories x {steps} steps")
    run, summary = _PROCESSES[process].ensemble
    ens = run(start, steps, params, seed, trajectories, THREADS)
    return {"process": process, "a": params.a, "delta": params.delta, "steps": steps,
            "seed": seed, "trajectories": trajectories, **summary(ens)}


def _cmd_evolve(conf: dict, params: ModelParams, start) -> dict:
    """evolve a point mass under the exact grid operator"""
    n, steps = conf["n"], conf["steps"]
    u0, v0 = start

    _progress(f"evolving point mass at ({u0}, {v0}) for {steps} steps on the {n}x{n} grid")
    t0 = time.perf_counter()
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
    _progress(f"done in {time.perf_counter() - t0:.1f}s")
    if conf["pgm"]:
        export_heatmap(dist, os.path.join(conf["out_dir"], conf["pgm"]), params)
        result["pgm"] = conf["pgm"]
    return result


def _cmd_mix(conf: dict, params: ModelParams, start) -> dict:
    """first time the evolved distribution is within eps of the target"""
    _progress(f"searching mixing time at a={params.a}, n={conf['n']}, eps={conf['eps']}")
    t0 = time.perf_counter()
    result = find_mixing_time(start, conf["eps"], params, conf["n"], conf["max_steps"])
    _progress(f"t_mix = {result.t_mix} in {time.perf_counter() - t0:.1f}s")
    result.tv_curve_csv(os.path.join(conf["out_dir"], "tv_curve.csv"))
    return result.as_dict()


def _distance_checks(s: int, t: int, params: ModelParams, n: int) -> dict:
    """d and dbar at s and t, the sandwich d <= dbar <= 2 d at both, and the
    submultiplicativity dbar(s + t) <= dbar(s) dbar(t), from one power per
    distinct time."""
    d_s, d_t, dbar_s, dbar_t, dbar_st = worst_case_distances(s, t, params, n)
    return {
        "d_s": d_s,
        "d_t": d_t,
        "dbar_s": dbar_s,
        "dbar_t": dbar_t,
        "dbar_s_plus_t": dbar_st,
        "submultiplicative": bool(dbar_st <= dbar_s * dbar_t * (1.0 + 1e-9) + DISTANCE_TOL),
        "sandwich_ok": all(
            d_u <= dbar_u + DISTANCE_TOL and dbar_u <= 2.0 * d_u + DISTANCE_TOL
            for d_u, dbar_u in ((d_s, dbar_s), (d_t, dbar_t))
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
        threads=THREADS,
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


def _cmd_heatmap(conf: dict, params: ModelParams, _start) -> dict:
    """export the discretized target as 16-bit PGM (evolve --pgm exports an evolved state)"""
    n = conf["n"]
    _progress(f"exporting the discretized target at a={params.a}, n={n}")
    target = build_discretized_target(params, n)
    export_heatmap(target, os.path.join(conf["out_dir"], conf["out"]), params)
    return {"a": params.a, "n": n, "pgm": conf["out"]}


def _cmd_dbar(conf: dict, params: ModelParams, _start) -> dict:
    """worst-case pair distances and the submultiplicativity check"""
    n, s, t = conf["n"], conf["s"], conf["t"]
    _progress(f"computing worst-case pair distances at a={params.a}, n={n}")
    return {"a": params.a, "n": n, "s": s, "t": t, **_distance_checks(s, t, params, n)}


# Each subcommand as its handler (conf, model, start) -> result payload, whose
# docstring is its --help line, and its flags as (name, type, default, help):
# the one place a subcommand or flag is declared.  The type parses the flag and
# its --config entry alike; the model values a, delta and alpha are checked by
# ModelParams and ConstantsConfig, before anything is written.
_COMMANDS = {
    "sim": (_cmd_sim, (
        ("process", _process, "x", f"one of {_PROCESS_NAMES}"),
        _A,
        ("delta", float, ModelParams.delta, None),
        ("steps", _NONNEGATIVE, 1000, None),
        ("seed", _NONNEGATIVE, 0, None),
        ("trajectories", _POSITIVE, 1, None),
        ("start", str, None, _START_HELP),
    )),
    "evolve": (_cmd_evolve, (
        _A,
        ("n", _AT_LEAST_2, 500, None),
        ("steps", _NONNEGATIVE, 100, None),
        ("start", str, "0,0", "'u,v' starting point"),
        ("pgm", _file_name, None, "also export the evolved state as this PGM file in --out-dir"),
    )),
    "mix": (_cmd_mix, (
        _A,
        ("n", _AT_LEAST_2, 500, None),
        ("eps", _open_unit, 0.25, "TV threshold in (0, 1)"),
        ("start", str, "0,0", "'u,v' starting point"),
        ("max_steps", _NONNEGATIVE, 1_000_000, None),
    )),
    "verify": (_cmd_verify, (
        _A,
        ("n", _AT_LEAST_2, 500, "grid for the stationarity check"),
        ("n_pairs", _AT_LEAST_2, 100, "grid for d/dbar checks"),
        ("seed", _NONNEGATIVE, 0, None),
        ("trajectories", _POSITIVE, 2000, "coupled trajectories for the ordering check"),
        ("steps", _NONNEGATIVE, 400, "steps per coupled trajectory"),
        ("grid", _AT_LEAST_2, 200, "points per axis in the dominance sweep"),
    )),
    "constants": (_cmd_constants, (
        ("alpha", float, 0.10, None),
        ("delta", float, 0.0, None),
        ("eps_slack", float, 0.0, None),
    )),
    "heatmap": (_cmd_heatmap, (
        _A,
        ("n", _AT_LEAST_2, 500, None),
        ("out", _file_name, "target.pgm", "output PGM file name in --out-dir"),
    )),
    "dbar": (_cmd_dbar, (
        _A,
        ("n", _AT_LEAST_2, 100, None),
        ("s", _NONNEGATIVE, 50, None),
        ("t", _NONNEGATIVE, 50, None),
    )),
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
            model = ModelParams(conf["a"], conf.get("delta", ModelParams.delta))
        start = _parse_start(conf)
        # only sim has a process; x, which has an ensemble mode, stands in elsewhere
        process = _PROCESSES[conf.get("process", "x")]
        if conf.get("trajectories", 1) > 1 and process.ensemble is None:
            supported = _processes(lambda p: p.ensemble, ", ")
            raise argparse.ArgumentTypeError(f"argument --trajectories: ensemble mode supports {supported}")
        if "process" in conf and process.truncated:
            _check_unit_window(model)
        # last, so that a run rejected above leaves no directory behind
        out_dir = conf["out_dir"]
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))
    manifest = {"command": args.command, "config": conf, "version": __version__}
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    try:
        payload = _COMMANDS[args.command][0](conf, model, start)
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
