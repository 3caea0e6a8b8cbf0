"""The benchmark's workloads, driven only through diagonal_gibbs' public API.

Every workload is a closed loop with one caller: each call is issued after
the previous one returns.  Ensemble and coupling calls use at most two
threads (never more than the machine has); nothing else runs concurrently.

Each call's result is checked.  Invariants (ordering, supports, sandwich
and submultiplicativity, fixed-point drift) apply to every seed.  Seeded
ensemble and coupling outputs are hashed: the hash must repeat exactly on
every pass of a run, and must equal the recorded reference for seeds that
have one.  Grid floats must match their references within FLOAT_TOL.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import diagonal_gibbs as dg
from diagonal_gibbs import cli

# Trajectory counts are whole multiples of the package's fixed ensemble
# chunk, so every chunk is full and two threads each get whole chunks.
CHUNK = 16384

# Absolute tolerance for grid floats against their references.  Outputs
# must otherwise be bit-identical.
FLOAT_TOL = 1e-12
# The discretized target must be a fixed point of one operator step.
DRIFT_TOL = 1e-12
# Same slack as the package's own `verify` command.
SANDWICH_TOL = 1e-12
SUBMULT_REL = 1e-9
DOMINANCE_TOL = 1e-12

A10 = dg.ModelParams(10.0)
A50 = dg.ModelParams(50.0)
A100 = dg.ModelParams(100.0)
A250 = dg.ModelParams(250.0)

# "full" is what the benchmark measures; "tiny" only exercises the code
# paths (smoke test).  The a values, starts and default seeds are the same.
SIZES = {
    "full": {
        "mix_n": 500, "evolve_n": 500, "evolve_steps": 1000,
        "dist_n": 100, "dist_s": 100, "dist_t": 200,
        "x_traj": 8 * CHUNK, "x_steps": 71,
        "w_traj": 6 * CHUNK, "w_steps": 1000,
        "single_steps": 10_000,
        "pair_traj": 2 * CHUNK, "pair_steps": 100, "dominance_grid": 200,
    },
    "tiny": {
        "mix_n": 40, "evolve_n": 40, "evolve_steps": 10,
        "dist_n": 20, "dist_s": 5, "dist_t": 10,
        "x_traj": 2 * CHUNK, "x_steps": 3,
        "w_traj": 2 * CHUNK, "w_steps": 3,
        "single_steps": 20,
        "pair_traj": 2 * CHUNK, "pair_steps": 3, "dominance_grid": 20,
    },
}


@dataclass
class Env:
    sizes: dict
    seed: int
    threads: int
    tmpdir: str


def digest(*arrays) -> str:
    """sha256 over dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _same(value, ref) -> bool:
    if isinstance(value, float) or isinstance(ref, float):
        return abs(value - ref) <= FLOAT_TOL
    return value == ref


class Caller:
    """The single closed-loop caller: times, traces and checks each call.

    ``refs`` maps a call label to the values its check must reproduce.  A
    call counts as failed once, whether it raised or any check on its
    result failed.
    """

    def __init__(self, refs: dict, tracer=None):
        self.refs = refs
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: dict[str, list[float]] = {}
        self.observed: dict[str, dict] = {}
        self._first_observed: dict[str, dict] = {}

    def start_pass(self) -> None:
        self.seconds = {}
        self.observed = {}

    def call(self, label: str, fn: Callable, *args, check=None, **kwargs):
        self.attempted += 1
        span = self.tracer.span(label) if self.tracer else nullcontext()
        t0 = perf_counter()
        try:
            with span:
                result = fn(*args, **kwargs)
        except Exception as exc:  # a raised call is a failed call; the run goes on
            self.failures.append(f"{label}: raised {exc!r}")
            return None
        self.seconds.setdefault(label, []).append(perf_counter() - t0)
        if check is not None:
            try:
                observed, problems = check(result)
            except Exception as exc:  # e.g. the CLI wrote no result file
                self.failures.append(f"{label}: check raised {exc!r}")
                return result
            problems += self._compare(label, observed)
            self.observed[label] = observed
            if problems:
                self.failures.append(f"{label}: " + "; ".join(problems))
        return result

    def _compare(self, label: str, observed: dict) -> list[str]:
        problems = []
        first = self._first_observed.setdefault(label, observed)
        ref = self.refs.get(label, {})
        for key, value in observed.items():
            if not _same(value, first[key]):
                problems.append(f"{key} {value!r} differs from the first pass {first[key]!r}")
            if key in ref and not _same(value, ref[key]):
                problems.append(f"{key} {value!r} differs from the reference {ref[key]!r}")
        return problems

    def total(self, *labels: str) -> float:
        return sum(sum(self.seconds[label]) for label in labels)


def quiet(fn: Callable) -> Callable:
    """Call ``fn`` with its stdout and stderr captured (the CLI prints JSON)."""

    def run(*args, **kwargs):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return fn(*args, **kwargs)

    return run


def _unit_interval(*arrays) -> bool:
    return all(bool(np.all((a >= 0.0) & (a <= 1.0))) for a in arrays)


def _hit_times_ok(times: np.ndarray, steps: int) -> bool:
    hit = times[~np.isnan(times)]
    return bool(np.all((hit >= 0) & (hit <= steps) & (hit == np.floor(hit))))


# ======================================================================
# mixing: grid and cli
# ======================================================================

def _mixing_warmup(env: Env) -> None:
    quiet(cli.main)(["mix", "--a", "50", "--n", "20", "--out-dir", env.tmpdir])
    target = dg.build_discretized_target(A250, 20)
    dg.tv_distance(dg.evolve_2d(dg.point_mass(0.0, 0.0, 20), 1, A250), target)
    # n = 100 is large enough for the kernel products to take OpenBLAS's
    # threaded path, whose first use can cost a second.
    dg.worst_case_distance_d(1, A10, 100)
    dg.worst_case_distance_dbar(1, 1, A10, 100)


def _mixing_pass(c: Caller, env: Env) -> dict:
    sz = env.sizes
    result_path = os.path.join(env.tmpdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)

    def check_mix(code):
        with open(result_path) as fh:
            t_mix = json.load(fh)["t_mix"]
        return {"t_mix": t_mix}, [] if code == 0 else [f"exit code {code}"]

    argv = ["mix", "--a", "50", "--n", str(sz["mix_n"]), "--out-dir", env.tmpdir]
    c.call("cli.main mix a=50", quiet(cli.main), argv, check=check_mix)

    n = sz["evolve_n"]
    dist = c.call("grid.evolve_2d a=250", dg.evolve_2d, dg.point_mass(0.0, 0.0, n),
                  sz["evolve_steps"], A250)
    target = c.call("grid.build_discretized_target a=250", dg.build_discretized_target, A250, n)
    c.call("grid.tv_distance a=250", dg.tv_distance, dist, target,
           check=lambda tv: ({"tv": tv}, []))
    moved = c.call("grid.evolve_2d target a=250", dg.evolve_2d, target, 1, A250)
    c.call("grid.tv_distance drift a=250", dg.tv_distance, moved, target,
           check=lambda x: ({"drift": x}, [] if x < DRIFT_TOL else [f"drift {x:g}"]))

    m, s, t = sz["dist_n"], sz["dist_s"], sz["dist_t"]
    d_s = c.call("grid.worst_case_distance_d", dg.worst_case_distance_d, s, A10, m,
                 check=lambda d: ({"d": d}, []))

    def check_dbar(r):
        dbar_s, dbar_t, dbar_st = r
        problems = []
        if d_s is not None and not (d_s <= dbar_s + SANDWICH_TOL and dbar_s <= 2.0 * d_s + SANDWICH_TOL):
            problems.append(f"sandwich fails: d={d_s!r} dbar={dbar_s!r}")
        if not dbar_st <= dbar_s * dbar_t * (1.0 + SUBMULT_REL):
            problems.append(f"submultiplicativity fails: {dbar_st!r} > {dbar_s!r} * {dbar_t!r}")
        return {"dbar_s": dbar_s, "dbar_t": dbar_t, "dbar_s_plus_t": dbar_st}, problems

    c.call("grid.worst_case_distance_dbar", dg.worst_case_distance_dbar, s, t, A10, m,
           check=check_dbar)

    cli_s = c.total("cli.main mix a=50")
    evolve_s = c.total("grid.evolve_2d a=250")
    op_steps = c.observed["cli.main mix a=50"]["t_mix"] + sz["evolve_steps"]
    return {"t_mix_s": cli_s, "op_steps_per_s": op_steps / (cli_s + evolve_s)}


# ======================================================================
# ensemble: chains and density
# ======================================================================

def _ensemble_warmup(env: Env) -> None:
    dg.run_x_ensemble((0.0, 0.0), 1, A10, 0, 2 * CHUNK, threads=env.threads)
    dg.run_w_ensemble(0.5, 1, A100, 0, 2 * CHUNK, threads=env.threads)
    dg.run_x((0.0, 0.0), 1, A10, 0)


def _check_x_ensemble(e):
    problems = []
    if not _unit_interval(e.u, e.v):
        problems.append("terminal state outside the unit square")
    if np.any(e.direction_changes > e.steps - 1) or np.any(e.u_direction_count > e.steps):
        problems.append("direction counts exceed the step count")
    sha = digest(e.u, e.v, e.direction_changes, e.first_direction, e.u_direction_count)
    return {"sha256": sha}, problems


def _check_w_ensemble(e):
    problems = []
    if not _hit_times_ok(e.nu_c2, e.steps):
        problems.append("exit times are not step indices")
    if not _unit_interval(e.terminal[np.isnan(e.nu_c2)]):
        problems.append("a walk that never exited ends outside [0, 1]")
    return {"sha256": digest(e.terminal, e.nu_c2)}, problems


def _check_single_run(r):
    problems = []
    states = r.states
    if not _unit_interval(states):
        problems.append("state outside the unit square")
    pick_u = r.direction_sequence == "U"
    moved_u = states[1:, 0] != states[:-1, 0]
    moved_v = states[1:, 1] != states[:-1, 1]
    if np.any(moved_u & ~pick_u) or np.any(moved_v & pick_u):
        problems.append("a step moved the coordinate it did not pick")
    return {"sha256": digest(states, r.direction_sequence)}, problems


def _ensemble_pass(c: Caller, env: Env) -> dict:
    sz, seed, threads = env.sizes, env.seed, env.threads
    c.call("chains.run_x_ensemble", dg.run_x_ensemble, (0.0, 0.0), sz["x_steps"], A10,
           9 + seed, sz["x_traj"], threads=threads, check=_check_x_ensemble)
    c.call("chains.run_w_ensemble", dg.run_w_ensemble, 0.5, sz["w_steps"], A100,
           6 + seed, sz["w_traj"], threads=threads, check=_check_w_ensemble)
    c.call("chains.run_x", dg.run_x, (0.0, 0.0), sz["single_steps"], A10, seed,
           check=_check_single_run)
    traj_steps = sz["x_traj"] * sz["x_steps"]
    return {"traj_steps_per_s": traj_steps / c.total("chains.run_x_ensemble")}


# ======================================================================
# coupling: coupling and density
# ======================================================================

def _coupling_warmup(env: Env) -> None:
    for fn, start in ((dg.couple_z_yprime, 0.5), (dg.couple_y_yprime, 0.1), (dg.couple_y_w, 0.5)):
        fn(start, 1, A10, 0, 2 * CHUNK, threads=env.threads)
    dg.verify_dominance_inequality(2, 2, A10)


def _check_z_yprime(rep):
    problems = []
    if rep.ordering_violations != 0:
        problems.append(f"{rep.ordering_violations} ordering violations")
    if np.any(rep.terminal_first > rep.terminal_second):
        problems.append("Z ends above YPrime")
    return {"sha256": digest(rep.terminal_first, rep.terminal_second)}, problems


def _check_y_yprime(rep):
    problems = []
    nu_c1 = rep.aux["nu_c1"]
    coupled = np.isnan(nu_c1)
    if not _unit_interval(rep.terminal_first) or np.any(rep.terminal_second < 0.0):
        problems.append("a chain left its support")
    if not np.array_equal(rep.terminal_first[coupled], rep.terminal_second[coupled]):
        problems.append("a pair that never decoupled ends apart")
    sha = digest(rep.terminal_first, rep.terminal_second, nu_c1, rep.aux["nu_m_tilde"])
    return {"sha256": sha}, problems


def _check_y_w(rep):
    problems = []
    nu_c2 = rep.aux["nu_c2"]
    inside = np.isnan(nu_c2)
    if not _unit_interval(rep.terminal_first):
        problems.append("Y left [0, 1]")
    if not np.array_equal(rep.terminal_first[inside], rep.terminal_second[inside]):
        problems.append("Y and W differ before the walk exited")
    return {"sha256": digest(rep.terminal_first, rep.terminal_second, nu_c2)}, problems


def _coupling_pass(c: Caller, env: Env) -> dict:
    sz, seed, threads = env.sizes, env.seed, env.threads
    steps, traj = sz["pair_steps"], sz["pair_traj"]
    couplings = (
        ("coupling.couple_z_yprime", dg.couple_z_yprime, 0.5, _check_z_yprime),
        ("coupling.couple_y_yprime", dg.couple_y_yprime, 0.1, _check_y_yprime),
        ("coupling.couple_y_w", dg.couple_y_w, 0.5, _check_y_w),
    )
    for label, fn, start, check in couplings:
        c.call(label, fn, start, steps, A10, 11 + seed, traj, threads=threads, check=check)
    grid = sz["dominance_grid"]
    c.call("coupling.verify_dominance_inequality", dg.verify_dominance_inequality, grid, grid, A10,
           check=lambda gap: ({"gap": gap}, [] if gap >= -DOMINANCE_TOL else [f"gap {gap!r}"]))
    pair_steps = len(couplings) * traj * steps
    return {"pair_steps_per_s": pair_steps / c.total(*(label for label, *_ in couplings))}


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    seeded: bool          # False: the inputs do not depend on the seed
    rate_metric: str      # which pass metric the benchmark's steps_per_s reports
    warmup: Callable[[Env], None]
    run_pass: Callable[[Caller, Env], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixing", False, "op_steps_per_s", _mixing_warmup, _mixing_pass),
        Workload("ensemble", True, "traj_steps_per_s", _ensemble_warmup, _ensemble_pass),
        Workload("coupling", True, "pair_steps_per_s", _coupling_warmup, _coupling_pass),
    )
}
