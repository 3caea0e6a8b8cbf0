"""Per-layer probes for the traced run.

Each probe calls one layer's public functions on workload-shaped inputs
and derives that layer's metric from the spans around the calls.  The
same probes run in the traced run of every workload, so every per-layer
metric is reported on every workload.  Timings are the best of a few
repeats; counts and solver-health figures are exact.

What each metric should move (end-to-end metric, workload):

  density.*_quantile_ns          steps_per_s on ensemble and coupling
                                 (halfline and folded: coupling only)
  chains.x_*, chains.w_*,
  chains.single_run_us_per_step  steps_per_s / wall_s on ensemble
  coupling.*_ns_per_pair_step    steps_per_s on coupling
  grid.step_ms_*, grid.tv_ms     steps_per_s and wall_s on mixing
  grid.target_build_ms           setup_s and wall_s on mixing
  grid.kernel_product_ms,
  grid.dbar_s                    wall_s on mixing
  cli.mix_overhead_s             wall_s on mixing
"""

from __future__ import annotations

import math

import numpy as np

import diagonal_gibbs as dg
from diagonal_gibbs import cli

from workloads import A10, A50, A100, A250, CHUNK, Caller, Env, digest, quiet

PROBE_SIZES = {
    "full": {
        "block": CHUNK, "centers": 9, "reps": 3,
        "x_traj": 2 * CHUNK, "x_steps": 71, "w_traj": CHUNK, "w_steps": 1000,
        "single_steps": 2000, "rng_draws": 1 << 20,
        "pair_traj": CHUNK, "pair_steps": 50,
        "grid_n": 500, "grid_steps": 200, "tv_reps": 20,
        "kernel_n": 100, "kernel_steps": 200, "dbar_s": 100, "dbar_t": 200,
        "cli_n": 200,
    },
    "tiny": {
        "block": 256, "centers": 3, "reps": 1,
        "x_traj": 2 * CHUNK, "x_steps": 2, "w_traj": CHUNK, "w_steps": 2,
        "single_steps": 10, "rng_draws": 1 << 10,
        "pair_traj": CHUNK, "pair_steps": 2,
        "grid_n": 30, "grid_steps": 3, "tv_reps": 2,
        "kernel_n": 20, "kernel_steps": 3, "dbar_s": 2, "dbar_t": 3,
        "cli_n": 30,
    },
}


def _best(c: Caller, label: str) -> float:
    return min(c.seconds[label])


def _density(c: Caller, ps: dict, seed: int, m: dict) -> dict:
    """ns per element of each quantile solver, and its largest CDF error."""
    u = np.random.default_rng(seed).random(ps["block"])
    centers = np.linspace(0.0, 1.0, ps["centers"])  # both walls included
    solvers = (
        ("trunc_quantile_ns", "trunc_quantile_max_cdf_err", "TruncatedGaussian[0,1] a=10",
         [dg.TruncatedGaussian(x, A10.sigma2, 0.0, 1.0) for x in centers]),
        ("trunc_quantile_ns_a250", "trunc_quantile_max_cdf_err", "TruncatedGaussian[0,1] a=250",
         [dg.TruncatedGaussian(x, A250.sigma2, 0.0, 1.0) for x in centers]),
        ("halfline_quantile_ns", "trunc_quantile_max_cdf_err", "TruncatedGaussian[0,inf) a=10",
         [dg.TruncatedGaussian(x, A10.sigma2, 0.0, math.inf) for x in centers]),
        ("folded_quantile_ns", "folded_quantile_max_cdf_err", "FoldedGaussian a=10",
         [dg.FoldedGaussian(x, A10.sigma2) for x in centers]),
    )
    ns = {}
    for metric, err_metric, what, dists in solvers:
        label = f"density.{what}.quantile"
        for _ in range(ps["reps"]):
            draws = c.call(label, lambda: [d.quantile(u) for d in dists])
        ns[metric] = _best(c, label) / (len(dists) * u.size) * 1e9
        m[f"density.{metric}"] = ns[metric]
        errs = c.call(f"density.{what}.cdf",
                      lambda: [np.max(np.abs(d.cdf(x) - u)) for d, x in zip(dists, draws)])
        key = f"density.{err_metric}"
        m[key] = max(m.get(key, 0.0), float(max(errs)))
    return ns


def _chains(c: Caller, env: Env, ps: dict, trunc_ns: float, m: dict) -> None:
    seed = env.seed
    g = np.random.Generator(np.random.PCG64(seed))
    c.call("chains.numpy_pcg64_random", g.random, ps["rng_draws"])
    m["chains.rng_ns_per_draw"] = _best(c, "chains.numpy_pcg64_random") / ps["rng_draws"] * 1e9

    traj, steps = ps["x_traj"], ps["x_steps"]
    x_args = ((0.0, 0.0), steps, A10, 9 + seed, traj)
    serial = {}

    def check_serial(e):
        serial.setdefault("sha256", digest(e.u, e.v, e.direction_changes, e.u_direction_count))
        return {}, []

    def check_threaded(e):
        sha = digest(e.u, e.v, e.direction_changes, e.u_direction_count)
        return {}, [] if sha == serial.get("sha256") else ["threads=2 output differs from threads=1"]

    for _ in range(2):
        c.call("chains.run_x_ensemble threads=1", dg.run_x_ensemble, *x_args, threads=1,
               check=check_serial)
        c.call("chains.run_x_ensemble", dg.run_x_ensemble, *x_args, threads=env.threads,
               check=check_threaded)
    traj_steps = traj * steps
    serial_s = _best(c, "chains.run_x_ensemble threads=1")
    m["chains.x_traj_steps"] = traj_steps
    m["chains.x_ns_per_traj_step"] = _best(c, "chains.run_x_ensemble") / traj_steps * 1e9
    m["chains.x_thread_speedup"] = serial_s / _best(c, "chains.run_x_ensemble")
    m["chains.density_share"] = trunc_ns * 1e-9 * traj_steps / serial_s

    c.call("chains.run_w_ensemble", dg.run_w_ensemble, 0.5, ps["w_steps"], A100, 6 + seed,
           ps["w_traj"], threads=env.threads)
    m["chains.w_ns_per_traj_step"] = (
        _best(c, "chains.run_w_ensemble") / (ps["w_traj"] * ps["w_steps"]) * 1e9)
    c.call("chains.run_x", dg.run_x, (0.0, 0.0), ps["single_steps"], A10, seed)
    m["chains.single_run_us_per_step"] = _best(c, "chains.run_x") / ps["single_steps"] * 1e6


def _coupling(c: Caller, env: Env, ps: dict, ns: dict, m: dict) -> None:
    # One chunk, so each coupling runs on one thread, like the quantile
    # timings that density_share divides by.
    traj, steps = ps["pair_traj"], ps["pair_steps"]
    args = (steps, A10, 11 + env.seed, traj)
    zy = c.call("coupling.couple_z_yprime", dg.couple_z_yprime, 0.5, *args, threads=env.threads)
    c.call("coupling.couple_y_yprime", dg.couple_y_yprime, 0.1, *args, threads=env.threads)
    c.call("coupling.couple_y_w", dg.couple_y_w, 0.5, *args, threads=env.threads)
    pair_steps = traj * steps
    total = 0.0
    for name in ("z_yprime", "y_yprime", "y_w"):
        seconds = _best(c, f"coupling.couple_{name}")
        total += seconds
        m[f"coupling.{name}_ns_per_pair_step"] = seconds / pair_steps * 1e9
    m["coupling.ordering_violations"] = zy.ordering_violations
    # Quantiles per pair-step: Z/YPrime one half-line and one folded;
    # Y/YPrime one half-line and one [0,1]; Y/W one [0,1].
    quantile_ns = (2 * ns["halfline_quantile_ns"] + 2 * ns["trunc_quantile_ns"]
                   + ns["folded_quantile_ns"])
    m["coupling.density_share"] = quantile_ns * 1e-9 * pair_steps / total


def _grid(c: Caller, ps: dict, m: dict) -> None:
    n, steps = ps["grid_n"], ps["grid_steps"]
    start = dg.point_mass(0.0, 0.0, n)
    for tag, params in (("a50", A50), ("a250", A250)):
        # Per-step cost from outside: the difference cancels operator set-up.
        c.call(f"grid.evolve_2d {tag} T=0", dg.evolve_2d, start, 0, params)
        evolved = c.call(f"grid.evolve_2d {tag}", dg.evolve_2d, start, steps, params)
        step_s = (c.seconds[f"grid.evolve_2d {tag}"][0] - c.seconds[f"grid.evolve_2d {tag} T=0"][0]) / steps
        m[f"grid.step_ms_{tag}"] = step_s * 1e3
    for _ in range(ps["reps"]):
        target = c.call("grid.build_discretized_target a=250", dg.build_discretized_target, A250, n)
    m["grid.target_build_ms"] = _best(c, "grid.build_discretized_target a=250") * 1e3
    for _ in range(ps["tv_reps"]):
        c.call("grid.tv_distance", dg.tv_distance, evolved, target)
    m["grid.tv_ms"] = _best(c, "grid.tv_distance") * 1e3
    moved = c.call("grid.evolve_2d target a=250", dg.evolve_2d, target, 1, A250)
    m["grid.fixed_point_drift"] = c.call("grid.tv_distance drift", dg.tv_distance, moved, target)
    m["grid.band_offsets_a250"] = int(np.count_nonzero(target.weights[:, 0] > 0.0))

    k, kn = ps["kernel_steps"], ps["kernel_n"]
    c.call("grid.worst_case_distance_d T=0", dg.worst_case_distance_d, 0, A10, kn)
    c.call("grid.worst_case_distance_d", dg.worst_case_distance_d, k, A10, kn)
    product_s = (c.seconds["grid.worst_case_distance_d"][0]
                 - c.seconds["grid.worst_case_distance_d T=0"][0]) / k
    m["grid.kernel_product_ms"] = product_s * 1e3
    c.call("grid.worst_case_distance_dbar", dg.worst_case_distance_dbar,
           ps["dbar_s"], ps["dbar_t"], A10, kn)
    m["grid.dbar_s"] = _best(c, "grid.worst_case_distance_dbar")


def _cli(c: Caller, env: Env, ps: dict, m: dict) -> None:
    """CLI mix minus a direct find_mixing_time call with the same arguments.

    a = 10 on a 200-cell grid keeps the search short enough (~25 ms) that
    the CLI's own cost (parsing, manifest, CSV and JSON output) resolves.
    """
    n = ps["cli_n"]
    argv = ["mix", "--a", "10", "--n", str(n), "--out-dir", env.tmpdir]
    for _ in range(5):
        c.call("cli.main mix a=10", quiet(cli.main), argv)
        result = c.call("grid.find_mixing_time a=10", dg.find_mixing_time,
                        (0.0, 0.0), 0.25, A10, n, 1_000_000)
    m["cli.mix_overhead_s"] = _best(c, "cli.main mix a=10") - _best(c, "grid.find_mixing_time a=10")
    m["grid.mix_steps"] = result.t_mix


def run(c: Caller, env: Env, profile: str) -> dict:
    """All probes; returns the per-layer metrics (without trace.overhead_frac)."""
    ps = PROBE_SIZES[profile]
    c.start_pass()
    m: dict = {}
    ns = _density(c, ps, env.seed, m)
    _chains(c, env, ps, ns["trunc_quantile_ns"], m)
    _coupling(c, env, ps, ns, m)
    _grid(c, ps, m)
    _cli(c, env, ps, m)
    return m
