"""Benchmark for the diagonal_gibbs package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mixing --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; there is nothing to
build.  Workloads are defined in ``workloads.py`` and listed, with why each
was chosen, in ``BENCHMARK.json``.

An untraced run (``--trace 0``) reports the end-to-end metrics:

  setup_s       median over fresh processes, started between the passes, of:
                import diagonal_gibbs plus one minimal call into each public
                function the workload uses
  wall_s        median wall time of one full pass (set-up excluded)
  peak_rss_mb   peak resident set size of this process
  steps_per_s   median over passes of the workload's own step rate:
                op_steps_per_s (mixing), traj_steps_per_s (ensemble) or
                pair_steps_per_s (coupling)

A traced run (``--trace 1``) alternates untraced and traced passes, then
runs the per-layer probes of ``probes.py``, and reports the per-layer
metrics plus trace.overhead_frac.  Spans are written to
``.bench_out/trace-<workload>-seed<seed>.json`` when the run ends.

Human-readable lines come first, including fail_frac and the
workload-specific metric names with units and sample counts; the last line
of standard output is the JSON result.  ``--workload all`` runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOAD_NAMES = ("mixing", "ensemble", "coupling")

SETUP_SAMPLES = 7
MIN_PASSES = 3          # untraced run
MIN_TRACED_PASSES = 2   # of each kind, traced run
MAX_THREADS = 2

UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "steps_per_s": "1/s",
    "fail_frac": "1", "t_mix_s": "s", "op_steps_per_s": "1/s",
    "traj_steps_per_s": "1/s", "pair_steps_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="time budget for the measured passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny only exercises the code paths (smoke test)")
    p.add_argument("--references", default=REFERENCES,
                   help="JSON file of recorded reference values")
    p.add_argument("--record", action="store_true",
                   help="run one pass and store its checked values as the references for this seed")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def ensemble_threads() -> int:
    return max(1, min(MAX_THREADS, nproc()))


def machine_info() -> dict:
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    info = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ensemble_threads": ensemble_threads(),
        "load": f"closed loop, one caller; each call is issued after the previous one "
                f"returns; at most {ensemble_threads()} threads, never more than nproc",
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = "unknown"
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = fn()
                break
    return info


def load_refs(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def setup_child(args) -> int:
    """Fresh-process set-up: import plus one minimal call per public function."""
    t0 = perf_counter()
    import diagonal_gibbs  # noqa: F401  (timed: the import is part of set-up)
    from workloads import SIZES, WORKLOADS, Env

    tmpdir = os.path.join(OUT, f"setup-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        WORKLOADS[args.workload].warmup(Env(SIZES[args.size], args.seed, ensemble_threads(), tmpdir))
        elapsed = perf_counter() - t0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(repr(elapsed))
    return 0


def setup_sample(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def enough_passes(passes, trace: bool) -> bool:
    if not trace:
        return len(passes) >= MIN_PASSES
    traced = sum(1 for p in passes if p[0])
    return min(traced, len(passes) - traced) >= MIN_TRACED_PASSES


def measure(args, w, env, c, tracer, setup):
    """Warm up, run passes within the time budget, then (traced) the probes.

    An untraced run also appends set-up samples to ``setup``, one before
    each pass, so that they span the run like the passes do.  Returns the
    passes as (traced, wall seconds, pass metrics) and the per-layer
    metrics of the probes.
    """
    sample_setup = not (args.trace or args.record)
    w.warmup(env)
    passes = []
    while True:
        if sample_setup:
            setup.append(setup_sample(args))
        # Untraced and traced passes in ABBA order, so a drift over the
        # run does not bias trace.overhead_frac.
        traced = bool(args.trace) and len(passes) % 4 in (1, 2)
        c.tracer = tracer if traced else None
        c.start_pass()
        failures_before = len(c.failures)
        t0 = perf_counter()
        try:
            with tracer.span(f"pass.{w.name}") if traced else nullcontext():
                rates = w.run_pass(c, env)
        except (KeyError, TypeError):
            if len(c.failures) == failures_before:
                raise
            rates = {}  # a call failed, so its rate is missing; already counted
        passes.append((traced, perf_counter() - t0, rates))
        # Stop before a pass that would end past the time budget.
        walls = [p[1] for p in passes]
        if args.record or (enough_passes(passes, args.trace)
                           and sum(walls) + statistics.median(walls) > args.seconds):
            break
    while sample_setup and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args))
    if not args.trace:
        return passes, {}
    import probes

    c.tracer = tracer
    failures_before = len(c.failures)
    try:
        with tracer.span("probe"):
            return passes, probes.run(c, env, args.size)
    except (KeyError, TypeError, AttributeError):
        if len(c.failures) == failures_before:
            raise
        return passes, {}  # a probe call failed and is counted; its metrics are missing


def end_to_end(w, setup, passes, c) -> dict:
    """Metric name -> (value, sample count), from the untraced passes."""
    samples = {"setup_s": setup, "wall_s": [wall for traced, wall, _ in passes if not traced]}
    for traced, _, rates in passes:
        if not traced:
            for name, value in rates.items():
                samples.setdefault(name, []).append(value)
    summary = {name: (statistics.median(v), len(v)) for name, v in samples.items() if v}
    summary["fail_frac"] = (len(c.failures) / c.attempted, c.attempted)
    summary["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    if w.rate_metric in summary:
        summary["steps_per_s"] = summary[w.rate_metric]
    return summary


def run_workload(args) -> int:
    from spans import Tracer
    from workloads import SIZES, WORKLOADS, Caller, Env

    w = WORKLOADS[args.workload]
    key = str(args.seed) if w.seeded else "any"
    expected = {} if args.record else (
        load_refs(args.references).get(w.name, {}).get(args.size, {}).get(key, {}))
    tmpdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    c = Caller(expected)
    setup = []
    try:
        env = Env(SIZES[args.size], args.seed, ensemble_threads(), tmpdir)
        passes, layer = measure(args, w, env, c, tracer, setup)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if args.record:
        return record(args, w, key, c)

    summary = end_to_end(w, setup, passes, c)
    if args.trace:
        traced_walls = [wall for traced, wall, _ in passes if traced]
        layer["trace.overhead_frac"] = (
            statistics.median(traced_walls) / summary["wall_s"][0] - 1.0)
        self_s = {name: s / len(traced_walls)
                  for name, s in tracer.layer_self_seconds("pass.").items()}
        trace_path = os.path.join(OUT, f"trace-{w.name}-seed{args.seed}.json")
        tracer.write(trace_path)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in sorted(layer.items())}
    else:
        self_s = {}
        metrics = {name: {"value": summary[name][0], "unit": UNITS[name]}
                   for name in ("setup_s", "wall_s", "peak_rss_mb", "steps_per_s") if name in summary}

    report(args, w, summary, self_s, c, passes)
    if args.trace:
        print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({"correct": not c.failures, "attempted": c.attempted,
                      "failed": len(c.failures), "metrics": metrics}))
    return 0


def report(args, w, summary, self_s, c, passes) -> None:
    info = machine_info()
    print(f"perfbench workload={w.name} seed={args.seed} size={args.size} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items() if k != "load"))
    print(f"load: {info['load']}")
    names = ["setup_s", "wall_s", "peak_rss_mb", "fail_frac", "t_mix_s", "op_steps_per_s",
             "traj_steps_per_s", "pair_steps_per_s"]
    for name in names:
        if name in summary:
            value, n = summary[name]
            print(f"  {name:18s} {value:14.6g} {UNITS[name]:4s} n={n}")
    print(f"  calls: {c.attempted} attempted, {len(c.failures)} failed")
    print("  pass walls (s): " + " ".join(f"{wall:.3f}{'T' if traced else ''}"
                                         for traced, wall, _ in passes))
    if self_s:
        print("  self time per traced pass: "
              + ", ".join(f"{layer} {s:.4f} s" for layer, s in sorted(self_s.items())))
    for failure in c.failures[:20]:
        print(f"  FAILED {failure}")


def record(args, w, key, c) -> int:
    if c.failures:
        for failure in c.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    refs = load_refs(args.references)
    refs.setdefault(w.name, {}).setdefault(args.size, {})[key] = c.observed
    with open(args.references, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(c.observed)} references for {w.name}/{args.size}/{key}")
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; one table of all their metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--references", args.references]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diagonal_gibbs", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.setup_child:
        return setup_child(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
