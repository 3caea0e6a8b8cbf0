"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and checks that
each run exits 0 and ends with a result line that passes every check and
carries exactly the metrics BENCHMARK.json names for that mode, each with
its unit.  The human-readable lines must show every end-to-end metric the
workload reports, with unit and sample count.  Then it checks that a
deliberately wrong reference value makes a run fail (fail_frac > 0), and
that a directory without the package source gives a nonzero exit and no
result.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_out", "smoke")

# End-to-end metrics each workload must print by name.
PRINTED = {
    "mixing": ("t_mix_s", "op_steps_per_s"),
    "ensemble": ("traj_steps_per_s",),
    "coupling": ("pair_steps_per_s",),
}
COMMON = ("setup_s", "wall_s", "peak_rss_mb", "fail_frac")


def run(workload: str, trace: int, *extra: str, cwd: str = ROOT, script: str = RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "0", "--seconds", "0.1",
           "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done) -> tuple[dict, list[str]]:
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_run(workload: str, trace: int, bench: dict) -> list[str]:
    problems = []
    done = run(workload, trace)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr[-500:]}"]
    result, lines = result_of(done)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"checks failed: {lines[-25:]}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: entry.get("unit") for name, entry in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[n for n in got if got[n] != expected.get(n)]}")
    if not all(isinstance(e["value"], (int, float)) for e in result["metrics"].values()):
        problems.append("a metric value is not a number")
    if not trace:
        for name in COMMON + PRINTED[workload]:
            if not any(line.split()[:1] == [name] and " n=" in line for line in lines):
                problems.append(f"{name} not printed with its unit and sample count")
    return problems


def check_wrong_reference() -> list[str]:
    """Each workload, with one recorded tiny-size reference value altered."""
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    refs["mixing"]["tiny"]["any"]["cli.main mix a=50"]["t_mix"] += 1
    refs["ensemble"]["tiny"]["0"]["chains.run_x_ensemble"]["sha256"] = "0" * 64
    refs["coupling"]["tiny"]["0"]["coupling.verify_dominance_inequality"]["gap"] += 1e-9
    path = os.path.join(SCRATCH, "wrong-references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh)
    problems = []
    for workload in PRINTED:
        done = run(workload, 0, "--references", path)
        if done.returncode != 0:
            problems.append(f"{workload}: exit code {done.returncode}")
            continue
        result, lines = result_of(done)
        fail_frac = [line for line in lines if line.split()[:1] == ["fail_frac"]]
        if result["correct"] or result["failed"] < 1 or not fail_frac or float(fail_frac[0].split()[1]) <= 0:
            problems.append(f"{workload}: a wrong reference went unnoticed")
    return problems


def check_without_source() -> list[str]:
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run("mixing", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    if done.returncode == 0 or done.stdout.strip():
        return [f"without src/: exit code {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    failures = []
    try:
        for workload in PRINTED:
            for trace in (0, 1):
                failures += [f"{workload} trace={trace}: {p}" for p in check_run(workload, trace, bench)]
        failures += check_wrong_reference()
        failures += check_without_source()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
