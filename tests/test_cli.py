"""Command-line interface: subcommands, outputs, exit codes, manifests.

The output digests pin every file a run writes, its stdout and its exit
code, over a fixed table of small runs of every subcommand.  Like
``tests/test_golden.py`` they are tied to the numpy and scipy builds they
were recorded with (numpy 2.4.6, scipy 1.17.1).  After an intended change
of outputs, print the table afresh with ``PYTHONPATH=src python
tests/test_cli.py`` and say why in CHANGES.md.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from diagonal_gibbs import ModelParams, cli
from diagonal_gibbs.cli import OUT_DIR_ENV, build_parser, main, resolve_config
from diagonal_gibbs.grid import worst_case_distances
from diagonal_gibbs.version import __version__


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# output digests
# ----------------------------------------------------------------------

def _failing_distances(s, t, params, n):
    # the true d, and dbar(s + t) = 0.3 > dbar(s) dbar(t) = 0.25:
    # submultiplicativity fails
    d_s, d_t, *_ = worst_case_distances(s, t, params, n)
    return d_s, d_t, 0.5, 0.5, 0.3


_SMALL_VERIFY = ["verify", "--a", "10", "--n", "40", "--n-pairs", "20",
                 "--trajectories", "50", "--steps", "30", "--grid", "20"]

# run name -> argv; each run writes into --out-dir <name>, relative to the
# working directory, so its manifest holds no absolute path
_DIGEST_RUNS = {
    "sim_y": ["sim", "--process", "y", "--steps", "30", "--seed", "3"],
    "sim_x": ["sim", "--process", "x", "--steps", "20", "--start", "0.2,0.9"],
    "sim_y_ensemble": ["sim", "--process", "y", "--trajectories", "50", "--steps", "40",
                       "--start", "0.1"],
    "sim_x_ensemble": ["sim", "--process", "x", "--trajectories", "20", "--steps", "10"],
    "sim_w_ensemble": ["sim", "--process", "w", "--trajectories", "30", "--steps", "25",
                       "--seed", "5"],
    "sim_xstar": ["sim", "--process", "xstar", "--steps", "15", "--start", "0.3,0.6"],
    "sim_yprime": ["sim", "--process", "yprime", "--steps", "25", "--start", "2.5"],
    "sim_z": ["sim", "--process", "z", "--steps", "25", "--seed", "4"],
    "sim_w": ["sim", "--process", "w", "--steps", "30", "--seed", "2", "--start", "0.8"],
    "sim_yprime_ensemble": ["sim", "--process", "yprime", "--trajectories", "30",
                            "--steps", "25", "--start", "0.4", "--seed", "6"],
    "sim_z_ensemble": ["sim", "--process", "z", "--trajectories", "25", "--steps", "20",
                       "--start", "1.5"],
    "evolve": ["evolve", "--a", "10", "--n", "32", "--steps", "5", "--pgm", "state.pgm"],
    "mix": ["mix", "--a", "10", "--n", "40"],
    "mix_not_converged": ["mix", "--a", "50", "--n", "40", "--max-steps", "5"],
    "verify": _SMALL_VERIFY,
    "verify_fails": _SMALL_VERIFY,  # run with _failing_distances
    "constants": ["constants", "--alpha", "0.2", "--delta", "0.05"],
    "heatmap_target": ["heatmap", "--a", "10", "--n", "24", "--out", "t.pgm"],
    "dbar": ["dbar", "--a", "10", "--n", "20", "--s", "5", "--t", "7"],
}

# sha256 of exit code, stdout and every file written, per run
_DIGESTS = {
    "constants": "95f2c5e06dadeb43f6be67b6f49cd471dabcc4d1516d6ad1e31e534a0d5dd4b9",
    "dbar": "895700026f87d135f3138b0f641601ed2df5bbca7495ca34e5786561b6f99a1a",
    "evolve": "b521c9430e9956625af4d7b2ac8598e51f4bf0edf16e5e421278435b41249109",
    "heatmap_target": "c162fc163de4b39e087adb522630c057a71424b85cb59be14a0c7206f5ce9890",
    "mix": "98fe384aae4c40f617c7f17f05b70d97680759ce61d2238e5715be4fa63835d3",
    "mix_not_converged": "8b10e37c0b2112f38fa19f77a701f6e78faa5f3ea786a1f6179f3ab09d6c6f89",
    "sim_w": "b58d31be6fced6b43efae12a2d9eced597c8d9899e674b5d7ff66a541d9c4e36",
    "sim_w_ensemble": "a29894f97d18577517901eb3e96f7c423fb9b87b0e19622619ee709044f4ebc3",
    "sim_x": "6d104254c0e71d6cd53ccdcfe5860793135f364b181e950836de196287b6c504",
    "sim_x_ensemble": "dd3e0f07dd52827756450bb2eeb1eb34da5a19aeaeaa9c611705323f6509013d",
    "sim_xstar": "d87c800a333af21bfefefe1f538095b7c17e6326edffc1d97abdc2dce9c071ad",
    "sim_y": "9232ff0d91ed0fdcc6112bd91c66da8fac00a80c9f70266d1eeaf57a344a241c",
    "sim_y_ensemble": "088161fb80530374432038ead5c4115f4f244082ba2d94fd02d777b88368b0fe",
    "sim_yprime": "876f6f018ee9ce1aa01fe3cea960c0bfd575641b2e6e7ce1f3fc17eb6bb8bf87",
    "sim_yprime_ensemble": "1a6845cd71c8525db8d720ad117ef17cb3617fe73e4e0c2e4cfc0606c8587a93",
    "sim_z": "f770c39ef53b2d1d5d208e295e808cb0e5e9c28a29b3867663bc094b7e5aa453",
    "sim_z_ensemble": "0e4be4b516d26bd9837e1b669f8732c827904a821b376df7ed0290ac7672cf5d",
    "verify": "fc00a9fb32feb4f536d4d6f8f24b60e349a04b5aeee9ad4f370ff8b03cacfa59",
    "verify_fails": "c9fb22fc596f1a9a1878afeabc6421d9c438bf8422002acbdcda01e3d8a11856",
}


def _output_digest(name: str) -> str:
    """Run one table entry in the working directory and hash what it left."""
    patch = (
        mock.patch.object(cli, "worst_case_distances", _failing_distances)
        if name == "verify_fails" else contextlib.nullcontext()
    )
    out, err = io.StringIO(), io.StringIO()
    with patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_DIGEST_RUNS[name] + ["--out-dir", name])
    h = hashlib.sha256()
    for label, blob in [("exit", str(code).encode()), ("stdout", out.getvalue().encode())] + [
        (path.name, path.read_bytes()) for path in sorted(Path(name).iterdir())
    ]:
        h.update(f"{label} {len(blob)}\n".encode())
        h.update(blob)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_DIGEST_RUNS))
def test_output_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _output_digest(name) == _DIGESTS[name]


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------

def test_constants_stdout_bands_and_manifest(tmp_path, capsys):
    code, out, _ = run_cli(["constants", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert 0.0501 <= payload["beta4"] <= 0.0511
    assert 0.260 <= payload["gamma"] <= 0.264
    assert payload["below_one_third"] is True
    assert read_json(tmp_path / "result.json") == payload
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["command"] == "constants"
    assert manifest["version"] == __version__
    assert manifest["config"]["alpha"] == 0.10


# ----------------------------------------------------------------------
# mix
# ----------------------------------------------------------------------

def test_mix_small_grid_outputs_and_rerun_identical(tmp_path, capsys):
    argv = ["mix", "--a", "10", "--n", "100", "--out-dir", str(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["t_mix"] > 0
    assert payload["tv_final"] <= 0.25
    assert read_json(tmp_path / "result.json") == payload

    curve = (tmp_path / "tv_curve.csv").read_text().splitlines()
    assert curve[0] == "t,tv"
    assert len(curve) == payload["t_mix"] + 2  # header + t = 0 .. t_mix

    # identical manifest => byte-identical outputs
    before = {
        name: (tmp_path / name).read_bytes()
        for name in ("manifest.json", "result.json", "tv_curve.csv")
    }
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    for name, blob in before.items():
        assert (tmp_path / name).read_bytes() == blob


def test_mix_not_converged_exits_3_with_diagnostics(tmp_path, capsys):
    code, out, _ = run_cli(
        ["mix", "--a", "50", "--n", "50", "--max-steps", "40",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["status"] == "not_converged"
    diag = read_json(tmp_path / "diagnostics.json")
    assert diag["max_steps"] == 40
    assert len(diag["tv_tail"]) == 10
    assert all(isinstance(x, float) for x in diag["tv_tail"])
    assert not (tmp_path / "result.json").exists()


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------

def test_sim_single_trajectory_csv_and_summary(tmp_path, capsys):
    code, out, _ = run_cli(
        ["sim", "--process", "y", "--steps", "50", "--seed", "3",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["process"] == "Y"
    assert summary["steps"] == 50
    assert "nu_m" in summary["stopping_times"]
    assert read_json(tmp_path / "result.json") == summary

    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,value"
    assert len(lines) == 52  # header + 51 states
    assert lines[1].startswith("0,0.5")


def test_sim_planar_trajectory_has_two_columns(tmp_path, capsys):
    code, out, _ = run_cli(
        ["sim", "--process", "x", "--steps", "20", "--start", "0.2,0.9",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert len(summary["terminal"]) == 2
    assert "direction_changes" in summary
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "step,u,v"
    assert lines[1] == "0,0.2,0.9"
    # a run without steps has no direction changes
    for process in ("x", "xstar"):
        code, out, _ = run_cli(
            ["sim", "--process", process, "--steps", "0", "--start", "0.2,0.9",
             "--out-dir", str(tmp_path / process)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["direction_changes"] == 0


def test_sim_ensemble_reports_hitting_quantiles(tmp_path, capsys):
    code, out, _ = run_cli(
        ["sim", "--process", "y", "--trajectories", "2000", "--steps", "200",
         "--start", "0.1", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trajectories"] == 2000
    nu_m = payload["nu_m"]
    assert nu_m["reached_fraction"] > 0.95
    assert 0 < nu_m["q25"] <= nu_m["median"] <= nu_m["q75"] < 200
    assert 0.0 < payload["terminal_mean"] < 1.0


def test_sim_ensemble_planar_direction_stats(tmp_path, capsys):
    code, out, _ = run_cli(
        ["sim", "--process", "x", "--trajectories", "500", "--steps", "50",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.4 < payload["u_direction_fraction"] < 0.6
    assert payload["mean_direction_changes"] > 0.0
    assert 0.0 < payload["terminal_u_mean"] < 1.0


@pytest.mark.parametrize("process", ["x", "y", "yprime", "z", "w"])
def test_sim_ensemble_without_steps_writes_strict_json(tmp_path, capsys, process):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run_cli(
            ["sim", "--process", process, "--steps", "0", "--trajectories", "3",
             "--out-dir", str(tmp_path)],
            capsys,
        )
    assert code == 0

    def reject(name):
        raise ValueError(f"result.json holds {name}, which is not JSON")

    payload = json.loads((tmp_path / "result.json").read_text(), parse_constant=reject)
    assert payload["steps"] == 0
    if process == "x":
        assert payload["u_direction_fraction"] is None


def test_sim_ensemble_rejects_xstar(tmp_path, capsys):
    # a usage error, raised before anything is written
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--process", "xstar", "--trajectories", "5",
              "--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "ensemble" in capsys.readouterr().err
    assert not (out_dir / "manifest.json").exists()


def test_sim_ensemble_output_independent_of_threads(tmp_path, capsys, monkeypatch):
    # three chunks, run on one thread and on two; the count is in no manifest
    results = []
    for threads in (1, 2):
        monkeypatch.setattr(cli, "THREADS", threads)
        out_dir = tmp_path / str(threads)
        argv = ["sim", "--process", "x", "--trajectories", "40000", "--steps", "3"]
        assert run_cli(argv + ["--out-dir", str(out_dir)], capsys)[0] == 0
        assert "threads" not in read_json(out_dir / "manifest.json")["config"]
        results.append((out_dir / "result.json").read_bytes())
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# evolve / heatmap
# ----------------------------------------------------------------------

def test_evolve_reports_distances_and_exports_pgm(tmp_path, capsys):
    code, out, _ = run_cli(
        ["evolve", "--a", "10", "--n", "64", "--steps", "10",
         "--pgm", "state.pgm", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["tv_to_target"] <= 1.0
    assert 0.0 <= payload["corner_set_mass"] <= 1.0
    assert payload["corner_set_mass_target"] >= 0.25
    blob = (tmp_path / "state.pgm").read_bytes()
    assert blob.startswith(b"P5\n64 64\n65535\n")
    assert (tmp_path / "state.pgm.json").exists()


def test_evolve_pgm_is_the_former_heatmap_evolved_export(tmp_path, capsys):
    # the bytes `heatmap --a 10 --n 24 --steps 3 --start 0.5,0.1` wrote when
    # heatmap could still export an evolved state
    code, _, _ = run_cli(
        ["evolve", "--a", "10", "--n", "24", "--steps", "3", "--start", "0.5,0.1",
         "--pgm", "target.pgm", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    for name, digest in (
        ("target.pgm", "2e01f681a885cc47b1dc075fabbaae366e87966e5b1dae5e901f9903cd1cfa95"),
        ("target.pgm.json", "a31bbe770459307efc9092d3cc0854cf30d5c3a57adfbe9173023f9d16c87e18"),
    ):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_heatmap_target_pgm_and_sidecar(tmp_path, capsys):
    code, out, _ = run_cli(
        ["heatmap", "--a", "10", "--n", "48", "--out", "t.pgm",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"a": 10.0, "n": 48, "pgm": "t.pgm"}
    header = b"P5\n48 48\n65535\n"
    blob = (tmp_path / "t.pgm").read_bytes()
    assert blob.startswith(header)
    assert len(blob) == len(header) + 48 * 48 * 2
    sidecar = read_json(tmp_path / "t.pgm.json")
    assert sidecar["n"] == 48
    assert "PGM" in sidecar["format"]


# ----------------------------------------------------------------------
# dbar / verify
# ----------------------------------------------------------------------

def test_dbar_sandwich_and_submultiplicativity(tmp_path, capsys):
    code, out, _ = run_cli(
        ["dbar", "--a", "10", "--n", "30", "--s", "10", "--t", "15",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["submultiplicative"] is True
    assert payload["sandwich_ok"] is True
    assert payload["dbar_s_plus_t"] <= payload["dbar_s"] * payload["dbar_t"] * (1 + 1e-9)


@pytest.mark.parametrize("a", ["0.5", "1", "2"])
def test_verify_passes_at_the_roundoff_floor(tmp_path, capsys, a):
    # at s = t = 50 on n = 100, dbar is about 5e-16 and dbar(s) dbar(t)
    # about 3e-31, so only an absolute slack tells roundoff from a failure
    code, out, _ = run_cli(
        ["verify", "--a", a, "--n", "40", "--trajectories", "50", "--steps", "30",
         "--grid", "20", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks["submultiplicative"]["dbar_s"] < 1e-14
    assert checks["submultiplicative"]["passed"] is True
    code, out, _ = run_cli(["dbar", "--a", a, "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["submultiplicative"] is True


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "worst_case_distances", _failing_distances)
    argv = _DIGEST_RUNS["verify_fails"] + ["--out-dir", str(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["checks"]["submultiplicative"]["passed"] is False
    assert read_json(tmp_path / "result.json") == payload


def test_distance_checks_take_each_power_once(monkeypatch):
    # verify's d and dbar at s = t = 50 share one kernel and one K^50
    powers = []
    matrix_power = np.linalg.matrix_power

    def counted(matrix, u):
        powers.append(u)
        return matrix_power(matrix, u)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    checks = cli._distance_checks(50, 50, ModelParams(10.0), 20)
    assert powers == [50]
    assert checks["sandwich_ok"] and checks["submultiplicative"]


def test_verify_suite_passes_at_small_sizes(tmp_path, capsys):
    code, out, _ = run_cli(
        ["verify", "--a", "10", "--n", "100", "--n-pairs", "40",
         "--trajectories", "300", "--steps", "150", "--grid", "40",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    for name, entry in payload["checks"].items():
        assert entry["passed"] is True, name
    assert payload["checks"]["coupling_ordering_violations"]["value"] == 0


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------

def test_config_file_used_but_flags_win(tmp_path, capsys):
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps({"a": 25.0, "n": 64, "max-steps": 5000}))
    code, out, _ = run_cli(
        ["mix", "--config", str(conf_path), "--n", "48",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["config"]["a"] == 25.0       # from file
    assert manifest["config"]["n"] == 48         # flag wins
    assert manifest["config"]["max_steps"] == 5000
    assert json.loads(out)["a"] == 25.0


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    code, _, _ = run_cli(["constants"], capsys)
    assert code == 0
    assert (tmp_path / "result.json").exists()
    assert read_json(tmp_path / "manifest.json")["config"]["out_dir"] == str(tmp_path)


@pytest.mark.parametrize("argv, side_files", [
    (["sim", "--process", "y", "--steps", "5"], ["trajectory.csv"]),
    (["mix", "--a", "10", "--n", "40"], ["tv_curve.csv"]),
])
def test_manifest_config_replays(tmp_path, capsys, monkeypatch, argv, side_files):
    first = tmp_path / "first"
    assert run_cli(argv + ["--out-dir", str(first)], capsys)[0] == 0
    conf_path = tmp_path / "conf.json"
    conf_path.write_text(json.dumps(read_json(first / "manifest.json")["config"]))
    replay = [argv[0], "--config", str(conf_path)]

    # the --out-dir flag wins over the file's out_dir
    again = tmp_path / "again"
    code, out, _ = run_cli(replay + ["--out-dir", str(again)], capsys)
    assert code == 0
    assert json.loads(out) == read_json(first / "result.json")
    for name in ["result.json"] + side_files:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name

    # the file's out_dir wins over the environment
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "env"))
    (first / "result.json").unlink()
    assert run_cli(replay, capsys)[0] == 0
    assert (first / "result.json").exists()
    assert not (tmp_path / "env").exists()


# resolved configuration of a default run, recorded before the flag table
_DEFAULT_CONFIGS = {
    "sim": {"a": 10.0, "delta": 0.05, "process": "x", "seed": 0, "start": None,
            "steps": 1000, "trajectories": 1},
    "evolve": {"a": 10.0, "n": 500, "pgm": None, "start": "0,0", "steps": 100},
    "mix": {"a": 10.0, "eps": 0.25, "max_steps": 1000000, "n": 500, "start": "0,0"},
    "verify": {"a": 10.0, "grid": 200, "n": 500, "n_pairs": 100,
               "seed": 0, "steps": 400, "trajectories": 2000},
    "constants": {"alpha": 0.1, "delta": 0.0, "eps_slack": 0.0},
    "heatmap": {"a": 10.0, "n": 500, "out": "target.pgm"},
    "dbar": {"a": 10.0, "n": 100, "s": 50, "t": 50},
}


@pytest.mark.parametrize("command", sorted(_DEFAULT_CONFIGS))
def test_default_config_resolves_unchanged(command):
    resolved = resolve_config(build_parser().parse_args([command, "--out-dir", "out"]))
    expected = {**_DEFAULT_CONFIGS[command], "out_dir": "out"}
    # compared as the manifest writes them, where 10 and 10.0 differ
    assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("process", ["yprime", "z"])
def test_sim_half_line_start_beyond_one(tmp_path, capsys, process):
    code, out, _ = run_cli(
        ["sim", "--process", process, "--start", "3", "--steps", "20",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["steps"] == 20
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[1].startswith("0,3")


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mix", "--a", "-4", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # counts below their least meaningful value, or not integers at all
    for argv in (
        ["sim", "--steps", "-5"],
        ["sim", "--seed", "-1"],
        ["sim", "--trajectories", "3", "--steps", "-2"],
        ["sim", "--trajectories", "0"],
        ["sim", "--steps", "ten"],
        ["mix", "--n", "1"],
        ["mix", "--max-steps", "-1"],
        ["evolve", "--steps", "-1"],
        ["verify", "--grid", "1"],
        ["verify", "--n-pairs", "1"],
        ["heatmap", "--n", "0"],
        ["dbar", "--s", "-1"],
        ["dbar", "--t", "-1"],
        # a --start of the wrong form for its process or command
        ["sim", "--process", "y", "--start", "0.1,0.2"],
        ["sim", "--process", "x", "--start", "0.5"],
        ["sim", "--process", "x", "--start", "0.1,v"],
        ["mix", "--start", "0.5"],
        # a --start of the right form outside its process's range
        ["sim", "--process", "x", "--start", "2,3"],
        ["sim", "--process", "xstar", "--start", "0.5,1.5"],
        ["sim", "--process", "y", "--start", "1.5"],
        ["sim", "--process", "w", "--start=-0.5"],
        ["sim", "--process", "yprime", "--start=-1"],
        ["sim", "--process", "z", "--start", "inf"],
        ["sim", "--process", "z", "--start", "nan"],
        ["mix", "--start", "2,3"],
        ["evolve", "--start=-1,0"],
        # --delta outside sim and constants, and heatmap's former evolve inputs
        ["mix", "--delta", "0.1"],
        ["dbar", "--delta", "0.1"],
        ["heatmap", "--steps", "3"],
        ["heatmap", "--start", "0,0"],
        # model values and other inputs out of range
        ["sim", "--delta", "2"],
        ["sim", "--a", "inf"],
        ["mix", "--a", "1e-200"],  # 1/(2 a^2) overflows to inf
        ["sim", "--a", "1e200"],  # 1/(2 a^2) underflows to 0
        # a [0, 1] truncation whose mass cancels to 0 (sigma about 7e16)
        ["sim", "--a", "1e-17"],
        ["sim", "--process", "y", "--trajectories", "3", "--a", "1e-17"],
        ["constants", "--delta", "-1"],
        ["constants", "--eps-slack", "-5"],
        ["constants", "--eps-slack", "inf"],
        ["mix", "--eps", "0"],
        ["mix", "--eps", "1.5"],
        ["sim", "--config", str(tmp_path / "missing.json")],
        # an output name with a directory part, which would leave --out-dir
        ["heatmap", "--out", str(tmp_path / "x.pgm")],
        ["heatmap", "--out", "sub/x.pgm"],
        ["evolve", "--pgm", "../x.pgm"],
        ["heatmap", "--out", ".."],
        # an output name that is, or whose .json sidecar is, a file the run writes
        ["heatmap", "--out", "manifest.json"],
        ["heatmap", "--out", "result"],
        ["heatmap", "--out", "diagnostics.json"],
        ["evolve", "--pgm", "manifest"],
        ["evolve", "--pgm", "trajectory.csv"],
        ["evolve", "--pgm", "tv_curve.csv"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path / "bad")])
        assert exc.value.code == 2, argv
    # an --out-dir that is an existing file, or lies beneath one
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out_dir in (afile, afile / "sub"):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--out-dir", str(out_dir)])
        assert exc.value.code == 2, out_dir
    assert afile.read_text() == "kept\n"
    # --config values pass the same checks as the flags they name
    conf_path = tmp_path / "bad.json"
    conf_path.write_text(json.dumps({"steps": -2}))
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--config", str(conf_path), "--trajectories", "3",
              "--out-dir", str(tmp_path / "bad")])
    assert exc.value.code == 2
    conf_path.write_text(json.dumps({"start": "0.5"}))
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--config", str(conf_path), "--process", "x",
              "--out-dir", str(tmp_path / "bad")])
    assert exc.value.code == 2
    # a --config key that names no flag of the subcommand, or no JSON object
    for command, content in (("sim", {"stepz": 5, "a": 12}), ("sim", [1, 2]),
                             ("verify", {"delta": 0.1})):
        conf_path.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(conf_path), "--out-dir", str(tmp_path / "bad")])
        assert exc.value.code == 2, content
    assert not (tmp_path / "bad").exists()
    assert not (tmp_path / "x.pgm").exists()
    capsys.readouterr()


def test_tiny_a_still_runs_the_untruncated_processes(tmp_path, capsys):
    # no [0, 1] truncation, so the a that sim x, xstar and y reject runs here
    for process in ("yprime", "z", "w"):
        argv = ["sim", "--process", process, "--a", "1e-17", "--steps", "3"]
        assert main(argv + ["--out-dir", str(tmp_path / process)]) == 0
    capsys.readouterr()


def test_console_script_entry_point_and_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["diagonal-gibbs"] == "diagonal_gibbs.cli:main"

    module, _, attr = scripts["diagonal-gibbs"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main

    # a fresh interpreter, as the installed script would start one
    proc = subprocess.run(
        [sys.executable, "-c", f"from {module} import {attr}; {attr}(['--version'])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == __version__


@pytest.mark.skipif(
    shutil.which("diagonal-gibbs") is None,
    reason="diagonal-gibbs console script is not on PATH (package not installed)",
)
def test_console_script_installed():
    exe = shutil.which("diagonal-gibbs")
    assert exe is not None
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for run_name in sorted(_DIGEST_RUNS):
            print(f'    "{run_name}": "{_output_digest(run_name)}",')
