"""Process simulators: the planar sampler, its deterministic-direction
variant, the scalar flip chains, and the free walks.

Distributional assertions use seeded Monte Carlo with 3-sigma bands or
Kolmogorov-Smirnov tests at the 1% level; moment references come from
scipy.stats.truncnorm or closed-form half-normal formulas and are frozen.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy import stats

from diagonal_gibbs import chains
from diagonal_gibbs import (
    MixingResult,
    ModelParams,
    TrajectoryRecord,
    count_direction_changes,
    couple_y_w,
    couple_y_yprime,
    couple_z_yprime,
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


# ----------------------------------------------------------------------
# planar sampler
# ----------------------------------------------------------------------

def test_run_x_zero_steps():
    rec = run_x((0.3, 0.8), 0, ModelParams(10.0), seed=1)
    assert rec.steps == 0
    assert np.array_equal(rec.states, [[0.3, 0.8]])


def test_run_x_deterministic():
    params = ModelParams(10.0)
    rec1 = run_x((0.2, 0.9), 400, params, seed=33)
    rec2 = run_x((0.2, 0.9), 400, params, seed=33)
    assert np.array_equal(rec1.states, rec2.states)
    assert np.array_equal(rec1.direction_sequence, rec2.direction_sequence)


def test_run_x_states_stay_in_square():
    rec = run_x((0.0, 1.0), 2000, ModelParams(5.0), seed=7)
    assert np.all(rec.states >= 0.0)
    assert np.all(rec.states <= 1.0)


def test_run_x_untouched_coordinate_copies():
    rec = run_x((0.5, 0.5), 200, ModelParams(10.0), seed=12)
    states = rec.states
    for t, d in enumerate(rec.direction_sequence):
        if d == "U":
            assert states[t + 1][1] == states[t][1]
        else:
            assert states[t + 1][0] == states[t][0]


def test_step_x_truncated_moment():
    # frozen oracle: scipy.stats.truncnorm mean/std for center 0.9,
    # support [0,1], a = 50; one U step of the X engine from (0.9, 0.9)
    params = ModelParams(50.0)
    n = 10_000
    state = {key: np.full(n, value) for key, value in chains._planar_start((0.9, 0.9)).items()}
    coins = np.zeros(n, dtype=np.int64)
    chains._x_process(params, chains._x_coins).step(
        state, (coins, np.random.default_rng(8).random(n)), 0
    )
    assert np.all(state["v"] == 0.9)
    draws = state["u"]
    ref_mean, ref_std = 0.8999999999999216, 0.014142135623453926
    assert abs(draws.mean() - ref_mean) <= 3.0 * ref_std / math.sqrt(n)


def test_direction_coin_fairness():
    # pooled over 10^6 coin flips; 3 binomial standard errors
    ens = run_x_ensemble((0.5, 0.5), 1000, ModelParams(10.0), seed=5, trajectories=1000)
    frac = np.sum(ens.u_direction_count) / 1.0e6
    assert abs(frac - 0.5) <= 3.0 * 0.5 / 1000.0


def test_run_xstar_directions_are_deterministic():
    rec = run_xstar((0.2, 0.7), 6, ModelParams(10.0), seed=3)
    # odd steps rerandomize v, even steps u
    assert list(rec.direction_sequence) == ["V", "U", "V", "U", "V", "U"]
    states = rec.states
    assert states[1][0] == states[0][0]
    assert states[2][1] == states[1][1]


# ----------------------------------------------------------------------
# scalar flip chain on [0, 1]
# ----------------------------------------------------------------------

def test_run_y_start_in_middle_hits_at_zero():
    rec = run_y(0.5, 10, ModelParams(10.0), seed=2)
    assert rec.stopping_times["nu_m"] == 0
    assert rec.stopping_times["nu_m_tilde"] == 0


def test_run_y_stopping_times_rederivable():
    params = ModelParams(10.0)
    rec = run_y(0.05, 500, params, seed=21)
    path = rec.states
    in_middle = np.abs(path - 0.5) <= params.delta
    expected = int(np.argmax(in_middle)) if in_middle.any() else None
    assert rec.stopping_times["nu_m"] == expected
    assert rec.stopping_times["nu_m_tilde"] <= rec.stopping_times["nu_m"]


def test_run_y_overshoot_is_rare():
    # crossing the middle band in one step requires a jump of 2*delta*a
    # standard deviations; at a = 50 that has probability ~1e-6 per step
    params = ModelParams(50.0)
    ens = run_y_ensemble(0.1, 4000, params, seed=411, trajectories=10_000)
    nu_m = np.asarray(ens.nu_m, dtype=float)
    nu_mt = np.asarray(ens.nu_m_tilde, dtype=float)
    both = np.isfinite(nu_m) & np.isfinite(nu_mt)
    mismatches = int(np.sum(nu_m[both] != nu_mt[both]))
    # a run that reached 1/2-delta but skipped the band entirely
    mismatches += int(np.sum(np.isfinite(nu_mt) & ~np.isfinite(nu_m)))
    assert mismatches <= 1


def test_run_y_hitting_time_scale_is_stable():
    # median nu_m / a^2 should be a-independent within a factor of 2
    ratios = []
    for a in (30.0, 50.0, 100.0):
        params = ModelParams(a)
        steps = int(2.0 * a * a)
        ens = run_y_ensemble(0.1, steps, params, seed=97, trajectories=2000)
        nu_m = np.asarray(ens.nu_m, dtype=float)
        med = np.median(nu_m[np.isfinite(nu_m)])
        ratios.append(med / (a * a))
    assert max(ratios) / min(ratios) < 2.0


def test_run_y_states_stay_in_unit_interval():
    rec = run_y(0.01, 2000, ModelParams(5.0), seed=4)
    assert np.all(rec.states >= 0.0)
    assert np.all(rec.states <= 1.0)


# ----------------------------------------------------------------------
# flip chain on [0, inf)
# ----------------------------------------------------------------------

def test_run_y_prime_start_above_threshold():
    rec = run_y_prime(5.0, 10, ModelParams(10.0), seed=2)
    assert rec.stopping_times["nu_m_hat"] == 0


def test_run_y_prime_states_nonnegative():
    rec = run_y_prime(0.0, 2000, ModelParams(5.0), seed=9)
    assert np.all(rec.states >= 0.0)


def test_run_y_prime_halfnormal_first_step():
    # one step from 0 is half-normal; mean = sigma sqrt(2/pi), frozen
    params = ModelParams(10.0)
    ens = run_y_prime_ensemble(0.0, 1, params, seed=31, trajectories=100_000)
    ref_mean, ref_std = 0.05641895835477563, 0.04262512332137108
    assert abs(np.mean(ens.terminal) - ref_mean) <= 3.0 * ref_std / math.sqrt(100_000)


def test_run_y_prime_deterministic():
    params = ModelParams(10.0)
    rec1 = run_y_prime(0.3, 300, params, seed=15)
    rec2 = run_y_prime(0.3, 300, params, seed=15)
    assert np.array_equal(rec1.states, rec2.states)


# ----------------------------------------------------------------------
# free walks
# ----------------------------------------------------------------------

def test_run_z_is_nonnegative_and_tracks_signed_walk():
    rec = run_z(0.5, 500, ModelParams(10.0), seed=6)
    assert np.all(rec.states >= 0.0)
    assert np.array_equal(rec.states, np.abs(rec.aux_states))


def test_run_z_increment_variance():
    # Var of the signed walk displacement after t steps is t/(2 a^2)
    params = ModelParams(10.0)
    t = 100
    ens = run_z_ensemble(0.5, t, params, seed=13, trajectories=10_000)
    var = np.var(np.asarray(ens.terminal_signed) - 0.5)
    expected = t * params.sigma2
    assert abs(var - expected) / expected < 0.05


def test_run_z_terminal_distribution():
    # the signed walk at t = 0.3 a^2 is N(start, 0.15); KS at the 1% level
    params = ModelParams(10.0)
    t = int(0.3 * params.a**2)
    ens = run_z_ensemble(0.4, t, params, seed=14, trajectories=10_000)
    stat = stats.kstest(
        np.asarray(ens.terminal_signed), "norm", args=(0.4, math.sqrt(0.15))
    )
    assert stat.pvalue > 0.01


def test_run_w_no_step_no_exit():
    rec = run_w(0.5, 0, ModelParams(10.0), seed=1)
    assert rec.stopping_times["nu_c2"] is None


def test_run_w_increments_mean_zero():
    # total displacement after T zero-mean increments has sd sigma sqrt(T)
    params = ModelParams(10.0)
    T = 1_000_000
    rec = run_w(0.5, T, params, seed=19)
    assert abs(float(rec.terminal) - 0.5) <= 3.0 * params.sigma * math.sqrt(T)


def test_run_w_exit_probability_coarse():
    # wider-band version of the decoupling frequency check
    params = ModelParams(100.0)
    ens = run_w_ensemble(0.5, 1000, params, seed=23, trajectories=20_000)
    nu = np.asarray(ens.nu_c2, dtype=float)
    frac = np.mean(np.isfinite(nu) & (nu < 1000))
    assert 0.035 <= frac <= 0.067


# ----------------------------------------------------------------------
# direction statistics
# ----------------------------------------------------------------------

def test_count_direction_changes_cases():
    assert count_direction_changes(["V", "V", "U", "V"]) == 2
    assert count_direction_changes(["U"] * 100) == 0
    for k in (2, 5, 9):
        seq = ["U", "V"] * k
        assert count_direction_changes(seq[:k]) == k - 1
    with pytest.raises(ValueError):
        count_direction_changes([])


# ----------------------------------------------------------------------
# records and serialization
# ----------------------------------------------------------------------

def test_trajectory_record_shapes_and_csv(tmp_path):
    rec = run_x((0.1, 0.2), 50, ModelParams(10.0), seed=3)
    assert len(rec.states) == 51
    # steps and the terminal state are read off the path
    assert rec.steps == 50
    assert np.array_equal(rec.terminal, rec.states[-1])
    path = tmp_path / "traj.csv"
    rec.to_csv(path)
    body = path.read_text().splitlines()
    assert body[0] == "step,u,v"
    assert len(body) == 52
    first = body[1].split(",")
    assert float(first[1]) == 0.1 and float(first[2]) == 0.2


def test_trajectory_record_scalar_csv(tmp_path):
    rec = run_y(0.3, 20, ModelParams(10.0), seed=3)
    path = tmp_path / "traj.csv"
    rec.to_csv(path)
    body = path.read_text().splitlines()
    assert body[0] == "step,value"
    assert len(body) == 22


# signed zero, the smallest subnormal, the smallest normal, the largest
# double below 1, a sum that is not 0.3, and a value near the top of range
_EDGE_VALUES = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53, 0.1 + 0.2, 1e308])


def _assert_csv_round_trip(path, header, values):
    lines = path.read_text().splitlines()
    assert lines[0] == header
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(len(values)))
    texts = [row[1:] for row in rows]
    expected = values.reshape(len(values), -1)
    parsed = np.array([[float(x) for x in row] for row in texts])
    assert np.array_equal(parsed.view(np.int64), expected.view(np.int64))
    assert texts == [[repr(x) for x in row] for row in expected.tolist()]


@pytest.mark.parametrize("rows", [len(_EDGE_VALUES), chains._CSV_ROWS + 3])
def test_csv_writers_round_trip_exactly(tmp_path, rows):
    # every value is written as its repr and reads back with the same bits,
    # across the record writer's row blocks too
    scalar = np.resize(_EDGE_VALUES, rows)
    wide = np.column_stack((scalar, scalar[::-1]))
    params = ModelParams(10.0)
    TrajectoryRecord("W", 0, params, scalar).to_csv(tmp_path / "w.csv")
    _assert_csv_round_trip(tmp_path / "w.csv", "step,value", scalar)
    TrajectoryRecord("X", 0, params, wide).to_csv(tmp_path / "x.csv")
    _assert_csv_round_trip(tmp_path / "x.csv", "step,u,v", wide)
    MixingResult(10.0, 4, 0.25, (0.0, 0.0), rows - 1, scalar).tv_curve_csv(tmp_path / "tv.csv")
    _assert_csv_round_trip(tmp_path / "tv.csv", "t,tv", scalar)


def test_trajectory_summary_json():
    # the summary is what the CLI writes as JSON
    rec = run_x((0.5, 0.5), 30, ModelParams(10.0), seed=44)
    data = json.loads(json.dumps(rec.summary()))
    assert data["process"] == "X"
    assert data["steps"] == 30
    assert "direction_changes" in data


# ----------------------------------------------------------------------
# ensemble contracts
# ----------------------------------------------------------------------

def test_ensemble_deterministic_and_thread_independent():
    params = ModelParams(10.0)
    base = run_y_ensemble(0.2, 50, params, seed=70, trajectories=40_000)
    again = run_y_ensemble(0.2, 50, params, seed=70, trajectories=40_000)
    threaded = run_y_ensemble(0.2, 50, params, seed=70, trajectories=40_000, threads=3)
    assert np.array_equal(base.terminal, again.terminal)
    assert np.array_equal(base.terminal, threaded.terminal)
    assert np.array_equal(
        np.asarray(base.nu_m, dtype=float), np.asarray(threaded.nu_m, dtype=float),
        equal_nan=True,
    )


# every chunked runner, with a start it accepts
_ENSEMBLE_RUNNERS = {
    "run_x_ensemble": (run_x_ensemble, (0.5, 0.5)),
    "run_y_ensemble": (run_y_ensemble, 0.2),
    "run_y_prime_ensemble": (run_y_prime_ensemble, 0.2),
    "run_z_ensemble": (run_z_ensemble, 0.2),
    "run_w_ensemble": (run_w_ensemble, 0.5),
    "couple_z_yprime": (couple_z_yprime, 0.2),
    "couple_y_yprime": (couple_y_yprime, 0.2),
    "couple_y_w": (couple_y_w, 0.5),
}


@pytest.mark.parametrize("name", sorted(_ENSEMBLE_RUNNERS))
def test_ensemble_runners_reject_bad_counts(name):
    runner, start = _ENSEMBLE_RUNNERS[name]
    params = ModelParams(10.0)
    bad = [
        ("trajectories", dict(steps=5, trajectories=0, threads=1)),
        ("trajectories", dict(steps=5, trajectories=-2, threads=1)),
        ("threads", dict(steps=5, trajectories=4, threads=0)),
        ("steps", dict(steps=-3, trajectories=4, threads=1)),
    ]
    for argument, counts in bad:
        with pytest.raises(ValueError, match=argument):
            runner(start, counts["steps"], params, seed=0,
                   trajectories=counts["trajectories"], threads=counts["threads"])
    # the smallest valid counts still run
    runner(start, 0, params, seed=0, trajectories=1, threads=1)


# every single-trajectory runner, with a start it accepts
_SINGLE_RUNNERS = {
    "run_x": (run_x, (0.5, 0.5)),
    "run_xstar": (run_xstar, (0.5, 0.5)),
    "run_y": (run_y, 0.2),
    "run_y_prime": (run_y_prime, 0.2),
    "run_z": (run_z, 0.2),
    "run_w": (run_w, 0.5),
}


@pytest.mark.parametrize("name", sorted(_SINGLE_RUNNERS))
def test_single_runners_reject_negative_steps(name):
    runner, start = _SINGLE_RUNNERS[name]
    with pytest.raises(ValueError, match="steps"):
        runner(start, -3, ModelParams(10.0), seed=0)
    assert runner(start, 0, ModelParams(10.0), seed=0).steps == 0


# the half-line runners, single and ensemble, whose start lies in [0, inf)
_HALF_LINE_RUNNERS = {
    "run_y_prime": run_y_prime,
    "run_z": run_z,
    "run_y_prime_ensemble": lambda start, *args: run_y_prime_ensemble(start, *args, 4),
    "run_z_ensemble": lambda start, *args: run_z_ensemble(start, *args, 4),
    "couple_z_yprime": couple_z_yprime,
}


@pytest.mark.parametrize("start", [math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(_HALF_LINE_RUNNERS))
def test_runners_reject_bad_starts(name, start):
    with pytest.raises(ValueError, match=r"\[0, inf\)"):
        _HALF_LINE_RUNNERS[name](start, 5, ModelParams(10.0), 0)


def test_x_ensemble_matches_marginal_sanity():
    # terminal coordinates stay inside the square and directions were used
    ens = run_x_ensemble((0.0, 0.0), 100, ModelParams(10.0), seed=91, trajectories=5000)
    assert np.all((ens.u >= 0.0) & (ens.u <= 1.0))
    assert np.all((ens.v >= 0.0) & (ens.v <= 1.0))
    assert 0 < np.sum(ens.u_direction_count) < 100 * 5000


# ----------------------------------------------------------------------
# distributional identities between the processes
# ----------------------------------------------------------------------

def test_flip_identity_y_matches_xstar_newest_coordinate():
    # the scalar flip chain at time t has the law of the deterministic-
    # direction sampler's most recently updated coordinate
    params = ModelParams(10.0)
    t = 21
    runs = 4000
    newest = np.empty(runs)
    for i in range(runs):
        rec = run_xstar((0.2, 0.9), t, params, seed=100_000 + i)
        # odd t: the v coordinate was updated last
        newest[i] = rec.terminal[1]
    ens = run_y_ensemble(0.2, t, params, seed=555, trajectories=runs)
    stat = stats.ks_2samp(newest, np.asarray(ens.terminal))
    assert stat.pvalue > 0.01


def test_conditional_identity_x_given_change_count():
    # conditioned on N(t) = k and a first V step, the sampler at time t has
    # the law of the deterministic-direction variant at time k+1
    params = ModelParams(10.0)
    t, k, runs = 30, 14, 6000
    cond_u, cond_v = [], []
    for i in range(runs):
        rec = run_x((0.2, 0.7), t, params, seed=200_000 + i)
        if rec.direction_sequence[0] != "V":
            continue
        if count_direction_changes(rec.direction_sequence) != k:
            continue
        cond_u.append(rec.terminal[0])
        cond_v.append(rec.terminal[1])
    star_u, star_v = [], []
    for i in range(runs // 2):
        rec = run_xstar((0.2, 0.7), k + 1, params, seed=300_000 + i)
        star_u.append(rec.terminal[0])
        star_v.append(rec.terminal[1])
    assert len(cond_u) > 150
    assert stats.ks_2samp(cond_u, star_u).pvalue > 0.01
    assert stats.ks_2samp(cond_v, star_v).pvalue > 0.01
