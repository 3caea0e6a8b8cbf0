"""Coupled constructions: the monotone reflected/half-line pair, the
shared-increment pair with the free walk, and the shared-draw pair of the
two flip chains.

Ordering assertions are exact (zero tolerance on inversions); marginal
preservation is checked by two-sample KS tests at the 1% level against
independently simulated chains.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from diagonal_gibbs import (
    FoldedGaussian,
    ModelParams,
    TruncatedGaussian,
    couple_y_w,
    couple_y_yprime,
    couple_z_yprime,
    gaussian_tail_bound,
    monotone_couple_step,
    run_y_ensemble,
    run_y_prime_ensemble,
    run_z_ensemble,
    verify_dominance_inequality,
)


# ----------------------------------------------------------------------
# single monotone step
# ----------------------------------------------------------------------

def test_monotone_step_coincides_at_zero_centers():
    # reflected and half-line conditionals are the same half-normal there
    params = ModelParams(10.0)
    for u in (0.05, 0.3, 0.5, 0.9, 0.999):
        lower, upper = monotone_couple_step(0.0, 0.0, u, params)
        assert lower <= upper
        assert upper - lower <= 1e-9


def test_monotone_step_halfnormal_median():
    # frozen oracle: sigma * Phi^{-1}(3/4) at a = 10
    params = ModelParams(10.0)
    lower, _ = monotone_couple_step(0.0, 0.0, 0.5, params)
    assert lower == pytest.approx(0.04769362762044698, abs=1e-9)


def test_monotone_step_rejects_bad_centers():
    params = ModelParams(10.0)
    with pytest.raises(ValueError):
        monotone_couple_step(0.5, 0.2, 0.5, params)
    with pytest.raises(ValueError):
        monotone_couple_step(-0.1, 0.2, 0.5, params)
    # NaN lies in no range, as either center
    for lower, upper in ((math.nan, 0.5), (0.2, math.nan), (np.array([0.1, math.nan]), 0.5)):
        with pytest.raises(ValueError):
            monotone_couple_step(lower, upper, 0.5, params)


def test_monotone_step_random_triples_never_invert():
    # 10^6 random (lower <= upper, uniform) triples per concentration
    for a in (5.0, 50.0):
        params = ModelParams(a)
        rng = np.random.default_rng(int(a))
        upper_c = rng.uniform(0.0, 3.0, 1_000_000)
        lower_c = upper_c * rng.random(1_000_000)
        u = rng.uniform(1e-12, 1.0 - 1e-12, 1_000_000)
        lower, upper = monotone_couple_step(lower_c, upper_c, u, params)
        assert int(np.sum(lower > upper)) == 0


# ----------------------------------------------------------------------
# dominance inequality
# ----------------------------------------------------------------------

def test_dominance_equal_centers_zero_gap():
    # at equal centers both measures coincide on [0, u]
    params = ModelParams(10.0)
    folded = FoldedGaussian(0.0, params.sigma2)
    halfline = TruncatedGaussian(0.0, params.sigma2, 0.0, math.inf)
    for u in np.linspace(0.01, 3.0, 50):
        assert folded.cdf(u) == pytest.approx(halfline.cdf(u), abs=1e-14)


def test_dominance_gap_closes_at_large_u():
    params = ModelParams(10.0)
    folded = FoldedGaussian(0.2, params.sigma2)
    halfline = TruncatedGaussian(1.0, params.sigma2, 0.0, math.inf)
    assert folded.cdf(3.0) == pytest.approx(1.0, abs=1e-12)
    assert halfline.cdf(3.0) == pytest.approx(1.0, abs=1e-12)


def test_dominance_sweep_nonnegative():
    for a in (1.0, 10.0, 100.0):
        gap = verify_dominance_inequality(80, 80, ModelParams(a))
        assert gap >= -1e-12


def test_dominance_sweep_validates_grids():
    with pytest.raises(ValueError):
        verify_dominance_inequality(1, 50, ModelParams(10.0))


# ----------------------------------------------------------------------
# reflected walk below the half-line chain
# ----------------------------------------------------------------------

def test_couple_z_yprime_ordering_and_report():
    params = ModelParams(10.0)
    report = couple_z_yprime(0.5, 300, params, seed=61, trajectories=2000)
    assert report.pair_name == "Z_YPrime"
    assert report.ordering_violations == 0
    assert np.all(np.asarray(report.terminal_first) <= np.asarray(report.terminal_second))
    # this pair never decouples; it is ordered forever
    assert all(t is None for t in report.decoupling_times)
    assert report.decoupled_fraction() == 0.0


def test_couple_z_yprime_marginals_are_undistorted():
    # each coupled marginal must match its independently simulated law
    params = ModelParams(10.0)
    steps, runs = 300, 10_000
    report = couple_z_yprime(0.5, steps, params, seed=62, trajectories=runs)
    z_alone = run_z_ensemble(0.5, steps, params, seed=63, trajectories=runs)
    y_alone = run_y_prime_ensemble(0.5, steps, params, seed=64, trajectories=runs)
    ks_z = stats.ks_2samp(np.asarray(report.terminal_first), np.asarray(z_alone.terminal_abs))
    ks_y = stats.ks_2samp(np.asarray(report.terminal_second), np.asarray(y_alone.terminal))
    assert ks_z.pvalue > 0.01
    assert ks_y.pvalue > 0.01


def test_couple_z_yprime_deterministic():
    params = ModelParams(10.0)
    rep1 = couple_z_yprime(0.5, 100, params, seed=65, trajectories=500)
    rep2 = couple_z_yprime(0.5, 100, params, seed=65, trajectories=500)
    assert rep1.as_dict() == rep2.as_dict()
    assert np.array_equal(rep1.terminal_first, rep2.terminal_first)


def test_coupling_report_serialization(tmp_path):
    params = ModelParams(10.0)
    report = couple_z_yprime(0.5, 50, params, seed=66, trajectories=100)
    out = tmp_path / "report.json"
    report.to_json(out)
    data = json.loads(out.read_text())
    assert data["pair"] == "Z_YPrime"
    assert data["trajectories"] == 100
    assert data["ordering_violations"] == 0
    hist = tmp_path / "hist.csv"
    report.decoupling_histogram_csv(hist)
    lines = hist.read_text().splitlines()
    assert lines[0] == "decoupling_time,count"
    assert lines[-1] == "never,100"


# ----------------------------------------------------------------------
# flip chain with the free walk
# ----------------------------------------------------------------------

def test_couple_y_w_identical_until_exit():
    # trajectories whose walk never left [0,1] end bit-identical
    params = ModelParams(30.0)
    report = couple_y_w(0.5, 200, params, seed=71, trajectories=5000)
    never = np.array([t is None for t in report.decoupling_times])
    assert never.any()
    first = np.asarray(report.terminal_first)[never]
    second = np.asarray(report.terminal_second)[never]
    assert np.array_equal(first, second)


def test_couple_y_w_requires_middle_start():
    params = ModelParams(10.0)
    with pytest.raises(ValueError):
        couple_y_w(0.1, 100, params, seed=1, trajectories=10)


def test_couple_y_w_decoupling_band_coarse():
    params = ModelParams(100.0)
    report = couple_y_w(0.5, 1000, params, seed=72, trajectories=10_000)
    frac = report.decoupled_fraction()
    assert 0.035 <= frac <= 0.067


def test_couple_y_w_decoupling_monotone_in_horizon():
    # P(exit by alpha a^2) grows with alpha; allow 2 MC standard errors
    params = ModelParams(100.0)
    runs = 30_000
    fracs = []
    for steps in (200, 500, 1000):
        rep = couple_y_w(0.5, steps, params, seed=73, trajectories=runs)
        fracs.append(rep.decoupled_fraction())
    se = 2.0 * math.sqrt(0.06 * 0.94 / runs)
    assert fracs[0] <= fracs[1] + se
    assert fracs[1] <= fracs[2] + se


def test_couple_y_w_marginal_is_undistorted():
    params = ModelParams(10.0)
    steps, runs = 200, 10_000
    report = couple_y_w(0.5, steps, params, seed=74, trajectories=runs)
    alone = run_y_ensemble(0.5, steps, params, seed=75, trajectories=runs)
    ks = stats.ks_2samp(np.asarray(report.terminal_first), np.asarray(alone.terminal))
    assert ks.pvalue > 0.01


# ----------------------------------------------------------------------
# the two flip chains under a shared half-line draw
# ----------------------------------------------------------------------

def test_couple_y_yprime_identical_until_overshoot():
    params = ModelParams(30.0)
    report = couple_y_yprime(0.1, 400, params, seed=81, trajectories=5000)
    never = np.array([t is None for t in report.decoupling_times])
    first = np.asarray(report.terminal_first)[never]
    second = np.asarray(report.terminal_second)[never]
    assert np.array_equal(first, second)


def test_couple_y_yprime_requires_start_below_middle():
    params = ModelParams(10.0)
    with pytest.raises(ValueError):
        couple_y_yprime(0.6, 100, params, seed=1, trajectories=10)


def test_couple_y_yprime_no_early_decoupling():
    # before the chain reaches the middle band, a shared draw >= 1 needs a
    # jump past 1/2+delta; union bound over a^2 steps is astronomically small
    params = ModelParams(30.0)
    steps = int(params.a**2)
    report = couple_y_yprime(0.1, steps, params, seed=82, trajectories=10_000)
    nu_c1 = np.array(
        [math.inf if t is None else t for t in report.decoupling_times]
    )
    # a run that never reached 1/2 - delta has nu_m_tilde NaN: any
    # decoupling in it is early
    nu_mt = np.asarray(report.aux["nu_m_tilde"], dtype=float)
    nu_mt = np.where(np.isnan(nu_mt), math.inf, nu_mt)
    early = np.sum(nu_c1 < np.minimum(nu_mt, float(steps)))
    ceiling = 10.0 * steps * gaussian_tail_bound(0.5 + params.delta, params)
    assert early <= max(1, math.ceil(ceiling * 10_000))


def test_couple_y_yprime_deterministic():
    params = ModelParams(30.0)
    rep1 = couple_y_yprime(0.1, 100, params, seed=83, trajectories=400)
    rep2 = couple_y_yprime(0.1, 100, params, seed=83, trajectories=400)
    assert rep1.as_dict() == rep2.as_dict()


def test_decoupling_times_within_horizon():
    params = ModelParams(100.0)
    report = couple_y_w(0.5, 500, params, seed=84, trajectories=3000)
    for t in report.decoupling_times:
        assert t is None or 0 <= t <= 500
