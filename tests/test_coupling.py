"""Coupled constructions: the monotone reflected/half-line pair, the
shared-increment pair with the free walk, and the shared-draw pair of the
two flip chains.

Ordering assertions are exact (zero tolerance on inversions); marginal
preservation is checked by two-sample KS tests at the 1% level against
independently simulated chains.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from diagonal_gibbs import chains, coupling, density
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
    assert np.isnan(report.decoupling_times).all()
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


def _assert_same_report(rep1, rep2):
    """Every array and count of two reports agrees, NaN for NaN."""
    assert rep1.pair_name == rep2.pair_name
    assert rep1.ordering_violations == rep2.ordering_violations
    for name in ("terminal_first", "terminal_second", "decoupling_times"):
        assert np.array_equal(getattr(rep1, name), getattr(rep2, name), equal_nan=True), name
    assert rep1.aux.keys() == rep2.aux.keys()
    for key in rep1.aux:
        assert np.array_equal(rep1.aux[key], rep2.aux[key], equal_nan=True), key


def test_couple_z_yprime_deterministic():
    params = ModelParams(10.0)
    rep1 = couple_z_yprime(0.5, 100, params, seed=65, trajectories=500)
    rep2 = couple_z_yprime(0.5, 100, params, seed=65, trajectories=500)
    _assert_same_report(rep1, rep2)


def test_coupling_report_serialization(tmp_path):
    params = ModelParams(10.0)
    report = couple_z_yprime(0.5, 50, params, seed=66, trajectories=100)
    hist = tmp_path / "hist.csv"
    report.decoupling_histogram_csv(hist)
    lines = hist.read_text().splitlines()
    assert lines[0] == "decoupling_time,count"
    assert lines[-1] == "never,100"


@pytest.mark.parametrize("couple, start, a, seed, digest, rows, never", [
    (couple_y_w, 0.5, 30.0, 71,
     "516af637ed71060856a77afcbf4b42d7d4ea2167ec00c829c66909a9dd25e25c", 163, 3756),
    (couple_y_yprime, 0.1, 10.0, 4,
     "d237501353396d50020009c9937042499594bc5f23117437af472e3c54f541e6", 188, 1949),
], ids=["y_w", "y_yprime"])
def test_decoupling_histogram_of_pairs_that_decouple(tmp_path, couple, start, a, seed,
                                                      digest, rows, never):
    # the histogram's bytes are pinned, and its rows are the distinct finite
    # decoupling times with their counts
    report = couple(start, 200, ModelParams(a), seed=seed, trajectories=5000)
    hist = tmp_path / "hist.csv"
    report.decoupling_histogram_csv(hist)
    assert hashlib.sha256(hist.read_bytes()).hexdigest() == digest
    lines = hist.read_text().splitlines()
    assert len(lines) == rows
    assert lines[-1] == f"never,{never}"
    times = report.decoupling_times
    values, counts = np.unique(times[~np.isnan(times)], return_counts=True)
    assert lines[1:-1] == [f"{int(v)},{c}" for v, c in zip(values, counts)]


# ----------------------------------------------------------------------
# flip chain with the free walk
# ----------------------------------------------------------------------

def test_couple_y_w_identical_until_exit():
    # trajectories whose walk never left [0,1] end bit-identical
    params = ModelParams(30.0)
    report = couple_y_w(0.5, 200, params, seed=71, trajectories=5000)
    never = np.isnan(report.decoupling_times)
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
    never = np.isnan(report.decoupling_times)
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
    nu_c1 = np.where(np.isnan(report.decoupling_times), math.inf, report.decoupling_times)
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
    _assert_same_report(rep1, rep2)


def test_decoupling_times_within_horizon():
    params = ModelParams(100.0)
    report = couple_y_w(0.5, 500, params, seed=84, trajectories=3000)
    times = report.decoupling_times
    assert times is report.aux["nu_c2"]
    finite = times[~np.isnan(times)]
    assert np.all((finite >= 0) & (finite <= 500) & (finite == np.floor(finite)))


# ----------------------------------------------------------------------
# Y's [0, 1] redraws, solved only where they are taken
# ----------------------------------------------------------------------

# Full-width steps that solve Y's [0, 1] quantile for every trajectory and
# select afterwards, as both couplings did before solving only the redraws
# they take.  Each also counts those redraws.

def _full_width_y_w(start, steps, params, seed, trajectories, threads):
    sigma = params.sigma

    def draw(rng, width):
        return sigma * rng.standard_normal(width), rng.random(width)

    def step(s, draws, t):
        zeta, fresh = draws
        s["w"] = s["w"] + zeta
        y_cand = s["y"] + zeta
        inside = (y_cand >= 0.0) & (y_cand <= 1.0)
        redraw = density._trunc_quantile_core(s["y"], sigma, 0.0, 1.0, fresh)
        s["y"] = np.where(inside, y_cand, redraw)
        s["redraws"] += ~inside

    return chains._run_ensemble(
        chains._Process(draw, step, {"nu_c2": chains._outside_unit}),
        {"w": start, "y": start, "redraws": 0}, ("y", "w", "nu_c2", "redraws"),
        steps, seed, trajectories, threads,
    )


def _full_width_y_yprime(start, steps, params, seed, trajectories, threads):
    sigma = params.sigma

    def draw(rng, width):
        return rng.random(width), rng.random(width)

    def step(s, draws, t):
        shared, fresh = draws
        coupled = s["coupled"]
        s["yp"] = density._trunc_quantile_core(s["yp"], sigma, 0.0, np.inf, shared)
        overshoot = coupled & (s["yp"] >= 1.0)
        redraw = density._trunc_quantile_core(s["y"], sigma, 0.0, 1.0,
                                              np.where(coupled, fresh, shared))
        s["y"] = np.where(overshoot | ~coupled, redraw, s["yp"])
        s["coupled"] = coupled & ~overshoot
        s["redraws"] += overshoot | ~coupled

    hits = {"nu_c1": lambda s: ~s["coupled"], "nu_m_tilde": chains._reached_middle(params)}
    return chains._run_ensemble(
        chains._Process(draw, step, hits), {"y": start, "yp": start, "coupled": True, "redraws": 0},
        ("y", "yp", "nu_c1", "nu_m_tilde", "redraws"), steps, seed, trajectories, threads,
    )


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# a = 1 redraws on most pair-steps, a = 250 in 5 steps never does; the second
# chunk holds 1000 trajectories
@pytest.mark.parametrize("a, steps", [(1.0, 30), (10.0, 30), (250.0, 5)])
@pytest.mark.parametrize("threads", [1, 2])
def test_redraw_couplings_match_full_width_steps(a, steps, threads):
    params = ModelParams(a)
    trajectories = chains._CHUNK + 1000
    pair_steps = trajectories * steps
    y, w, nu_c2, w_redraws = _full_width_y_w(0.5, steps, params, 91, trajectories, threads)
    report = couple_y_w(0.5, steps, params, 91, trajectories, threads)
    _assert_same_bits(report.terminal_first, y)
    _assert_same_bits(report.terminal_second, w)
    _assert_same_bits(report.aux["nu_c2"], nu_c2)

    y, yp, nu_c1, nu_m_tilde, yp_redraws = _full_width_y_yprime(
        0.1, steps, params, 92, trajectories, threads)
    report = couple_y_yprime(0.1, steps, params, 92, trajectories, threads)
    _assert_same_bits(report.terminal_first, y)
    _assert_same_bits(report.terminal_second, yp)
    _assert_same_bits(report.aux["nu_c1"], nu_c1)
    _assert_same_bits(report.aux["nu_m_tilde"], nu_m_tilde)

    taken = (w_redraws.sum(), yp_redraws.sum())
    if a == 1.0:
        assert min(taken) > pair_steps / 2
    elif a == 250.0:
        assert max(taken) == 0


@pytest.mark.parametrize("a", [1.0, 10.0])
def test_redraw_couplings_solve_only_taken_draws(monkeypatch, a):
    # elements handed to Y's [0, 1] solver, against the redraws the pair took
    solved = []

    def counting(center, sigma, lo, hi, p):
        if hi == 1.0:
            solved.append(np.size(p))
        return density._trunc_quantile_core(center, sigma, lo, hi, p)

    monkeypatch.setattr(coupling, "_trunc_quantile_core", counting)
    params = ModelParams(a)
    steps, trajectories = 40, 3000
    couple_y_w(0.5, steps, params, 93, trajectories)
    redraws = _full_width_y_w(0.5, steps, params, 93, trajectories, 1)[-1]
    assert 0 < sum(solved) == redraws.sum() < steps * trajectories

    # Y/YPrime redraws at its decoupling step nu_c1 and at every step after
    solved.clear()
    report = couple_y_yprime(0.1, steps, params, 94, trajectories)
    nu_c1 = report.aux["nu_c1"]
    taken = np.sum(steps + 1 - nu_c1[~np.isnan(nu_c1)])
    assert 0 < sum(solved) == taken < steps * trajectories
