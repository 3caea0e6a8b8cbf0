"""Closed-form constants and limit quantities.

Every closed form is cross-checked against adaptive quadrature of the
defining integral; the quadrature splits integration at the exact points
where the integrand's min(...) switches branch, which is what makes the
1e-8 agreement attainable.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from diagonal_gibbs import (
    ConstantsConfig,
    ModelParams,
    beta4,
    constants_report,
    erdos_kac_cdf,
    gamma_const,
    marginal_density_pu,
    run_w_ensemble,
    tv_uniform_marginal,
)


def quad_erdos_kac(alpha: float) -> float:
    val, _ = integrate.quad(
        lambda x: math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0), 0.0, alpha
    )
    return val


def quad_gamma(alpha: float, delta: float) -> float:
    # split exactly at |x - 1/2| = w where the density crosses 1
    prod = alpha * math.pi
    if prod < 1.0:
        w = math.sqrt(alpha * math.log(1.0 / math.sqrt(prod)))
    else:
        w = 0.0
    w = min(w, 0.5 + delta)
    g = lambda x: math.exp(-((x - 0.5) ** 2) / alpha) / math.sqrt(prod)
    left, _ = integrate.quad(g, -delta, 0.5 - w, epsabs=1e-13, epsrel=1e-12)
    right, _ = integrate.quad(g, 0.5 + w, 1.0 + delta, epsabs=1e-13, epsrel=1e-12)
    return 1.0 + 2.0 * delta - (left + 2.0 * w + right)


# ----------------------------------------------------------------------
# running-maximum law
# ----------------------------------------------------------------------

def test_erdos_kac_boundaries():
    assert erdos_kac_cdf(0.0) == 0.0
    assert erdos_kac_cdf(50.0) == pytest.approx(1.0, abs=1e-15)


def test_erdos_kac_at_one():
    # frozen oracle: adaptive quadrature of sqrt(2/pi) exp(-x^2/2)
    assert erdos_kac_cdf(1.0) == pytest.approx(0.682689492137086, abs=1e-12)


def test_erdos_kac_rejects_negative():
    with pytest.raises(ValueError):
        erdos_kac_cdf(-0.5)
    with pytest.raises(ValueError):
        erdos_kac_cdf(math.nan)


# ----------------------------------------------------------------------
# exit-probability constant
# ----------------------------------------------------------------------

def test_beta4_headline_value():
    # frozen oracle: quadrature gives 0.05069463735493662
    value = beta4(ConstantsConfig(0.10))
    assert value == pytest.approx(0.05069463735493662, abs=1e-12)
    assert 0.0501 <= value <= 0.0511


def test_beta4_decreasing_in_alpha():
    values = [beta4(ConstantsConfig(a)) for a in (0.10, 0.05, 0.01)]
    assert values[0] > values[1] > values[2]


def test_beta4_degenerate_band():
    # delta = 1/2 kills the integral entirely
    assert beta4(ConstantsConfig(0.10, delta=0.5)) == pytest.approx(2.0, abs=1e-15)
    assert beta4(ConstantsConfig(0.10, delta=0.5, epsilon_slack=0.25)) == pytest.approx(
        2.25, abs=1e-15
    )


def test_beta4_slack_is_additive():
    base = beta4(ConstantsConfig(0.10))
    assert beta4(ConstantsConfig(0.10, epsilon_slack=0.01)) == pytest.approx(
        base + 0.01, abs=1e-15
    )


# ----------------------------------------------------------------------
# overlap-deficit constant
# ----------------------------------------------------------------------

def test_gamma_headline_value():
    # frozen oracle: piecewise quadrature gives 0.2622182338444723
    value = gamma_const(ConstantsConfig(0.10))
    assert value == pytest.approx(0.2622182338444723, abs=1e-12)
    assert 0.260 <= value <= 0.264


def test_combined_budget_below_one_third():
    cfg = ConstantsConfig(0.10)
    assert beta4(cfg) + gamma_const(cfg) < 1.0 / 3.0


def test_gamma_large_alpha_limit():
    # the density flattens to ~0, so the integral vanishes
    cfg = ConstantsConfig(1.0e6, delta=0.05)
    assert gamma_const(cfg) == pytest.approx(1.1, abs=1e-3)


def test_gamma_handles_alpha_pi_above_one():
    # density never reaches 1; the min is always the Gaussian branch
    cfg = ConstantsConfig(0.5)
    assert gamma_const(cfg) == pytest.approx(quad_gamma(0.5, 0.0), abs=1e-10)


def test_closed_forms_match_quadrature_random_sweep():
    # 100 random configurations, agreement within 1e-8
    rng = np.random.default_rng(2024)
    for _ in range(100):
        alpha = float(rng.uniform(0.01, 2.0))
        delta = float(rng.uniform(0.0, 0.4))
        cfg = ConstantsConfig(alpha, delta)
        t = float(rng.uniform(0.0, 4.0))
        assert erdos_kac_cdf(t) == pytest.approx(quad_erdos_kac(t), abs=1e-10)
        assert gamma_const(cfg) == pytest.approx(quad_gamma(alpha, delta), abs=1e-8)
        arg = (1.0 - 2.0 * delta) / math.sqrt(2.0 * alpha)
        beta_ref = 2.0 * (1.0 - quad_erdos_kac(arg))
        assert beta4(cfg) == pytest.approx(beta_ref, abs=1e-8)


def test_constants_config_validation():
    with pytest.raises(ValueError):
        ConstantsConfig(0.0)
    with pytest.raises(ValueError):
        ConstantsConfig(-1.0)
    with pytest.raises(ValueError):
        ConstantsConfig(0.1, delta=0.6)
    with pytest.raises(ValueError):
        ConstantsConfig(0.1, epsilon_slack=-0.1)
    with pytest.raises(ValueError):
        ConstantsConfig(0.1, 0.0, math.inf)


# ----------------------------------------------------------------------
# marginal-versus-uniform distance
# ----------------------------------------------------------------------

def test_tv_uniform_marginal_decays_past_the_peak():
    # the distance is unimodal in a (flat marginal at a -> 0, thin
    # boundary layers at a -> inf); past the peak it decays like 1/a
    values = [tv_uniform_marginal(ModelParams(a)) for a in (5.0, 10.0, 50.0, 100.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[3] / values[2] == pytest.approx(0.5, abs=0.05)


def test_tv_uniform_marginal_large_a_is_small():
    assert tv_uniform_marginal(ModelParams(100.0)) < 0.01


def test_tv_uniform_marginal_small_a_is_tiny():
    # the marginal flattens to a constant; normalization removes the level
    assert tv_uniform_marginal(ModelParams(1e-6)) < 1e-4


def test_tv_uniform_marginal_matches_quadrature():
    # frozen oracle at a = 7: 0.05481146900528399
    assert tv_uniform_marginal(ModelParams(7.0)) == pytest.approx(
        0.05481146900528399, abs=1e-6
    )


# ----------------------------------------------------------------------
# report and Monte Carlo consistency
# ----------------------------------------------------------------------

def test_constants_report_keys():
    report = constants_report(ConstantsConfig(0.10))
    for key in ("alpha", "delta", "epsilon_slack", "beta4", "gamma", "beta4_plus_gamma"):
        assert key in report
    assert report["below_one_third"] is True
    assert report["beta4_plus_gamma"] == pytest.approx(
        report["beta4"] + report["gamma"], abs=1e-15
    )


def test_beta4_bounds_empirical_exit_probability():
    # the closed form is an upper bound for the finite-a exit frequency
    # (up to Monte Carlo slack)
    params = ModelParams(100.0)
    ens = run_w_ensemble(0.5, 1000, params, seed=41, trajectories=20_000)
    nu = np.asarray(ens.nu_c2, dtype=float)
    frac = float(np.mean(np.isfinite(nu) & (nu < 1000)))
    assert frac <= beta4(ConstantsConfig(0.10)) + 0.01
