"""Scalar distribution layer.

Frozen reference values are marked with the oracle that produced them:
adaptive quadrature (scipy.integrate.quad), bisection against the CDF
(scipy.optimize.brentq), scipy.stats.truncnorm, or a closed-form
special-function identity evaluated independently of the implementation.
"""

import math

import numpy as np
import pytest
from scipy import special
from scipy.stats import truncnorm

from diagonal_gibbs import density
from diagonal_gibbs import (
    DegenerateTruncationError,
    FoldedGaussian,
    ModelParams,
    ModelParamsError,
    TruncatedGaussian,
    conditional_on_half_line,
    conditional_on_unit_interval,
    gaussian_tail_bound,
    marginal_density_pu,
    phi,
    truncated_cdf,
    truncated_quantile,
)


def std_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# ----------------------------------------------------------------------
# phi and ModelParams
# ----------------------------------------------------------------------

def test_phi_at_zero_is_one():
    assert phi(0.0, ModelParams(10.0)) == 1.0
    assert phi(0.0, ModelParams(0.003)) == 1.0


def test_phi_is_even():
    params = ModelParams(10.0)
    assert phi(0.37, params) == phi(-0.37, params)


def test_phi_direct_value():
    # exp(-(10 * 0.1)^2) = exp(-1); oracle: high-precision exponential
    assert phi(0.1, ModelParams(10.0)) == pytest.approx(0.36787944117144233, abs=1e-16)


def test_phi_decreasing_in_abs_and_underflow():
    params = ModelParams(10.0)
    xs = np.linspace(0.0, 1.0, 101)
    vals = phi(xs, params)
    assert np.all(np.diff(vals) < 0.0)
    # underflow far outside the band is permitted and clean
    assert phi(1.0, ModelParams(250.0)) == 0.0


def test_model_params_derived_fields():
    for a in (0.01, 1.0, 10.0, 250.0):
        params = ModelParams(a)
        assert params.sigma2 == 1.0 / (2.0 * a * a)
        assert params.sigma == math.sqrt(params.sigma2)
    params = ModelParams(10.0, delta=0.1)
    assert params.middle_lo == 0.4
    assert params.middle_hi == 0.6


def test_model_params_validation():
    with pytest.raises(ModelParamsError):
        ModelParams(0.0)
    with pytest.raises(ModelParamsError):
        ModelParams(-3.0)
    with pytest.raises(ModelParamsError):
        ModelParams(float("nan"))
    with pytest.raises(ModelParamsError):
        ModelParams(10.0, delta=0.0)
    with pytest.raises(ModelParamsError):
        ModelParams(10.0, delta=0.5)


# ----------------------------------------------------------------------
# truncated Gaussians
# ----------------------------------------------------------------------

def test_truncated_cdf_symmetric_midpoint():
    dist = TruncatedGaussian(0.5, ModelParams(10.0).sigma2, 0.0, 1.0)
    assert truncated_cdf(dist, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_truncated_cdf_noop_truncation_matches_gaussian():
    params = ModelParams(3.0)
    dist = TruncatedGaussian(0.4, params.sigma2)
    for x in (0.1, 0.4, 0.9):
        expected = std_cdf((x - 0.4) / params.sigma)
        assert truncated_cdf(dist, x) == pytest.approx(expected, abs=1e-14)


def test_truncated_cdf_halfnormal_identity():
    # center 0 on [0, inf): cdf(x) = 2(Phi(x sqrt(2) a) - 1/2) = erf(a x);
    # oracle: erf(0.5) evaluated independently
    dist = conditional_on_half_line(0.0, ModelParams(10.0))
    assert truncated_cdf(dist, 0.05) == pytest.approx(0.5204998778130465, abs=1e-14)


def test_truncated_cdf_clamps_outside_support():
    dist = TruncatedGaussian(0.5, ModelParams(10.0).sigma2, 0.0, 1.0)
    assert truncated_cdf(dist, -0.2) == 0.0
    assert truncated_cdf(dist, 1.7) == 1.0


def test_truncated_support_edges_random_sweep():
    # spec of the type: cdf(lo) = 0 and cdf(hi) = 1 within 1e-12, cdf
    # nondecreasing; 1000 random parameter draws
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        a = float(rng.uniform(0.5, 60.0))
        center = float(rng.uniform(-0.5, 1.5))
        lo = float(rng.uniform(-1.0, 0.5))
        hi = lo + float(rng.uniform(0.2, 2.0))
        if abs(center - lo) / (1.0 / (a * math.sqrt(2))) > 30.0 and abs(
            center - hi
        ) / (1.0 / (a * math.sqrt(2))) > 30.0:
            continue  # would be a degenerate truncation, tested separately
        dist = TruncatedGaussian(center, 1.0 / (2.0 * a * a), lo, hi)
        assert truncated_cdf(dist, lo) <= 1e-12
        assert abs(truncated_cdf(dist, hi) - 1.0) <= 1e-12
        xs = np.sort(rng.uniform(lo, hi, 8))
        vals = truncated_cdf(dist, xs)
        assert np.all(np.diff(vals) >= -1e-15)


def test_truncated_quantile_median_symmetric():
    dist = TruncatedGaussian(0.5, ModelParams(25.0).sigma2, 0.0, 1.0)
    assert truncated_quantile(dist, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_truncated_quantile_round_trip():
    dist = TruncatedGaussian(0.3, ModelParams(50.0).sigma2, 0.0, 1.0)
    x = 0.3
    assert truncated_quantile(dist, truncated_cdf(dist, x)) == pytest.approx(x, abs=1e-9)


def test_truncated_quantile_edges():
    dist = TruncatedGaussian(0.5, ModelParams(10.0).sigma2, 0.0, 1.0)
    assert truncated_quantile(dist, 0.0) == 0.0
    assert truncated_quantile(dist, 1.0) == 1.0


def test_truncated_quantile_far_tail():
    # oracle: brentq bisection on the truncated cdf, xtol 1e-15
    dist = TruncatedGaussian(0.9, ModelParams(10.0).sigma2, 0.0, 1.0)
    q = truncated_quantile(dist, 0.999)
    assert q < 1.0
    assert q == pytest.approx(0.9995580467957469, abs=1e-9)


def test_truncated_quantile_matches_truncnorm():
    # oracle: scipy.stats.truncnorm.ppf on random configurations
    rng = np.random.default_rng(77)
    for _ in range(200):
        a = float(rng.uniform(1.0, 80.0))
        sigma = 1.0 / (a * math.sqrt(2.0))
        center = float(rng.uniform(0.0, 1.0))
        p = float(rng.uniform(0.001, 0.999))
        lo, hi = 0.0, (1.0 if rng.random() < 0.5 else np.inf)
        dist = TruncatedGaussian(center, sigma * sigma, lo, hi)
        ref = truncnorm.ppf(
            p, (lo - center) / sigma, (hi - center) / sigma, loc=center, scale=sigma
        )
        assert truncated_quantile(dist, p) == pytest.approx(ref, abs=5e-10)


def test_truncated_quantile_cdf_round_trip_sweep():
    # round-trip error < 1e-9 on the central 99.99% mass
    rng = np.random.default_rng(4321)
    for _ in range(300):
        a = float(rng.uniform(0.5, 100.0))
        center = float(rng.uniform(0.0, 1.0))
        dist = TruncatedGaussian(center, 1.0 / (2.0 * a * a), 0.0, 1.0)
        p = float(rng.uniform(5e-5, 1.0 - 5e-5))
        x = truncated_quantile(dist, p)
        assert truncated_cdf(dist, x) == pytest.approx(p, abs=1e-9)


def test_truncated_quantile_rejects_bad_p():
    dist = TruncatedGaussian(0.5, ModelParams(10.0).sigma2, 0.0, 1.0)
    with pytest.raises(ValueError):
        truncated_quantile(dist, -0.1)
    with pytest.raises(ValueError):
        truncated_quantile(dist, 1.5)
    # NaN lies in no interval: rejected by both solvers, scalar or array
    folded = FoldedGaussian(0.5, ModelParams(10.0).sigma2)
    for bad in (math.nan, np.array([0.2, math.nan]), np.array([0.2, 1.5])):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            truncated_quantile(dist, bad)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            folded.quantile(bad)


def test_degenerate_truncation_is_an_error():
    # support 1768 sigma away from the center retains < 1e-300 mass
    with pytest.raises(DegenerateTruncationError):
        TruncatedGaussian(0.0, ModelParams(250.0).sigma2, 5.0, 6.0)


def test_truncated_gaussian_field_validation():
    with pytest.raises(ValueError):
        TruncatedGaussian(0.5, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        TruncatedGaussian(0.5, 1.0, 1.0, 0.0)


def test_conditional_helpers():
    params = ModelParams(10.0)
    unit = conditional_on_unit_interval(0.3, params)
    assert (unit.support_lo, unit.support_hi) == (0.0, 1.0)
    assert unit.variance == params.sigma2
    half = conditional_on_half_line(0.3, params)
    assert half.support_lo == 0.0
    assert math.isinf(half.support_hi)


# ----------------------------------------------------------------------
# folded Gaussians
# ----------------------------------------------------------------------

def test_folded_total_mass():
    params = ModelParams(10.0)
    for center in (0.0, 0.2, 1.0):
        dist = FoldedGaussian(center, params.sigma2)
        far = center + 40.0 * params.sigma
        assert abs(dist.cdf(far) - 1.0) <= 1e-12
    assert dist.cdf(-0.1) == 0.0


def test_folded_center_must_be_nonnegative():
    with pytest.raises(ValueError):
        FoldedGaussian(-0.3, 0.01)


def test_folded_interval_identity_random_pairs():
    # folded measure of [lo, hi] equals the untruncated Gaussian measure of
    # [lo, hi] plus that of [-hi, -lo]
    rng = np.random.default_rng(5150)
    for _ in range(100):
        a = float(rng.uniform(0.5, 60.0))
        sigma = 1.0 / (a * math.sqrt(2.0))
        center = float(rng.uniform(0.0, 2.0))
        lo = float(rng.uniform(0.0, 2.0))
        hi = lo + float(rng.uniform(0.0, 2.0))
        dist = FoldedGaussian(center, sigma * sigma)
        got = dist.cdf(hi) - dist.cdf(lo)
        direct = std_cdf((hi - center) / sigma) - std_cdf((lo - center) / sigma)
        reflected = std_cdf((-lo - center) / sigma) - std_cdf((-hi - center) / sigma)
        assert got == pytest.approx(direct + reflected, abs=1e-12)


def test_folded_halfnormal_median():
    # center 0 reduces to the half-normal; median = sigma * Phi^{-1}(3/4);
    # oracle: scipy.stats.norm.ppf
    dist = FoldedGaussian(0.0, ModelParams(10.0).sigma2)
    assert dist.quantile(0.5) == pytest.approx(0.04769362762044698, abs=1e-12)


def test_folded_quantile_round_trip():
    rng = np.random.default_rng(99)
    for _ in range(300):
        a = float(rng.uniform(0.5, 80.0))
        center = float(rng.uniform(0.0, 1.5))
        dist = FoldedGaussian(center, 1.0 / (2.0 * a * a))
        p = float(rng.uniform(1e-4, 1.0 - 1e-4))
        x = dist.quantile(p)
        assert x >= 0.0
        assert dist.cdf(x) == pytest.approx(p, abs=1e-9)


def test_folded_quantile_zero_and_bracket():
    dist = FoldedGaussian(0.4, ModelParams(10.0).sigma2)
    assert dist.quantile(0.0) == 0.0
    free = dist.quantile(0.73)
    # a valid upper bracket caps the result without changing the root
    assert dist.quantile(0.73, hi=free) <= free
    assert dist.quantile(0.73, hi=free) == pytest.approx(free, abs=1e-9)


def test_folded_pdf_integrates_to_cdf():
    # trapezoid integral of the pdf recovers the cdf increment
    params = ModelParams(5.0)
    dist = FoldedGaussian(0.3, params.sigma2)
    xs = np.linspace(0.0, 1.0, 20001)
    trapz = np.trapezoid(dist.pdf(xs), xs)
    assert trapz == pytest.approx(dist.cdf(1.0) - dist.cdf(0.0), abs=1e-9)


# ----------------------------------------------------------------------
# marginal density and tail bound
# ----------------------------------------------------------------------

def test_marginal_density_values():
    # oracle: adaptive quadrature of (a/sqrt(pi)) * int_{-x}^{1-x} phi
    assert marginal_density_pu(0.5, ModelParams(10.0)) == pytest.approx(
        0.9999999999984625, abs=1e-12
    )
    assert marginal_density_pu(0.0, ModelParams(2.0)) == pytest.approx(
        0.4976611325094763, abs=1e-12
    )


def test_marginal_density_symmetry():
    params = ModelParams(25.0)
    assert marginal_density_pu(0.2, params) == marginal_density_pu(0.8, params)


def test_marginal_density_edges_equal():
    params = ModelParams(7.0)
    assert marginal_density_pu(0.0, params) == marginal_density_pu(1.0, params)


def test_marginal_sandwich_bound():
    # 1 - tail(x) - tail(1-x) <= p_u(x) <= 1 on the open interval
    for a in (5.0, 10.0, 50.0):
        params = ModelParams(a)
        xs = np.linspace(0.0, 1.0, 10001)[1:-1]
        vals = marginal_density_pu(xs, params)
        assert np.all(vals <= 1.0 + 1e-15)
        lower = 1.0 - gaussian_tail_bound(xs, params) - gaussian_tail_bound(1.0 - xs, params)
        assert np.all(vals >= lower - 1e-15)


def test_tail_bound_value():
    # exp(-25) / (10 sqrt(pi)); oracle: direct high-precision evaluation
    assert gaussian_tail_bound(0.5, ModelParams(10.0)) == pytest.approx(
        7.835433265508669e-13, rel=1e-13
    )


def test_tail_bound_dominates_exact_tail():
    # exact tail of N(0, 1/(2a^2)) above z is erfc(a z) / 2
    params = ModelParams(10.0)
    for z in (0.1, 0.3, 0.5):
        exact = 0.5 * math.erfc(params.a * z)
        assert gaussian_tail_bound(z, params) > exact


def test_tail_bound_monotone_and_validated():
    params = ModelParams(10.0)
    assert gaussian_tail_bound(0.2, params) > gaussian_tail_bound(0.4, params)
    with pytest.raises(ValueError):
        gaussian_tail_bound(0.0, params)
    with pytest.raises(ValueError):
        gaussian_tail_bound(-1.0, params)


# ----------------------------------------------------------------------
# bit-identity oracle: reference solvers that evaluate every branch
# ----------------------------------------------------------------------
#
# The reference functions below evaluate both branches of every np.where
# (Phi at each endpoint on both sides of the reflection, both tails of the
# initial estimate) and the folded CDF and PDF separately.  The solvers,
# which evaluate each tail once, must return the same bits.


def _ref_interval_mass(alpha, beta):
    return np.where(
        alpha > 0.0,
        special.ndtr(-alpha) - special.ndtr(-beta),
        special.ndtr(beta) - special.ndtr(alpha),
    )


def _ref_std_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _ref_check_mass(mass):
    if np.any(mass < density.DEGENERATE_MASS):
        raise DegenerateTruncationError("reference: degenerate window")


def _ref_trunc_cdf(center, sigma, lo, hi, x):
    center = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    alpha = (lo - center) / sigma
    beta = (hi - center) / sigma
    mass = _ref_interval_mass(alpha, beta)
    _ref_check_mass(mass)
    s = np.clip((x - center) / sigma, alpha, beta)
    return np.clip(_ref_interval_mass(alpha, s) / mass, 0.0, 1.0)


def _ref_trunc_quantile(center, sigma, lo, hi, p):
    center, p = np.broadcast_arrays(np.asarray(center, dtype=float), np.asarray(p, dtype=float))
    alpha = (lo - center) / sigma
    beta = (hi - center) / sigma
    mass = _ref_interval_mass(alpha, beta)
    _ref_check_mass(mass)
    lower_tail = special.ndtr(alpha) + p * mass
    upper_tail = special.ndtr(-beta) + (1.0 - p) * mass
    tiny = np.finfo(float).tiny
    z = np.where(
        lower_tail <= 0.5,
        special.ndtri(np.maximum(lower_tail, tiny)),
        -special.ndtri(np.maximum(upper_tail, tiny)),
    )
    blo = np.maximum(lo, center - density._Z_RANGE * sigma)
    bhi = np.minimum(hi, center + density._Z_RANGE * sigma)
    x = np.clip(center + sigma * z, blo, bhi)
    inv_norm = sigma * mass
    for _ in range(density._TRUNC_NEWTON_STEPS):
        s = np.clip((x - center) / sigma, alpha, beta)
        err = _ref_interval_mass(alpha, s) / mass - p
        bhi = np.where(err >= 0.0, np.minimum(bhi, x), bhi)
        blo = np.where(err <= 0.0, np.maximum(blo, x), blo)
        dens = _ref_std_pdf(s)
        step = np.where(dens > 0.0, err * inv_norm / np.maximum(dens, tiny), 0.0)
        candidate = x - step
        inside = (candidate >= blo) & (candidate <= bhi)
        x = np.where(inside, candidate, 0.5 * (blo + bhi))
    x = np.where(p == 0.0, lo, x)
    return np.where(p == 1.0, hi, x)


def _ref_folded_cdf(center, sigma, x):
    xc = np.maximum(x, 0.0)
    val = special.ndtr((xc - center) / sigma) - special.ndtr(-(xc + center) / sigma)
    return np.clip(np.where(x < 0.0, 0.0, val), 0.0, 1.0)


def _ref_folded_quantile(center, sigma, p, hi=None):
    center, p = np.broadcast_arrays(np.asarray(center, dtype=float), np.asarray(p, dtype=float))
    tiny = np.finfo(float).tiny
    z_hi = -special.ndtri(np.maximum(0.5 * (1.0 - p), tiny))
    bhi = center + sigma * np.maximum(z_hi, 0.0) + sigma
    if hi is not None:
        bhi = np.minimum(bhi, np.broadcast_to(np.asarray(hi, dtype=float), p.shape))
    blo = np.zeros_like(p)
    with np.errstate(invalid="ignore"):
        z0 = special.ndtri(np.clip(p, tiny, 1.0 - 1e-16))
    x = np.clip(center + sigma * z0, blo, bhi)
    for _ in range(density._FOLDED_NEWTON_STEPS):
        err = _ref_folded_cdf(center, sigma, x) - p
        bhi = np.where(err >= 0.0, np.minimum(bhi, x), bhi)
        blo = np.where(err <= 0.0, np.maximum(blo, x), blo)
        dens = (_ref_std_pdf((x - center) / sigma) + _ref_std_pdf((x + center) / sigma)) / sigma
        step = np.where(dens > 0.0, err / np.maximum(dens, tiny), 0.0)
        candidate = x - step
        inside = (candidate >= blo) & (candidate <= bhi)
        x = np.where(inside, candidate, 0.5 * (blo + bhi))
    return np.where(p == 0.0, 0.0, x)


def _assert_same_bits(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, f"{differ.size} values differ, first at {differ[:5]}"


def _oracle_p(rng, n):
    p = rng.random(n)
    p[:4] = (0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53)
    return p


# Windows [0, 1], [0, inf) and (-inf, b], plus centers that put the window
# wholly above the center (reflected) or wholly below it.  Centers reach at
# most 30 sigma past an edge, so every window keeps its mass.
_ORACLE_WINDOWS = [(0.0, 1.0), (0.0, math.inf), (-math.inf, 0.6), (0.2, 0.7)]


@pytest.mark.parametrize("a", [1.0, 10.0, 250.0])
@pytest.mark.parametrize("lo, hi", _ORACLE_WINDOWS)
def test_truncated_solvers_match_both_branch_reference(a, lo, hi):
    rng = np.random.default_rng([int(a), _ORACLE_WINDOWS.index((lo, hi))])
    sigma = ModelParams(a).sigma
    reach = 30.0 * sigma
    left = (lo if math.isfinite(lo) else hi - 1.0) - reach
    right = (hi if math.isfinite(hi) else lo + 1.0) + reach
    n = 4096
    centers = rng.uniform(left, right, n)
    # the extremes, the middle, and each finite edge (alpha or beta = 0)
    edges = [c for c in (lo, hi) if math.isfinite(c)]
    centers[:3 + len(edges)] = [left, right, 0.5 * (left + right), *edges]
    p = _oracle_p(rng, n)
    assert np.any((lo - centers) / sigma > 0.0) or not math.isfinite(lo)
    vector = density._trunc_quantile_core(centers, sigma, lo, hi, p)
    _assert_same_bits(vector, _ref_trunc_quantile(centers, sigma, lo, hi, p))
    # every pair again through the 0-d entry, the scalar path
    _assert_same_bits([density._trunc_quantile_core(c, sigma, lo, hi, q)
                       for c, q in zip(centers, p)], vector)
    x = rng.uniform(left - reach, right + reach, n)
    _assert_same_bits(density._trunc_cdf_core(centers, sigma, lo, hi, x),
                      _ref_trunc_cdf(centers, sigma, lo, hi, x))
    # one center against many p (evaluated before broadcasting), and 0-d
    for center in centers[:3 + len(edges)]:
        _assert_same_bits(density._trunc_quantile_core(center, sigma, lo, hi, p),
                          _ref_trunc_quantile(center, sigma, lo, hi, p))
        _assert_same_bits(density._trunc_cdf_core(center, sigma, lo, hi, x),
                          _ref_trunc_cdf(center, sigma, lo, hi, x))
        for q in p[:5]:
            _assert_same_bits(density._trunc_quantile_core(center, sigma, lo, hi, q),
                              _ref_trunc_quantile(center, sigma, lo, hi, q))


@pytest.mark.parametrize("a", [1.0, 10.0, 250.0])
def test_folded_solver_matches_reference(a):
    rng = np.random.default_rng(int(a) + 17)
    sigma = ModelParams(a).sigma
    n = 4096
    centers = np.abs(rng.normal(0.0, 5.0 * sigma, n)) * rng.choice([0.0, 1.0, 4.0], n)
    p = _oracle_p(rng, n)
    _assert_same_bits(density._folded_quantile_core(centers, sigma, p),
                      _ref_folded_quantile(centers, sigma, p))
    # the monotone coupling's cap: the half-line draw from the same uniform
    upper = density._trunc_quantile_core(centers, sigma, 0.0, math.inf, p)
    _assert_same_bits(density._folded_quantile_core(centers, sigma, p, hi=upper),
                      _ref_folded_quantile(centers, sigma, p, hi=upper))
    for center in (0.0, 2.0 * sigma):
        _assert_same_bits(density._folded_quantile_core(center, sigma, p),
                          _ref_folded_quantile(center, sigma, p))
        _assert_same_bits(density._folded_quantile_core(center, sigma, p[7]),
                          _ref_folded_quantile(center, sigma, p[7]))


@pytest.mark.parametrize("lo, hi", _ORACLE_WINDOWS)
def test_degenerate_windows_raise_like_reference(lo, hi):
    sigma = ModelParams(250.0).sigma
    # 40 sigma outside the window, on each finite side
    centers = [c for c in (lo - 40.0 * sigma, hi + 40.0 * sigma) if math.isfinite(c)]
    for center in centers:
        for call in (
            lambda: density._trunc_quantile_core(np.array([0.5, center]), sigma, lo, hi, 0.3),
            lambda: density._trunc_cdf_core(center, sigma, lo, hi, 0.5),
            lambda: _ref_trunc_quantile(np.array([0.5, center]), sigma, lo, hi, 0.3),
            lambda: _ref_trunc_cdf(center, sigma, lo, hi, 0.5),
            lambda: TruncatedGaussian(center, sigma * sigma, lo, hi),
        ):
            with pytest.raises(DegenerateTruncationError):
                call()


class _CountingSpecial:
    """Stands in for scipy.special and counts the elements passed to each function."""

    def __init__(self):
        self.elements = {}

    def __getattr__(self, name):
        fn = getattr(special, name)

        def counted(x, *args, **kwargs):
            self.elements[name] = self.elements.get(name, 0) + np.size(x)
            return fn(x, *args, **kwargs)

        return counted


@pytest.mark.parametrize("center_lo, center_hi", [(0.0, 1.0), (-0.2, -0.05), (1.05, 1.2)])
def test_truncated_quantile_evaluates_each_tail_once(monkeypatch, center_lo, center_hi):
    # Phi at each reflected endpoint, at the far tail, and once per Newton
    # step; one inverse.  Evaluating both branches of a selection would
    # exceed this.
    counting = _CountingSpecial()
    monkeypatch.setattr(density, "special", counting)
    n = 1000
    rng = np.random.default_rng(8)
    centers = rng.uniform(center_lo, center_hi, n)
    p = rng.random(n)
    density._trunc_quantile_core(centers, ModelParams(10.0).sigma, 0.0, 1.0, p)
    assert counting.elements["ndtr"] <= (3 + density._TRUNC_NEWTON_STEPS) * n
    assert counting.elements["ndtri"] <= n
    # the same bound per call on the 0-d entry
    for center, q in zip(centers[:100], p[:100]):
        counting.elements.clear()
        density._trunc_quantile_core(center, ModelParams(10.0).sigma, 0.0, 1.0, q)
        assert counting.elements["ndtr"] <= 3 + density._TRUNC_NEWTON_STEPS
        assert counting.elements["ndtri"] <= 1
