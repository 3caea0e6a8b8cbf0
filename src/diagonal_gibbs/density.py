"""Scalar densities, CDFs and quantiles for the diagonal-band model.

The model on the unit square has unnormalized density exp(-a^2 (u - v)^2),
so every conditional of one coordinate given the other is a Gaussian with
standard deviation 1/(a*sqrt(2)) centered at the other coordinate and
truncated to [0, 1].  Everything downstream (chain steps, couplings, the
discretized operator) reduces to truncated or folded Gaussian evaluations,
so those live here in one place.

CDFs are evaluated through the complementary error function (scipy's ndtr
family), never through quadrature; quadrature appears only as an oracle in
the test suite.  Quantiles use a closed-form initial estimate followed by
safeguarded Newton iterations on the CDF, with bisection midpoints whenever
a Newton step leaves the current bracket.

A truncation window lying wholly above its center is reflected through it
(negation is exact), so every CDF difference is taken on the tail at or
below 1/2, where it keeps relative accuracy.  Phi is evaluated once at each
reflected endpoint, and those two values are reused by the mass, the
initial estimate and each Newton step, which then costs one Phi call.  The
test suite checks the results bit for bit against a reference that
evaluates both sides of every branch.

The truncated quantile has a second entry for a 0-d center and a 0-d p,
the call a single trajectory makes once per step: the same algorithm on
Python floats, calling the same ufunc for every transcendental, so it
returns the vector kernel's bits without numpy's per-call cost on 0-d
arrays.  The test suite checks it bit for bit against the vector kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

SQRT_PI = math.sqrt(math.pi)
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Truncations whose support carries less than this much Gaussian mass are
# rejected outright; conditioning on them would be numerically meaningless.
DEGENERATE_MASS = 1e-300

# Newton refinement counts for the quantile solvers.  The truncated solver
# starts from an inverse-normal estimate that is already correct to a few
# ulps, so two polish steps suffice.  The folded solver starts from a cruder
# guess and gets a longer budget.
_TRUNC_NEWTON_STEPS = 2
_FOLDED_NEWTON_STEPS = 8

# Standard-normal quantile range that exhausts double precision; used to cut
# infinite supports down to finite Newton brackets.
_Z_RANGE = 40.0


class DegenerateTruncationError(ValueError):
    """Raised when a truncation window carries essentially no mass."""


class ModelParamsError(ValueError):
    """Raised for invalid model parameters."""


@dataclass(frozen=True)
class ModelParams:
    """Concentration parameter a > 0 and middle-band half-width delta.

    sigma2 is the variance 1/(2 a^2) of one conditional step; sigma is its
    square root, computed once so every module uses bit-identical values.
    """

    a: float
    delta: float = 0.05

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ModelParamsError(f"a must be positive and finite, got {self.a!r}")
        if not (0.0 < self.delta < 0.5):
            raise ModelParamsError(f"delta must lie in (0, 1/2), got {self.delta!r}")

    @property
    def sigma2(self) -> float:
        return 1.0 / (2.0 * self.a * self.a)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def middle_lo(self) -> float:
        return 0.5 - self.delta

    @property
    def middle_hi(self) -> float:
        return 0.5 + self.delta


def phi(x, params: ModelParams):
    """Unnormalized Gaussian profile exp(-a^2 x^2).

    Underflows to 0.0 for |x| >> 1/a; that is fine everywhere this is used.
    """
    x = np.asarray(x, dtype=float)
    out = np.exp(-((params.a * x) ** 2))
    return float(out) if out.ndim == 0 else out


def gaussian_tail_bound(z, params: ModelParams):
    """Upper bound exp(-a^2 z^2) / (2 sqrt(pi) a z) for the Gaussian tail.

    Dominates P(N(0, 1/(2a^2)) > z) = erfc(a z)/2 for every z > 0.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("tail bound requires z > 0")
    out = np.exp(-((params.a * z) ** 2)) / (2.0 * SQRT_PI * params.a * z)
    return float(out) if out.ndim == 0 else out


def marginal_density_pu(x, params: ModelParams):
    """Unit-normalized u-marginal profile of the diagonal-band density.

    p_u(x) = (a/sqrt(pi)) * integral of exp(-a^2 y^2) for y in [-x, 1-x],
    which evaluates to (erf(a x) + erf(a (1 - x))) / 2.  Values lie in
    (0, 1]; the constant-1 plateau is approached away from the corners.
    """
    x = np.asarray(x, dtype=float)
    a = params.a
    out = 0.5 * (special.erf(a * x) + special.erf(a * (1.0 - x)))
    return float(out) if out.ndim == 0 else out


# ======================================================================
# shared low-level pieces
# ======================================================================

# Floor that keeps ndtri arguments and Newton divisors positive.
_TINY = np.finfo(float).tiny


def _std_pdf(z):
    return np.exp(-0.5 * z * z) / SQRT_TWO_PI


def _check_p(p):
    # phrased so that NaN, which lies in no interval, fails it
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("quantile argument must lie in [0, 1]")


class _Window(NamedTuple):
    """A truncation window [lo, hi] standardized about the center.

    ``alpha`` and ``beta`` are (lo - center)/sigma and (hi - center)/sigma.
    A window wholly above the center (``upper``, alpha > 0) is reflected
    through it to [lo_r, hi_r] = [-beta, -alpha], so Phi(lo_r) is always the
    tail at or below 1/2, which keeps relative accuracy; negation is exact.
    Phi is evaluated once at each reflected endpoint: ``f_lo`` = Phi(lo_r)
    and ``mass`` = Phi(hi_r) - f_lo.  ``sign`` is -1 on reflected windows
    and +1 elsewhere; ``offset`` is -Phi(-alpha) on reflected windows and
    Phi(alpha) elsewhere.
    """

    alpha: np.ndarray
    beta: np.ndarray
    upper: np.ndarray
    sign: np.ndarray
    hi_r: np.ndarray
    f_lo: np.ndarray
    offset: np.ndarray
    mass: np.ndarray

    def mass_to(self, s):
        """Phi(s) - Phi(alpha) for s in [alpha, beta], with one Phi call.

        On a reflected window this is -Phi(-s) + Phi(-alpha), the same
        difference taken on the tail that keeps precision, rounded exactly
        as Phi(-alpha) - Phi(-s).
        """
        return self.sign * special.ndtr(self.sign * s) - self.offset


def _window(center, sigma: float, lo: float, hi: float) -> _Window:
    alpha = (lo - center) / sigma
    beta = (hi - center) / sigma
    upper = alpha > 0.0
    hi_r = np.where(upper, -alpha, beta)
    f_lo = special.ndtr(np.where(upper, -beta, alpha))
    f_hi = special.ndtr(hi_r)
    return _Window(
        alpha, beta, upper, np.where(upper, -1.0, 1.0), hi_r, f_lo,
        np.where(upper, -f_hi, f_lo), f_hi - f_lo,
    )


def _trunc_mass(center, sigma: float, lo: float, hi: float):
    return _window(np.asarray(center, dtype=float), sigma, lo, hi).mass


def _trunc_cdf_core(center, sigma: float, lo: float, hi: float, x):
    """CDF of N(center, sigma^2) truncated to [lo, hi], vectorized."""
    center = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    w = _window(center, sigma, lo, hi)
    _check_mass(w.mass, center, sigma, lo, hi)
    s = np.clip((x - center) / sigma, w.alpha, w.beta)
    return np.clip(w.mass_to(s) / w.mass, 0.0, 1.0)


def _check_mass(mass, center, sigma, lo, hi):
    if np.any(mass < DEGENERATE_MASS):
        bad = np.min(mass)
        raise DegenerateTruncationError(
            f"truncation to [{lo}, {hi}] retains mass {bad:g} "
            f"(center range [{np.min(center):g}, {np.max(center):g}], sigma {sigma:g})"
        )


def _finite_bracket(center, sigma: float, lo: float, hi: float):
    blo = np.maximum(lo, np.asarray(center, dtype=float) - _Z_RANGE * sigma)
    bhi = np.minimum(hi, np.asarray(center, dtype=float) + _Z_RANGE * sigma)
    return blo, bhi


def _trunc_quantile_core(center, sigma: float, lo: float, hi: float, p):
    """Quantile of N(center, sigma^2) truncated to [lo, hi], vectorized.

    Initial estimate: invert the normal CDF on whichever tail of the
    cumulative target keeps relative accuracy.  Then a fixed number of
    Newton corrections on the truncated CDF, safeguarded by a shrinking
    bracket (midpoint fallback when Newton leaves it).

    A 0-d center with a 0-d p is solved by ``_trunc_quantile_scalar``, with
    the same bits, as a numpy float64; any array input, one center with an
    array of p included, runs vectorized.
    """
    center = np.asarray(center, dtype=float)
    p = np.asarray(p, dtype=float)
    if center.ndim == 0 and p.ndim == 0:
        return np.float64(_trunc_quantile_scalar(float(center), sigma, lo, hi, float(p)))
    _check_p(p)
    w = _window(center, sigma, lo, hi)
    _check_mass(w.mass, center, sigma, lo, hi)
    if center.shape != p.shape:
        # after the window, which depends on the center alone
        center, p = np.broadcast_arrays(center, p)

    # Cumulative target measured from the lower tail and from the upper
    # tail; exactly one of the two is <= 1/2 and is safe to invert.  Their
    # offsets Phi(alpha) and Phi(-beta) are f_lo and Phi(-hi_r), in the
    # order the reflection put them.
    f_far = special.ndtr(-w.hi_r)
    lower_tail = np.where(w.upper, f_far, w.f_lo) + p * w.mass
    upper_tail = np.where(w.upper, w.f_lo, f_far) + (1.0 - p) * w.mass
    from_below = lower_tail <= 0.5
    z = special.ndtri(np.maximum(np.where(from_below, lower_tail, upper_tail), _TINY))
    x = center + sigma * np.where(from_below, z, -z)

    # A non-degenerate window keeps blo <= bhi, and every iterate lies in
    # [blo, bhi] within [lo, hi].  So each bracket update moves an edge to
    # x, and s lies in [alpha, beta] unclipped (a tie can differ from the
    # clipped value only in the sign of a zero, which Phi and the density
    # ignore).
    blo, bhi = _finite_bracket(center, sigma, lo, hi)
    x = np.clip(x, blo, bhi)
    inv_norm = sigma * w.mass
    for _ in range(_TRUNC_NEWTON_STEPS):
        s = (x - center) / sigma
        err = w.mass_to(s) / w.mass - p
        bhi = np.where(err >= 0.0, x, bhi)
        blo = np.where(err <= 0.0, x, blo)
        density = _std_pdf(s)
        step = np.where(density > 0.0, err * inv_norm / np.maximum(density, _TINY), 0.0)
        candidate = x - step
        # Closed-interval test: a converged iterate sits on the bracket
        # edge it just tightened, and must not be bisected away from it.
        inside = (candidate >= blo) & (candidate <= bhi)
        x = np.where(inside, candidate, 0.5 * (blo + bhi))

    # Hard edges are exact by contract.
    x = np.where(p == 0.0, lo, x)
    x = np.where(p == 1.0, hi, x)
    return x


# np.maximum, np.minimum and np.clip on 0-d input, for Python floats: NaN in
# any argument gives NaN, a tie in max or min returns the second argument, and
# a tie in clip keeps x (so no signed zero moves).  Python's max, min and
# chained comparisons differ on both counts.
def _max(a: float, b: float) -> float:
    return a if a > b or a != a else b


def _min(a: float, b: float) -> float:
    return a if a < b or a != a else b


def _clip(x: float, lo: float, hi: float) -> float:
    if x < lo or lo != lo:
        x = lo
    if x > hi or hi != hi:
        x = hi
    return x


def _trunc_quantile_scalar(center: float, sigma: float, lo: float, hi: float, p: float):
    """``_trunc_quantile_core`` for one center and one p, on Python floats.

    The vector algorithm step for step, with the same bits: Python + - * /
    and comparisons round as numpy's do, every transcendental is the same
    ufunc, looked up through ``special`` and ``np``, and selections become
    branches.
    """
    if not 0.0 <= p <= 1.0:
        _check_p(p)
    alpha = (lo - center) / sigma
    beta = (hi - center) / sigma
    upper = alpha > 0.0
    # _window: reflect a window wholly above the center
    if upper:
        sign, hi_r, f_lo = -1.0, -alpha, float(special.ndtr(-beta))
    else:
        sign, hi_r, f_lo = 1.0, beta, float(special.ndtr(alpha))
    f_hi = float(special.ndtr(hi_r))
    offset = -f_hi if upper else f_lo
    mass = f_hi - f_lo
    if mass < DEGENERATE_MASS:
        _check_mass(mass, center, sigma, lo, hi)

    f_far = float(special.ndtr(-hi_r))
    lower_tail = (f_far if upper else f_lo) + p * mass
    upper_tail = (f_lo if upper else f_far) + (1.0 - p) * mass
    from_below = lower_tail <= 0.5
    z = float(special.ndtri(_max(lower_tail if from_below else upper_tail, _TINY)))
    x = center + sigma * (z if from_below else -z)

    blo = _max(lo, center - _Z_RANGE * sigma)
    bhi = _min(hi, center + _Z_RANGE * sigma)
    x = _clip(x, blo, bhi)
    inv_norm = sigma * mass
    for _ in range(_TRUNC_NEWTON_STEPS):
        s = (x - center) / sigma
        err = (sign * float(special.ndtr(sign * s)) - offset) / mass - p
        if err >= 0.0:
            bhi = x
        if err <= 0.0:
            blo = x
        density = float(_std_pdf(s))
        step = err * inv_norm / _max(density, _TINY) if density > 0.0 else 0.0
        candidate = x - step
        x = candidate if blo <= candidate <= bhi else 0.5 * (blo + bhi)

    if p == 0.0:
        return lo
    if p == 1.0:
        return hi
    return x


def _folded_cdf_core(center, sigma: float, x):
    """CDF of |N(center, sigma^2)| for center >= 0, vectorized.

    The folded measure of [0, x] is Phi((x-c)/sigma) - Phi(-(x+c)/sigma).
    """
    center = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    xc = np.maximum(x, 0.0)
    val = special.ndtr((xc - center) / sigma) - special.ndtr(-(xc + center) / sigma)
    return np.clip(np.where(x < 0.0, 0.0, val), 0.0, 1.0)


def _folded_pdf_core(center, sigma: float, x):
    center = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    return (_std_pdf((x - center) / sigma) + _std_pdf((x + center) / sigma)) / sigma


def _folded_quantile_core(center, sigma: float, p, hi=None):
    """Quantile of the folded Gaussian, by safeguarded Newton on its CDF.

    ``hi``, when given, must be a valid upper bracket (CDF(hi) >= p); the
    returned value then never exceeds it.  The monotone coupling passes the
    already-computed upper-chain draw here, which makes the coupled pair
    ordered by construction instead of by luck in the last ulp.
    """
    center = np.asarray(center, dtype=float)
    p = np.asarray(p, dtype=float)
    _check_p(p)
    if (center < 0.0).any():
        raise ValueError("folded center must be >= 0")
    if center.shape != p.shape:
        center, p = np.broadcast_arrays(center, p)

    # 1 - F(x) <= 2 Phi(-(x-c)/sigma), so c + sigma * ndtri(1 - (1-p)/2)
    # always brackets the quantile from above.
    z_hi = -special.ndtri(np.maximum(0.5 * (1.0 - p), _TINY))
    bhi = center + sigma * np.maximum(z_hi, 0.0) + sigma
    if hi is not None:
        bhi = np.minimum(bhi, np.broadcast_to(np.asarray(hi, dtype=float), p.shape))
    blo = np.zeros_like(p)

    with np.errstate(invalid="ignore"):
        z0 = special.ndtri(np.clip(p, _TINY, 1.0 - 1e-16))
    x = np.clip(center + sigma * z0, blo, bhi)

    # Every iterate lies in [blo, bhi], inside [+0, bhi] for a valid hi, so
    # each bracket update moves an edge to x, _folded_cdf_core's clamp of x
    # at 0 and its zero below 0 are identities, and the CDF cannot exceed 1;
    # only its floor at 0 is kept.
    for _ in range(_FOLDED_NEWTON_STEPS):
        z_minus = (x - center) / sigma
        z_plus = (x + center) / sigma
        cdf = np.maximum(special.ndtr(z_minus) - special.ndtr(-z_plus), 0.0)
        err = cdf - p
        bhi = np.where(err >= 0.0, x, bhi)
        blo = np.where(err <= 0.0, x, blo)
        density = (_std_pdf(z_minus) + _std_pdf(z_plus)) / sigma
        step = np.where(density > 0.0, err / np.maximum(density, _TINY), 0.0)
        candidate = x - step
        inside = (candidate >= blo) & (candidate <= bhi)
        x = np.where(inside, candidate, 0.5 * (blo + bhi))

    x = np.where(p == 0.0, 0.0, x)
    return x


def _as_float_or_array(x, arr):
    return float(arr) if np.ndim(x) == 0 and np.ndim(arr) == 0 else arr


# ======================================================================
# distribution objects
# ======================================================================

@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian with the given center and variance, conditioned to a window.

    Supports half-open and fully open windows through +-inf endpoints.
    Construction fails if the window retains less than DEGENERATE_MASS of
    the Gaussian's probability.
    """

    center: float
    variance: float
    support_lo: float = -math.inf
    support_hi: float = math.inf

    def __post_init__(self):
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive and finite, got {self.variance!r}")
        if not self.support_lo < self.support_hi:
            raise ValueError(
                f"empty support [{self.support_lo}, {self.support_hi}]"
            )
        mass = _trunc_mass(self.center, self.sigma, self.support_lo, self.support_hi)
        _check_mass(mass, self.center, self.sigma, self.support_lo, self.support_hi)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    def cdf(self, x):
        out = _trunc_cdf_core(self.center, self.sigma, self.support_lo, self.support_hi, x)
        return _as_float_or_array(x, out)

    def pdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        mass = _trunc_mass(self.center, self.sigma, self.support_lo, self.support_hi)
        s = (x_arr - self.center) / self.sigma
        val = _std_pdf(s) / (self.sigma * mass)
        inside = (x_arr >= self.support_lo) & (x_arr <= self.support_hi)
        out = np.where(inside, val, 0.0)
        return _as_float_or_array(x, out)

    def quantile(self, p):
        out = _trunc_quantile_core(
            self.center, self.sigma, self.support_lo, self.support_hi, p
        )
        return _as_float_or_array(p, out)


@dataclass(frozen=True)
class FoldedGaussian:
    """Distribution of |N(center, variance)| for center >= 0.

    Its measure of [0, x] equals the untruncated Gaussian measure of
    [-x, x]; equivalently mass of [a, b] plus mass of [-b, -a].
    """

    center: float
    variance: float

    def __post_init__(self):
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive and finite, got {self.variance!r}")
        if not (self.center >= 0.0 and math.isfinite(self.center)):
            raise ValueError(f"center must be >= 0 and finite, got {self.center!r}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    def cdf(self, x):
        out = _folded_cdf_core(self.center, self.sigma, x)
        return _as_float_or_array(x, out)

    def pdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        val = _folded_pdf_core(self.center, self.sigma, x_arr)
        out = np.where(x_arr < 0.0, 0.0, val)
        return _as_float_or_array(x, out)

    def quantile(self, p, hi=None):
        out = _folded_quantile_core(self.center, self.sigma, p, hi=hi)
        return _as_float_or_array(p, out)


def truncated_cdf(dist: TruncatedGaussian, x):
    """Functional alias for dist.cdf(x)."""
    return dist.cdf(x)


def truncated_quantile(dist: TruncatedGaussian, p):
    """Functional alias for dist.quantile(p)."""
    return dist.quantile(p)


def conditional_on_unit_interval(center: float, params: ModelParams) -> TruncatedGaussian:
    """The one-coordinate conditional: N(center, sigma^2) truncated to [0, 1]."""
    return TruncatedGaussian(center, params.sigma2, 0.0, 1.0)


def conditional_on_half_line(center: float, params: ModelParams) -> TruncatedGaussian:
    """Half-line variant used by the extended chain: truncation to [0, inf)."""
    return TruncatedGaussian(center, params.sigma2, 0.0, math.inf)
