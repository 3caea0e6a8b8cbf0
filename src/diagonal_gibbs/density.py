"""Scalar densities, CDFs and quantiles for the diagonal-band model.

The model on the unit square has unnormalized density exp(-a^2 (u - v)^2),
so every conditional of one coordinate given the other is a Gaussian with
standard deviation 1/(a*sqrt(2)) centered at the other coordinate and
truncated to [0, 1].  Everything downstream (chain steps, couplings, the
discretized operator) reduces to truncated or folded Gaussian evaluations,
so those live here in one place.

CDFs are evaluated through the complementary error function (scipy's ndtr
family), never through quadrature; quadrature appears only as an oracle in
the test suite.  Both quantiles, the truncated and the folded, start from a
closed-form estimate and polish it in one loop, ``_newton``: safeguarded
Newton iterations on the CDF, with bisection midpoints whenever a Newton
step leaves the current bracket.  The loop drops each element at its fixed
point, so each solver's step count is a cap; ``_newton`` states why that
cannot move a bit, and the test suite checks both solvers against a
reference that always runs every step.  It also skips a selection whose
mask is uniform (positive density, a candidate inside its bracket), as it
returns one of its arguments whole.

A truncation window lying wholly above its center is reflected through it
(negation is exact), so every CDF difference is taken on the tail at or
below 1/2, where it keeps relative accuracy.  Phi is evaluated once at each
reflected endpoint, and those two values are reused by the mass, the
initial estimate and each Newton step, which then costs one Phi call.  The
test suite checks the results bit for bit against a reference that
evaluates both sides of every branch.

The truncated quantile skips work whose result it already knows, and none
of the skips can move a bit:
  - the reflection is built only when some window lies wholly above its
    center.  No chain's draw has one, and without one the reflection's
    selections would return their unreflected argument and the residual
    Phi(s) - Phi(alpha) needs no sign, as 1.0 * x is x.
  - Phi(-beta), the upper tail's offset, is evaluated only for the elements
    whose lower-tail target is above 1/2, the only ones that read it, and
    on the half line not at all: there Phi(beta) = 1 and Phi(-beta) = 0.
  - a selection whose mask is uniform (p at 0 or at 1, every target on one
    tail) is skipped, as in ``_newton``.

The truncated quantile is one algorithm, written against nine operations
(where, maximum, minimum, clip, Phi and its inverse, any, all and a
same-bits test), that runs on either kind of input, and so is ``_newton``.
Arrays get numpy's operations.  A 0-d center with a 0-d p, the call a
single trajectory makes once per step, gets conditional expressions and the
same ufuncs on Python floats, which skip numpy's per-call cost on 0-d
arrays and round alike, so both kinds return the same bits.  The test suite
checks both against the reference, on windows with and without reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

SQRT_PI = math.sqrt(math.pi)
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Truncations whose support carries less than this much Gaussian mass are
# rejected outright; conditioning on them would be numerically meaningless.
DEGENERATE_MASS = 1e-300

# CDF-space slack of a folded cap: ``FoldedGaussian.quantile`` rejects a cap
# hi with CDF(hi) < p - DOMINANCE_TOL, the monotone coupling in ``coupling``
# counts a step whose cap fails the same test as an ordering violation, and
# the CLI's dominance sweep allows the same slack.
DOMINANCE_TOL = 1e-12

# Newton refinement caps for the quantile solvers (see ``_newton``).  The
# truncated solver starts from an inverse-normal estimate that is already
# correct to a few ulps, so two polish steps suffice.  The folded solver
# starts from a cruder guess and gets a longer budget.
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
        # sigma2 = 1/(2 a^2) must be a positive finite double, which holds for
        # a in about [5.3e-155, 9.4e153]; the divisor is tested first, as it
        # underflows to 0 for a below about 1e-162
        twice_a2 = 2.0 * self.a * self.a
        if not (twice_a2 > 0.0 and 0.0 < 1.0 / twice_a2 < math.inf):
            raise ModelParamsError(f"a = {self.a!r} puts the variance 1/(2 a^2) outside (0, inf)")
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
    if not np.all(z > 0.0):
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
_TINY = float(np.finfo(float).tiny)


def _std_pdf(z):
    return np.exp(-0.5 * z * z) / SQRT_TWO_PI


def _check_p(p):
    # phrased so that NaN, which lies in no interval, fails it
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("quantile argument must lie in [0, 1]")


def _check_mass(mass, center, sigma, lo, hi):
    # phrased so that a NaN mass, which a NaN center gives, fails it
    if not np.all(mass >= DEGENERATE_MASS):
        bad = np.min(mass)
        raise DegenerateTruncationError(
            f"truncation to [{lo}, {hi}] retains mass {bad:g} "
            f"(center range [{np.min(center):g}, {np.max(center):g}], sigma {sigma:g})"
        )


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


def _same_bits(a: float, b: float) -> bool:
    # a == b alone would also match +0.0 and -0.0
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# The operations the truncated solvers are written against, as (where,
# maximum, minimum, clip, ndtr, ndtri, any, all, same_bits): numpy's for
# arrays, and for Python floats the same selections with the same ufuncs for
# Phi and its inverse.  Python's + - * / and comparisons round as numpy's do,
# so both give the same bits.  ``special`` is looked up at each call, so a
# test can stand in for it.
_ARRAY_OPS = (
    np.where, np.maximum, np.minimum, np.clip,
    lambda x: special.ndtr(x), lambda x: special.ndtri(x),
    lambda m: m.any(), lambda m: m.all(),
    lambda a, b: a.view(np.int64) == b.view(np.int64),
)
_FLOAT_OPS = (
    lambda cond, a, b: a if cond else b, _max, _min, _clip,
    lambda x: float(special.ndtr(x)), lambda x: float(special.ndtri(x)),
    bool, bool, _same_bits,
)


def _flat(*values):
    """The broadcast shape of the numpy values, and each as a flat view of
    it, or a copy where the broadcast is not flat.  None, and a Python float,
    which broadcasts by itself, stay as they are.  Only values of another
    shape go through ``broadcast_to``, which costs microseconds a call."""
    kept = (type(None), float)
    shape = np.broadcast_shapes(*{v.shape for v in values if type(v) not in kept})
    return shape, [v if type(v) in kept else
                   (v if v.shape == shape else np.broadcast_to(v, shape)).reshape(-1)
                   for v in values]


def _newton(x, blo, bhi, residual, elementwise, steps, ops):
    """Estimate x polished by at most ``steps`` safeguarded Newton steps.

    ``residual(x, *elementwise)`` returns (err, density, scale): the CDF
    less its target at x, and the Newton step err * scale / density, taken
    as 0 where the density is 0.  An err >= 0 moves the upper bracket edge
    to x and an err <= 0 the lower one; a candidate outside [blo, bhi] (a
    closed test, so a converged iterate on the edge it just tightened stays)
    is replaced by the bracket's midpoint.  x is first clipped into [blo,
    bhi], and every iterate stays in it, so an edge update need not take a
    minimum or a maximum.  Arrays must be flat, of one length;
    ``elementwise`` holds the per-element values the residual reads.

    A step that returns an element's iterate with the same bits repeats its
    err, sets each bracket edge it moves to that iterate again (an
    idempotent update), and so returns it once more: the element is at its
    fixed point and takes no further step, so ``steps`` is only a cap.
    ``out`` holds every element's latest iterate; the ones still stepped sit
    at flat ``index`` in it, or are all of it while ``index`` is None.  A
    selection whose mask is uniform is skipped, as it returns one of its
    arguments whole.
    """
    where, maximum, _, clip, _, _, any_, all_, same_bits = ops
    out = new = clip(x, blo, bhi)
    index = None
    for k in range(steps):
        if k:
            fixed = same_bits(new, x)
            if all_(fixed):
                break
            if any_(fixed):
                moving = np.flatnonzero(~fixed)
                index = moving if index is None else index[moving]
                new, blo, bhi, *elementwise = (
                    v[moving] for v in (new, blo, bhi, *elementwise))
        x = new
        err, density, scale = residual(x, *elementwise)
        bhi = where(err >= 0.0, x, bhi)
        blo = where(err <= 0.0, x, blo)
        # Allocated after the bracket updates, not in the residual: in this
        # order glibc keeps the heap top between calls on chain draws, where
        # the other order had it trimmed and faulted back in on every call.
        step = err * scale
        step /= maximum(density, _TINY)
        if not all_(density > 0.0):
            step = where(density > 0.0, step, 0.0)
        new = x - step
        inside = new >= blo
        inside &= new <= bhi
        if not all_(inside):
            new = where(inside, new, 0.5 * (blo + bhi))
        if index is None:
            out = new
        else:
            out[index] = new
    return out


def _window(center, sigma: float, lo: float, hi: float, ops=_ARRAY_OPS):
    """A truncation window [lo, hi] standardized about the center.

    Returns (alpha, beta, upper, sign, hi_r, f_lo, offset, mass).
    ``alpha`` and ``beta`` are (lo - center)/sigma and (hi - center)/sigma.
    A window wholly above the center (``upper``, alpha > 0) is reflected
    through it to [lo_r, hi_r] = [-beta, -alpha], so Phi(lo_r) is always the
    tail at or below 1/2, which keeps relative accuracy; negation is exact.
    Phi is evaluated once at each reflected endpoint: ``f_lo`` = Phi(lo_r)
    and ``mass`` = Phi(hi_r) - f_lo.

    ``sign`` is -1 on reflected windows and +1 elsewhere; ``offset`` is
    -Phi(-alpha) on reflected windows and Phi(alpha) elsewhere.  So for s in
    [alpha, beta], sign * Phi(sign * s) - offset is Phi(s) - Phi(alpha) with
    one Phi call; on a reflected window it is -Phi(-s) + Phi(-alpha), the
    same difference taken on the tail that keeps precision, rounded exactly
    as Phi(-alpha) - Phi(-s).

    When no window is reflected, as on every chain's draws, ``upper`` is
    None, ``sign`` is 1.0, ``hi_r`` is ``beta`` and ``offset`` is ``f_lo``:
    the values the reflection's selections would return, without them.
    """
    where, _, minimum, _, ndtr, _, any_, _, _ = ops
    alpha = (lo - center) / sigma
    beta = (hi - center) / sigma
    upper = alpha > 0.0
    if not any_(upper):
        f_lo = ndtr(alpha)
        # On the half line beta is +inf, where Phi is 1, or NaN for a center
        # of +inf, which the minimum keeps NaN as Phi would.
        f_hi = minimum(beta, 1.0) if hi == math.inf else ndtr(beta)
        return alpha, beta, None, 1.0, beta, f_lo, f_lo, f_hi - f_lo
    hi_r = where(upper, -alpha, beta)
    f_lo = ndtr(where(upper, -beta, alpha))
    f_hi = ndtr(hi_r)
    return (alpha, beta, upper, where(upper, -1.0, 1.0), hi_r, f_lo,
            where(upper, -f_hi, f_lo), f_hi - f_lo)


def _trunc_mass(center, sigma: float, lo: float, hi: float):
    return _window(np.asarray(center, dtype=float), sigma, lo, hi)[-1]


def _trunc_cdf_core(center, sigma: float, lo: float, hi: float, x):
    """CDF of N(center, sigma^2) truncated to [lo, hi], vectorized."""
    center = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    alpha, beta, _, sign, _, _, offset, mass = _window(center, sigma, lo, hi)
    _check_mass(mass, center, sigma, lo, hi)
    s = np.clip((x - center) / sigma, alpha, beta)
    return np.clip((sign * special.ndtr(sign * s) - offset) / mass, 0.0, 1.0)


def _trunc_quantile_core(center, sigma: float, lo: float, hi: float, p):
    """Quantile of N(center, sigma^2) truncated to [lo, hi].

    Initial estimate: invert the normal CDF on whichever tail of the
    cumulative target keeps relative accuracy.  Then at most
    _TRUNC_NEWTON_STEPS steps of ``_newton`` on the truncated CDF.

    A 0-d center with a 0-d p, the call a single trajectory makes once per
    step, is solved on Python floats, without numpy's per-call cost on 0-d
    arrays, and returned as a numpy float64; any array input, one center
    with an array of p included, is solved on flat arrays.  Both run the one
    algorithm below and give the same bits.
    """
    center = np.asarray(center, dtype=float)
    p = np.asarray(p, dtype=float)
    if center.ndim == 0 and p.ndim == 0:
        center, p = float(center), float(p)
        # the array checks, run only when a float comparison fails
        if not 0.0 <= p <= 1.0:
            _check_p(p)
        window = _window(center, sigma, lo, hi, _FLOAT_OPS)
        if not window[-1] >= DEGENERATE_MASS:
            _check_mass(window[-1], center, sigma, lo, hi)
        return np.float64(_trunc_quantile(center, sigma, lo, hi, p, window, _FLOAT_OPS))
    _check_p(p)
    window = _window(center, sigma, lo, hi)
    _check_mass(window[-1], center, sigma, lo, hi)
    # flattened after the window, which depends on the center alone
    shape, (center, p, *window) = _flat(center, p, *window)
    return _trunc_quantile(center, sigma, lo, hi, p, window, _ARRAY_OPS).reshape(shape)


def _upper_tail(p, mass, beta, hi: float, ndtr):
    """Phi(-beta) + (1 - p) * mass on unreflected windows.  On the half line
    Phi(-beta) is Phi(-inf) = 0, which adds nothing to a sum >= +0."""
    tail = (1.0 - p) * mass
    if hi < math.inf:
        tail += ndtr(-beta)
    return tail


def _trunc_quantile(center, sigma: float, lo: float, hi: float, p, window, ops):
    """``_trunc_quantile_core`` on a checked ``_window``, with the given ops.

    Arrays must be flat, of one length.  The branches on ``any`` and ``all``
    skip work whose result is known; the array-only code under them is
    reached only when a mask is mixed, which one float never is.
    """
    where, maximum, minimum, _, ndtr, ndtri, any_, all_, _ = ops
    _, _, upper, sign, hi_r, f_lo, offset, mass = window

    # Cumulative target measured from the lower tail, and where that is
    # above 1/2 from the upper tail, which is then below it and safe to
    # invert.  Their offsets Phi(alpha) and Phi(-beta) are f_lo and
    # Phi(-hi_r), in the order the reflection put them.
    lower_tail = p * mass
    if upper is None:
        lower_tail += f_lo
    else:
        f_far = ndtr(-hi_r)
        lower_tail += where(upper, f_far, f_lo)
    from_below = lower_tail <= 0.5
    if all_(from_below):
        z = ndtri(maximum(lower_tail, _TINY))
    elif upper is not None:
        z = ndtri(maximum(where(from_below, lower_tail,
                                where(upper, f_lo, f_far) + (1.0 - p) * mass), _TINY))
        z = where(from_below, z, -z)
    elif not any_(from_below):
        z = -ndtri(maximum(_upper_tail(p, mass, hi_r, hi, ndtr), _TINY))
    else:
        # the upper tail only where it is inverted, in the lower tail's place
        far = np.flatnonzero(~from_below)
        lower_tail[far] = _upper_tail(p[far], mass[far], hi_r[far], hi, ndtr)
        z = ndtri(maximum(lower_tail, _TINY))
        z[far] = -z[far]

    def residual(x, center, q, offset, mass, inv_norm, sign=None):
        # Every iterate lies in the bracket, within [lo, hi], so s lies in
        # [alpha, beta] unclipped (a tie can differ from the clipped value
        # only in the sign of a zero, which Phi and the density ignore).
        s = x - center
        s /= sigma
        err = ndtr(s) if sign is None else sign * ndtr(sign * s)
        err -= offset
        err /= mass
        err -= q
        return err, _std_pdf(s), inv_norm

    out = _newton(center + sigma * z,
                  maximum(lo, center - _Z_RANGE * sigma), minimum(hi, center + _Z_RANGE * sigma),
                  residual, (center, p, offset, mass, sigma * mass) + (() if upper is None else (sign,)),
                  _TRUNC_NEWTON_STEPS, ops)

    # Hard edges are exact by contract.
    if any_(p == 0.0):
        out = where(p == 0.0, lo, out)
    if any_(p == 1.0):
        out = where(p == 1.0, hi, out)
    return out


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
    """Quantile of the folded Gaussian, by ``_newton`` on its CDF.

    ``hi``, when given, must be a valid upper bracket (CDF(hi) >= p); the
    returned value then never exceeds it.  The monotone coupling passes the
    already-computed upper-chain draw here, which makes the coupled pair
    ordered by construction instead of by luck in the last ulp.  A cap is
    not checked here: the coupling counts one that fails as an ordering
    violation, and ``FoldedGaussian.quantile`` rejects it.  At p = 1 the
    quantile is ``hi``, or inf without a cap.
    """
    center = np.asarray(center, dtype=float)
    p = np.asarray(p, dtype=float)
    _check_p(p)
    if not (center >= 0.0).all():
        raise ValueError("folded center must be >= 0")
    if hi is not None:
        hi = np.asarray(hi, dtype=float)
        # phrased so that NaN, which lies outside the support, fails it
        if not np.all(hi >= 0.0):
            raise ValueError("folded upper bracket hi must be >= 0")
    shape, (center, p, hi) = _flat(center, p, hi)

    # 1 - F(x) <= 2 Phi(-(x-c)/sigma), so c + sigma * ndtri(1 - (1-p)/2)
    # always brackets the quantile from above.
    z_hi = -special.ndtri(np.maximum(0.5 * (1.0 - p), _TINY))
    bhi = center + sigma * np.maximum(z_hi, 0.0) + sigma
    if hi is not None:
        bhi = np.minimum(bhi, hi)
    with np.errstate(invalid="ignore"):
        z0 = special.ndtri(np.clip(p, _TINY, 1.0 - 1e-16))

    def residual(x, center, q):
        # Every iterate lies in the bracket, inside [+0, bhi] for a valid
        # hi, so _folded_cdf_core's clamp of x at 0, its zero below 0 and
        # its clip at 1 are identities; only its floor at 0 is kept.
        z_minus = (x - center) / sigma
        z_plus = (x + center) / sigma
        err = np.maximum(special.ndtr(z_minus) - special.ndtr(-z_plus), 0.0) - q
        # err * 1.0 is err, bit for bit
        return err, (_std_pdf(z_minus) + _std_pdf(z_plus)) / sigma, 1.0

    out = _newton(center + sigma * z0, np.zeros_like(p), bhi, residual, (center, p),
                  _FOLDED_NEWTON_STEPS, _ARRAY_OPS)
    # Hard edges are exact by contract, as in the truncated solver.
    out = np.where(p == 0.0, 0.0, out)
    if (p == 1.0).any():
        out = np.where(p == 1.0, np.inf if hi is None else hi, out)
    return out.reshape(shape)


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
        """Quantile at p, never above the cap ``hi`` when one is given.

        A cap must bracket the quantile, CDF(hi) >= p up to DOMINANCE_TOL;
        it is tested after the solver's own checks of p and hi.
        """
        out = _folded_quantile_core(self.center, self.sigma, p, hi=hi)
        p = np.asarray(p, dtype=float)
        if hi is not None and not np.all(self.cdf(hi) >= p - DOMINANCE_TOL):
            raise ValueError("folded cap hi does not bracket the quantile: CDF(hi) < p")
        return _as_float_or_array(p, out)


def conditional_on_unit_interval(center: float, params: ModelParams) -> TruncatedGaussian:
    """The one-coordinate conditional: N(center, sigma^2) truncated to [0, 1]."""
    return TruncatedGaussian(center, params.sigma2, 0.0, 1.0)


def conditional_on_half_line(center: float, params: ModelParams) -> TruncatedGaussian:
    """Half-line variant used by the extended chain: truncation to [0, inf)."""
    return TruncatedGaussian(center, params.sigma2, 0.0, math.inf)
