"""Closed-form constants used by the mixing-time bounds.

Everything here is an erf expression; adaptive quadrature reappears only
as an oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .density import ModelParams, SQRT_PI, marginal_density_pu


@dataclass(frozen=True)
class ConstantsConfig:
    """Inputs of the constant formulas.

    alpha is the time-scale constant (steps = alpha * a^2), delta the
    middle-band half-width, epsilon_slack an additive safety margin.
    delta = 1/2 is allowed here (unlike in ModelParams) because the
    degenerate band edge is a meaningful limit of the formulas.
    """

    alpha: float
    delta: float = 0.0
    epsilon_slack: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not (0.0 <= self.delta <= 0.5):
            raise ValueError(f"delta must lie in [0, 1/2], got {self.delta!r}")
        if not (self.epsilon_slack >= 0.0 and math.isfinite(self.epsilon_slack)):
            raise ValueError(f"epsilon_slack must be finite and >= 0, got {self.epsilon_slack!r}")


def erdos_kac_cdf(alpha: float) -> float:
    """Limit law of max |partial sum| / sqrt(n): sqrt(2/pi) * int_0^alpha e^{-x^2/2} dx."""
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return float(special.erf(alpha / math.sqrt(2.0)))


def beta4(config: ConstantsConfig) -> float:
    """Escape-probability constant 2 * (1 - K((1-2 delta)/sqrt(2 alpha))) + slack.

    K is the running-maximum limit law above.  Monotone increasing in
    alpha and in delta; delta = 1/2 degenerates to 2 + slack.
    """
    arg = (1.0 - 2.0 * config.delta) / math.sqrt(2.0 * config.alpha)
    return 2.0 * (1.0 - erdos_kac_cdf(arg)) + config.epsilon_slack


def gamma_const(config: ConstantsConfig) -> float:
    """Overlap-deficit constant of the Gaussian spread against the uniform.

    gamma = 1 + 2 delta - int_{-delta}^{1+delta} min(g(x), 1) dx for the
    N(1/2, alpha/2) density g.  The integral splits at the crossover
    points where g = 1 (present only when alpha * pi < 1) and both pieces
    are erf expressions.
    """
    alpha, delta = config.alpha, config.delta
    half_span = 0.5 + delta
    if alpha * math.pi < 1.0:
        crossover = math.sqrt(0.5 * alpha * math.log(1.0 / (alpha * math.pi)))
    else:
        crossover = 0.0
    crossover = min(crossover, half_span)
    # Plateau where the density exceeds 1, plus Gaussian tails outside it.
    integral = 2.0 * crossover + float(
        special.erf(half_span / math.sqrt(alpha)) - special.erf(crossover / math.sqrt(alpha))
    )
    return 1.0 + 2.0 * delta - integral


# points of the Simpson grid on [0, 1]; odd, as Simpson's rule needs
_SIMPSON_POINTS = 20001


def tv_uniform_marginal(params: ModelParams) -> float:
    """TV distance between the target's u-marginal and the uniform law.

    The marginal has density p_u(x) / int_0^1 p_u; the distance is
    0.5 * int_0^1 |1 - p_u(x)/Z| dx.  The normalizer has the closed form
    erf(a) + (exp(-a^2) - 1)/(a sqrt(pi)); the remaining integrand has
    kinks where p_u crosses Z, so it is integrated on a fine Simpson grid
    (the integrand is piecewise smooth and bounded by 1, making this
    accurate far beyond the documented 1e-6).
    """
    a = params.a
    normalizer = float(special.erf(a)) + math.expm1(-a * a) / (a * SQRT_PI)
    x = np.linspace(0.0, 1.0, _SIMPSON_POINTS)
    integrand = np.abs(1.0 - marginal_density_pu(x, params) / normalizer)
    h = x[1] - x[0]
    weights = np.ones(_SIMPSON_POINTS)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return 0.5 * float(h / 3.0 * (weights @ integrand))


def constants_report(config: ConstantsConfig) -> dict:
    b = beta4(config)
    g = gamma_const(config)
    return {
        "alpha": config.alpha,
        "delta": config.delta,
        "epsilon_slack": config.epsilon_slack,
        "beta4": b,
        "gamma": g,
        "beta4_plus_gamma": b + g,
        "below_one_third": b + g < 1.0 / 3.0,
    }
