"""Couplings between the comparison processes.

Three constructions, all driven by shared randomness so the coupled pair
is a deterministic function of one stream:

  Z / YPrime   monotone coupling through a shared uniform: the reflected
               walk draws the folded-Gaussian quantile, the wall chain the
               half-line truncated quantile.  Stochastic dominance of the
               two conditional CDFs keeps the pair ordered at every step.
  Y / YPrime   shared half-line draw, used by both chains while it lands
               below 1; the first draw >= 1 decouples them (nu_c1) and Y
               redraws from its own [0,1]-truncated conditional.
  Y / W        shared Gaussian increment: the free walk always accepts it,
               the wall chain accepts only moves staying inside [0,1] and
               otherwise redraws from its truncated conditional.  The paths
               agree exactly until the free walk first exits [0,1] (nu_c2).

In both Y couplings the fresh uniform is drawn for every trajectory, so
the streams do not depend on which trajectories redraw, but Y's [0,1]
quantile is solved only for the trajectories that take the redraw.

Each pair is written once as a ``chains._Process``: ``draw`` returns one
step's shared randomness in stream order, ``step`` moves both chains of
the pair, held side by side in one state dict, and the decoupling times
are named first-hit predicates on that state (nu_c1 is the first step at
which the pair is no longer coupled).  ``chains._run_ensemble`` runs all
three, chunked and threaded like the single-process ensembles.  A
``CouplingReport`` holds only what the run computed: the pair name, the
decoupling times as the float array the engine returns (NaN where the
pair stayed coupled), the ordering-violation count, both chains' terminal
states and the pair's per-trajectory ``aux`` arrays.  The caller's
arguments (start, steps, params, seed) are not stored again.

Ordering bookkeeping for Z/YPrime: the upper draw is computed first and
passed to the folded quantile solver as a bracket, which it is entitled to
mathematically (dominance) and which removes last-ulp ties as a source of
spurious inversions.  The dominance claim itself is still tested at every
step: the folded CDF evaluated at the upper draw must reach the shared
uniform, up to DOMINANCE_TOL.  Failures of that check, and any strict
inversion of the returned pair, count as ordering violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import (
    DOMINANCE_TOL,
    ModelParams,
    _folded_cdf_core,
    _folded_quantile_core,
    _trunc_cdf_core,
    _trunc_quantile_core,
)
from .chains import (
    _Process,
    _check_nonnegative,
    _outside_unit,
    _reached_middle,
    _run_ensemble,
    _uniforms,
)

PAIR_NAMES = ("Y_YPrime", "Z_YPrime", "Y_W")


@dataclass
class CouplingReport:
    """Outcome of a batch of coupled runs.

    decoupling_times is the float array of the step indices at which each
    pair decoupled, NaN where it stayed coupled for the whole run (all NaN
    for the never-decoupling Z_YPrime pair); for the other two pairs it is
    the same array as aux["nu_c1"] or aux["nu_c2"].
    ordering_violations applies to Z_YPrime and must be 0 for a correct
    implementation.  terminal_first and terminal_second are the final
    states of the pair's two chains, in the order of pair_name.  aux
    carries pair-specific per-trajectory extras.
    """

    pair_name: str
    decoupling_times: np.ndarray
    ordering_violations: int
    terminal_first: np.ndarray
    terminal_second: np.ndarray
    aux: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.pair_name not in PAIR_NAMES:
            raise ValueError(f"unknown pair {self.pair_name!r}")

    def decoupled_fraction(self) -> float:
        hits = np.count_nonzero(~np.isnan(self.decoupling_times))
        return hits / self.decoupling_times.size

    def decoupling_histogram_csv(self, path) -> None:
        """Histogram of decoupling times; the final row counts non-events."""
        times = self.decoupling_times[~np.isnan(self.decoupling_times)]
        values, counts = np.unique(times.astype(np.int64), return_counts=True)
        with open(path, "w") as fh:
            fh.write("decoupling_time,count\n")
            for val, cnt in zip(values, counts):
                fh.write(f"{int(val)},{int(cnt)}\n")
            fh.write(f"never,{self.decoupling_times.size - times.size}\n")


# ======================================================================
# monotone coupling Z <= YPrime
# ======================================================================

def _monotone_core(lower_center, upper_center, shared_uniform, sigma: float):
    """Shared step logic; returns (lower_next, upper_next, dominance_ok)."""
    upper_next = _trunc_quantile_core(upper_center, sigma, 0.0, np.inf, shared_uniform)
    # Dominance of the folded CDF over the truncated one, checked at the
    # point the upper chain actually moved to.
    dominance_ok = (
        _folded_cdf_core(lower_center, sigma, upper_next)
        >= np.asarray(shared_uniform, dtype=float) - DOMINANCE_TOL
    )
    lower_next = _folded_quantile_core(lower_center, sigma, shared_uniform, hi=upper_next)
    return lower_next, upper_next, dominance_ok


def monotone_couple_step(lower_center, upper_center, shared_uniform, params: ModelParams):
    """One coupled step of (reflected walk, wall-free chain).

    Requires lower_center <= upper_center (elementwise) and guarantees
    lower_next <= upper_next.  Marginals: folded Gaussian around the lower
    center; half-line truncated Gaussian around the upper center.
    """
    lower_center = np.asarray(lower_center, dtype=float)
    upper_center = np.asarray(upper_center, dtype=float)
    if not np.all(lower_center >= 0.0):
        raise ValueError("lower_center must be >= 0")
    if not np.all(lower_center <= upper_center):
        raise ValueError("monotone coupling requires lower_center <= upper_center")
    lower_next, upper_next, _ = _monotone_core(
        lower_center, upper_center, shared_uniform, params.sigma
    )
    if np.ndim(shared_uniform) == 0 and lower_next.ndim == 0:
        return float(lower_next), float(upper_next)
    return lower_next, upper_next


def couple_z_yprime(
    start: float,
    steps: int,
    params: ModelParams,
    seed: int,
    trajectories: int = 1,
    threads: int = 1,
) -> CouplingReport:
    """Monotone-coupled batch with Z(0) = YPrime(0) = start.

    ordering_violations counts strict inversions of the returned pair plus
    failures of the per-step dominance check.
    """
    z0 = _check_nonnegative(start, "start")
    sigma = params.sigma

    def step(s, draws, t):
        z, y, dominance_ok = _monotone_core(s["z"], s["y"], draws[0], sigma)
        s["violations"] += ~dominance_ok
        s["violations"] += z > y
        s["z"], s["y"] = z, y

    z, y, violations = _run_ensemble(
        _Process(_uniforms, step, {}), {"z": z0, "y": z0, "violations": 0},
        ("z", "y", "violations"), steps, seed, trajectories, threads,
    )
    return CouplingReport("Z_YPrime", np.full(trajectories, np.nan), int(violations.sum()), z, y)


def verify_dominance_inequality(grid_v: int, grid_u: int, params: ModelParams) -> float:
    """Minimum of the folded CDF at u around v_bar minus the half-line
    truncated CDF at u around v, over a grid.

    The sweep covers 0 <= v_bar <= v <= 3 and u in [0, 3].  The inequality
    says the folded Gaussian around the lower center puts at least as much
    mass on [0, u] as the half-line truncated Gaussian around the higher
    center, so the true minimum is >= 0; the return value is the computed
    minimum, which should sit above a small negative roundoff floor.
    """
    if grid_v < 2 or grid_u < 2:
        raise ValueError("need at least 2 grid points per axis")
    sigma = params.sigma
    centers = np.linspace(0.0, 3.0, grid_v)
    points = np.linspace(0.0, 3.0, grid_u)
    folded = _folded_cdf_core(centers[:, None], sigma, points[None, :])
    truncated = _trunc_cdf_core(centers[:, None], sigma, 0.0, np.inf, points[None, :])
    # For fixed u, the worst folded value over v_bar <= v is the running
    # minimum down the center axis.
    folded_running_min = np.minimum.accumulate(folded, axis=0)
    return float(np.min(folded_running_min - truncated))


# ======================================================================
# shared-increment coupling Y / W
# ======================================================================

def _redraw_at(index, base, centers, uniforms, sigma: float):
    """``base`` with Y's [0, 1]-truncated draw from ``centers`` put in at
    flat ``index``; ``uniforms`` holds one uniform per index, and only
    those draws are solved."""
    out = base.copy()
    out[index] = _trunc_quantile_core(centers[index], sigma, 0.0, 1.0, uniforms)
    return out


def couple_y_w(
    start: float,
    steps: int,
    params: ModelParams,
    seed: int,
    trajectories: int = 1,
    threads: int = 1,
) -> CouplingReport:
    """Shared-increment coupling of the wall chain Y and the free walk W.

    Start must lie inside the middle band.  Per step: one shared Gaussian
    increment; W always takes it, Y takes it when the move stays in [0,1]
    and otherwise redraws from the truncated conditional with a fresh
    uniform.  Paths agree exactly (bitwise) until nu_c2, the free walk's
    first exit from [0,1].
    """
    w0 = float(start)
    if not (params.middle_lo <= w0 <= params.middle_hi):
        raise ValueError(
            f"start {w0} outside the middle band [{params.middle_lo}, {params.middle_hi}]"
        )
    sigma = params.sigma

    def draw(rng, width):
        return sigma * rng.standard_normal(width), rng.random(width)

    def step(s, draws, t):
        zeta, fresh = draws
        s["w"] = s["w"] + zeta
        y_cand = s["y"] + zeta
        inside = (y_cand >= 0.0) & (y_cand <= 1.0)
        redraw = np.flatnonzero(~inside)
        s["y"] = _redraw_at(redraw, y_cand, s["y"], fresh[redraw], sigma)

    y, w, nu_c2 = _run_ensemble(
        _Process(draw, step, {"nu_c2": _outside_unit}), {"w": w0, "y": w0},
        ("y", "w", "nu_c2"), steps, seed, trajectories, threads,
    )
    return CouplingReport("Y_W", nu_c2, 0, y, w, {"nu_c2": nu_c2})


# ======================================================================
# shared half-line draw coupling Y / YPrime
# ======================================================================

def couple_y_yprime(
    start: float,
    steps: int,
    params: ModelParams,
    seed: int,
    trajectories: int = 1,
    threads: int = 1,
) -> CouplingReport:
    """Shared-draw coupling of the wall chain Y and the half-line chain.

    Start must lie in [0, 1/2 - delta).  While coupled, one half-line
    truncated draw serves both chains; the first draw landing at or above
    1 sets nu_c1 and Y redraws from its [0,1]-truncated conditional with a
    fresh uniform.  After decoupling each chain keeps evolving under its
    own conditional.  aux reports nu_m_tilde of the Y path (first visit at
    or above 1/2 - delta) so callers can restrict events to the approach
    phase.
    """
    y0 = float(start)
    if not (0.0 <= y0 < params.middle_lo):
        raise ValueError(f"start must lie in [0, {params.middle_lo}), got {y0}")
    sigma = params.sigma

    def draw(rng, width):
        return rng.random(width), rng.random(width)

    def step(s, draws, t):
        shared, fresh = draws
        coupled = s["coupled"]
        s["yp"] = _trunc_quantile_core(s["yp"], sigma, 0.0, np.inf, shared)
        overshoot = coupled & (s["yp"] >= 1.0)
        redraw = np.flatnonzero(overshoot | ~coupled)
        # the fresh uniform at the decoupling step, the shared one after it
        uniforms = np.where(coupled[redraw], fresh[redraw], shared[redraw])
        s["y"] = _redraw_at(redraw, s["yp"], s["y"], uniforms, sigma)
        s["coupled"] = coupled & ~overshoot

    hits = {"nu_c1": lambda s: ~s["coupled"], "nu_m_tilde": _reached_middle(params)}
    y, yp, nu_c1, nu_m_tilde = _run_ensemble(
        _Process(draw, step, hits), {"y": y0, "yp": y0, "coupled": True},
        ("y", "yp", "nu_c1", "nu_m_tilde"), steps, seed, trajectories, threads,
    )
    return CouplingReport("Y_YPrime", nu_c1, 0, y, yp, {"nu_c1": nu_c1, "nu_m_tilde": nu_m_tilde})
