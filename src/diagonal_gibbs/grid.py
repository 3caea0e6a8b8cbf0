"""Discretized transfer-operator machinery on the n x n cell grid.

The square is split into n^2 cells [i/n, (i+1)/n) x [j/n, (j+1)/n).  The
discretized target assigns each cell its exact integral of
exp(-a^2 (u - v)^2), computed in closed form, and the one-coordinate
update kernels are the conditionals of that discrete joint.  Deriving the
conditionals from the same matrix makes the discretized target an exact
fixed point of the random-scan operator, so stationarity checks are limited
only by floating-point roundoff rather than by quadrature error.

The random-scan step averages the two conditional updates computed from the
same input ("update u" and "update v" each with probability 1/2); it never
alternates sweeps.

Why two length-n vectors carry the whole evolution: let J be the normalized
joint and m its marginal (J is symmetric, so rows and columns share it).
Updating u from any law p gives J_ij c_j / m_j, updating v gives
J_ij r_i / m_i, where r and c are the row and column sums of p.  So one step
gives

    p'_ij = J_ij (x_i + y_j) / 2,    x = r / m,  y = c / m,

which depends on p only through r and c.  The state is therefore the pair
(r, c), with r' = (r + J y) / 2 and c' = (c + J x) / 2, and the TV distance
of p' to the target is 1/2 sum_ij J_ij |(x_i + y_j) / 2 - 1|.  Every step
renormalizes: it divides (r, c) by their mass, sum(r + c) / 2, before the
step, which is the same as dividing the law after it, so roundoff never
accumulates in the mass.

When r and c are equal bit for bit the state is one column.  From a start
on the diagonal they are, at t = 0 and at every step after, so ``_merge``
keeps r alone there; the law J_ij (x_i + x_j) / 2 is symmetric, the step
transforms one column instead of two, and the TV sum below folds onto half
the band.  A state whose r and c differ in any bit keeps both columns for
the whole run, so off the diagonal the curve is the two-column one bit for
bit.  The one-column state renormalizes by sum(r), which need not be the
two-column state's sum(r + c) / 2 to the last bit: from the corner the
curve moves by at most 7e-14 (n = 500, a = 10, 50 and 250) and t_mix not
at all.

J is Toeplitz bit for bit, J_{i, i+d} = J_{|d|, 0}, so the product [J x  J y]
is a convolution with J's first column.  Embedded in the circulant of length
2 n whose first column is (J_00, ..., J_{n-1,0}, 0, J_{n-1,0}, ..., J_10),
whose top-left n x n block is J, it is one rfft / irfft pair of length 2 n
against that column's transform, computed once per call (G. Strang,
Stud. Appl. Math. 74, 1986).  A step then costs O(n log n) and reads no
n x n array.  J is held as that column: its total follows in closed form,
its marginal from sums of the column, and the TV weights are its entries,
so the mixing search builds no n x n array.  Only the outputs that are n x n build
J from the column: the target, the law evolve_2d returns and the 1-D
kernel.  The product stays within 1e-15 of each column's largest
entry of BLAS's J @ [x y] (n <= 500).  The exact product is nonnegative,
since J and [x y] are, but that roundoff leaves entries far from the start
slightly below 0, so the step clamps it at 0: a negative marginal would make
a negative cell weight.

The mixing search sums that TV only over the band |i - j| <= K of cells that
carry mass.  Every point pair in a cell at offset k lies at least (k - 1) / n
apart, so where a (k - 1) / n >= Z = 6.3 the true mass is below exp(-Z^2),
about 6e-18 of the peak cell's; K = min(n - 1, ceil(Z n / a) + 1) keeps every
other offset.  What J stores past the band is second-difference roundoff,
about 1e-13 of the peak, and is left in J on purpose: the target, the step,
the kernel and d/dbar read J as it is, and their outputs stay bit for bit
those of the full matrix.

The band sum runs along J's diagonals too: with g = x / 2 - 1 and h = y / 2
it is
1/2 sum_d J_{|d|, 0} sum_i |g_i + h_{i+d}|.  Row d of the layout is the
window of a zero-padded copy of h that starts at offset d, so it is
contiguous, and a weight block built once per search holds J_{|d|, 0}
wherever 0 <= i + d < n and 0 past J's edge.  On the one-column state
h = x / 2 and cells (i, i + k) and (i + k, i) carry the same term, so the
layout folds onto the offsets 0..K, each k >= 1 weighted 2 J_{k, 0}: about
(K + 1) n cells a point instead of (2 K + 1) n.  At a = 50, n = 500 a
one-column step took 31-42 us of FFT and 55-62 us of band sum, against 45
and 108-115 us with two columns (one thread, 2-vCPU VM).  The band sum,
folded or not, moves the TV curve by at most 4e-12 from the sum over every
cell at n = 500 (a = 10, 50 and 250, from the corner and off the diagonal,
2000 steps), far inside the crossing margins of t_mix (3e-5 at a = 50,
5e-8 at a = 250).

The worst-case distances d and dbar act on the 1-D kernel K alone and take
its powers K^t by repeated squaring (``np.linalg.matrix_power``).  dbar
scans every pair of rows of a power, n^2 / 2 row differences of n entries,
so the scan is cubic in n like the power and runs at any n: one scan of
K^50 took 0.16 s at n = 500 and 1.3 s at n = 1000, and ``verify``'s
d/dbar checks at s = t = 50, which share one K^50 (``worst_case_distances``),
took 2.0-2.7 s at a = 250, n = 1000 (2-vCPU VM, numpy 2.4.6 with OpenBLAS).

The random-scan law is a binomial mixture of alternating-scan laws.  An
update is idempotent: redrawing u twice given the same v is one redraw.
So after t >= 1 steps only the number R of runs in the coin sequence
matters, with R - 1 ~ Bin(t - 1, 1/2), weight C(t - 1, k) / 2^(t - 1) on
R = k + 1, independent of the first coin, which picks the coordinate that
moves first.  Started from the cell (i0, j0), R alternating updates that
begin with u give the law J_ij q_j / m_j for odd R and J_ij q_i / m_i for
even R, with q = q_(R-1), q_0 = e_j0 the cell of the coordinate kept first
and q_l = J (q_(l-1) / m).  Beginning with v swaps i and j, with
q_0 = e_i0.  The law after t random-scan steps averages these over R
and over the first coin.  The test suite checks it against the (r, c)
stepping, with which it shares only J's column.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .density import ModelParams, SQRT_PI
from .version import __version__

# Grid weights must stay normalized this tightly at all times.
NORMALIZATION_TOL = 1e-12


class GridError(ValueError):
    """Raised for malformed grid inputs (shape mismatches, bad weights)."""


class MixingNotConverged(RuntimeError):
    """Raised when the TV curve fails to cross the threshold in time.

    Carries the partial ``tv_curve`` so callers can inspect or dump it.
    """

    def __init__(self, message: str, tv_curve: np.ndarray):
        super().__init__(message)
        self.tv_curve = tv_curve


@dataclass
class GridDistribution:
    """Probability weights over the n x n cell grid."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.n <= 0:
            raise GridError(f"grid size must be positive, got {self.n}")
        if self.weights.shape != (self.n, self.n):
            raise GridError(
                f"weights shape {self.weights.shape} does not match n={self.n}"
            )
        if np.any(self.weights < 0.0):
            raise GridError("negative cell weight")
        total = float(self.weights.sum())
        if not math.isfinite(total) or abs(total - 1.0) > NORMALIZATION_TOL:
            raise GridError(f"weights sum to {total!r}, expected 1 within {NORMALIZATION_TOL}")


@dataclass
class GibbsKernel1D:
    """Row-stochastic one-coordinate update kernel on n cells.

    Row j is the distribution of the next cell given current cell j; it is
    the conditional of the discrete joint, so the joint's marginal is its
    reversible stationary distribution.
    """

    matrix: np.ndarray
    marginal: np.ndarray


@dataclass
class MixingResult:
    a: float
    n: int
    epsilon: float
    start: tuple[float, float]
    t_mix: int
    tv_curve: np.ndarray = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "n": self.n,
            "epsilon": self.epsilon,
            "start": list(self.start),
            "t_mix": self.t_mix,
            "tv_final": float(self.tv_curve[-1]),
        }

    def tv_curve_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,tv\n")
            curve = np.asarray(self.tv_curve, dtype=float).tolist()
            fh.writelines(f"{t},{tv!r}\n" for t, tv in enumerate(curve))


# ======================================================================
# construction
# ======================================================================

def _cell_masses(a: float, n: int) -> np.ndarray:
    """Exact integral of exp(-a^2 (u-v)^2) over each diagonal offset.

    With h = 1/n the mass of cell (i, j) depends only on k = i - j and
    equals the second difference G(kh+h) - 2 G(kh) + G(kh-h) of the second
    antiderivative G of the profile.  The constant part of G is removed
    (expm1 instead of exp) so the difference stays accurate for small a,
    and the remaining terms are O(z^2), safe for large a as well.  Stray
    negatives at the underflow floor are clamped to zero.
    """
    h = 1.0 / n
    z = np.arange(n + 1, dtype=float) * h
    az = a * z
    g2 = (SQRT_PI / (2.0 * a)) * z * special.erf(az) + np.expm1(-az * az) / (2.0 * a * a)
    m = np.empty(n, dtype=float)
    m[0] = 2.0 * (g2[1] - g2[0])
    if n > 1:
        m[1:] = g2[2:] - 2.0 * g2[1:-1] + g2[:-2]
    return np.maximum(m, 0.0)


def _joint_column(params: ModelParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """J's first column and its marginal, without building J.

    J_ij is the cell mass m_|i-j| over the masses' total on the grid,
    n m_0 + 2 sum_k (n - k) m_k.  Row i of J sums to the column's first
    i + 1 entries plus its first n - i, less the J_00 both count.  Those
    prefix sums are the column's total less its sums from the small end,
    which stay within a few ulps of the exact row sums; a cumsum from J_00
    drifted to 1.1e-14 at n = 1001, a = 50.  J is symmetric, so its row and
    column marginals agree.
    """
    if n < 2:
        raise GridError(f"grid needs at least 2 cells per axis, got {n}")
    m = _cell_masses(params.a, n)
    column = m / (n * m[0] + 2.0 * math.fsum((n - np.arange(1, n)) * m[1:]))
    tail = np.cumsum(column[::-1])[::-1]
    head = tail[0] - np.append(tail[1:], 0.0)
    return column, head + head[::-1] - column[0]


def _joint(column: np.ndarray) -> np.ndarray:
    """The n x n J from its first column, for the outputs that are n x n.

    Row i is the window of (J_{n-1,0}, ..., J_10, J_00, J_10, ...,
    J_{n-1,0}) that starts at n - 1 - i; copying the windows needs no n x n
    index array, so building J peaks at J's own size.
    """
    windows = sliding_window_view(np.concatenate((column[:0:-1], column)), len(column))
    return windows[::-1].copy()


def build_discretized_target(params: ModelParams, n: int) -> GridDistribution:
    """Cell-integral discretization of the diagonal-band target, normalized."""
    return GridDistribution(n=n, weights=_joint(_joint_column(params, n)[0]))


def build_kernel_1d(params: ModelParams, n: int) -> GibbsKernel1D:
    """One-coordinate Gibbs kernel: row j = conditional of cell i given j."""
    column, marginal = _joint_column(params, n)
    matrix = (_joint(column) / marginal[np.newaxis, :]).T
    return GibbsKernel1D(matrix=matrix, marginal=marginal)


def _start_cell(u: float, v: float, n: int) -> tuple[int, int]:
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise GridError(f"start ({u}, {v}) outside the unit square")
    return min(int(u * n), n - 1), min(int(v * n), n - 1)


def point_mass(u: float, v: float, n: int) -> GridDistribution:
    """Point mass on the cell containing (u, v)."""
    if n < 1:
        raise GridError(f"grid size must be positive, got {n}")
    weights = np.zeros((n, n), dtype=float)
    weights[_start_cell(u, v, n)] = 1.0
    return GridDistribution(n=n, weights=weights)


# ======================================================================
# evolution
# ======================================================================

# The band sum splits its 2K + 1 offsets evenly into blocks of at most this
# many, and at most n so that no block is larger than J, each cut to the cells
# its offsets reach.  At n = 500 and a = 10 (K = 316) one uncut block of all
# 633 offsets reads 316500 elements a point, 1.5x the band's 216328 cells, and
# was slower than five cut blocks, which read 252113.  Splitting evenly keeps
# a = 50 (K = 64) from a last block of one offset.
_TV_OFFSETS = 128

# Z of the mixing search's TV band (module docstring): past the band a cell
# holds less than exp(-Z^2), about 6e-18, of the peak cell's true mass.
TV_BAND_Z = 6.3


def _tv_band(a: float, n: int) -> int:
    """Farthest offset |i - j| the mixing search's TV sum keeps, n - 1 for all.

    Every offset k past it has a (k - 1) / n >= TV_BAND_Z; the + 1 also
    covers the rounding of Z n / a.
    """
    return min(n - 1, math.ceil(TV_BAND_Z * n / a) + 1)


def _circulant_kernel(column: np.ndarray) -> np.ndarray:
    """The rfft of J's first column embedded in a circulant of length 2 n,
    ``(J_00, ..., J_{n-1,0}, 0, J_{n-1,0}, ..., J_10)`` (module docstring)."""
    return np.fft.rfft(np.concatenate((column, [0.0], column[:0:-1])))


def _joint_product(kernel: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """``J @ xy`` for a nonnegative n x 2 ``xy``, as an rfft / irfft pair of
    length 2 n against ``kernel = _circulant_kernel(column)``, clamped at 0
    where roundoff leaves it negative."""
    n = len(xy)
    spectrum = np.fft.rfft(xy, 2 * n, axis=0)
    spectrum *= kernel[:, np.newaxis]
    prod = np.fft.irfft(spectrum, 2 * n, axis=0)[:n]
    return np.maximum(prod, 0.0, out=prod)


def _step(kernel: np.ndarray, marginal: np.ndarray, rc: np.ndarray) -> np.ndarray:
    """Renormalize the marginals ``rc = [r c]``, or ``[r]`` when r = c, and
    advance them one step, in place, by the circulant product with
    ``kernel = _circulant_kernel(column)``.

    Returns the ratios ``[x y]`` (``[x]``) the step was taken from; the law
    after the step is ``J_ij (x_i + y_j) / 2`` (``J_ij (x_i + x_j) / 2``).
    """
    rc /= rc.sum() / rc.shape[1]
    xy = rc / marginal[:, np.newaxis]
    rc += _joint_product(kernel, xy)[:, ::-1]
    rc *= 0.5
    return xy


def _merge(rc: np.ndarray) -> np.ndarray:
    """The state ``rc = [r c]`` as the one column ``[r]`` when r and c are
    equal bit for bit, else ``rc`` itself.  Both step to the same law but
    for roundoff in the mass (module docstring)."""
    if np.array_equal(rc[:, 0], rc[:, 1]):
        return rc[:, :1].copy()
    return rc


def _band_tv(column: np.ndarray, band: int, symmetric: bool):
    """The TV between ``J_ij (x_i + y_j) / 2`` and J over the cells with
    |i - j| <= ``band``, as a function of the ratios ``xy = [x y]``; when
    ``symmetric``, of ``xy = [x]`` with y = x, summed over the offsets
    0..``band`` with each offset k >= 1 weighted 2 J_k.

    Lays out the band along J's diagonals once (module docstring); each call
    then writes g and h into the layout and reduces each block by ``einsum``
    in one thread: a BLAS dot splits long blocks across its threads, and the
    split moves the last bits.
    """
    n = len(column)
    h = np.zeros(n + 2 * band)
    g = np.empty(n)
    offsets = np.arange(0 if symmetric else -band, band + 1)
    # array_split puts the longest blocks first, and none is wider than n
    splits = np.array_split(offsets, -(-offsets.size // min(_TV_OFFSETS, n)))
    buffer = np.empty(splits[0].size * n)
    blocks = []
    for block in splits:
        lo, hi = block[0], block[-1]
        c0, c1 = max(0, -hi), min(n, n - lo)
        # masks of bools, not blocks of int64 cell indices: what the search
        # frees stays in the heap, and int64 blocks raised the peak RSS of a
        # later n x n step in the same process by 0.4 MB at n = 500
        cells = np.arange(c0, c1)
        inside = (cells >= -block[:, np.newaxis]) & (cells < n - block[:, np.newaxis])
        weights = column[np.abs(block), np.newaxis] * inside
        if symmetric:
            weights[block > 0] *= 2.0  # cells (i, i + k) and (i + k, i) alike
        windows = sliding_window_view(h, c1 - c0)[band + c0 + lo : band + c0 + hi + 1]
        gap = buffer[: weights.size].reshape(weights.shape)
        blocks.append((windows, g[c0:c1], gap, weights))

    def tv(xy: np.ndarray) -> float:
        h[band : band + n] = 0.5 * xy[:, -1]
        g[:] = 0.5 * xy[:, 0] - 1.0
        total = 0.0
        for windows, g_cols, gap, weights in blocks:
            np.add(windows, g_cols, out=gap)
            total += float(np.einsum("ij,ij->", weights, np.abs(gap, out=gap)))
        return 0.5 * total

    return tv


def evolve_2d(dist: GridDistribution, steps: int, params: ModelParams) -> GridDistribution:
    """Apply ``steps`` random-scan operator steps to a grid distribution."""
    if steps < 0:
        raise GridError("steps must be >= 0")
    column, marginal = _joint_column(params, dist.n)
    if steps == 0:
        return GridDistribution(n=dist.n, weights=dist.weights.copy())
    kernel = _circulant_kernel(column)
    rc = _merge(np.stack([dist.weights.sum(axis=1), dist.weights.sum(axis=0)], axis=1))
    for _ in range(steps):
        xy = _step(kernel, marginal, rc)
    law = _joint(column)
    law *= 0.5 * (xy[:, :1] + xy[:, -1])
    return GridDistribution(n=dist.n, weights=law)


def tv_distance(p: GridDistribution, q: GridDistribution) -> float:
    """Total variation distance, half the L1 difference of cell weights."""
    if p.weights.shape != q.weights.shape:
        raise GridError(
            f"shape mismatch {p.weights.shape} vs {q.weights.shape}"
        )
    return 0.5 * float(np.abs(p.weights - q.weights).sum())


def find_mixing_time(
    start: tuple[float, float],
    epsilon: float,
    params: ModelParams,
    n: int,
    max_steps: int,
) -> MixingResult:
    """First t with TV(law of X(t), discretized target) <= epsilon.

    Evolves the point mass on the start's cell, recording the full TV
    curve, each point summed over the band of cells that carry mass (see
    the module docstring).  Raises MixingNotConverged (curve attached) when
    the threshold is not crossed within max_steps.
    """
    if not (0.0 < epsilon < 1.0):
        raise GridError(f"epsilon must lie in (0, 1), got {epsilon}")
    if max_steps < 0:
        raise GridError(f"max_steps must be >= 0, got {max_steps}")
    column, marginal = _joint_column(params, n)
    kernel = _circulant_kernel(column)
    i, j = _start_cell(start[0], start[1], n)
    rc = np.zeros((n, 2))
    rc[i, 0] = rc[j, 1] = 1.0
    rc = _merge(rc)
    tv_to_target = _band_tv(column, _tv_band(params.a, n), rc.shape[1] == 1)
    # TV(delta_ij, J) = (1 - J_ij) off the cell plus (1 - J_ij) on it, halved
    curve = [1.0 - column[abs(i - j)]]
    while curve[-1] > epsilon:
        if len(curve) > max_steps:
            raise MixingNotConverged(
                f"TV still {curve[-1]:.6f} > {epsilon} after {max_steps} steps "
                f"(a={params.a}, n={n})",
                np.array(curve),
            )
        curve.append(tv_to_target(_step(kernel, marginal, rc)))
    return MixingResult(params.a, n, epsilon, tuple(start), len(curve) - 1, np.array(curve))


# ======================================================================
# worst-case distances over starting cells
# ======================================================================

def _max_tv_to_marginal(power: np.ndarray, marginal: np.ndarray) -> float:
    return 0.5 * float(np.abs(power - marginal[np.newaxis, :]).sum(axis=1).max())


def _max_pairwise_tv(power: np.ndarray) -> float:
    worst = 0.0
    for i in range(power.shape[0] - 1):
        d = 0.5 * float(np.abs(power[i + 1 :] - power[i]).sum(axis=1).max())
        if d > worst:
            worst = d
    return worst


def _kernel_powers(
    params: ModelParams, n: int, times: tuple[int, ...]
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The 1-D kernel's marginal and its power K^u for each distinct u in
    ``times``, from one kernel and one ``matrix_power`` per distinct u."""
    if min(times) < 0:
        raise GridError(f"times must be >= 0, got {times}")
    kernel = build_kernel_1d(params, n)
    return kernel.marginal, {u: np.linalg.matrix_power(kernel.matrix, u) for u in set(times)}


def worst_case_distance_d(t: int, params: ModelParams, n: int) -> float:
    """max over starting cells of TV(t-step law, stationary marginal)."""
    marginal, powers = _kernel_powers(params, n, (t,))
    return _max_tv_to_marginal(powers[t], marginal)


def _dbar_scans(powers: dict[int, np.ndarray], s: int, t: int) -> tuple[float, float, float]:
    """(dbar(s), dbar(t), dbar(s + t)) from ``_kernel_powers``' powers, each
    distinct power scanned once and dbar(s + t) from K^s K^t."""
    dbar = {u: _max_pairwise_tv(power) for u, power in powers.items()}
    return dbar[s], dbar[t], _max_pairwise_tv(powers[s] @ powers[t])


def worst_case_distance_dbar(
    s: int, t: int, params: ModelParams, n: int
) -> tuple[float, float, float]:
    """Pairwise worst-case distances (dbar(s), dbar(t), dbar(s+t)).

    dbar(s + t) is taken from the product K^s K^t of the two powers it
    bounds.  Each distinct power is taken and scanned once, so s = t costs
    one power and two scans.  Any n runs: the scan, like the power, is
    cubic in n (module docstring).
    """
    return _dbar_scans(_kernel_powers(params, n, (s, t))[1], s, t)


def worst_case_distances(
    s: int, t: int, params: ModelParams, n: int
) -> tuple[float, float, float, float, float]:
    """(d(s), d(t), dbar(s), dbar(t), dbar(s + t)) from one kernel and one
    power per distinct time, so s = t takes K^t once; each value is bit for
    bit that of ``worst_case_distance_d`` or ``worst_case_distance_dbar``."""
    marginal, powers = _kernel_powers(params, n, (s, t))
    d = {u: _max_tv_to_marginal(power, marginal) for u, power in powers.items()}
    return (d[s], d[t], *_dbar_scans(powers, s, t))


# ======================================================================
# set probabilities and image export
# ======================================================================

def _axis_coverage(lo: float, hi: float, n: int) -> np.ndarray:
    """Fraction of each cell [i/n, (i+1)/n) covered by [lo, hi]."""
    edges = np.arange(n + 1, dtype=float) / n
    left = np.maximum(edges[:-1], lo)
    right = np.minimum(edges[1:], hi)
    return np.clip((right - left) * n, 0.0, 1.0)


def set_probability(dist: GridDistribution, boxes) -> float:
    """Probability of a union of disjoint axis-aligned boxes.

    Boxes are (u_lo, u_hi, v_lo, v_hi); cells cut by a box boundary
    contribute proportionally to covered area.  Boxes may share an edge;
    two that overlap with positive area are rejected, since their common
    part would be counted twice.
    """
    boxes = list(boxes)
    total = 0.0
    for i, (u_lo, u_hi, v_lo, v_hi) in enumerate(boxes):
        if not (0.0 <= u_lo <= u_hi <= 1.0 and 0.0 <= v_lo <= v_hi <= 1.0):
            raise GridError(f"box {(u_lo, u_hi, v_lo, v_hi)} not within the unit square")
        for (p_lo, p_hi, q_lo, q_hi) in boxes[:i]:
            if max(u_lo, p_lo) < min(u_hi, p_hi) and max(v_lo, q_lo) < min(v_hi, q_hi):
                raise GridError(f"boxes {boxes[i]} and {(p_lo, p_hi, q_lo, q_hi)} overlap")
        wu = _axis_coverage(u_lo, u_hi, dist.n)
        wv = _axis_coverage(v_lo, v_hi, dist.n)
        total += float(wu @ dist.weights @ wv)
    return total


CORNER_BOXES = ((0.0, 0.25, 0.0, 0.25), (0.75, 1.0, 0.75, 1.0))


def export_heatmap(dist: GridDistribution, path, params: ModelParams | None = None) -> None:
    """Write a 16-bit binary PGM (P5) image of the weights plus a sidecar.

    Per-image min-max normalization; darker pixels mean higher density.
    Array orientation: image row i is u-cell i, column j is v-cell j.
    A flat distribution maps to a constant all-white image.
    """
    w = dist.weights
    w_min, w_max = float(w.min()), float(w.max())
    if w_max > w_min:
        norm = (w - w_min) / (w_max - w_min)
    else:
        norm = np.zeros_like(w)
    pixels = np.round((1.0 - norm) * 65535.0).astype(">u2")
    path = str(path)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{dist.n} {dist.n}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())
    sidecar = {
        "format": "PGM P5, 16-bit big-endian, min-max normalized, darker = higher",
        "n": dist.n,
        "a": None if params is None else params.a,
        "version": __version__,
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
