"""Discretized transfer operator: exact cell masses, kernel structure,
evolution, TV distances, mixing-time search, worst-case distances, set
probabilities, and heatmap export.

Cell-mass references were computed with scipy.integrate.dblquad on the
unnormalized density and frozen (n = 50, a = 10); the operator itself
never uses quadrature.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diagonal_gibbs
from diagonal_gibbs import grid
from diagonal_gibbs import (
    CORNER_BOXES,
    GridDistribution,
    GridError,
    MixingNotConverged,
    ModelParams,
    build_discretized_target,
    build_kernel_1d,
    evolve_2d,
    export_heatmap,
    find_mixing_time,
    point_mass,
    set_probability,
    tv_distance,
    worst_case_distance_d,
    worst_case_distance_dbar,
)


# ----------------------------------------------------------------------
# grid distribution bookkeeping
# ----------------------------------------------------------------------

def test_grid_distribution_validation():
    with pytest.raises(GridError):
        GridDistribution(4, np.full((4, 4), -1.0 / 16.0))
    with pytest.raises(GridError):
        GridDistribution(4, np.full((4, 4), 1.0))  # sums to 16
    with pytest.raises(GridError):
        GridDistribution(4, np.full((3, 3), 1.0 / 9.0))  # shape mismatch
    with pytest.raises(GridError):
        GridDistribution(5, np.full(5, 0.2))  # a length-n law
    for n in (0, -3):
        with pytest.raises(GridError):
            point_mass(0.5, 0.5, n)
    GridDistribution(2, np.full((2, 2), 0.25))


def test_point_mass_cell_selection():
    dist = point_mass(0.0, 0.999, 10)
    assert dist.weights[0, 9] == 1.0
    # the right edge belongs to the last cell
    dist = point_mass(1.0, 1.0, 10)
    assert dist.weights[9, 9] == 1.0


# ----------------------------------------------------------------------
# discretized target
# ----------------------------------------------------------------------

def test_target_uniform_limit():
    dist = build_discretized_target(ModelParams(1e-8), 40)
    assert np.max(np.abs(dist.weights - 1.0 / 1600.0)) < 1e-10 / 1600.0


def test_target_symmetries_exact():
    w = build_discretized_target(ModelParams(10.0), 64).weights
    assert np.array_equal(w, w.T)
    assert np.array_equal(w, w[::-1, ::-1])


def test_target_cell_masses_match_quadrature():
    # frozen oracle: dblquad of exp(-100 (u-v)^2) over the cell divided by
    # the dblquad normalizer over the square, n = 50
    w = build_discretized_target(ModelParams(10.0), 50).weights
    refs = {
        (0, 0): 0.002375877307547686,
        (5, 5): 0.0023758773075476833,
        (10, 3): 0.0003434176158171103,
    }
    for (i, j), ref in refs.items():
        assert w[i, j] == pytest.approx(ref, rel=1e-10)


def test_target_corner_set_has_stationary_mass():
    # the two corner squares hold at least 1/8 of the target at any a,
    # and their mass grows with concentration
    masses = []
    for a in (0.01, 1.0, 10.0, 50.0):
        target = build_discretized_target(ModelParams(a), 200)
        masses.append(set_probability(target, CORNER_BOXES))
    assert all(m >= 0.125 - 1e-12 for m in masses)
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def test_target_requires_valid_n():
    with pytest.raises(GridError):
        build_discretized_target(ModelParams(10.0), 1)


def _joint_by_index(column):
    # the reference: gather J's first column through the n x n array |i - j|
    n = len(column)
    return column[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]


@pytest.mark.parametrize("a", [0.5, 10.0, 50.0, 250.0])
@pytest.mark.parametrize("n", [2, 3, 7, 80, 500, 1001])
def test_joint_bit_equal_to_index_construction(a, n):
    column = grid._joint_column(ModelParams(a), n)[0]
    joint = grid._joint(column)
    assert joint.flags.c_contiguous
    assert joint.tobytes() == _joint_by_index(column).tobytes()


@pytest.mark.parametrize("a", [0.5, 10.0, 50.0, 250.0])
@pytest.mark.parametrize("n", [2, 3, 7, 80, 500, 1001])
def test_joint_column_marginal_and_total(a, n):
    # the column's marginal and closed-form total agree with exact sums over
    # the n x n J it stands for
    column, marginal = grid._joint_column(ModelParams(a), n)
    rows = grid._joint(column).tolist()
    row_sums = np.array([math.fsum(row) for row in rows])
    assert np.all(np.abs(marginal - row_sums) <= 1e-14 * row_sums)
    assert abs(math.fsum(value for row in rows for value in row) - 1.0) <= 1e-15


def test_joint_peak_memory_is_about_its_own_size():
    n = 1000
    tracemalloc.start()
    try:
        joint = grid._joint(grid._joint_column(ModelParams(10.0), n)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * joint.nbytes


# ----------------------------------------------------------------------
# one-dimensional kernel
# ----------------------------------------------------------------------

def test_kernel_rows_stochastic():
    kernel = build_kernel_1d(ModelParams(10.0), 100)
    sums = kernel.matrix.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_kernel_uniform_limit():
    kernel = build_kernel_1d(ModelParams(1e-8), 50)
    assert np.max(np.abs(kernel.matrix - 0.02)) < 1e-10


def test_kernel_detailed_balance():
    kernel = build_kernel_1d(ModelParams(10.0), 80)
    flow = kernel.marginal[:, None] * kernel.matrix
    assert np.max(np.abs(flow - flow.T)) < 1e-12


def test_kernel_fixes_marginal():
    kernel = build_kernel_1d(ModelParams(10.0), 80)
    pushed = kernel.marginal @ kernel.matrix
    assert 0.5 * np.abs(pushed - kernel.marginal).sum() < 1e-12


# ----------------------------------------------------------------------
# two-dimensional evolution
# ----------------------------------------------------------------------

def test_stationarity_fixed_point_small():
    for a in (1.0, 10.0):
        params = ModelParams(a)
        target = build_discretized_target(params, 100)
        stepped = evolve_2d(target, 1, params)
        assert tv_distance(stepped, target) < 1e-12


def test_one_step_moves_exactly_one_coordinate():
    params = ModelParams(10.0)
    stepped = evolve_2d(point_mass(0.0, 0.0, 50), 1, params)
    w = stepped.weights
    on_cross = w[0, :].sum() + w[:, 0].sum() - w[0, 0]
    assert on_cross == pytest.approx(1.0, abs=1e-12)


def test_mass_conservation_without_renormalization():
    params = ModelParams(10.0)
    rng = np.random.default_rng(3)
    raw = rng.random((100, 100))
    dist = GridDistribution(100, raw / raw.sum())
    stepped = evolve_2d(dist, 1, params)
    assert abs(stepped.weights.sum() - 1.0) < 1e-14


def test_evolution_keeps_normalization():
    params = ModelParams(10.0)
    rng = np.random.default_rng(4)
    raw = rng.random((60, 60))
    dist = GridDistribution(60, raw / raw.sum())
    out = evolve_2d(dist, 200, params)
    assert abs(out.weights.sum() - 1.0) < 1e-12
    assert np.all(out.weights >= 0.0)
    # a long run at high concentration, where mass left to drift without
    # renormalization ends 2.5e-12 above 1
    out = evolve_2d(point_mass(0.0, 0.0, 200), 20_000, ModelParams(250.0))
    assert abs(out.weights.sum() - 1.0) < 1e-12
    assert np.all(out.weights >= 0.0)


def _dense_step(p, joint):
    """Reference n x n random-scan step: (C_u|v * colsum + C_v|u * rowsum) / 2."""
    cond_u_given_v = joint / joint.sum(axis=0)[np.newaxis, :]
    cond_v_given_u = joint / joint.sum(axis=1)[:, np.newaxis]
    q = 0.5 * (cond_u_given_v * p.sum(axis=0) + cond_v_given_u * p.sum(axis=1)[:, np.newaxis])
    return q / q.sum()


@pytest.mark.parametrize("start", ["random", "point"])
def test_evolution_matches_dense_oracle(start):
    # the two-marginal evolution reproduces the dense step it replaced
    params = ModelParams(10.0)
    n = 100
    joint = build_discretized_target(params, n).weights
    if start == "point":
        dist = point_mass(0.3, 0.8, n)
    else:
        raw = np.random.default_rng(5).random((n, n)) ** 3  # not a product law
        dist = GridDistribution(n, raw / raw.sum())
    p = dist.weights
    for t in range(1, 18):
        p = _dense_step(p, joint)
        if t in (1, 2, 17):
            got = evolve_2d(dist, t, params).weights
            assert 0.5 * np.abs(got - p).sum() <= 1e-12


def test_mixing_curve_matches_dense_oracle():
    params = ModelParams(10.0)
    n = 80
    result = find_mixing_time((0.0, 0.1), 0.25, params, n, 2000)
    target = build_discretized_target(params, n)
    p = point_mass(0.0, 0.1, n).weights
    curve = [tv_distance(GridDistribution(n, p), target)]
    for _ in range(result.t_mix):
        p = _dense_step(p, target.weights)
        curve.append(tv_distance(GridDistribution(n, p), target))
    assert np.max(np.abs(result.tv_curve - np.array(curve))) <= 1e-12
    assert curve[-2] > 0.25 >= curve[-1]


# ----------------------------------------------------------------------
# TV distance
# ----------------------------------------------------------------------

def test_tv_identity_and_disjoint():
    p = point_mass(0.1, 0.1, 20)
    q = point_mass(0.9, 0.9, 20)
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == 1.0


def test_tv_half_overlap():
    w1 = np.zeros((10, 10))
    w1[2:4, 7] = 0.5
    w2 = np.zeros((10, 10))
    w2[3:5, 7] = 0.5
    assert tv_distance(GridDistribution(10, w1), GridDistribution(10, w2)) == 0.5


def test_tv_shape_mismatch():
    p = point_mass(0.1, 0.1, 20)
    q = point_mass(0.1, 0.1, 30)
    with pytest.raises(GridError):
        tv_distance(p, q)


# ----------------------------------------------------------------------
# mixing-time search
# ----------------------------------------------------------------------

def test_mixing_time_validates_epsilon():
    with pytest.raises(GridError):
        find_mixing_time((0.0, 0.0), 0.0, ModelParams(10.0), 50, 100)
    with pytest.raises(GridError):
        find_mixing_time((0.0, 0.0), 1.0, ModelParams(10.0), 50, 100)


def test_mixing_time_validates_max_steps():
    # a negative budget is a bad input, not a search that ran out of steps
    with pytest.raises(GridError, match="max_steps"):
        find_mixing_time((0.0, 0.0), 0.25, ModelParams(10.0), 50, -1)
    with pytest.raises(MixingNotConverged):
        find_mixing_time((0.0, 0.0), 0.25, ModelParams(10.0), 50, 0)


def test_mixing_time_immediate_when_flat():
    # near-uniform target: a point mass is 1 - 1/n^2 away, but one step
    # lands essentially at the target
    result = find_mixing_time((0.5, 0.5), 0.9999, ModelParams(1e-8), 20, 10)
    assert result.t_mix == 0


def test_mixing_time_matches_across_grids():
    # the a = 10 headline number is grid-stable
    r200 = find_mixing_time((0.0, 0.0), 0.25, ModelParams(10.0), 200, 2000)
    assert r200.t_mix == 71
    r301 = find_mixing_time((0.0, 0.0), 0.25, ModelParams(10.0), 301, 2000)
    assert abs(r301.t_mix - r200.t_mix) <= 2


def test_mixing_time_grid_convergence():
    # under 3% drift between n = 500 and n = 1000
    t500 = find_mixing_time((0.0, 0.0), 0.25, ModelParams(10.0), 500, 2000).t_mix
    t1000 = find_mixing_time((0.0, 0.0), 0.25, ModelParams(10.0), 1000, 2000).t_mix
    assert abs(t1000 - t500) / t500 < 0.03


def test_tv_curve_nonincreasing():
    result = find_mixing_time((0.0, 0.0), 0.25, ModelParams(10.0), 150, 2000)
    curve = np.asarray(result.tv_curve, dtype=float)
    assert np.all(np.diff(curve) <= 1e-10)
    assert curve[-1] <= 0.25


def test_mixing_not_converged_carries_curve():
    for max_steps in (0, 30):
        with pytest.raises(MixingNotConverged) as err:
            find_mixing_time((0.0, 0.0), 0.25, ModelParams(50.0), 100, max_steps)
        assert len(err.value.tv_curve) == max_steps + 1
        assert err.value.tv_curve[-1] > 0.25


def test_mixing_times_exact_at_n500():
    # the headline searches stop at exactly these steps
    assert find_mixing_time((0.0, 0.0), 0.25, ModelParams(10.0), 500, 2000).t_mix == 71
    assert find_mixing_time((0.0, 0.0), 0.25, ModelParams(50.0), 500, 5000).t_mix == 1852


def _dense_tv_to_target(joint, xy):
    """Reference TV over every cell, in 64-row blocks.  einsum reduces on
    one thread, where a BLAS dot's threads spin for cores another process
    holds."""
    x = 0.5 * xy[:, 0] - 1.0
    y = 0.5 * xy[:, 1]
    total = 0.0
    for lo in range(0, len(x), 64):
        gap = np.abs(np.add.outer(x[lo : lo + 64], y))
        total += float(np.einsum("ij,ij->", joint[lo : lo + 64], gap))
    return 0.5 * total


@pytest.mark.parametrize("a", [10.0, 50.0, 250.0])
def test_tv_band_matches_dense_oracle(a):
    # the search's band sum tracks the sum over every cell along 2000 steps;
    # the corner start keeps x = y, so only the start off the diagonal shows
    # a layout that reads x where it should read y
    n = 500
    joint = build_discretized_target(ModelParams(a), n).weights
    column, marginal = grid._joint_column(ModelParams(a), n)
    kernel = grid._circulant_kernel(column)
    tv_to_target = grid._band_tv(column, grid._tv_band(a, n))
    for start in [(0.0, 0.0), (0.0, 0.3)]:
        i, j = grid._start_cell(*start, n)
        rc = np.zeros((n, 2))
        rc[i, 0] = rc[j, 1] = 1.0
        worst = 0.0
        for _ in range(2000):
            xy = grid._step(kernel, marginal, rc)
            worst = max(worst, abs(tv_to_target(xy) - _dense_tv_to_target(joint, xy)))
        assert worst <= 1e-11, start


@pytest.mark.parametrize("n", [2, 3, 7, 80, 500])
@pytest.mark.parametrize("a", [0.5, 10.0, 250.0])
def test_circulant_product_matches_dense(a, n):
    # the step's FFT product is J @ xy within roundoff of each column's peak,
    # for a spread-out xy and for the corner point mass's xy
    column, marginal = grid._joint_column(ModelParams(a), n)
    joint = grid._joint(column)
    kernel = grid._circulant_kernel(column)
    corner = np.zeros((n, 2))
    corner[0] = 1.0 / marginal[0]
    for xy in (np.random.default_rng(n).random((n, 2)), corner):
        dense = joint @ xy
        got = grid._joint_product(kernel, xy)
        assert np.all(np.abs(got - dense) <= 1e-13 * dense.max(axis=0))


def test_evolution_weights_never_negative():
    # unclamped, FFT roundoff left 24182 cells below 0 after two steps here,
    # and GridDistribution rejected the law
    out = evolve_2d(point_mass(0.0, 0.0, 500), 2, ModelParams(50.0))
    assert np.all(out.weights >= 0.0)


@pytest.mark.parametrize("a, n, t, cell", [
    (10.0, 200, 20, (0, 0)),
    (10.0, 200, 71, (0, 0)),
    (50.0, 300, 400, (0, 0)),
    (10.0, 150, 30, (20, 90)),
])
def test_random_scan_is_binomial_mixture_of_alternating_scans(a, n, t, cell):
    # the grid module docstring's mixture: R - 1 ~ Bin(t - 1, 1/2) runs of
    # alternating updates, averaged over which coordinate moves first; it
    # shares only J's column with the (r, c) stepping of evolve_2d
    column, marginal = grid._joint_column(ModelParams(a), n)
    kernel = grid._circulant_kernel(column)
    i0, j0 = cell
    q = np.zeros((n, 2))  # q_l started from v's cell (u moves first), from u's
    q[j0, 0] = q[i0, 1] = 1.0
    by_i, by_j = np.zeros(n), np.zeros(n)  # the mixture is J_ij (by_i_i + by_j_j)
    for k in range(t):
        w = math.comb(t - 1, k) / 2 ** (t - 1) / 2
        ratios = q / marginal[:, np.newaxis]
        odd = k % 2 == 0  # R = k + 1
        by_j += w * ratios[:, 0 if odd else 1]
        by_i += w * ratios[:, 1 if odd else 0]
        q = grid._joint_product(kernel, ratios)
    mixture = grid._joint(column) * (by_i[:, np.newaxis] + by_j)
    evolved = evolve_2d(point_mass((i0 + 0.5) / n, (j0 + 0.5) / n, n), t, ModelParams(a))
    assert 0.5 * np.abs(mixture - evolved.weights).sum() <= 1e-13


class _NoProduct(np.ndarray):
    """An array that refuses to be multiplied as a matrix."""

    def __matmul__(self, other):
        raise AssertionError("multiplied by the n x n J")

    __rmatmul__ = __matmul__


def test_steps_never_multiply_by_joint(monkeypatch):
    # the search and the evolution step by the circulant product alone; the
    # search never builds J, and the evolution builds it once, for its law
    joint_of = grid._joint
    built = []

    def joint(column):
        built.append(len(column))
        return joint_of(column).view(_NoProduct)

    monkeypatch.setattr(grid, "_joint", joint)
    with pytest.raises(MixingNotConverged):
        find_mixing_time((0.0, 0.0), 0.25, ModelParams(50.0), 500, 20)
    assert built == []
    out = evolve_2d(point_mass(0.0, 0.0, 500), 20, ModelParams(50.0))
    assert built == [500]
    assert abs(out.weights.sum() - 1.0) < 1e-12


def test_search_peak_memory_is_far_below_joint():
    # the search holds J as its column: at n = 4000, J alone would take 128 MB
    n = 4000
    tracemalloc.start()
    try:
        with pytest.raises(MixingNotConverged):
            find_mixing_time((0.0, 0.0), 0.25, ModelParams(250.0), n, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * n * n


@pytest.mark.parametrize("n", [2, 3, 7, 80, 500])
@pytest.mark.parametrize("a", [0.5, 10.0, 50.0, 250.0])
def test_joint_is_toeplitz_bit_for_bit(a, n):
    # the band sum weights every cell of a diagonal by J's one value there
    joint = build_discretized_target(ModelParams(a), n).weights
    for d in range(-(n - 1), n):
        assert np.all(np.diagonal(joint, d) == joint[abs(d), 0])


@pytest.mark.parametrize("n", [80, 500, 2000])
@pytest.mark.parametrize("a", [10.0, 50.0, 250.0])
def test_tv_band_leaves_out_only_negligible_cells(a, n):
    # true cell masses at 40 digits: offset k holds H(x+) - 2 H(x) + H(x-),
    # x = a k / n, with H(x) = (exp(-x^2) - sqrt(pi) x erfc(x)) / (2 a^2);
    # the erf form of the same second difference cancels even at 60 digits
    import mpmath

    band = grid._tv_band(a, n)
    assert band < n - 1
    with mpmath.workdps(40):
        big_a = mpmath.mpf(a)

        def h_at(k):
            x = big_a * k / n
            return (mpmath.exp(-x * x) - mpmath.sqrt(mpmath.pi) * x * mpmath.erfc(x)) / (2 * big_a**2)

        # offset 0 adds back the linear term sqrt(pi) z / (2 a) the erfc form drops
        peak = 2 * (mpmath.sqrt(mpmath.pi) / (2 * big_a * n) + h_at(1) - h_at(0))
        hs = [h_at(k) for k in range(band, n + 1)]
        outside = [hs[i + 1] - 2 * hs[i] + hs[i - 1] for i in range(1, len(hs) - 1)]
    assert min(outside) > 0
    assert max(outside) < 1e-17 * peak


class _CountingNumpy:
    """numpy, counting the elements that its dot reductions read."""

    def __init__(self):
        self.seen = 0
        self.blas_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def vdot(self, a, b):
        self.seen += np.size(a)
        self.blas_calls += 1
        return np.vdot(a, b)

    def dot(self, a, b, *args):
        self.seen += np.size(a)
        self.blas_calls += 1
        return np.dot(a, b, *args)

    def einsum(self, subscripts, *operands):
        self.seen += np.size(operands[0])
        return np.einsum(subscripts, *operands)


def test_tv_sum_reads_only_the_band(monkeypatch):
    # each curve point reduces at most (2 K + 1) n elements, one per cell
    # and offset, not n^2, and none of them through BLAS; a = 10 cuts blocks
    # at J's edge, a = 250 has a single block
    n, steps = 500, 20
    for a in (10.0, 250.0):
        counting = _CountingNumpy()
        monkeypatch.setattr(grid, "np", counting)
        with pytest.raises(MixingNotConverged):
            find_mixing_time((0.0, 0.0), 0.25, ModelParams(a), n, steps)
        assert 0 < counting.seen <= steps * (2 * grid._tv_band(a, n) + 1) * n
        assert counting.blas_calls == 0


_CURVE_HASHES = """
import hashlib
from diagonal_gibbs import ModelParams, evolve_2d, find_mixing_time, point_mass
for a in (10.0, 50.0):
    curve = find_mixing_time((0.0, 0.0), 0.25, ModelParams(a), 500, 5000).tv_curve
    print(a, hashlib.sha256(curve.tobytes()).hexdigest())
weights = evolve_2d(point_mass(0.0, 0.0, 500), 200, ModelParams(50.0)).weights
print("evolve", hashlib.sha256(weights.tobytes()).hexdigest())
"""


def test_tv_curve_independent_of_blas_threads():
    package_root = str(Path(diagonal_gibbs.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _CURVE_HASHES], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout)
    assert hashes[0] == hashes[1]


def test_mixing_result_serialization(tmp_path):
    result = find_mixing_time((0.0, 0.0), 0.25, ModelParams(10.0), 100, 2000)
    d = result.as_dict()
    assert d["t_mix"] == result.t_mix
    assert d["a"] == 10.0 and d["n"] == 100
    csv_path = tmp_path / "curve.csv"
    result.tv_curve_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,tv"
    assert len(lines) == result.t_mix + 2
    t_last, tv_last = lines[-1].split(",")
    assert int(t_last) == result.t_mix
    assert float(tv_last) <= 0.25


# ----------------------------------------------------------------------
# worst-case distances
# ----------------------------------------------------------------------

def test_worst_case_d_at_zero():
    params = ModelParams(10.0)
    kernel = build_kernel_1d(params, 100)
    expected = 1.0 - float(kernel.marginal.min())
    assert worst_case_distance_d(0, params, 100) == pytest.approx(expected, abs=1e-14)


def test_worst_case_d_nonincreasing():
    params = ModelParams(10.0)
    values = [worst_case_distance_d(t, params, 80) for t in (1, 2, 4, 8, 16)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_worst_case_d_decays_on_chain_scale():
    # d(10 a^2) is already below 4/9 at a = 10, n = 200
    params = ModelParams(10.0)
    assert worst_case_distance_d(1000, params, 200) < 4.0 / 9.0


def test_dbar_at_zero_and_sandwich():
    params = ModelParams(10.0)
    dbar_0, dbar_t, _ = worst_case_distance_dbar(0, 10, params, 60)
    assert dbar_0 == 1.0
    d_t = worst_case_distance_d(10, params, 60)
    assert d_t <= dbar_t + 1e-12
    assert dbar_t <= 2.0 * d_t + 1e-12


def test_dbar_submultiplicative_small():
    params = ModelParams(10.0)
    dbar_s, dbar_t, dbar_st = worst_case_distance_dbar(40, 60, params, 60)
    assert dbar_st <= dbar_s * dbar_t * (1.0 + 1e-9)


def test_dbar_runs_past_200_cells_with_one_power_at_s_equal_t(monkeypatch):
    # no cap on n; at s = t the one power K^t is scanned once, K^t K^t once
    params, n, t = ModelParams(10.0), 256, 10
    d_t = worst_case_distance_d(t, params, n)
    calls = {"matrix_power": 0, "scan": 0}
    matrix_power, scan = np.linalg.matrix_power, grid._max_pairwise_tv

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "matrix_power", counted("matrix_power", matrix_power))
    monkeypatch.setattr(grid, "_max_pairwise_tv", counted("scan", scan))
    dbar_s, dbar_t, _ = worst_case_distance_dbar(t, t, params, n)
    assert calls == {"matrix_power": 1, "scan": 2}
    assert dbar_s == dbar_t
    assert d_t <= dbar_t <= 2.0 * d_t


def _power_by_steps(matrix, t):
    """Reference kernel power: t one-step products from the identity."""
    power = np.eye(matrix.shape[0])
    for _ in range(t):
        power = power @ matrix
    return power


def _max_pairwise_tv_reference(power):
    return max(0.5 * np.abs(power - row).sum(axis=1).max() for row in power)


@pytest.mark.parametrize("n", [20, 60, 100, 200])
@pytest.mark.parametrize("a", [1.0, 10.0, 50.0])
def test_distances_match_power_loops(a, n):
    # matrix_power squares where the reference steps; only roundoff differs
    params = ModelParams(a)
    kernel = build_kernel_1d(params, n)
    for s, t in ((0, 0), (0, 10), (1, 1), (7, 3), (40, 60), (50, 50), (100, 100)):
        power_s = _power_by_steps(kernel.matrix, s)
        power_t = _power_by_steps(kernel.matrix, t)
        for u, power in ((s, power_s), (t, power_t)):
            expected = 0.5 * np.abs(power - kernel.marginal).sum(axis=1).max()
            assert abs(worst_case_distance_d(u, params, n) - expected) <= 1e-13, (u, n)
        expected = [_max_pairwise_tv_reference(p) for p in (power_s, power_t, power_s @ power_t)]
        got = worst_case_distance_dbar(s, t, params, n)
        assert np.max(np.abs(np.array(got) - expected)) <= 1e-13, (s, t)


# ----------------------------------------------------------------------
# set probabilities
# ----------------------------------------------------------------------

def test_set_probability_full_square():
    dist = build_discretized_target(ModelParams(10.0), 40)
    assert set_probability(dist, [(0.0, 1.0, 0.0, 1.0)]) == pytest.approx(1.0, abs=1e-12)


def test_set_probability_uniform_corners():
    uniform = GridDistribution(40, np.full((40, 40), 1.0 / 1600.0))
    assert set_probability(uniform, CORNER_BOXES) == pytest.approx(0.125, abs=1e-12)


def test_set_probability_partial_cells():
    # a box cutting cells in half is weighted proportionally
    uniform = GridDistribution(4, np.full((4, 4), 1.0 / 16.0))
    assert set_probability(uniform, [(0.0, 0.125, 0.0, 1.0)]) == pytest.approx(
        0.125, abs=1e-12
    )


def test_set_probability_rejects_bad_boxes():
    dist = build_discretized_target(ModelParams(10.0), 20)
    with pytest.raises(GridError):
        set_probability(dist, [(0.5, 0.4, 0.0, 1.0)])
    with pytest.raises(GridError):
        set_probability(dist, [(0.0, 1.5, 0.0, 1.0)])


def test_set_probability_rejects_overlapping_boxes():
    # a union of boxes that overlap with positive area would count their
    # common part twice; boxes that share only an edge or a corner are disjoint
    dist = build_discretized_target(ModelParams(10.0), 20)
    for boxes in ([(0.0, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.0)],
                  [(0.0, 0.5, 0.0, 0.5), (0.25, 0.75, 0.25, 0.75)],
                  iter([(0.1, 0.2, 0.0, 1.0), (0.0, 1.0, 0.1, 0.2)])):
        with pytest.raises(GridError, match="overlap"):
            set_probability(dist, boxes)
    halves = [(0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 0.0, 1.0)]
    assert set_probability(dist, halves) == pytest.approx(1.0, abs=1e-12)
    quarters = [(0.0, 0.5, 0.0, 0.5), (0.5, 1.0, 0.5, 1.0), (0.5, 1.0, 0.0, 0.5)]
    assert set_probability(dist, quarters) == pytest.approx(
        1.0 - set_probability(dist, [(0.0, 0.5, 0.5, 1.0)]), abs=1e-12)


# ----------------------------------------------------------------------
# heatmap export
# ----------------------------------------------------------------------

def test_heatmap_header_and_size(tmp_path):
    dist = build_discretized_target(ModelParams(10.0), 64)
    path = tmp_path / "target.pgm"
    export_heatmap(dist, path, ModelParams(10.0))
    raw = path.read_bytes()
    header = b"P5\n64 64\n65535\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 2 * 64 * 64
    sidecar = json.loads((tmp_path / "target.pgm.json").read_text())
    assert sidecar["n"] == 64
    assert sidecar["a"] == 10.0
    assert "version" in sidecar


def test_heatmap_uniform_is_constant(tmp_path):
    uniform = GridDistribution(16, np.full((16, 16), 1.0 / 256.0))
    path = tmp_path / "flat.pgm"
    export_heatmap(uniform, path)
    raw = path.read_bytes()
    pixels = np.frombuffer(raw[raw.index(b"65535\n") + 6 :], dtype=">u2")
    assert pixels.size == 256
    assert np.all(pixels == pixels[0])


def test_heatmap_darker_is_higher(tmp_path):
    dist = build_discretized_target(ModelParams(10.0), 32)
    path = tmp_path / "band.pgm"
    export_heatmap(dist, path)
    raw = path.read_bytes()
    pixels = np.frombuffer(raw[raw.index(b"65535\n") + 6 :], dtype=">u2").reshape(32, 32)
    # the diagonal holds the highest density, hence the darkest pixels
    assert pixels[16, 16] < pixels[16, 0]
    assert pixels.min() == pixels.diagonal().min()


def test_heatmap_diagonal_ridge_after_evolution(tmp_path):
    # high concentration from a corner start: the evolved density rides the
    # diagonal; row argmax stays within 3 cells of it for middle rows
    params = ModelParams(250.0)
    n = 250
    dist = evolve_2d(point_mass(0.0, 0.0, n), 10_000, params)
    path = tmp_path / "ridge.pgm"
    export_heatmap(dist, path, params)
    raw = path.read_bytes()
    pixels = np.frombuffer(raw[raw.index(b"65535\n") + 6 :], dtype=">u2").reshape(n, n)
    for i in range(n // 4, 3 * n // 4):
        assert abs(int(np.argmin(pixels[i])) - i) <= 3
