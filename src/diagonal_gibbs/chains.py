"""Forward simulation of the sampler and its derived comparison processes.

Processes, all sharing the step scale sigma = 1/(a*sqrt(2)):

  X       random-scan chain on the square: a fair coin picks a coordinate,
          which is rerandomized from its [0,1]-truncated conditional.
  XStar   the same chain with deterministic alternating directions
          (odd steps update v, even steps update u).
  Y       scalar flip chain: one truncated-conditional draw per step,
          centered at the previous value.  The planar flip process is the
          pair (Y(t), Y(t-1)).
  YPrime  the Y chain with the upper wall removed (truncation to [0, inf)).
  Z       reflected free walk: simulate the plain Gaussian walk and report
          its absolute value.
  W       plain Gaussian walk on the line, no truncation.

Sampling is inverse-CDF throughout (a single uniform per draw), which is
what makes the couplings in ``coupling`` exact rather than approximate.

Reproducibility: single-trajectory runners derive their stream from the
seed alone.  Ensemble runners assign trajectory draws by global trajectory
index through fixed-width chunks of spawned SeedSequence streams, so
results depend only on (seed, index), never on chunking or thread count.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .density import (
    ModelParams,
    _trunc_quantile_core,
)

PROCESS_NAMES = ("X", "XStar", "Y", "YPrime", "Z", "W")

DIRECTION_U = "U"
DIRECTION_V = "V"

# Fixed ensemble chunk width.  Part of the reproducibility contract: the
# draws of trajectory i always come from chunk i // _CHUNK, column
# i % _CHUNK, regardless of how many trajectories or threads are used.
_CHUNK = 16384


def _master_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _chunk_ranges(trajectories: int):
    for chunk_index, start in enumerate(range(0, trajectories, _CHUNK)):
        yield chunk_index, start, min(_CHUNK, trajectories - start)


def _run_chunked(worker, steps: int, trajectories: int, threads: int = 1):
    """Run ``worker(chunk_index, width)`` over all chunks, in index order.

    Rejects counts no ensemble can run: ``trajectories < 1``,
    ``threads < 1`` or ``steps < 0``.
    """
    for name, value, least in (
        ("trajectories", trajectories, 1), ("threads", threads, 1), ("steps", steps, 0)
    ):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    jobs = list(_chunk_ranges(trajectories))
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker, ci, width) for ci, _, width in jobs]
            return [f.result() for f in futures]
    return [worker(ci, width) for ci, _, width in jobs]


# ======================================================================
# records
# ======================================================================

@dataclass
class TrajectoryRecord:
    """One simulated trajectory plus its recorded stopping times.

    states holds the full path (steps+1 entries, scalars or (u, v) pairs)
    unless state recording was turned off, in which case it is None and
    only ``terminal`` survives.  ``aux_states`` carries process-specific
    extras (for Z: the signed driving walk).  Stopping-time values are
    step indices, or None when the event never happened; they are indices
    into the recorded path, so they can be re-derived from ``states``.
    """

    process_name: str
    steps: int
    seed: int
    params: ModelParams
    terminal: np.ndarray
    stopping_times: dict = field(default_factory=dict)
    states: np.ndarray | None = None
    direction_sequence: np.ndarray | None = None
    aux_states: np.ndarray | None = None

    def __post_init__(self):
        if self.process_name not in PROCESS_NAMES:
            raise ValueError(f"unknown process {self.process_name!r}")
        if self.states is not None and len(self.states) != self.steps + 1:
            raise ValueError(
                f"states length {len(self.states)} != steps+1 ({self.steps + 1})"
            )

    def to_csv(self, path) -> None:
        """Dump the recorded path as CSV with columns step,value(s)."""
        if self.states is None:
            raise ValueError("trajectory was run without state recording")
        states = np.atleast_2d(np.asarray(self.states, dtype=float).T).T
        wide = states.shape[1] == 2
        header = "step,u,v" if wide else "step,value"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for t in range(self.steps + 1):
                row = ",".join(repr(float(x)) for x in np.atleast_1d(states[t]))
                fh.write(f"{t},{row}\n")

    def summary(self) -> dict:
        term = np.atleast_1d(np.asarray(self.terminal, dtype=float))
        out = {
            "process": self.process_name,
            "steps": self.steps,
            "seed": self.seed,
            "a": self.params.a,
            "delta": self.params.delta,
            "terminal": [float(x) for x in term],
            "stopping_times": {
                k: (None if v is None else int(v)) for k, v in self.stopping_times.items()
            },
        }
        if self.direction_sequence is not None:
            out["direction_changes"] = count_direction_changes(self.direction_sequence)
        return out

    def summary_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def count_direction_changes(directions) -> int:
    """Number of adjacent unequal pairs in a direction sequence."""
    arr = np.asarray(directions)
    if arr.size == 0:
        raise ValueError("empty direction sequence")
    if arr.size == 1:
        return 0
    return int(np.count_nonzero(arr[1:] != arr[:-1]))


# ======================================================================
# single steps
# ======================================================================

def step_x(state, direction: str, rng_draw: float, params: ModelParams):
    """One sampler transition: rerandomize the chosen coordinate.

    The new coordinate is the inverse-CDF image of ``rng_draw`` under the
    [0,1]-truncated Gaussian centered at the other coordinate.
    """
    u, v = float(state[0]), float(state[1])
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError(f"state ({u}, {v}) outside the unit square")
    if not (0.0 <= rng_draw <= 1.0):
        raise ValueError(f"rng_draw must lie in [0, 1], got {rng_draw}")
    if direction == DIRECTION_U:
        u = float(_trunc_quantile_core(v, params.sigma, 0.0, 1.0, rng_draw))
    elif direction == DIRECTION_V:
        v = float(_trunc_quantile_core(u, params.sigma, 0.0, 1.0, rng_draw))
    else:
        raise ValueError(f"direction must be 'U' or 'V', got {direction!r}")
    return (u, v)


# ======================================================================
# single-trajectory runners
# ======================================================================

def _check_unit(x: float, name: str) -> float:
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


def _run_planar(
    process: str,
    directions: np.ndarray,
    start,
    steps: int,
    params: ModelParams,
    seed: int,
    draws: np.ndarray,
    record_states: bool,
) -> TrajectoryRecord:
    u = _check_unit(start[0], "start u")
    v = _check_unit(start[1], "start v")
    sigma = params.sigma
    states = np.empty((steps + 1, 2), dtype=float) if record_states else None
    if states is not None:
        states[0] = (u, v)
    for t in range(steps):
        if directions[t] == DIRECTION_U:
            u = float(_trunc_quantile_core(v, sigma, 0.0, 1.0, draws[t]))
        else:
            v = float(_trunc_quantile_core(u, sigma, 0.0, 1.0, draws[t]))
        if states is not None:
            states[t + 1] = (u, v)
    return TrajectoryRecord(
        process_name=process,
        steps=steps,
        seed=seed,
        params=params,
        terminal=np.array((u, v)),
        states=states,
        direction_sequence=directions,
    )


def run_x(start, steps: int, params: ModelParams, seed: int, record_states: bool = True):
    """Random-scan sampler: fair independent direction coins."""
    rng = _master_rng(seed)
    coins = rng.integers(0, 2, size=steps)
    directions = np.where(coins == 0, DIRECTION_U, DIRECTION_V)
    draws = rng.random(steps)
    return _run_planar("X", directions, start, steps, params, seed, draws, record_states)


def run_xstar(start, steps: int, params: ModelParams, seed: int, record_states: bool = True):
    """Alternating-direction sampler: v on odd steps, u on even steps."""
    rng = _master_rng(seed)
    t = np.arange(1, steps + 1)
    directions = np.where(t % 2 == 1, DIRECTION_V, DIRECTION_U)
    draws = rng.random(steps)
    rec = _run_planar("X", directions, start, steps, params, seed, draws, record_states)
    rec.process_name = "XStar"
    return rec


def _first_index(mask: np.ndarray):
    idx = np.flatnonzero(mask)
    return int(idx[0]) if idx.size else None


def run_y(
    start_u: float, steps: int, params: ModelParams, seed: int, record_states: bool = True
) -> TrajectoryRecord:
    """Scalar flip chain on [0, 1]; records middle-band hitting times.

    nu_m is the first index with |Y - 1/2| <= delta, nu_m_tilde the first
    index with Y >= 1/2 - delta (so nu_m_tilde <= nu_m always).
    """
    y = _check_unit(start_u, "start_u")
    rng = _master_rng(seed)
    draws = rng.random(steps)
    sigma = params.sigma
    path = np.empty(steps + 1, dtype=float)
    path[0] = y
    for t in range(steps):
        y = float(_trunc_quantile_core(y, sigma, 0.0, 1.0, draws[t]))
        path[t + 1] = y
    in_middle = np.abs(path - 0.5) <= params.delta
    above = path >= params.middle_lo
    return TrajectoryRecord(
        process_name="Y",
        steps=steps,
        seed=seed,
        params=params,
        terminal=np.array(y),
        stopping_times={
            "nu_m": _first_index(in_middle),
            "nu_m_tilde": _first_index(above),
        },
        states=path if record_states else None,
    )


def run_y_prime(
    start_u: float, steps: int, params: ModelParams, seed: int, record_states: bool = True
) -> TrajectoryRecord:
    """Flip chain with the upper wall removed (support [0, inf))."""
    y = float(start_u)
    if y < 0.0:
        raise ValueError(f"start_u must be >= 0, got {y}")
    rng = _master_rng(seed)
    draws = rng.random(steps)
    sigma = params.sigma
    path = np.empty(steps + 1, dtype=float)
    path[0] = y
    for t in range(steps):
        y = float(_trunc_quantile_core(y, sigma, 0.0, np.inf, draws[t]))
        path[t + 1] = y
    return TrajectoryRecord(
        process_name="YPrime",
        steps=steps,
        seed=seed,
        params=params,
        terminal=np.array(y),
        stopping_times={"nu_m_hat": _first_index(path >= params.middle_lo)},
        states=path if record_states else None,
    )


def run_z(
    start: float, steps: int, params: ModelParams, seed: int, record_states: bool = True
) -> TrajectoryRecord:
    """Reflected free walk: states are |walk|, aux_states the signed walk."""
    w0 = float(start)
    if w0 < 0.0:
        raise ValueError(f"start must be >= 0, got {w0}")
    rng = _master_rng(seed)
    increments = params.sigma * rng.standard_normal(steps)
    signed = np.empty(steps + 1, dtype=float)
    signed[0] = w0
    np.cumsum(increments, out=signed[1:])
    signed[1:] += w0
    path = np.abs(signed)
    return TrajectoryRecord(
        process_name="Z",
        steps=steps,
        seed=seed,
        params=params,
        terminal=np.array(path[-1]),
        states=path if record_states else None,
        aux_states=signed if record_states else None,
    )


def run_w(
    start: float, steps: int, params: ModelParams, seed: int, record_states: bool = True
) -> TrajectoryRecord:
    """Plain Gaussian walk; records the first exit from [0, 1]."""
    w0 = _check_unit(start, "start")
    rng = _master_rng(seed)
    increments = params.sigma * rng.standard_normal(steps)
    path = np.empty(steps + 1, dtype=float)
    path[0] = w0
    np.cumsum(increments, out=path[1:])
    path[1:] += w0
    outside = (path < 0.0) | (path > 1.0)
    return TrajectoryRecord(
        process_name="W",
        steps=steps,
        seed=seed,
        params=params,
        terminal=np.array(path[-1]),
        stopping_times={"nu_c2": _first_index(outside)},
        states=path if record_states else None,
    )


# ======================================================================
# vectorized ensembles
# ======================================================================

class XEnsemble(NamedTuple):
    u: np.ndarray
    v: np.ndarray
    direction_changes: np.ndarray
    first_direction: np.ndarray  # 'U'/'V' per trajectory
    u_direction_count: np.ndarray
    steps: int


class YEnsemble(NamedTuple):
    terminal: np.ndarray
    nu_m: np.ndarray        # float; np.nan when not reached
    nu_m_tilde: np.ndarray
    steps: int


class YPrimeEnsemble(NamedTuple):
    terminal: np.ndarray
    nu_m_hat: np.ndarray
    steps: int


class ZEnsemble(NamedTuple):
    terminal_abs: np.ndarray
    terminal_signed: np.ndarray
    steps: int


class WEnsemble(NamedTuple):
    terminal: np.ndarray
    nu_c2: np.ndarray
    steps: int


def run_x_ensemble(
    start, steps: int, params: ModelParams, seed: int, trajectories: int, threads: int = 1
) -> XEnsemble:
    """Terminal states of many sampler runs, plus direction statistics."""
    u0 = _check_unit(start[0], "start u")
    v0 = _check_unit(start[1], "start v")
    sigma = params.sigma

    def worker(chunk_index: int, width: int):
        # One coin vector and one uniform vector per step, in that order.
        rng = _chunk_rng(seed, chunk_index)
        u = np.full(width, u0)
        v = np.full(width, v0)
        changes = np.zeros(width, dtype=np.int64)
        u_count = np.zeros(width, dtype=np.int64)
        prev_coins = None
        first = np.full(width, "", dtype="<U1")
        for t in range(steps):
            coins = rng.integers(0, 2, size=width)
            draws = rng.random(width)
            pick_u = coins == 0
            centers = np.where(pick_u, v, u)
            fresh = _trunc_quantile_core(centers, sigma, 0.0, 1.0, draws)
            u = np.where(pick_u, fresh, u)
            v = np.where(pick_u, v, fresh)
            u_count += pick_u
            if prev_coins is None:
                first = np.where(pick_u, DIRECTION_U, DIRECTION_V)
            else:
                changes += coins != prev_coins
            prev_coins = coins
        return u, v, changes, first, u_count

    parts = _run_chunked(worker, steps, trajectories, threads)
    return XEnsemble(
        u=np.concatenate([p[0] for p in parts]),
        v=np.concatenate([p[1] for p in parts]),
        direction_changes=np.concatenate([p[2] for p in parts]),
        first_direction=np.concatenate([p[3] for p in parts]),
        u_direction_count=np.concatenate([p[4] for p in parts]),
        steps=steps,
    )


def _hit_update(times: np.ndarray, mask: np.ndarray, t: int) -> None:
    np.putmask(times, np.isnan(times) & mask, float(t))


def run_y_ensemble(
    start_u: float, steps: int, params: ModelParams, seed: int, trajectories: int,
    threads: int = 1,
) -> YEnsemble:
    y0 = _check_unit(start_u, "start_u")
    sigma = params.sigma
    lo_band, hi_band = params.middle_lo, params.middle_hi

    def worker(chunk_index: int, width: int):
        rng = _chunk_rng(seed, chunk_index)
        y = np.full(width, y0)
        nu_m = np.full(width, np.nan)
        nu_tilde = np.full(width, np.nan)
        _hit_update(nu_m, (y >= lo_band) & (y <= hi_band), 0)
        _hit_update(nu_tilde, y >= lo_band, 0)
        for t in range(steps):
            y = _trunc_quantile_core(y, sigma, 0.0, 1.0, rng.random(width))
            _hit_update(nu_m, (y >= lo_band) & (y <= hi_band), t + 1)
            _hit_update(nu_tilde, y >= lo_band, t + 1)
        return y, nu_m, nu_tilde

    parts = _run_chunked(worker, steps, trajectories, threads)
    return YEnsemble(
        terminal=np.concatenate([p[0] for p in parts]),
        nu_m=np.concatenate([p[1] for p in parts]),
        nu_m_tilde=np.concatenate([p[2] for p in parts]),
        steps=steps,
    )


def run_y_prime_ensemble(
    start_u: float, steps: int, params: ModelParams, seed: int, trajectories: int,
    threads: int = 1,
) -> YPrimeEnsemble:
    y0 = float(start_u)
    if y0 < 0.0:
        raise ValueError(f"start_u must be >= 0, got {y0}")
    sigma = params.sigma
    lo_band = params.middle_lo

    def worker(chunk_index: int, width: int):
        rng = _chunk_rng(seed, chunk_index)
        y = np.full(width, y0)
        nu_hat = np.full(width, np.nan)
        _hit_update(nu_hat, y >= lo_band, 0)
        for t in range(steps):
            y = _trunc_quantile_core(y, sigma, 0.0, np.inf, rng.random(width))
            _hit_update(nu_hat, y >= lo_band, t + 1)
        return y, nu_hat

    parts = _run_chunked(worker, steps, trajectories, threads)
    return YPrimeEnsemble(
        terminal=np.concatenate([p[0] for p in parts]),
        nu_m_hat=np.concatenate([p[1] for p in parts]),
        steps=steps,
    )


def run_z_ensemble(
    start: float, steps: int, params: ModelParams, seed: int, trajectories: int,
    threads: int = 1,
) -> ZEnsemble:
    z0 = float(start)
    if z0 < 0.0:
        raise ValueError(f"start must be >= 0, got {z0}")
    sigma = params.sigma

    def worker(chunk_index: int, width: int):
        rng = _chunk_rng(seed, chunk_index)
        signed = np.full(width, z0)
        for _ in range(steps):
            signed = signed + sigma * rng.standard_normal(width)
        return signed

    signed = np.concatenate(_run_chunked(worker, steps, trajectories, threads))
    return ZEnsemble(terminal_abs=np.abs(signed), terminal_signed=signed, steps=steps)


def run_w_ensemble(
    start: float, steps: int, params: ModelParams, seed: int, trajectories: int,
    threads: int = 1,
) -> WEnsemble:
    w0 = _check_unit(start, "start")
    sigma = params.sigma

    def worker(chunk_index: int, width: int):
        rng = _chunk_rng(seed, chunk_index)
        w = np.full(width, w0)
        nu = np.full(width, np.nan)
        for t in range(steps):
            w = w + sigma * rng.standard_normal(width)
            _hit_update(nu, (w < 0.0) | (w > 1.0), t + 1)
        return w, nu

    parts = _run_chunked(worker, steps, trajectories, threads)
    return WEnsemble(
        terminal=np.concatenate([p[0] for p in parts]),
        nu_c2=np.concatenate([p[1] for p in parts]),
        steps=steps,
    )
