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

Engine: each process, and each coupled pair in ``coupling``, is written
once as a ``_Process``:

  draw(rng, width)       one step's random arrays, in stream order;
  step(state, draws, t)  updates a dict of per-trajectory arrays;
  hits                   named first-hit predicates on the state.

Two drivers run every public runner.  ``_run_ensemble`` fills the start
state per chunk, draws step by step from the chunk's stream, records first
hits (the start counts as t = 0) and concatenates only the named outputs.
``_run_single`` draws all steps up front from one stream, steps a 0-d
state and records the path of the named outputs, to which it applies the
same predicates.
The single-run Z and W walks are the exception: ``_walk_path`` sums their
increments with one ``cumsum``, because a step loop would add sequentially
and so round differently, and would make 10^6-step runs a Python loop.
Directions are held as booleans (True = the u coordinate moved) and become
'U'/'V' strings only in the returned records and ensembles.  A single run's
``TrajectoryRecord`` always holds the whole path, and reads its step count
and terminal state off it.

Reproducibility: single-trajectory runners derive their stream from the
seed alone, drawing every step's first array (X's coins) before the next
(the uniforms).  Ensemble runners assign trajectory draws by global
trajectory index through fixed-width chunks of spawned SeedSequence
streams, so results depend only on (seed, index), never on chunking or
thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

# rows per block that ``TrajectoryRecord.to_csv`` converts to Python floats
_CSV_ROWS = 65536


def _master_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _chunk_ranges(trajectories: int):
    for chunk_index, start in enumerate(range(0, trajectories, _CHUNK)):
        yield chunk_index, start, min(_CHUNK, trajectories - start)


def _check_count(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _run_chunked(worker, steps: int, trajectories: int, threads: int = 1):
    """Run ``worker(chunk_index, width)`` over all chunks, in index order,
    on at most ``threads`` threads and never more than there are chunks.

    Rejects counts no ensemble can run: ``trajectories < 1``,
    ``threads < 1`` or ``steps < 0``.
    """
    _check_count("trajectories", trajectories, 1)
    _check_count("threads", threads, 1)
    _check_count("steps", steps, 0)
    jobs = list(_chunk_ranges(trajectories))
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            futures = [pool.submit(worker, ci, width) for ci, _, width in jobs]
            return [f.result() for f in futures]
    return [worker(ci, width) for ci, _, width in jobs]


# ======================================================================
# records
# ======================================================================

@dataclass
class TrajectoryRecord:
    """One simulated trajectory plus its recorded stopping times.

    states holds the full path (steps+1 entries, scalars or (u, v) pairs),
    from which ``steps`` and ``terminal`` are read.  ``aux_states`` carries
    process-specific extras (for Z: the signed driving walk).  Stopping-time
    values are step indices into the path, or None when the event never
    happened, so they can be re-derived from ``states``.
    """

    process_name: str
    seed: int
    params: ModelParams
    states: np.ndarray
    stopping_times: dict = field(default_factory=dict)
    direction_sequence: np.ndarray | None = None
    aux_states: np.ndarray | None = None

    def __post_init__(self):
        if self.process_name not in PROCESS_NAMES:
            raise ValueError(f"unknown process {self.process_name!r}")

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def terminal(self):
        return self.states[-1]

    def to_csv(self, path) -> None:
        """Dump the recorded path as CSV with columns step,value(s)."""
        states = np.atleast_2d(np.asarray(self.states, dtype=float).T).T
        header = "step,u,v\n" if states.shape[1] == 2 else "step,value\n"
        with open(path, "w") as fh:
            fh.write(header)
            # converted and written a block of rows at a time, so memory stays flat
            for t0 in range(0, len(states), _CSV_ROWS):
                block = states[t0:t0 + _CSV_ROWS].tolist()
                fh.writelines(
                    f"{t},{','.join(map(repr, row))}\n" for t, row in enumerate(block, t0)
                )

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
            # a run without steps made no direction changes
            out["direction_changes"] = (
                count_direction_changes(self.direction_sequence) if self.steps else 0
            )
        return out


def count_direction_changes(directions) -> int:
    """Number of adjacent unequal pairs in a direction sequence."""
    arr = np.asarray(directions)
    if arr.size == 0:
        raise ValueError("empty direction sequence")
    if arr.size == 1:
        return 0
    return int(np.count_nonzero(arr[1:] != arr[:-1]))


# ======================================================================
# the engine
# ======================================================================

class _Process(NamedTuple):
    """One process (or coupled pair), run by either driver.

    ``draw(rng, width)`` returns one step's random arrays in stream order;
    ``step(state, draws, t)`` applies the draws of step t (t = 0 is the
    first step) to the state dict, replacing its entries; ``hits`` maps a
    stopping-time name to a predicate on the state.  The state holds
    arrays of one width in an ensemble and 0-d values in a single run.
    """

    draw: Callable
    step: Callable
    hits: dict


def _hit_update(times: np.ndarray, mask: np.ndarray, t: int) -> None:
    np.putmask(times, np.isnan(times) & mask, float(t))


def _first_index(mask: np.ndarray):
    idx = np.flatnonzero(mask)
    return int(idx[0]) if idx.size else None


def _run_ensemble(process: _Process, start: dict, outputs: tuple, steps: int, seed: int,
                  trajectories: int, threads: int) -> list:
    """Run ``process`` from ``start`` for every trajectory.

    Returns one array per name in ``outputs`` (state entries or stopping
    times), concatenated over chunks.  Stopping times are float step
    indices, NaN when never reached.
    """

    def worker(chunk_index: int, width: int):
        rng = _chunk_rng(seed, chunk_index)
        state = {key: np.full(width, value) for key, value in start.items()}
        state.update((name, np.full(width, np.nan)) for name in process.hits)
        for t in range(steps + 1):
            if t:
                process.step(state, process.draw(rng, width), t - 1)
            for name, hit in process.hits.items():
                _hit_update(state[name], hit(state), t)
        return [state[key] for key in outputs]

    parts = _run_chunked(worker, steps, trajectories, threads)
    return [np.concatenate(column) for column in zip(*parts)]


def _run_single(process: _Process, start: dict, outputs: tuple, steps: int, seed: int):
    """Run ``process`` once from ``start`` on the stream of ``seed``.

    Returns the path (steps + 1 values) of each state entry named in
    ``outputs``, in that order, and the first-hit index of each stopping
    time, or None when never hit.  The stopping-time predicates read only
    the ``outputs`` entries.
    """
    _check_count("steps", steps, 0)
    draws = process.draw(_master_rng(seed), steps)
    state = {key: np.full((), value) for key, value in start.items()}
    path = {key: np.empty(steps + 1, dtype=state[key].dtype) for key in outputs}
    for t in range(steps + 1):
        if t:
            process.step(state, [d[t - 1] for d in draws], t - 1)
        for key, column in path.items():
            column[t] = state[key]
    times = {name: _first_index(hit(path)) for name, hit in process.hits.items()}
    return [path[key] for key in outputs], times


def _walk_path(process: _Process, w0: float, steps: int, seed: int):
    """Single-run path of a walk process: ``w0`` plus the cumsum of its draws."""
    _check_count("steps", steps, 0)
    (increments,) = process.draw(_master_rng(seed), steps)
    path = np.empty(steps + 1, dtype=float)
    path[0] = w0
    np.cumsum(increments, out=path[1:])
    path[1:] += w0
    return path, {name: _first_index(hit({"w": path})) for name, hit in process.hits.items()}


# ======================================================================
# processes
# ======================================================================

def _uniforms(rng: np.random.Generator, width: int):
    return (rng.random(width),)


def _x_coins(rng: np.random.Generator, width: int):
    # coin 0 moves u, coin 1 moves v
    return rng.integers(0, 2, size=width), rng.random(width)


def _xstar_coins(rng: np.random.Generator, width: int):
    # v on odd steps t = 1, 3, ..., u on even ones; only the uniforms are random
    return np.arange(1, width + 1) % 2, rng.random(width)


def _x_process(params: ModelParams, draw) -> _Process:
    """The planar sampler, with its direction statistics.

    ``newest`` is the coordinate drawn at the latest step.  Holding it in
    the state also keeps its buffer alive into the next step: freed at the
    end of every step, it let the allocator trim the heap top and fault it
    back in, which made the two-thread X ensemble about 15% slower.
    """
    sigma = params.sigma

    def step(s, draws, t):
        coins, uniforms = draws
        pick_u = coins == 0
        fresh = _trunc_quantile_core(np.where(pick_u, s["v"], s["u"]), sigma, 0.0, 1.0, uniforms)
        s["u"] = np.where(pick_u, fresh, s["u"])
        s["v"] = np.where(pick_u, s["v"], fresh)
        s["newest"] = fresh
        s["u_count"] = s["u_count"] + pick_u
        if t:
            s["changes"] = s["changes"] + (pick_u != s["last_u"])
        else:
            s["first_u"] = pick_u
        s["last_u"] = pick_u

    return _Process(draw, step, {})


def _planar_start(start) -> dict:
    return {
        "u": _check_unit(start[0], "start u"),
        "v": _check_unit(start[1], "start v"),
        "newest": np.nan,
        "changes": 0,
        "u_count": 0,
        "first_u": False,
        "last_u": False,
    }


def _directions(pick_u: np.ndarray) -> np.ndarray:
    return np.where(pick_u, DIRECTION_U, DIRECTION_V)


def _in_middle(params: ModelParams):
    lo, hi = params.middle_lo, params.middle_hi
    return lambda s: (s["y"] >= lo) & (s["y"] <= hi)


def _reached_middle(params: ModelParams):
    lo = params.middle_lo
    return lambda s: s["y"] >= lo


def _outside_unit(s) -> np.ndarray:
    return (s["w"] < 0.0) | (s["w"] > 1.0)


def _flip_process(params: ModelParams, hi: float, hits: dict) -> _Process:
    """Flip chain on [0, hi]: one truncated draw centered at the last value."""
    sigma = params.sigma

    def step(s, draws, t):
        s["y"] = _trunc_quantile_core(s["y"], sigma, 0.0, hi, draws[0])

    return _Process(_uniforms, step, hits)


def _y_process(params: ModelParams) -> _Process:
    hits = {"nu_m": _in_middle(params), "nu_m_tilde": _reached_middle(params)}
    return _flip_process(params, 1.0, hits)


def _y_prime_process(params: ModelParams) -> _Process:
    return _flip_process(params, np.inf, {"nu_m_hat": _reached_middle(params)})


def _walk_process(params: ModelParams, hits: dict) -> _Process:
    """Plain Gaussian walk w; Z reports |w|, W its exit from [0, 1]."""
    sigma = params.sigma

    def draw(rng, width):
        return (sigma * rng.standard_normal(width),)

    def step(s, draws, t):
        s["w"] = s["w"] + draws[0]

    return _Process(draw, step, hits)


# ======================================================================
# single-trajectory runners
# ======================================================================

def _check_unit(x: float, name: str) -> float:
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


def _check_nonnegative(x: float, name: str) -> float:
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must lie in [0, inf), got {x}")
    return x


def _run_planar(process_name, draw, start, steps, params, seed):
    (u, v, last_u), _ = _run_single(
        _x_process(params, draw), _planar_start(start), ("u", "v", "last_u"), steps, seed,
    )
    return TrajectoryRecord(process_name, seed, params, np.column_stack((u, v)),
                            direction_sequence=_directions(last_u[1:]))


def run_x(start, steps: int, params: ModelParams, seed: int) -> TrajectoryRecord:
    """Random-scan sampler: fair independent direction coins."""
    return _run_planar("X", _x_coins, start, steps, params, seed)


def run_xstar(start, steps: int, params: ModelParams, seed: int) -> TrajectoryRecord:
    """Alternating-direction sampler: v on odd steps, u on even steps."""
    return _run_planar("XStar", _xstar_coins, start, steps, params, seed)


def run_y(start_u: float, steps: int, params: ModelParams, seed: int) -> TrajectoryRecord:
    """Scalar flip chain on [0, 1]; records middle-band hitting times.

    nu_m is the first index with 1/2 - delta <= Y <= 1/2 + delta,
    nu_m_tilde the first index with Y >= 1/2 - delta (so nu_m_tilde <= nu_m
    always).
    """
    start = {"y": _check_unit(start_u, "start_u")}
    (path,), times = _run_single(_y_process(params), start, ("y",), steps, seed)
    return TrajectoryRecord("Y", seed, params, path, stopping_times=times)


def run_y_prime(start_u: float, steps: int, params: ModelParams, seed: int) -> TrajectoryRecord:
    """Flip chain with the upper wall removed (support [0, inf))."""
    start = {"y": _check_nonnegative(start_u, "start_u")}
    (path,), times = _run_single(_y_prime_process(params), start, ("y",), steps, seed)
    return TrajectoryRecord("YPrime", seed, params, path, stopping_times=times)


def run_z(start: float, steps: int, params: ModelParams, seed: int) -> TrajectoryRecord:
    """Reflected free walk: states are |walk|, aux_states the signed walk."""
    w0 = _check_nonnegative(start, "start")
    signed, _ = _walk_path(_walk_process(params, {}), w0, steps, seed)
    return TrajectoryRecord("Z", seed, params, np.abs(signed), aux_states=signed)


def run_w(start: float, steps: int, params: ModelParams, seed: int) -> TrajectoryRecord:
    """Plain Gaussian walk; records the first exit from [0, 1]."""
    w0 = _check_unit(start, "start")
    path, times = _walk_path(_walk_process(params, {"nu_c2": _outside_unit}), w0, steps, seed)
    return TrajectoryRecord("W", seed, params, path, stopping_times=times)


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
    u, v, changes, first_u, u_count = _run_ensemble(
        _x_process(params, _x_coins), _planar_start(start),
        ("u", "v", "changes", "first_u", "u_count"), steps, seed, trajectories, threads,
    )
    # a run without steps has no first direction
    first = _directions(first_u) if steps else np.full(trajectories, "", dtype="<U1")
    return XEnsemble(u, v, changes, first, u_count, steps)


def run_y_ensemble(
    start_u: float, steps: int, params: ModelParams, seed: int, trajectories: int,
    threads: int = 1,
) -> YEnsemble:
    start = {"y": _check_unit(start_u, "start_u")}
    return YEnsemble(*_run_ensemble(
        _y_process(params), start, ("y", "nu_m", "nu_m_tilde"), steps, seed, trajectories, threads,
    ), steps)


def run_y_prime_ensemble(
    start_u: float, steps: int, params: ModelParams, seed: int, trajectories: int,
    threads: int = 1,
) -> YPrimeEnsemble:
    start = {"y": _check_nonnegative(start_u, "start_u")}
    return YPrimeEnsemble(*_run_ensemble(
        _y_prime_process(params), start, ("y", "nu_m_hat"), steps, seed, trajectories, threads,
    ), steps)


def run_z_ensemble(
    start: float, steps: int, params: ModelParams, seed: int, trajectories: int,
    threads: int = 1,
) -> ZEnsemble:
    (signed,) = _run_ensemble(
        _walk_process(params, {}), {"w": _check_nonnegative(start, "start")}, ("w",),
        steps, seed, trajectories, threads,
    )
    return ZEnsemble(terminal_abs=np.abs(signed), terminal_signed=signed, steps=steps)


def run_w_ensemble(
    start: float, steps: int, params: ModelParams, seed: int, trajectories: int,
    threads: int = 1,
) -> WEnsemble:
    start = {"w": _check_unit(start, "start")}
    return WEnsemble(*_run_ensemble(
        _walk_process(params, {"nu_c2": _outside_unit}), start, ("w", "nu_c2"),
        steps, seed, trajectories, threads,
    ), steps)
