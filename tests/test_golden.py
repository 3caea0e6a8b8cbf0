"""Golden digests of every simulation runner's seeded output.

Each runner's outputs over a fixed table of starts, parameters, step
counts and ensemble layouts are hashed into one
sha256: array dtype, shape and bytes, record fields, stopping times and
decoupling times.  Any change to a random stream layout, a step rule, a
hitting-time rule or an output dtype changes the digest.

The digests were recorded with numpy 2.4.6 and scipy 1.17.1 (as
``perfbench/references.json`` was), so they are tied to those builds: a
different numpy may change the generators' bits and a different scipy the
``ndtr``/``ndtri`` roundoff.  After an intended change of outputs, or on
other builds, print the table afresh with ``PYTHONPATH=src python
tests/test_golden.py`` and say why in CHANGES.md.
"""

import hashlib
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from diagonal_gibbs import (
    ModelParams,
    couple_y_w,
    couple_y_yprime,
    couple_z_yprime,
    run_w,
    run_w_ensemble,
    run_x,
    run_x_ensemble,
    run_xstar,
    run_y,
    run_y_ensemble,
    run_y_prime,
    run_y_prime_ensemble,
    run_z,
    run_z_ensemble,
)

# a = 3 makes band hits, exits and decouplings frequent within a few steps
_PARAMS = (ModelParams(10.0), ModelParams(3.0, 0.1))

# runner and a start it accepts under both parameter sets
_SINGLE = {
    "run_x": (run_x, (0.2, 0.9)),
    "run_xstar": (run_xstar, (0.0, 1.0)),
    "run_y": (run_y, 0.3),
    "run_y_prime": (run_y_prime, 0.1),
    "run_z": (run_z, 0.05),
    "run_w": (run_w, 0.5),
}
_CHUNKED = {
    "run_x_ensemble": (run_x_ensemble, (0.2, 0.9)),
    "run_y_ensemble": (run_y_ensemble, 0.3),
    "run_y_prime_ensemble": (run_y_prime_ensemble, 0.1),
    "run_z_ensemble": (run_z_ensemble, 0.05),
    "run_w_ensemble": (run_w_ensemble, 0.5),
    "couple_z_yprime": (couple_z_yprime, 0.2),
    "couple_y_yprime": (couple_y_yprime, 0.1),
    "couple_y_w": (couple_y_w, 0.5),
}

_EXPECTED = {
    "couple_y_w": "61d7c09c4b6d48504355a802d3a550f70026f9f54935ede12757448942ebd457",
    "couple_y_yprime": "bf8a8e204308c179a02326b9a098068c257cce4b78c8018691c836219aebd90f",
    "couple_z_yprime": "097ac4e0017e663d0cd5b5d9096be526f2d82c7f5db776df0be2ad10ed10173a",
    "run_w": "175ecb05f4b338b4456ac324dba6c244c0e7ee992758b7ada47394600fd92413",
    "run_w_ensemble": "f6b014a2432a362b7236d6d25b44c58677b7e63c775cd2d079eee3ad71a34f39",
    "run_x": "f1f380da62fa6ca184c9555c02a1b9aad8639201c88378f53075ba55c7406cce",
    "run_x_ensemble": "50e3ffd0125ffa2b40a704a1db8e4a12be69e9038c8fba7f45294b8a8bc0c8a3",
    "run_xstar": "a759ce444270c04fb736b29540bdda8be82456c41fbb7b2d8af4b0dc90943ab4",
    "run_y": "1048ce021b2efef6167f50816f348a7fe372e67cfbf48a3b55c7431b52325372",
    "run_y_ensemble": "71da3780c413990b95001aaef0d679838384d00aeec524b82a8d29f8db007e58",
    "run_y_prime": "c39ec8ae159c049356e1ce24d08a5ef4f21d247386c7123f1bf60fa43013ae8c",
    "run_y_prime_ensemble": "8b6eeadcbe697606c1651e1e201af65a8852f1128c8c0f128736b755f0d849a5",
    "run_z": "4637e070ca3cc88d62488392e01e5f8d24b9c30304689c9f5979b45a5aaa0845",
    "run_z_ensemble": "4ad74b1a1d2cae614023e181418b7a92dd5ca9b29d672799887972529595f642",
}


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}[{len(value)}]".encode())
        for item in value:
            _feed(h, item)
    elif is_dataclass(value):
        h.update(type(value).__name__.encode())
        _feed(h, {f.name: getattr(value, f.name) for f in fields(value)})
    else:
        h.update(repr(value).encode())


def _outputs(name: str) -> list:
    if name in _SINGLE:
        runner, start = _SINGLE[name]
        return [
            runner(start, steps, params, seed)
            for params in _PARAMS
            for steps in (0, 1, 7, 300)
            for seed in (0, 11)
        ]
    runner, start = _CHUNKED[name]
    out = [
        runner(start, steps, params, seed, trajectories=100)
        for params in _PARAMS
        for steps in (0, 1, 50)
        for seed in (0, 11)
    ]
    # two chunks, the second 7 wide, run on two threads
    out.append(runner(start, 5, _PARAMS[1], 3, trajectories=16384 + 7, threads=2))
    return out


def _digest(name: str) -> str:
    h = hashlib.sha256()
    _feed(h, _outputs(name))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted({**_SINGLE, **_CHUNKED}))
def test_runner_output_digest(name):
    assert _digest(name) == _EXPECTED[name]


if __name__ == "__main__":
    for runner_name in sorted({**_SINGLE, **_CHUNKED}):
        print(f'    "{runner_name}": "{_digest(runner_name)}",')
