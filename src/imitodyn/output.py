"""Artifact writers: trajectory CSV and report JSON.

Both the stochastic engine and the ODE integrator emit the same CSV shape
(header ``t,x_0,...,x_{m-1}``, one row per recorded point) so downstream
tooling treats them interchangeably.  Output is byte-deterministic: floats
print with repr (shortest round-trip form), JSON keys are sorted, and no
timestamps or hostnames appear anywhere.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .engine import _CHUNK, Trajectory

__all__ = [
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_json",
    "run_summary",
    "ensure_dir",
]


def write_trajectory_csv(path: str, times: np.ndarray, states: np.ndarray, n: int | None = None) -> None:
    """states has one row per time, one column per action: fractions, or,
    with n, the integer counts of a population of n, written as count / n.

    Both forms give the same bytes for states = counts / n.  From counts
    each x-value is one of n + 1 cached repr strings (one "x_0,x_1" tail per
    count when m = 2), so only the time takes a fresh repr per row.  A path
    with no more cells than the cache would take reprs to build is written
    from counts / n instead.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float if n is None else np.int64)
    if states.ndim != 2 or states.shape[0] != times.size:
        raise ValueError(f"states shape {states.shape} does not match {times.size} times")
    m = states.shape[1]
    if n is not None:
        if states.size and (states.min() < 0 or np.any(states.sum(axis=1) != n)):
            raise ValueError(f"counts must be non-negative and sum to n = {n} in every row")
        if times.size * m <= (n + 1) * (2 if m == 2 else 1):
            states, n = states / n, None
    if n is not None and m == 2:
        x = np.arange(n + 1) / n
        cache = [f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), x[::-1].tolist())]

        def tails(block: np.ndarray) -> list[str]:
            return [cache[c] for c in block[:, 0].tolist()]
    else:
        cell = repr if n is None else list(map(repr, (np.arange(n + 1) / n).tolist())).__getitem__

        def tails(block: np.ndarray) -> list[str]:
            return [",".join(map(cell, row)) + "\n" for row in block.tolist()]

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x_{j}" for j in range(m)) + "\n")
        for lo in range(0, times.size, _CHUNK):
            hi = lo + _CHUNK
            fh.writelines([f"{t!r},{tail}" for t, tail in zip(times[lo:hi].tolist(), tails(states[lo:hi]))])


def read_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
    data = np.atleast_2d(data)
    return data[:, 0], data[:, 1:]


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    raise TypeError(f"cannot serialize {type(v).__name__}")


def run_summary(traj: Trajectory) -> dict:
    """Per-run summary record for the ensemble summary file: flip_count
    (network runs) and stride_from (runs that stopped recording every jump)
    only when the run's meta holds them."""
    record = {
        "seed": _jsonable(traj.meta.get("seed")),
        "n": traj.n,
        "absorbed_at": traj.absorbed_at,
        "absorbing_action": traj.absorbing_action,
        "final_state": (traj.counts[-1] / traj.n).tolist(),
        "event_count": traj.event_count,
    }
    for key in ("flip_count", "stride_from"):
        if key in traj.meta:
            record[key] = _jsonable(traj.meta[key])
    return record


def ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
