"""Artifact writers: trajectory CSV and report JSON.

Both the stochastic engine and the ODE integrator emit the same CSV shape
(header ``t,x_0,...,x_{m-1}``, one row per recorded point) so downstream
tooling treats them interchangeably.  Output is byte-deterministic: floats
print as repr prints them (the shortest decimal that reads back as the same
double), JSON keys are sorted, and no timestamps or hostnames appear
anywhere.

The CSV writer turns each block of _CHUNK rows into one NUL-padded uint8
matrix and writes its non-NUL bytes.  _reprs fills the float cells: it
finds repr's digits for a whole array with numpy (Dekker's exact product
and int64 digit arithmetic) and hands the few values it cannot decide to
repr itself.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

from .engine import _CHUNK, Trajectory

__all__ = [
    "write_trajectory_csv",
    "write_json",
    "run_summary",
    "ensure_dir",
]

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_SUB = 4096  # values _reprs formats at a time, which bounds its temporaries
_SLICE = 1 << 17  # bytes of a block's matrix masked and written at a time
_WIDTH = 24  # bytes in the longest repr of a float, "-2.2250738585072014e-308"
_ZERO = int.from_bytes(b"0.0", "little")
_BYTES = 0x0101010101010101  # one in each byte of a word


def _halves(a):
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


@functools.cache
def _tables() -> dict:
    """Constants of _reprs, indexed by the scale s in x * 10**s, by the
    number of digit bytes kept, or by a group of four digits."""
    s = np.arange(23)
    k = 17 - s  # digits before the decimal point
    p10 = 10.0**s  # exact up to 10**22
    hi, lo = _halves(p10)
    col = np.arange(_WIDTH)

    def words(mask):  # (rows, 24) bytes -> three columns of little-endian words
        return tuple(np.ascontiguousarray(mask, dtype=np.uint8).view("<u8").T.copy())

    point = np.where((k[:, None] >= 1) & (col == k[:, None]), 46, 0)
    lead = (k[:, None] <= 0) & (col < 2 - k[:, None])
    prefix = np.where(lead, np.where(col == 1, 46, 48), point)  # "0.00" or the point
    four = np.arange(10000, dtype=np.uint16)
    digits4 = np.empty((10000, 4), np.uint8)  # ASCII, small dtypes: no large temporaries
    for i, unit in enumerate((1000, 100, 10, 1)):
        digits4[:, i] = four // unit % 10 + 48
    return {
        "p10": p10, "p10_hi": hi, "p10_lo": lo, "half_p10": 0.5 * p10,
        "head": words(255 * (col < k[:, None])),
        "shift": np.where(k >= 1, 8, 8 * (2 - k)).astype(np.uint64),
        "prefix": words(prefix),
        "keep": words(255 * (col < np.arange(19)[:, None])),
        "nonzero": np.array([0x30 * _BYTES, 0x7F * _BYTES, 0x80 * _BYTES], np.uint64),
        "digits4": digits4.view("<u4").ravel().astype(np.uint64),
    }


def _reprs(x: np.ndarray) -> np.ndarray:
    """repr(float(v)) of every v in x as the rows of a NUL-padded uint8
    matrix, as wide as the longest of them."""
    x = np.ascontiguousarray(x, dtype=float).ravel()
    out = np.empty((x.size, 3), np.uint64)
    slow = [_reprs_fast(x[i : i + _SUB], out[i : i + _SUB]) + i for i in range(0, x.size, _SUB)]
    out8 = out.view(np.uint8)
    if slow and (slow := np.concatenate(slow)).size:
        text = b"".join(repr(v).encode().ljust(_WIDTH, b"\0") for v in x[slow].tolist())
        out8[slow] = np.frombuffer(text, np.uint8).reshape(-1, _WIDTH)
    return _trim(out8)


def _trim(cells: np.ndarray) -> np.ndarray:
    """cells without the columns that are NUL in every row."""
    used = np.flatnonzero(cells.max(axis=0, initial=0))
    return cells[:, : used[-1] + 1 if used.size else 0]


def _reprs_fast(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write repr(v) into the three words of each row of out for every v of
    x that has a positional repr, and return the indices of the others.

    With s such that V = v * 10**s lies in [1e16, 1e17), repr's digits are
    those of the integer in V's rounding interval [V - h, V + h] that has
    the most trailing zeros, the one nearest V when several do.  V = hi + lo
    exactly (Dekker's product) and h = 10**s ulp(v) / 2 is 5**s times a
    power of two, so every bound below is exact.  Whether the interval's
    ends count (they do when the mantissa is even) never changes the
    choice here: an end, v +- ulp(v) / 2, has 17 or more significant digits
    and ends in 5, or, for v >= 2**53, is the odd neighbour of an even v
    that is itself the nearest multiple of ten.  0.0 is written as is.  Powers of two (whose interval is
    lopsided), exact ties between two candidates, and the other v outside
    [1e-4, 1e16), where repr turns to exponent form, are left to repr.
    """
    tab = _tables()
    bits = x.view(np.int64)
    fast = (x >= 1e-4) & (x < 1e16) & ((bits & 0xFFFFFFFFFFFFF) != 0)
    if not fast.all():
        x = np.where(fast, x, 1.5)
    s = 16 - np.floor(np.log10(x)).astype(np.intp)
    if s.min() == s.max():  # one scale: scalar constants
        s = int(s[0])
    hi = x * tab["p10"][s]
    xh, xl = _halves(x)
    yh, yl = tab["p10_hi"][s], tab["p10_lo"][s]
    lo = ((xh * yh - hi) + xh * yl + xl * yh) + xl * yl
    half = np.spacing(x) * tab["half_p10"][s]
    # the integers in V's interval: hi + [first, last]
    first = np.ceil(lo - half)
    last = np.floor(lo + half)
    count = (last - first).astype(np.int64) + 1
    hi_int = hi.astype(np.int64)
    top = hi_int + last.astype(np.int64)
    # Round V to the nearest multiple of q = 100, 10 or 1, the largest of
    # them with a multiple among the count <= 23 integers up to top.  A
    # multiple of 100 there is the only one, so it is the integer with the
    # most trailing zeros whichever power of ten it is a multiple of.
    q = 1 + 9 * (top % 10 < count) + 90 * (top % 100 < count)
    floor_lo = np.floor(lo)
    n = hi_int + floor_lo.astype(np.int64)  # V = n + f, f = lo - floor(lo)
    r = n % q
    # V lies r + f above n - r: round up when 2 (r + f) > q, that is when
    # 2 lo > bound, an integer; 2 lo == bound is a tie
    bound = (q - 2 * (r - floor_lo.astype(np.int64))).astype(float)
    c = n - r + q * (lo + lo > bound)
    # the 17 digits of c: d0, then w1 and w2, eight ASCII digits each
    c8 = c // 100000000
    low8 = c - c8 * 100000000
    d0 = c8 // 100000000
    high8 = c8 - d0 * 100000000
    digits4, u8, u32, u56 = tab["digits4"], np.uint64(8), np.uint64(32), np.uint64(56)
    h4, l4 = high8 // 10000, low8 // 10000
    w1 = digits4[h4] | (digits4[high8 - h4 * 10000] << u32)
    w2 = digits4[l4] | (digits4[low8 - l4 * 10000] << u32)
    # p = 1 + the place of the last non-zero digit: the top bit of a word
    # whose bytes hold 128 for each non-zero digit, read from its float
    nonzero = tab["nonzero"]
    e1 = np.frexp(((w1 ^ nonzero[0]) + nonzero[1] & nonzero[2]).astype(float))[1]
    e2 = np.frexp(((w2 ^ nonzero[0]) + nonzero[1] & nonzero[2]).astype(float))[1]
    p = np.where(e2 > 0, 9 + e2 // 8, 1 + e1 // 8)
    # bytes 0..16 of three words, cut after the last significant digit or
    # the first digit after the point
    kept = np.maximum(p, 18 - s)
    keep = tab["keep"]
    s0 = ((d0.astype(np.uint64) + np.uint64(48)) | (w1 << u8)) & keep[0][kept]
    s1 = ((w1 >> u56) | (w2 << u8)) & keep[1][kept]
    s2 = (w2 >> u56) & keep[2][kept]
    # the digits before the point stay, the rest move right past the point
    # (or past "0." and its zeros)
    head, prefix, shift = tab["head"], tab["prefix"], tab["shift"][s]
    h0, h1 = s0 & head[0][s], s1 & head[1][s]
    s0 ^= h0
    s1 ^= h1
    back = np.uint64(64) - shift
    out[:, 0] = prefix[0][s] | h0 | (s0 << shift)
    out[:, 1] = prefix[1][s] | h1 | (s1 << shift) | (s0 >> back)
    out[:, 2] = prefix[2][s] | (s2 << shift) | (s1 >> back)
    out[bits == 0] = (_ZERO, 0, 0)
    tie = lo + lo == bound
    return np.flatnonzero((~fast & (bits != 0)) | (hi <= 1e16) | (hi >= 1e17) | tie)


def write_trajectory_csv(path: str, times: np.ndarray, states: np.ndarray, n: int | None = None) -> None:
    """states has one row per time, one column per action: fractions, or,
    with n, the integer counts of a population of n, written as count / n.

    Both forms give the same bytes for states = counts / n.  Each block of
    _CHUNK rows becomes one NUL-padded byte matrix: the time cells, the
    separators, the state cells and the newlines.  From counts, each x-value
    is a row of a table of the n + 1 cells c / n, formatted once with the
    first block; a path with fewer cells than the table, or a table longer
    than one block's cells, is written from counts / n instead.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float if n is None else np.int64)
    if states.ndim != 2 or states.shape[0] != times.size:
        raise ValueError(f"states shape {states.shape} does not match {times.size} times")
    rows, m = states.shape
    if n is not None:
        if states.size and (states.min() < 0 or np.any(states.sum(axis=1) != n)):
            raise ValueError(f"counts must be non-negative and sum to n = {n} in every row")
    table = None if n is None or n + 1 > m * min(rows, _CHUNK) else np.arange(n + 1) / n
    with open(path, "wb") as fh:
        fh.write(("t," + ",".join(f"x_{j}" for j in range(m)) + "\n").encode())
        for lo in range(0, rows, _CHUNK):
            t, block = times[lo : lo + _CHUNK], states[lo : lo + _CHUNK]
            if table is None:
                cells = _reprs(np.concatenate([t, (block if n is None else block / n).ravel()]))
                x_cells = cells[t.size :].reshape(t.size, m, cells.shape[1])
            else:
                if table.dtype == float:  # the first block formats the table too
                    cells = _reprs(np.concatenate([t, table]))
                    table = np.ascontiguousarray(_trim(cells[t.size :]))
                else:
                    cells = _reprs(t)
                x_cells = None
            t_cells = _trim(cells[: t.size])
            wt, wx = t_cells.shape[1], (table if x_cells is None else x_cells).shape[-1]
            # t "," x_0 "," ... x_{m-1} "\n", each cell NUL-padded
            mat = np.zeros((t.size, wt + 1 + m * (wx + 1) + (not m)), np.uint8)
            mat[:, :wt] = t_cells
            mat[:, wt] = 44
            for j in range(m):
                at = wt + 1 + j * (wx + 1)
                mat[:, at : at + wx] = table[block[:, j]] if x_cells is None else x_cells[:, j]
                mat[:, at + wx] = 44
            mat[:, -1] = 10
            cells = t_cells = x_cells = None
            step = max(1, _SLICE // mat.shape[1])
            for r in range(0, t.size, step):  # bounded masks and copies
                part = mat[r : r + step]
                fh.write(part[part != 0])


def write_json(path: str, obj) -> None:
    """Serialise obj before the file is opened, so a value that does not
    serialise (NaN, a numpy scalar) raises without touching path."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


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
