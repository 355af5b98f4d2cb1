"""Exact event-driven simulation of the imitation Markov chain.

Two engines share one law on the complete graph: simulate_complete runs the
population-type jump chain (rates n lambda x_i x_j f_ij), simulate_network
runs per-node activation, contact, and copy on an arbitrary graph.  The
complete-graph loops draw from random.Random(seed), one inverse-CDF
exponential waiting time and one uniform per jump; the network loop draws
numpy blocks from PCG64(seed), ziggurat exponentials included, and handles
each block's activations in one Python pass.  Every run is reproducible
bit for bit.

Every loop takes its copy probabilities from the compiled law (_law); the
m >= 3 complete loop bisects the law's generated cumulative rates
(cum_rates).  This module holds the loops and the reference rate matrix
(_rate_matrix) that transition_rates and potential_drift_rates return and
the tests check the compiled law against.  Every loop records its path
through one _Recorder, which holds at most _CHUNK rows in Python lists.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import pickle
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ._law import _Law, check_probs, pair_tables
from .games import Configuration, Game, PopulationType
from .rules import ImitationRule
from .topology import Graph

__all__ = [
    "SimConfig",
    "Trajectory",
    "DriftRates",
    "RunSpec",
    "transition_rates",
    "simulate_complete",
    "simulate_network",
    "potential_drift_rates",
    "run_one",
    "ensemble",
    "derive_seed",
    "EVENT_RECORD_CAP",
]

# Beyond this many recorded jumps a run switches to stride recording.
EVENT_RECORD_CAP = 10_000_000
# Rows a loop keeps in Python lists before moving them into numpy blocks.
_CHUNK = 16_384
# The network loop draws for 32, 64, ... activations at a time, up to this
# many: larger blocks raised the network workload's peak RSS and ran no
# faster.  The block sizes are part of its random stream, so this does not
# follow _CHUNK, which tests lower to exercise the recorder alone.
_DRAW_CAP = 2_048

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters shared by both engines."""

    lam: float = 1.0
    horizon: float = 100.0
    seed: int = 0
    record_stride: float = 0.1
    stop_on_absorption: bool = True
    # network engine: also record each of the first EVENT_RECORD_CAP type changes
    record_jumps: bool = False

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not (self.record_stride > 0.0):
            raise ValueError(f"record_stride must be positive, got {self.record_stride}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(eq=False)
class Trajectory:
    """Piecewise-constant sample path of the population type.

    The state holds on [times[k], times[k+1]); an absorbed run ends at its
    absorption time and the vertex state holds forever after.
    """

    times: np.ndarray
    counts: np.ndarray  # (T, m) int64, each row sums to n
    n: int
    absorbed_at: float | None
    absorbing_action: int | None
    event_count: int
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return int(self.counts.shape[1])

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.n

    def state(self, idx: int) -> PopulationType:
        return PopulationType(self.counts[idx].copy(), self.n)

    def final_type(self) -> PopulationType:
        return self.state(len(self.times) - 1)


@dataclass(frozen=True)
class DriftRates:
    """Total rates of potential-raising (q_plus) and potential-lowering
    (q_minus) jumps out of a state; reward ties contribute to neither."""

    q_plus: float
    q_minus: float


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary labeled parts (SHA-256)."""
    text = ":".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def transition_rates(game: Game, rule: ImitationRule, state: PopulationType, lam: float = 1.0) -> np.ndarray:
    """Jump-rate matrix: entry (i, j) is the rate of one player moving from
    action i to action j, n * lambda * x_i * x_j * f_ij(x)."""
    if state.m != game.m:
        raise ValueError(f"state has {state.m} actions, game has {game.m}")
    return _rate_matrix(game, rule, state.fractions, state.n, lam)[0]


def _rate_matrix(game: Game, rule: ImitationRule, x: np.ndarray, n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(rates, rewards) at frequency vector x: rates[i, j] is
    n * lambda * x_i * x_j * f_ij with a zero diagonal.  Raises ValueError
    when a copy probability lies outside [0, 1], as every engine does."""
    r = game.rewards_at(x)
    rates = n * lam * np.outer(x, x) * check_probs(rule.prob_matrix(r))
    np.fill_diagonal(rates, 0.0)
    return rates, r


def _meta(engine: str, game: Game, rule: ImitationRule, cfg: SimConfig, n: int, topology: str) -> dict:
    return {
        "engine": engine,
        "game": game.name,
        "rule": type(rule).__name__,
        "lambda": cfg.lam,
        "n": n,
        "seed": cfg.seed,
        "topology": topology,
    }


class _Recorder:
    """The recorded rows of one path, in bounded memory.

    A loop appends to `times` and `rows` through bound `append` methods and
    calls `check(events, t)` once its event count reaches the threshold that
    `check` last returned (`start` before the first call).  `check` moves a
    full chunk of _CHUNK rows into numpy blocks, clearing the lists in place
    so the bound methods stay valid, and at event EVENT_RECORD_CAP switches
    an every-jump path to stride recording: from then on it returns 0, so
    the loop calls it at every recorded row.  The network loop writes its
    stride rows through `stride_rows`, which does the same for a run of
    rows.  Each row is a count vector, or the count of action 0 when m = 2.
    """

    def __init__(self, row0, cfg: SimConfig, every_jump: bool = True) -> None:
        self.times = [0.0]
        self.rows = [row0]
        self.cfg = cfg
        self.every_jump = every_jump
        self.stride_from: float | None = None
        self._cap = EVENT_RECORD_CAP  # read per run: tests lower it
        self._chunk = _CHUNK
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self.start = self._next_check(0)

    def _next_check(self, events: int) -> int:
        room = events + self._chunk - len(self.times)
        return min(self._cap, room) if self.every_jump else 0

    def _flush(self) -> None:
        if self.times:
            self._blocks.append((np.array(self.times), np.array(self.rows, dtype=np.int64)))
            self.times.clear()
            self.rows.clear()

    def check(self, events: int, t: float) -> int:
        if len(self.times) >= self._chunk:
            self._flush()
        if self.every_jump and events >= self._cap:
            self.every_jump = False
            self.stride_from = t
            logger.info(
                "seed %d: recorded every jump up to event %d, stride recording from t=%r", self.cfg.seed, events, t
            )
        return self._next_check(events)

    def stride_rows(self, s: float, until: float, row: list, events: int) -> tuple[float, int]:
        """Append a copy of `row` at each stride time s, s + stride, ... up to
        `until` and before the horizon, as if check(events, time) followed
        each; return the next stride time and check's threshold.  Only the
        first row can switch to stride recording, as `events` is fixed, so
        the rows after it need only the chunk test."""
        stride, horizon, chunk = self.cfg.record_stride, self.cfg.horizon, self._chunk
        times, rows = self.times, self.rows
        if s <= until and s < horizon:
            times.append(s)
            rows.append(row.copy())
            self.check(events, s)
            s += stride
            while s <= until and s < horizon:
                times.append(s)
                rows.append(row.copy())
                if len(times) >= chunk:
                    self._flush()
                s += stride
        return s, self._next_check(events)

    def close(self, final, n: int, absorbed_at: float | None, events: int, meta: dict) -> Trajectory:
        """The Trajectory of a path whose current state is `final`.

        An absorbed path ends with a row at absorbed_at; an unabsorbed one,
        or one that continues after absorption, ends with a row at the
        horizon.
        """
        self._flush()
        last_times, last_rows = self._blocks[-1]
        t_end = last_times[-1]
        if absorbed_at is not None and (t_end != absorbed_at or not np.array_equal(last_rows[-1], final)):
            self.times.append(absorbed_at)
            self.rows.append(final)
            t_end = absorbed_at
        if (absorbed_at is None or not self.cfg.stop_on_absorption) and t_end < self.cfg.horizon:
            self.times.append(self.cfg.horizon)
            self.rows.append(final)
        self._flush()
        times = np.concatenate([b[0] for b in self._blocks]) if len(self._blocks) > 1 else self._blocks[0][0]
        rows = [b[1] for b in self._blocks]
        self._blocks.clear()
        if rows[0].ndim == 1:
            counts = np.empty((times.size, 2), dtype=np.int64)
            np.concatenate(rows, out=counts[:, 0])
            np.subtract(n, counts[:, 0], out=counts[:, 1])
        else:
            counts = np.concatenate(rows) if len(rows) > 1 else rows[0]
        if self.stride_from is not None:
            meta["stride_from"] = self.stride_from
        return Trajectory(
            times=times,
            counts=counts,
            n=n,
            absorbed_at=absorbed_at,
            absorbing_action=int(np.argmax(counts[-1])) if absorbed_at is not None else None,
            event_count=events,
            meta=meta,
        )


def simulate_complete(game: Game, rule: ImitationRule, x0: PopulationType, cfg: SimConfig) -> Trajectory:
    """Exact jump-chain simulation on the complete graph (type space only).

    Every jump is recorded up to EVENT_RECORD_CAP, then recording falls back
    to the configured stride.  Unabsorbed runs get a final sample exactly at
    the horizon so the trajectory covers [0, horizon].
    """
    if x0.m != game.m:
        raise ValueError(f"initial state has {x0.m} actions, game has {game.m}")
    meta = _meta("complete", game, rule, cfg, x0.n, f"complete(n={x0.n})")
    if x0.is_pure():
        return _Recorder(x0.counts, cfg).close(x0.counts, x0.n, 0.0, 0, meta)
    if game.m == 2:
        return _simulate_complete_2action(game, rule, x0, cfg, meta)
    return _simulate_complete_generic(game, rule, x0, cfg, meta)


def _simulate_complete_2action(
    game: Game, rule: ImitationRule, x0: PopulationType, cfg: SimConfig, meta: dict
) -> Trajectory:
    n = x0.n
    lam = cfg.lam
    f01, f10 = pair_tables(game, rule, n)
    ks = np.arange(n + 1, dtype=float)
    base = lam * ks * (n - ks) / n
    up = base * f10  # a 1-player copies action 0: k -> k + 1
    dn = base * f01
    tot_arr = up + dn
    with np.errstate(invalid="ignore", divide="ignore"):
        pup_arr = np.where(tot_arr > 0.0, up / np.where(tot_arr > 0.0, tot_arr, 1.0), 0.0)
    tot = tot_arr.tolist()
    pup = pup_arr.tolist()

    rng = random.Random(cfg.seed)
    rr = rng.random
    log = math.log
    horizon = cfg.horizon
    stride = cfg.record_stride
    t = 0.0
    k = int(x0.counts[0])
    rec = _Recorder(k, cfg)
    append_t, append_k, check = rec.times.append, rec.rows.append, rec.check
    next_check = rec.start
    events = 0
    absorbed_at: float | None = None
    next_rec = 0.0

    while True:
        lam_k = tot[k]
        if lam_k <= 0.0:
            break  # defensive; absorption is handled at the jump below
        t_next = t - log(1.0 - rr()) / lam_k
        if t_next >= horizon:
            t = horizon
            break
        t = t_next
        k = k + 1 if rr() < pup[k] else k - 1
        events += 1
        if t >= next_rec:
            append_t(t)
            append_k(k)
            if events >= next_check:
                next_check = check(events, t)
                if not rec.every_jump:
                    next_rec = t + stride
        if k == 0 or k == n:
            absorbed_at = t
            break

    return rec.close(k, n, absorbed_at, events, meta)


def _simulate_complete_generic(
    game: Game, rule: ImitationRule, x0: PopulationType, cfg: SimConfig, meta: dict
) -> Trajectory:
    n = x0.n
    law = _Law(game, rule, cfg.lam, n)
    cum_rates = law.cum_rates
    pairs = law.pairs
    rng = random.Random(cfg.seed)
    rr = rng.random
    log = math.log
    horizon = cfg.horizon
    stride = cfg.record_stride
    counts = x0.counts.tolist()
    t = 0.0
    rec = _Recorder(counts.copy(), cfg)
    append_t, append_c, check = rec.times.append, rec.rows.append, rec.check
    next_check = rec.start
    events = 0
    absorbed_at: float | None = None
    next_rec = 0.0

    while True:
        cum = cum_rates(counts)
        total = cum[-1]
        if total <= 0.0:
            break
        t_next = t - log(1.0 - rr()) / total
        if t_next >= horizon:
            t = horizon
            break
        t = t_next
        # total is the last cumulative rate, so rr() * total < total picks a
        # pair whose rate is positive
        i, j = pairs[bisect_right(cum, rr() * total)]
        counts[i] -= 1
        counts[j] += 1
        events += 1
        if t >= next_rec:
            append_t(t)
            append_c(counts.copy())
            if events >= next_check:
                next_check = check(events, t)
                if not rec.every_jump:
                    next_rec = t + stride
        if counts[j] == n:
            absorbed_at = t
            break

    return rec.close(counts, n, absorbed_at, events, meta)


def simulate_network(graph: Graph, game: Game, rule: ImitationRule, y0: Configuration, cfg: SimConfig) -> Trajectory:
    """Node-level imitation dynamics on an arbitrary interaction graph.

    Activations arrive at total rate n * lambda; the active node contacts a
    uniform neighbor (uniform over all nodes, itself included, on the
    complete graph) and copies with probability f_ij evaluated at the global
    type.  The type is recorded every record_stride, at each of the first
    EVENT_RECORD_CAP changes when cfg.record_jumps is set, and at absorption.

    Each run draws from np.random.Generator(PCG64(cfg.seed)) in blocks of
    32, 64, ... activations, doubling up to _DRAW_CAP.  A block draws, in
    this order: its standard exponentials; its active nodes u and contacts
    v, as rows 0 and 1 of one integers(0, n, (2, size)) on the complete
    graph, otherwise as integers(0, n, size) and then the uniform neighbour
    flat[off[u] + integers(0, deg[u])]; and its copy uniforms, random().
    numpy's bounded integers depend on how the draws are split into calls,
    so the block sizes are part of the stream.  The clock is one sequential
    sum carried from block to block, equal bit for bit to t += e / (n *
    lambda) per activation.  Python then visits each activation of the
    block once and acts only on copies.  A stride row at s holds the state
    left by the activations before s; it is written before the first copy
    at or after s or at the end of the run.
    """
    if y0.n != graph.n:
        raise ValueError(f"configuration has {y0.n} nodes, graph has {graph.n}")
    if y0.m != game.m:
        raise ValueError(f"configuration has {y0.m} actions, game has {game.m}")
    n = graph.n
    m = game.m
    meta = _meta("network", game, rule, cfg, n, f"{graph.kind}(n={n})")
    counts = np.bincount(y0.actions, minlength=m).tolist()
    if max(counts) == n:
        return _Recorder(counts, cfg).close(counts, n, 0.0, 0, meta)

    law = _Law(game, rule, cfg.lam, n).probs
    F = law(counts)
    y = y0.actions.astype(np.int64).tolist()
    if not graph.is_complete:
        deg = np.array([nb.size for nb in graph.neighbors])
        off = np.cumsum(deg) - deg
        flat = np.concatenate(graph.neighbors)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    horizon = cfg.horizon
    record_jumps = cfg.record_jumps
    total_rate = n * cfg.lam

    t = 0.0
    rec = _Recorder(counts.copy(), cfg, every_jump=record_jumps)
    append_t, append_c, check, stride_rows = rec.times.append, rec.rows.append, rec.check, rec.stride_rows
    next_check = rec.start
    next_rec = cfg.record_stride
    events = 0
    flips = 0
    absorbed_at: float | None = None
    size = 32

    while absorbed_at is None and t < horizon:
        times = rng.standard_exponential(size)
        if graph.is_complete:
            u, v = rng.integers(0, n, (2, size)).tolist()
        else:
            u = rng.integers(0, n, size)
            v = flat[off[u] + rng.integers(0, deg[u])].tolist()
            u = u.tolist()
        copy = rng.random(size).tolist()
        times /= total_rate
        times[0] += t
        np.add.accumulate(times, out=times)
        t = float(times[-1])
        stop = size if t < horizon else int(np.searchsorted(times, horizon))  # activations before the horizon
        clock = memoryview(times)  # reads Python floats
        for k, a, b, c in zip(range(stop), u, v, copy):
            i = y[a]
            j = y[b]
            if i != j and c < F[i][j]:
                s = clock[k]
                if next_rec <= s:  # stride rows fill chunks too
                    next_rec, next_check = stride_rows(next_rec, s, counts, flips)
                y[a] = j
                counts[i] -= 1
                counts[j] += 1
                flips += 1
                F = law(counts)
                if record_jumps:
                    append_t(s)
                    append_c(counts.copy())
                    if flips >= next_check:
                        next_check = check(flips, s)
                        record_jumps = rec.every_jump
                if counts[j] == n:
                    absorbed_at = s
                    stop = k + 1
                    break
        events += stop
        size = min(2 * size, _DRAW_CAP)

    if absorbed_at is None:
        stride_rows(next_rec, horizon, counts, flips)
    meta["flip_count"] = flips
    return rec.close(counts, n, absorbed_at, events, meta)


def potential_drift_rates(game: Game, rule: ImitationRule, state: PopulationType, lam: float = 1.0) -> DriftRates:
    """Split the total jump rate by the sign of the reward difference.

    Moving a player from i to j changes the potential in the direction of
    r_j - r_i, so q_plus collects strictly improving jumps and q_minus
    strictly worsening ones.  Requires a potential game.
    """
    if game.potential is None:
        raise ValueError("potential_drift_rates requires a game with a potential")
    if state.m != game.m:
        raise ValueError(f"state has {state.m} actions, game has {game.m}")
    rates, r = _rate_matrix(game, rule, state.fractions, state.n, lam)
    up = r[None, :] > r[:, None]  # r_j > r_i
    down = r[None, :] < r[:, None]
    return DriftRates(q_plus=float(rates[up].sum()), q_minus=float(rates[down].sum()))


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Everything an ensemble run needs except its seed.

    Provide x0 for the complete-graph type chain, or graph plus target
    init_fractions (placed uniformly at random per run, from the run's own
    seed).  graph is either one Graph shared by every run or a function
    run_seed -> Graph that builds each run's graph.
    """

    game: Game
    rule: ImitationRule
    cfg: SimConfig
    x0: PopulationType | None = None
    graph: Graph | Callable[[int], Graph] | None = None
    init_fractions: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.x0 is not None:
            if self.graph is not None or self.init_fractions is not None:
                raise ValueError("give either x0 (complete engine) or graph-based initial data, not both")
        elif self.graph is None or self.init_fractions is None:
            raise ValueError("network runs need a graph and init_fractions")


def _placement(n: int, m: int, fractions: Sequence[float], seed: int) -> Configuration:
    ptype = PopulationType.from_fractions(n, fractions)
    actions = np.repeat(np.arange(m, dtype=np.int64), ptype.counts).tolist()
    random.Random(seed).shuffle(actions)
    return Configuration(np.asarray(actions, dtype=np.int64), m)


def run_one(spec: RunSpec, seed: int) -> Trajectory:
    """Single run of a RunSpec under an explicit seed."""
    cfg = replace(spec.cfg, seed=seed)
    if spec.x0 is not None:
        return simulate_complete(spec.game, spec.rule, spec.x0, cfg)
    graph = spec.graph if isinstance(spec.graph, Graph) else spec.graph(seed)
    y0 = _placement(graph.n, spec.game.m, spec.init_fractions, derive_seed(seed, "placement"))
    return simulate_network(graph, spec.game, spec.rule, y0, cfg)


def _worker(args: tuple[RunSpec, int]) -> Trajectory:
    return run_one(*args)


def _thread_cap() -> int:
    """IMITODYN_THREADS as a positive worker count (default 1)."""
    raw = os.environ.get("IMITODYN_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"IMITODYN_THREADS: must be a positive integer, got {raw!r}")
    return cap


def ensemble(run_spec: RunSpec, num_runs: int, base_seed: int) -> list[Trajectory]:
    """Independent runs with per-run seeds hash(base_seed, run_index).

    Results are ordered by run index and do not depend on the worker count;
    IMITODYN_THREADS caps the pool (default: run sequentially).
    """
    if num_runs < 1:
        raise ValueError("need at least one run")
    seeds = [derive_seed(base_seed, i) for i in range(num_runs)]
    workers = min(_thread_cap(), num_runs)
    if workers == 1:
        return [run_one(run_spec, s) for s in seeds]
    try:
        pickle.dumps(run_spec)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ValueError(
            f"run spec cannot be sent to worker processes ({exc}); set IMITODYN_THREADS=1 to run sequentially"
        ) from exc
    # imported here: the pool's modules cost about 20 ms of every import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, [(run_spec, s) for s in seeds]))
