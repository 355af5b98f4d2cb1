"""Exact event-driven simulation of the imitation Markov chain.

Two engines share one law on the complete graph: simulate_complete runs the
population-type jump chain (rates n lambda x_i x_j f_ij), simulate_network
runs per-node activation, contact, and copy on an arbitrary graph.  Both
loops have one shape at every m: draw a block, walk its events in one
Python pass, turn its waiting times into times with one clock (_clock) and
hand its rows to one recorder (_Recorder).  The complete loop draws from
random.Random(seed), one inverse-CDF exponential waiting time and one
uniform per jump, in numpy blocks (_uniforms); the network loop draws
numpy blocks from PCG64(seed), ziggurat exponentials included.  Every run
is reproducible bit for bit.

Every loop takes its copy probabilities from the compiled law (_law) of
its (game, rule) pair, which rejects any pair it has no law for before a
loop draws, a pure start included: the complete loop walks the law's jump
chain (jump_path) and the network loop reads its probs.  A pure start
takes no special exit: the complete loop stops at its rate 0 and closes the
path as absorbed at t = 0, and the network loop starts absorbed.  The runs
of one spec share one law through a one-entry cache (_shared_law).  This
module holds the loops and the rate matrix (_rate_matrix) that
potential_drift_rates splits and the tests check the compiled law against.
A recorded row is the first m - 1 counts of a state: the complete loop
hands the recorder its jumps, the network loop its grid and flip rows.

An ensemble is a stream (_runs): it makes its runs in run order, one at a
time or a few per worker in flight, and keeps none it has handed on, so a
consumer that drops each run holds one run's path at a time.  ensemble
lists it.  The CLI consumes the stream: simulate writes each run's CSV as it
arrives, so a run that fails leaves the CSVs of the runs before it and no
summary.json.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import os
import pickle
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from ._law import _Law, check_probs
from .games import Configuration, Game, PopulationType
from .rules import ImitationRule
from .topology import Graph

__all__ = [
    "SimConfig",
    "Trajectory",
    "DriftRates",
    "RunSpec",
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
# Rows in one recorder buffer, and at most in one hand-over of the network
# loop.
_CHUNK = 16_384
# The network loop draws for 32, 64, ... activations at a time, up to this
# many, and the complete loop for at most this many jumps: larger
# blocks raised peak memory and ran no faster.  The network loop's block
# sizes are part of its random stream, so this does not follow _CHUNK,
# which tests lower to exercise the recorder alone.
_DRAW_CAP = 2_048

logger = logging.getLogger(__name__)

_NO_ROWS = (np.empty(0), np.empty(0, dtype=np.int64))  # a full buffer of size 0


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

    Rows reach the recorder as numpy arrays through `_put`, which copies them
    into numpy buffers of at most _CHUNK rows.  The complete loop hands over
    each draw block's jumps through `jumps`, which applies the every-jump ->
    stride cap rule on top of `_put`.  The network loop hands `_put` each
    draw block's grid and flip rows, at most _CHUNK of them at a time, and
    calls `switch` at its EVENT_RECORD_CAP-th flip.  Each row holds the
    first m - 1 counts of a state; `close` adds the last, n less the others.
    """

    def __init__(self, row0, cfg: SimConfig, every_jump: bool = True) -> None:
        self.cfg = cfg
        self.every_jump = every_jump
        self.stride_from: float | None = None
        self.cap = EVENT_RECORD_CAP  # read per run: tests lower it
        self._chunk = _CHUNK
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._buf = _NO_ROWS
        self._fill = 0
        self._buf_rows = 128
        self._next_rec = 0.0
        self._put(np.zeros(1), np.array([row0], dtype=np.int64))

    def switch(self, events: int, t: float) -> None:
        """Stop recording every jump after event `events`, at time t: the one
        switch of the cap rule, for both loops."""
        self.every_jump = False
        self.stride_from = t
        logger.info("seed %d: recorded every jump up to event %d, stride recording from t=%r", self.cfg.seed, events, t)

    def jumps(self, times: np.ndarray, rows: np.ndarray, events: int) -> None:
        """Record jumps events + 1, events + 2, ... at `times`, to `rows`:
        every jump up to event EVENT_RECORD_CAP, then the first jump at or
        after the last recorded one's time plus the stride."""
        if not times.size:
            return
        if self.every_jump:
            keep = min(times.size, max(self.cap - events, 1))
            self._put(times[:keep], rows[:keep])
            if events + keep < self.cap:
                return
            self.switch(events + keep, float(times[keep - 1]))
            self._next_rec = float(times[keep - 1]) + self.cfg.record_stride
            times, rows = times[keep:], rows[keep:]
        picked = []
        i = int(np.searchsorted(times, self._next_rec))
        while i < times.size:
            picked.append(i)
            self._next_rec = float(times[i]) + self.cfg.record_stride
            i = max(i + 1, int(np.searchsorted(times, self._next_rec)))
        self._put(times[picked], rows[picked])

    def _put(self, times: np.ndarray, rows: np.ndarray) -> None:
        """Copy numpy rows into buffers of 256, 512, ... rows, up to _CHUNK;
        each full buffer becomes one block.  Short runs allocate little, and
        no draw block's arrays outlive it."""
        done = 0
        while done < times.size:
            tb, rb = self._buf
            if self._fill == tb.size:
                self._flush()
                self._buf_rows = min(self._chunk, 2 * self._buf_rows)
                tb, rb = self._buf = np.empty(self._buf_rows), np.empty((self._buf_rows, *rows.shape[1:]), np.int64)
            take = min(times.size - done, tb.size - self._fill)
            end = self._fill + take
            tb[self._fill : end] = times[done : done + take]
            rb[self._fill : end] = rows[done : done + take]
            self._fill = end
            done += take

    def _flush(self) -> None:
        if self._fill:
            tb, rb = self._buf
            self._blocks.append((tb[: self._fill], rb[: self._fill]))
            self._buf = _NO_ROWS
            self._fill = 0

    def close(self, final, n: int, absorbed_at: float | None, events: int, meta: dict) -> Trajectory:
        """The Trajectory of a path whose current state's first m - 1
        counts are `final`.

        An absorbed path ends with a row at absorbed_at; an unabsorbed one,
        or one that continues after absorption, ends with a row at the
        horizon.
        """
        tb, rb = self._buf  # _put leaves the last row in the buffer
        t_end, last = tb[self._fill - 1], rb[self._fill - 1]
        times = []
        if absorbed_at is not None and (t_end != absorbed_at or (last != final).any()):
            times.append(absorbed_at)
            t_end = absorbed_at
        if (absorbed_at is None or not self.cfg.stop_on_absorption) and t_end < self.cfg.horizon:
            times.append(self.cfg.horizon)
        if times:
            self._put(np.array(times), np.array([final] * len(times), dtype=np.int64))
        self._flush()
        times = np.concatenate([b[0] for b in self._blocks])
        rows = [b[1] for b in self._blocks]
        self._blocks.clear()  # frees the time blocks before counts is made
        counts = np.empty((times.size, rb.shape[1] + 1), dtype=np.int64)
        np.concatenate(rows, out=counts[:, :-1])
        last = counts[:, -1]  # n less the other counts, summed in place
        np.add.reduce(counts[:, :-1], axis=1, out=last)
        np.subtract(n, last, out=last)
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

    Each jump takes two values of random.Random(cfg.seed).random(): its
    waiting time -log(1 - u) / rate, then its direction.  The values come in
    blocks, 2 * size of them from one getrandbits call, viewed as (size, 2)
    rows and read in place: the law walks the state over a memoryview of
    the directions column (jump_path), and _clock turns math.log mapped
    over 1 - u, for the jumps taken, into the jump times.  The jumps before
    the horizon go to the recorder in one call, and a block either is used
    up or ends the run, so the block sizes do not change the stream.
    """
    if x0.m != game.m:
        raise ValueError(f"initial state has {x0.m} actions, game has {game.m}")
    n = x0.n
    meta = _meta("complete", game, rule, cfg, n, f"complete(n={n})")
    law = _shared_law(game, rule, cfg.lam, n)
    counts = x0.counts.tolist()
    path, _, rate = law.jump_path(counts, [])

    rng = random.Random(cfg.seed)
    horizon = cfg.horizon
    t = 0.0
    rec = _Recorder(path[0], cfg)
    events = jumps = stop = 0

    while rate > 0.0:
        # Four fifths of the jumps expected before the horizon at this
        # state's rate, plus a margin: walking past the horizon costs more
        # than one more block.
        left = (horizon - t) * rate
        size = int(min(_DRAW_CAP, 0.8 * left + math.sqrt(left) + 8.0))
        draws = _uniforms(rng, 2 * size).reshape(size, 2)  # (time, direction) for each jump
        path, neg_rates, rate = law.jump_path(counts, memoryview(draws[:, 1]))
        jumps = path.shape[0] - 1
        times = np.fromiter(map(math.log, memoryview(1.0 - draws[:jumps, 0])), float, jumps)
        stop = _clock(times, neg_rates, t, horizon)
        rec.jumps(times[:stop], path[1 : stop + 1], events)
        events += stop
        if stop < jumps:
            break
        t = float(times[-1])

    # nothing leaves the last state of an uncut block: absorbed at a vertex, or stalled
    absorbed = stop == jumps and max(counts) == n
    return rec.close(path[stop], n, t if absorbed else None, events, meta)


def _clock(times: np.ndarray, rates, t: float, horizon: float) -> int:
    """Turn one draw block's waiting times into event times in place, each
    divided by its rate and summed from t by one np.add.accumulate, equal
    bit for bit to one event at a time; return how many lie before the
    horizon."""
    times /= rates
    times[0] += t
    np.add.accumulate(times, out=times)
    return times.size if times[-1] < horizon else int(np.searchsorted(times, horizon))


def _uniforms(rng: random.Random, count: int) -> np.ndarray:
    """The next `count` values of rng.random(), drawn at once: random()
    joins two 32-bit words a, b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53,
    and getrandbits returns the same words, first word lowest."""
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


@functools.lru_cache(maxsize=1)
def _shared_law(game: Game, rule: ImitationRule, lam: float, n: int) -> _Law:
    """_Law(game, rule, lam, n), cached for the next call: the runs of one
    spec share it.  Games and rules hash by identity, so a law is only ever
    reused for the objects it was built from; the cache holds them alive
    until the next spec.  The replicator's clamp debug line, written while a
    law is built or its m = 2 pair tables, comes once per spec."""
    return _Law(game, rule, lam, n)


def simulate_network(graph: Graph, game: Game, rule: ImitationRule, y0: Configuration, cfg: SimConfig) -> Trajectory:
    """Node-level imitation dynamics on an arbitrary interaction graph.

    Activations arrive at total rate n * lambda; the active node contacts a
    uniform neighbor (uniform over all nodes, itself included, on the
    complete graph) and copies with probability f_ij evaluated at the global
    type.  The type is recorded every record_stride, at each of the first
    EVENT_RECORD_CAP changes when cfg.record_jumps is set, and at absorption.

    Each run draws from np.random.Generator(PCG64(cfg.seed)) in blocks of
    32, 64, ... activations, doubling up to _DRAW_CAP.  A block draws, in
    this order: its standard exponentials; its active nodes and their
    contacts (Graph._contacts); and its copy uniforms, random().  numpy's
    bounded integers depend on how the draws are split into calls, so the
    block sizes are part of the stream.  The clock (_clock) is one
    sequential sum carried from block to block, equal bit for bit to
    t += e / (n * lambda) per activation.  Python then visits each
    activation of the block once, reading the block's arrays in place
    through memoryviews, and acts only on copies; it reads an activation's
    copy uniform only when y[u] != y[v].  A grid row at
    s = stride, 2 stride, ... holds the state left by the activations
    before s: the first copy at or after s adds it before its own row, and
    the end of the run adds the rest.  A block's rows go to the recorder as
    arrays at its end, or once _CHUNK of them have gathered.
    """
    if y0.n != graph.n:
        raise ValueError(f"configuration has {y0.n} nodes, graph has {graph.n}")
    if y0.m != game.m:
        raise ValueError(f"configuration has {y0.m} actions, game has {game.m}")
    n = graph.n
    meta = _meta("network", game, rule, cfg, n, f"{graph.kind}(n={n})")
    counts = np.bincount(y0.actions, minlength=game.m).tolist()
    law = _shared_law(game, rule, cfg.lam, n).probs
    F = law(counts)
    y = y0.actions.astype(np.int64).tolist()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    horizon = cfg.horizon
    record_jumps = cfg.record_jumps
    total_rate = n * cfg.lam

    t = 0.0
    rec = _Recorder(counts[:-1], cfg, every_jump=record_jumps)
    cap, chunk, stride = rec.cap, _CHUNK, cfg.record_stride
    next_rec = stride
    ts: list[float] = []  # grid and flip rows not yet handed to rec
    rows: list[list[int]] = []
    append_t, append_r = ts.append, rows.append

    def give() -> None:
        if ts:
            rec._put(np.array(ts), np.array(rows, dtype=np.int64))
            ts.clear()
            rows.clear()

    events = 0
    flips = 0
    absorbed_at: float | None = 0.0 if max(counts) == n else None  # a consensus start is absorbed
    size = 32

    while absorbed_at is None and t < horizon:
        times = rng.standard_exponential(size)
        u, v = graph._contacts(rng, size)
        copy = memoryview(rng.random(size))  # read only where y[u] != y[v]
        stop = _clock(times, total_rate, t, horizon)
        t = float(times[-1])
        clock = memoryview(times)  # reads Python floats
        for k, a, b in zip(range(stop), u, v):
            i = y[a]
            j = y[b]
            if i != j and copy[k] < F[i][j]:
                s = clock[k]
                if next_rec <= s:  # grid rows up to s hold the state this flip leaves
                    row = counts[:-1]
                    while next_rec <= s:
                        append_t(next_rec)
                        append_r(row)
                        next_rec += stride
                        if len(ts) >= chunk:
                            give()
                y[a] = j
                counts[i] -= 1
                counts[j] += 1
                flips += 1
                F = law(counts)
                if record_jumps:
                    append_t(s)
                    append_r(counts[:-1])
                    if len(ts) >= chunk:
                        give()
                    if flips >= cap:
                        rec.switch(flips, s)
                        record_jumps = False
                if counts[j] == n:
                    absorbed_at = s
                    stop = k + 1
                    break
        give()
        events += stop
        size = min(2 * size, _DRAW_CAP)

    if absorbed_at is None:
        row = counts[:-1]
        while next_rec < horizon:
            append_t(next_rec)
            append_r(row)
            next_rec += stride
            if len(ts) >= chunk:
                give()
        give()
    meta["flip_count"] = flips
    return rec.close(counts[:-1], n, absorbed_at, events, meta)


def potential_drift_rates(game: Game, rule: ImitationRule, state: PopulationType, lam: float = 1.0) -> DriftRates:
    """Split the total jump rate by the sign of the reward difference.

    Moving a player from i to j changes the potential in the direction of
    r_j - r_i, so q_plus collects strictly improving jumps and q_minus
    strictly worsening ones.  Every game is a congestion game, a potential
    game, so these are the jumps that raise and lower its potential.
    """
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


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Runs a pool keeps in flight per worker: enough to keep every worker busy,
# few enough that the finished runs waiting for their turn stay few.
_IN_FLIGHT = 2


def _runs(run_spec: RunSpec, num_runs: int, base_seed: int) -> Iterator[Trajectory]:
    """The runs of `ensemble`, yielded one at a time in run order.

    Sequentially each run is made when the caller asks for it.  A pool
    has min(IMITODYN_THREADS, CPUs available, num_runs) workers, keeps at
    most _IN_FLIGHT runs per worker submitted and yields them in run
    order, so neither the results nor their order depend on the worker
    count.  The generator keeps no run it has yielded, and closing it early
    cancels the runs not yet started and shuts the pool down.
    """
    if num_runs < 1:
        raise ValueError("need at least one run")
    seeds = (derive_seed(base_seed, i) for i in range(num_runs))
    # the fork start method launches every worker at the first submit
    workers = min(_thread_cap(), _cpus(), num_runs)
    if workers == 1:
        for s in seeds:
            yield run_one(run_spec, s)
        return
    try:
        pickle.dumps(run_spec)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ValueError(
            f"run spec cannot be sent to worker processes ({exc}); set IMITODYN_THREADS=1 to run sequentially"
        ) from exc
    # imported here: the pool's modules cost about 20 ms of every import
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    pending = []  # submitted runs, in run order
    try:
        for s in seeds:
            pending.append(pool.submit(run_one, run_spec, s))
            if len(pending) == _IN_FLIGHT * workers:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


def ensemble(run_spec: RunSpec, num_runs: int, base_seed: int) -> list[Trajectory]:
    """Independent runs with per-run seeds hash(base_seed, run_index).

    Results are ordered by run index and do not depend on the worker count;
    IMITODYN_THREADS caps the pool (default: run sequentially), as do
    the CPUs available.
    """
    return list(_runs(run_spec, num_runs, base_seed))
