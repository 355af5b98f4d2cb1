"""Experiment configuration: one JSON file drives every subcommand.

Schema (defaults in parentheses):

    {
      "game":     {"type": "builtin", "name": "example4"}
                  | {"type": "congestion", "polynomials": [[c0, c1, ...], ...]},
      "rule":     {"type": "arctan", "K": 1.0 or [[...], ...]}
                  | {"type": "replicator", "eps_margin": 1e-6, "bounds": [lo, hi]?},
      "topology": {"type": "complete"}                              (complete)
                  | {"type": "er", "p": 0.05, "seed": 7?}
                  | {"type": "lattice", "side": 50, "periodic": true}
                  | {"type": "file", "path": "edges.txt"},
      "sim":      {"n": 2500, "lambda": 1.0, "horizon": 100.0,
                   "record_stride": 0.1, "stop_on_absorption": true},
      "init":     {"fractions": [0.3, 0.7]},
      "ensemble": {"runs": 4, "base_seed": 0}                       (4, 0)
      "analysis": {"gammas": [0.05], "deltas": [0.1], "ode_dt": 0.01,
                   "ode_horizon": sim.horizon, "limit_tol": 1e-8,
                   "n_sweep": [sim.n]},
      "output":   {"dir": "out"}                                    ("out")
    }

Replicator bounds default to reward_bounds over the game.  "sim" is one
SimConfig for every run.  An "er" topology with a "seed" is built once per
population size and shared by its runs; without one, each run builds its
own from the run seed.  A "file" edge list is read once, at load, and its
node count checked against sim.n.

Every JSON number goes through one reader, _value, which rejects booleans,
Infinity, NaN and integers too large for a float, and checks these bounds:
population sizes (sim.n, analysis.n_sweep) 2 .. 2**53, no smaller than the
number of positive initial fractions (each gets a player), and no larger than
the law tables of one run fit in _LAW_BUDGET = 1 GiB (n <= 7,158,278 at
m = 2 on the complete graph, n <= 3,067,833 and a lattice side <= 1,751 at
m = 2 on a network, n <= 4,473,924 at m = 3); ensemble.runs 1 .. MAX_RUNS =
10**6; seeds (ensemble.base_seed, topology.seed, --seed) 0 .. 2**64 - 1;
at most 10**7 RK4 steps of analysis.ode_dt up to max(sim.horizon,
analysis.ode_horizon); and at most 10**7 stride rows, sim.horizon /
sim.record_stride.  Validation failures raise
ConfigError with a JSON-path anchor; the CLI maps them to exit code 2.
Keys a section does not list are ignored, so a config that still sets the
retired analysis.grid or analysis.starts loads unchanged.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .engine import SimConfig, derive_seed
from .games import Game, example4_game, make_congestion_game, reward_bounds
from .rules import ArctanRule, ImitationRule, ReplicatorRule
# complete is unused here, but perfbench/tracer.py wraps it by name.
from .topology import Graph, complete, erdos_renyi, from_edge_list, square_lattice  # noqa: F401

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

_SIMPLEX_SLACK = 1e-6  # initial fractions may be off the simplex by this much
# Largest population size: every count converts to float64 exactly, so each
# x = c / n is the correctly rounded quotient.
_MAX_N = 2**53
# Largest ensemble.  Runs stream one at a time, but a subcommand keeps up to
# 6.3 KB a run (see cli), so this bounds the runs, not the memory.
MAX_RUNS = 10**6
# Most bytes the law of one run's population size may take while it is
# built (_law: per-count tables, so O(n)).  _law_bytes is that peak per
# count, from the growth of ru_maxrss while a law was built at n = 10**5 to
# 4 * 10**5, rounded up: 146-150 B for the m = 2 walk of the complete loop,
# 347-350 B for the m = 2 probs rows of the network loop, and at m >= 3 at
# most 8 m (m + 2) + 120 B, an upper bound under both rules at m = 3..16
# (the replicator law's traced peak is 144 / 384 / 768 B at m = 3 / 8 / 16,
# n = 20,000).
_LAW_BUDGET = 2**30
# Seeds are 64-bit.
_MAX_SEED = 2**64 - 1
# Most RK4 steps in a flow to max(sim.horizon, analysis.ode_horizon), and
# most sim.record_stride rows up to sim.horizon: the flow keeps every step,
# (m + 1) floats a step, and a network run, or a complete one past
# EVENT_RECORD_CAP jumps, keeps every stride row.
_MAX_FLOW_STEPS = 10**7


def _law_bytes(m: int, complete: bool) -> int:
    if m == 2:
        return 150 if complete else 350
    return 8 * m * (m + 2) + 120


def _law_n(v: int, at: str, per_count: int) -> int:
    """v, a population size whose law fits _LAW_BUDGET at per_count bytes
    per count."""
    if v * per_count > _LAW_BUDGET:
        size, cap = v * per_count >> 20, _LAW_BUDGET // per_count
        _fail(at, f"law tables of about {size} MiB exceed the {_LAW_BUDGET >> 20} MiB budget (n <= {cap})")
    return v


class ConfigError(ValueError):
    """Invalid experiment config; message carries a JSON-path anchor."""


def _fail(path: str, msg: str) -> None:
    raise ConfigError(f"{path}: {msg}")


def _section(raw: dict, key: str, required: bool) -> dict:
    if key not in raw:
        if required:
            _fail(f"$.{key}", "missing required section")
        return {}
    val = raw[key]
    if not isinstance(val, dict):
        _fail(f"$.{key}", f"must be an object, got {type(val).__name__}")
    return val


def _show(v: int | float) -> str:
    """v for a message, a long integer cut to its first digits and length."""
    s = str(v)
    return s if len(s) <= 24 else f"{s[:6]}...({len(s)} digits)"


def _value(v, at: str, lo=None, hi=None, integer=False, positive=False):
    """The one check of a JSON number: an int when integer, else a finite
    float, within [lo, hi] and above 0 when positive.  json reads Infinity,
    NaN and integers of any size."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(at, f"must be a number, got {type(v).__name__}")
    if isinstance(v, float) and not math.isfinite(v):
        _fail(at, f"must be finite, got {v}")
    if integer:
        if isinstance(v, float) and not v.is_integer():
            _fail(at, f"must be an integer, got {v}")
        v = int(v)
    else:
        try:
            v = float(v)
        except OverflowError:
            _fail(at, "must be finite, got an integer too large for a float")
    if positive and v <= 0:
        _fail(at, f"must be positive, got {_show(v)}")
    if lo is not None and v < lo:
        _fail(at, f"must be >= {lo}, got {_show(v)}")
    if hi is not None and v > hi:
        _fail(at, f"must be <= {hi}, got {_show(v)}")
    return v


def _number(d: dict, key: str, path: str, default=None, **bounds):
    if key not in d:
        if default is None:
            _fail(f"{path}.{key}", "missing required field")
        return default
    return _value(d[key], f"{path}.{key}", **bounds)


def _bool(d: dict, key: str, path: str, default: bool) -> bool:
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, bool):
        _fail(f"{path}.{key}", f"must be true or false, got {v!r}")
    return v


def _number_list(d: dict, key: str, path: str, default=None, **bounds) -> list:
    if key not in d:
        if default is None:
            _fail(f"{path}.{key}", "missing required field")
        return default
    v = d[key]
    if not isinstance(v, list) or not v:
        _fail(f"{path}.{key}", "must be a non-empty array of numbers")
    return [_value(item, f"{path}.{key}[{i}]", **bounds) for i, item in enumerate(v)]


def _build_game(spec: dict) -> Game:
    kind = spec.get("type")
    if kind == "builtin":
        name = spec.get("name")
        if name != "example4":
            _fail("$.game.name", f"unknown builtin {name!r}; available: example4")
        return example4_game()
    if kind == "congestion":
        polys = spec.get("polynomials")
        if not isinstance(polys, list) or len(polys) < 2:
            _fail("$.game.polynomials", "must be an array of >= 2 coefficient arrays")
        coeffs = []
        for j, p in enumerate(polys):
            if not isinstance(p, list) or not p:
                _fail(f"$.game.polynomials[{j}]", "must be a non-empty coefficient array")
            coeffs.append(tuple(_value(c, f"$.game.polynomials[{j}][{i}]") for i, c in enumerate(p)))
        return make_congestion_game(coeffs, name="config")
    _fail("$.game.type", f"must be 'builtin' or 'congestion', got {kind!r}")


def _build_rule(spec: dict, game: Game) -> ImitationRule:
    kind = spec.get("type")
    if kind == "arctan":
        K = spec.get("K", 1.0)
        if not isinstance(K, list):
            return ArctanRule(K=_value(K, "$.rule.K", positive=True))
        m = game.m
        if len(K) != m or any(not isinstance(row, list) or len(row) != m for row in K):
            _fail("$.rule.K", f"matrix must be {m}x{m} to match the game")
        gains = [
            [_value(v, f"$.rule.K[{i}][{j}]", positive=True) for j, v in enumerate(row)] for i, row in enumerate(K)
        ]
        return ArctanRule(K=np.array(gains))
    if kind == "replicator":
        eps = _number(spec, "eps_margin", "$.rule", default=1e-6, lo=0.0)
        if eps >= 0.5:
            _fail("$.rule.eps_margin", f"must be < 0.5, got {eps}")
        if "bounds" in spec:
            bounds = _number_list(spec, "bounds", "$.rule")
            if len(bounds) != 2:
                _fail("$.rule.bounds", f"must be two numbers [lo, hi], got {len(bounds)}")
            lo, hi = bounds
        else:
            lo, hi = reward_bounds(game)
        if not (lo < hi):
            _fail("$.rule.bounds", f"need lo < hi, got [{lo}, {hi}]")
        return ReplicatorRule(r_lo=lo, r_hi=hi, eps_margin=eps)
    _fail("$.rule.type", f"must be 'arctan' or 'replicator', got {kind!r}")


def _er_graph(n: int, p: float, run_seed: int) -> Graph:
    """The Erdos-Renyi graph of one run when the topology has no seed."""
    return erdos_renyi(n, p, seed=derive_seed(run_seed, "graph"))


def _topology(spec: dict, n: int, sizes: tuple[int, ...], per_count: int) -> Callable:
    """The checked topology's size -> RunSpec.graph function, the
    ExperimentConfig.graph field: the one dispatch over topology kinds.
    Only an edge list is read here; the other kinds build when called."""
    kind = spec.get("type", "complete")
    if kind in ("lattice", "file") and any(v != n for v in sizes):
        _fail("$.analysis.n_sweep", f"a {kind} topology fixes n = {n}")
    if kind == "complete":
        return lambda size: None
    if kind == "er":
        p = _number(spec, "p", "$.topology", lo=0.0, hi=1.0)
        if "seed" not in spec:
            return lambda size: functools.partial(_er_graph, size, p)
        seed = _number(spec, "seed", "$.topology", integer=True, lo=0, hi=_MAX_SEED)
        return lambda size: erdos_renyi(size, p, seed=seed)
    if kind == "lattice":
        side = _number(spec, "side", "$.topology", integer=True, lo=2, hi=math.isqrt(_LAW_BUDGET // per_count))
        if side * side != n:
            _fail("$.topology.side", f"side^2 = {side * side} disagrees with sim.n = {n}")
        periodic = _bool(spec, "periodic", "$.topology", True)
        return lambda size: square_lattice(side, periodic)
    if kind == "file":
        path = spec.get("path")
        if not isinstance(path, str) or not path:
            _fail("$.topology.path", "must be a file path string")
        try:
            graph = from_edge_list(path)
        except (OSError, ValueError) as exc:
            _fail("$.topology.path", str(exc))
        if graph.n != n:
            _fail("$.topology.path", f"edge list has {graph.n} nodes, sim.n = {n}")
        return lambda size: graph
    _fail("$.topology.type", f"must be one of complete|er|lattice|file, got {kind!r}")


@dataclass
class ExperimentConfig:
    """Parsed, cross-checked experiment description.

    sim is the SimConfig of every run.  graph(n) is RunSpec.graph for the
    runs of size n: None on the complete graph, a picklable
    run_seed -> Graph for an Erdos-Renyi graph without a seed, else one
    Graph that those runs share: the edge list read at load, or a lattice
    or seeded graph that the call builds."""

    game: Game
    rule: ImitationRule
    graph: Callable[[int], Graph | Callable[[int], Graph] | None] = field(repr=False, compare=False)
    sim: SimConfig
    n: int
    init_fractions: np.ndarray
    runs: int
    base_seed: int
    gammas: tuple[float, ...]
    deltas: tuple[float, ...]
    ode_dt: float
    ode_horizon: float
    limit_tol: float
    n_sweep: tuple[int, ...]
    out_dir: str
    raw: dict = field(repr=False, default_factory=dict)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file.  Raises ConfigError on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than int's string conversion limit
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("$: config must be a JSON object")

    game = _build_game(_section(raw, "game", required=True))
    rule = _build_rule(_section(raw, "rule", required=True), game)

    topo = _section(raw, "topology", required=False) or {"type": "complete"}
    per_count = _law_bytes(game.m, topo.get("type", "complete") == "complete")
    sim = _section(raw, "sim", required=True)
    n = _law_n(_number(sim, "n", "$.sim", integer=True, lo=2, hi=_MAX_N), "$.sim.n", per_count)
    lam = _number(sim, "lambda", "$.sim", default=1.0, positive=True)
    horizon = _number(sim, "horizon", "$.sim", positive=True)
    record_stride = _number(sim, "record_stride", "$.sim", default=0.1, positive=True)
    if horizon / record_stride > _MAX_FLOW_STEPS:
        _fail("$.sim.record_stride", f"a run to t = {horizon} keeps more than {_MAX_FLOW_STEPS} stride rows")
    stop_on_absorption = _bool(sim, "stop_on_absorption", "$.sim", True)

    init = _section(raw, "init", required=True)
    fr = _number_list(init, "fractions", "$.init")
    if len(fr) != game.m:
        _fail("$.init.fractions", f"length {len(fr)} disagrees with the game's {game.m} actions")
    arr = np.asarray(fr, dtype=float)
    if np.any(arr < -_SIMPLEX_SLACK) or abs(float(arr.sum()) - 1.0) > _SIMPLEX_SLACK:
        _fail("$.init.fractions", f"not a point on the simplex (tolerance {_SIMPLEX_SLACK})")
    arr = np.maximum(arr, 0.0)
    arr = arr / arr.sum()

    ens = _section(raw, "ensemble", required=False)
    runs = _number(ens, "runs", "$.ensemble", default=4, integer=True, lo=1, hi=MAX_RUNS)
    base_seed = _number(ens, "base_seed", "$.ensemble", default=0, integer=True, lo=0, hi=_MAX_SEED)

    ana = _section(raw, "analysis", required=False)
    gammas = tuple(_number_list(ana, "gammas", "$.analysis", default=[0.05], positive=True))
    deltas = tuple(_number_list(ana, "deltas", "$.analysis", default=[0.1], positive=True))
    ode_dt = _number(ana, "ode_dt", "$.analysis", default=0.01, positive=True)
    ode_horizon = _number(ana, "ode_horizon", "$.analysis", default=horizon, positive=True)
    flow_t = max(horizon, ode_horizon)
    if flow_t / ode_dt > _MAX_FLOW_STEPS:
        _fail("$.analysis.ode_dt", f"a flow to t = {flow_t} takes more than {_MAX_FLOW_STEPS} steps")
    limit_tol = _number(ana, "limit_tol", "$.analysis", default=1e-8, positive=True)
    n_sweep = _number_list(ana, "n_sweep", "$.analysis", default=[n], integer=True, lo=2, hi=_MAX_N)
    n_sweep = tuple(_law_n(v, f"$.analysis.n_sweep[{i}]", per_count) for i, v in enumerate(n_sweep))
    support = int(np.count_nonzero(arr))
    for at, v in (("$.sim.n", n), *((f"$.analysis.n_sweep[{i}]", v) for i, v in enumerate(n_sweep))):
        if v < support:
            _fail(at, f"must be >= {support}, one player per positive initial fraction, got {v}")
    graph = _topology(topo, n, n_sweep, per_count)

    out = _section(raw, "output", required=False)
    out_dir = out.get("dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        _fail("$.output.dir", "must be a directory path string")

    return ExperimentConfig(
        game=game,
        rule=rule,
        graph=graph,
        sim=SimConfig(lam=lam, horizon=horizon, record_stride=record_stride, stop_on_absorption=stop_on_absorption),
        n=n,
        init_fractions=arr,
        runs=runs,
        base_seed=base_seed,
        gammas=gammas,
        deltas=deltas,
        ode_dt=ode_dt,
        ode_horizon=ode_horizon,
        limit_tol=limit_tol,
        n_sweep=n_sweep,
        out_dir=out_dir,
        raw=raw,
    )
