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
      "analysis": {"gammas": [0.05], "deltas": [0.1], "grid": 2000,
                   "starts": 64, "ode_dt": 0.01, "ode_horizon": sim.horizon,
                   "limit_tol": 1e-8, "n_sweep": [sim.n]},
      "output":   {"dir": "out"}                                    ("out")
    }

Replicator bounds default to reward_bounds over the game.  An "er" topology
without a "seed" draws a fresh graph per run (seeded from the run seed);
with a "seed" every run shares one fixed graph.

Every JSON number goes through one reader, _value, which rejects booleans,
Infinity, NaN and integers too large for a float, and checks these bounds:
population sizes (sim.n, analysis.n_sweep) 2 .. 2**53; ensemble.runs
1 .. MAX_RUNS = 10**6; seeds (ensemble.base_seed, topology.seed, --seed)
0 .. 2**64 - 1; analysis.grid 8 .. 10**6; analysis.starts 1 .. 10**5; and
at most 10**7 RK4 steps of analysis.ode_dt up to max(sim.horizon,
analysis.ode_horizon).  Validation failures raise ConfigError with a
JSON-path anchor; the CLI maps them to exit code 2.

The landscape search scans every edge of the simplex at analysis.grid + 1
points, at every m, and runs analysis.starts least-squares solves on each
face of three or more actions; the CLI caps their total at _MAX_STARTS
before a landscape runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import derive_seed
from .games import Game, example4_game, make_congestion_game, reward_bounds
from .rules import ArctanRule, ImitationRule, ReplicatorRule
from .topology import Graph, complete, erdos_renyi, from_edge_list, square_lattice

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

_SIMPLEX_SLACK = 1e-6  # initial fractions may be off the simplex by this much
# Largest population size: every count converts to float64 exactly, so each
# x = c / n is the correctly rounded quotient.
_MAX_N = 2**53
# Largest ensemble: the run driver lists every run's seed before the first run.
MAX_RUNS = 10**6
# Seeds are 64-bit.
_MAX_SEED = 2**64 - 1
# Finest landscape edge scan: it evaluates the gradient at grid + 1 points
# on each edge of the simplex.
_MAX_GRID = 10**6
# Most landscape least-squares solves: starts on each face of 3+ actions.
_MAX_STARTS = 10**5
# Most RK4 steps in a flow to max(sim.horizon, analysis.ode_horizon): the
# flow keeps every step, (m + 1) floats a step.
_MAX_FLOW_STEPS = 10**7


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


def _check_topology(spec: dict, n: int) -> dict:
    kind = spec.get("type", "complete")
    if kind == "complete":
        return {"type": "complete"}
    if kind == "er":
        p = _number(spec, "p", "$.topology", lo=0.0, hi=1.0)
        out = {"type": "er", "p": p}
        if "seed" in spec:
            out["seed"] = _number(spec, "seed", "$.topology", integer=True, lo=0, hi=_MAX_SEED)
        return out
    if kind == "lattice":
        side = _number(spec, "side", "$.topology", integer=True, lo=2, hi=math.isqrt(_MAX_N))
        if side * side != n:
            _fail("$.topology.side", f"side^2 = {side * side} disagrees with sim.n = {n}")
        return {"type": "lattice", "side": side, "periodic": _bool(spec, "periodic", "$.topology", True)}
    if kind == "file":
        path = spec.get("path")
        if not isinstance(path, str) or not path:
            _fail("$.topology.path", "must be a file path string")
        return {"type": "file", "path": path}
    _fail("$.topology.type", f"must be one of complete|er|lattice|file, got {kind!r}")


@dataclass
class ExperimentConfig:
    """Parsed, cross-checked experiment description."""

    game: Game
    rule: ImitationRule
    topology: dict
    n: int
    lam: float
    horizon: float
    record_stride: float
    stop_on_absorption: bool
    init_fractions: np.ndarray
    runs: int
    base_seed: int
    gammas: tuple[float, ...]
    deltas: tuple[float, ...]
    grid: int
    starts: int
    ode_dt: float
    ode_horizon: float
    limit_tol: float
    n_sweep: tuple[int, ...]
    out_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def is_complete_topology(self) -> bool:
        return self.topology["type"] == "complete"

    def build_graph(self, n: int, run_seed: int) -> Graph:
        """Materialize the topology for one run of size n."""
        t = self.topology
        if t["type"] == "complete":
            return complete(n)
        if t["type"] == "er":
            seed = t.get("seed")
            if seed is None:
                seed = derive_seed(run_seed, "graph")
            return erdos_renyi(n, t["p"], seed=int(seed))
        if t["type"] == "lattice":
            if t["side"] * t["side"] != n:
                raise ConfigError(f"$.topology.side: side^2 != n = {n}")
            return square_lattice(t["side"], periodic=t["periodic"])
        graph = from_edge_list(t["path"])
        if graph.n != n:
            raise ConfigError(
                f"$.topology.path: edge list has {graph.n} nodes, sim.n = {n}"
            )
        return graph


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

    sim = _section(raw, "sim", required=True)
    n = _number(sim, "n", "$.sim", integer=True, lo=2, hi=_MAX_N)
    lam = _number(sim, "lambda", "$.sim", default=1.0, positive=True)
    horizon = _number(sim, "horizon", "$.sim", positive=True)
    record_stride = _number(sim, "record_stride", "$.sim", default=0.1, positive=True)
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

    topology = _check_topology(_section(raw, "topology", required=False) or {"type": "complete"}, n)

    ens = _section(raw, "ensemble", required=False)
    runs = _number(ens, "runs", "$.ensemble", default=4, integer=True, lo=1, hi=MAX_RUNS)
    base_seed = _number(ens, "base_seed", "$.ensemble", default=0, integer=True, lo=0, hi=_MAX_SEED)

    ana = _section(raw, "analysis", required=False)
    gammas = tuple(_number_list(ana, "gammas", "$.analysis", default=[0.05], positive=True))
    deltas = tuple(_number_list(ana, "deltas", "$.analysis", default=[0.1], positive=True))
    grid = _number(ana, "grid", "$.analysis", default=2000, integer=True, lo=8, hi=_MAX_GRID)
    starts = _number(ana, "starts", "$.analysis", default=64, integer=True, lo=1, hi=_MAX_STARTS)
    ode_dt = _number(ana, "ode_dt", "$.analysis", default=0.01, positive=True)
    ode_horizon = _number(ana, "ode_horizon", "$.analysis", default=horizon, positive=True)
    flow_t = max(horizon, ode_horizon)
    if flow_t / ode_dt > _MAX_FLOW_STEPS:
        _fail("$.analysis.ode_dt", f"a flow to t = {flow_t} takes more than {_MAX_FLOW_STEPS} steps")
    limit_tol = _number(ana, "limit_tol", "$.analysis", default=1e-8, positive=True)
    n_sweep = tuple(_number_list(ana, "n_sweep", "$.analysis", default=[n], integer=True, lo=2, hi=_MAX_N))
    if topology["type"] in ("lattice", "file") and any(v != n for v in n_sweep):
        _fail("$.analysis.n_sweep", f"a {topology['type']} topology fixes n = {n}")

    out = _section(raw, "output", required=False)
    out_dir = out.get("dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        _fail("$.output.dir", "must be a directory path string")

    return ExperimentConfig(
        game=game,
        rule=rule,
        topology=topology,
        n=n,
        lam=lam,
        horizon=horizon,
        record_stride=record_stride,
        stop_on_absorption=stop_on_absorption,
        init_fractions=arr,
        runs=runs,
        base_seed=base_seed,
        gammas=gammas,
        deltas=deltas,
        grid=grid,
        starts=starts,
        ode_dt=ode_dt,
        ode_horizon=ode_horizon,
        limit_tol=limit_tol,
        n_sweep=n_sweep,
        out_dir=out_dir,
        raw=raw,
    )
