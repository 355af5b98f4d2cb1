"""Command-line front end.

    imitodyn simulate      --config cfg.json [--seed S] [--out DIR] [--runs K]
    imitodyn ode           --config cfg.json [--seed S] [--out DIR]
    imitodyn landscape     --config cfg.json [--seed S] [--out DIR]
    imitodyn metastability --config cfg.json [--seed S] [--out DIR] [--runs K]
    imitodyn compare       --config cfg.json [--seed S] [--out DIR] [--runs K]

One config file drives every subcommand (see config.py for the schema).
Every subcommand also takes --log-level {warning,info,debug} (default
warning), the level at which the imitodyn loggers write to stderr; at debug
the landscape search reports its faces, points, flooded edges and failed
least-squares solves.
Exit codes: 0 success, 1 runtime failure, 2 invalid config or arguments.
Config problems are detected before any output file is created.  Every
artifact is byte-reproducible from (config, seed).  IMITODYN_THREADS caps
the worker count for every ensemble, on any topology; a value that is not a
positive integer exits 2.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from .config import _MAX_SEED, _MAX_STARTS, MAX_RUNS, ConfigError, ExperimentConfig, _value, load_config
# run_one is unused here, but perfbench/tracer.py wraps cli.run_one by name.
from .engine import RunSpec, SimConfig, Trajectory, _thread_cap, derive_seed, ensemble, run_one  # noqa: F401
from .games import PopulationType
from .landscape import (
    critical_point_to_dict,
    find_critical_points_2action,
    find_critical_points_multi,
    metastability_report,
)
from .meanfield import find_limit, integrate, kurtz_deviation
from .output import ensure_dir, run_summary, write_json, write_trajectory_csv

__all__ = ["main", "cmd_simulate", "cmd_ode", "cmd_landscape", "cmd_metastability", "cmd_compare"]


def _sim_config(cfg: ExperimentConfig) -> SimConfig:
    return SimConfig(
        lam=cfg.lam,
        horizon=cfg.horizon,
        seed=0,
        record_stride=cfg.record_stride,
        stop_on_absorption=cfg.stop_on_absorption,
    )


def _run_ensemble(cfg: ExperimentConfig, n: int) -> list[Trajectory]:
    sim = _sim_config(cfg)
    if cfg.is_complete_topology:
        x0 = PopulationType.from_fractions(n, cfg.init_fractions)
        spec = RunSpec(game=cfg.game, rule=cfg.rule, cfg=sim, x0=x0)
    else:
        spec = RunSpec(
            game=cfg.game,
            rule=cfg.rule,
            cfg=sim,
            graph=functools.partial(cfg.build_graph, n),
            init_fractions=tuple(float(v) for v in cfg.init_fractions),
        )
    return ensemble(spec, num_runs=cfg.runs, base_seed=cfg.base_seed)


def _critical_points(cfg: ExperimentConfig):
    if cfg.game.potential is None:
        raise ConfigError("$.game: landscape analysis requires a potential")
    m = cfg.game.m
    solves = cfg.starts * (2**m - 1 - m - m * (m - 1) // 2)  # one per start on each face of 3+ actions
    if solves > _MAX_STARTS:
        raise ConfigError(
            f"$.analysis.starts: {cfg.starts} starts on each face of 3 or more of {m} actions "
            f"make {solves} least-squares solves, more than {_MAX_STARTS}"
        )
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        if m == 2:
            points = find_critical_points_2action(cfg.game, grid=cfg.grid)
        else:
            points = find_critical_points_multi(
                cfg.game, starts=cfg.starts, seed=derive_seed(cfg.base_seed, "landscape"), grid=cfg.grid
            )
    return points, [str(w.message) for w in wlist]


def cmd_simulate(cfg: ExperimentConfig) -> int:
    trajs = _run_ensemble(cfg, cfg.n)
    ensure_dir(cfg.out_dir)
    width = max(3, len(str(cfg.runs - 1)))
    for i, traj in enumerate(trajs):
        write_trajectory_csv(os.path.join(cfg.out_dir, f"run_{i:0{width}d}.csv"), traj.times, traj.counts, n=traj.n)
    write_json(
        os.path.join(cfg.out_dir, "summary.json"),
        {"config": cfg.raw, "runs": [run_summary(t) for t in trajs]},
    )
    return 0


def cmd_ode(cfg: ExperimentConfig) -> int:
    x0 = np.asarray(cfg.init_fractions, dtype=float)
    traj = integrate(cfg.game, cfg.rule, x0, T=cfg.ode_horizon, dt=cfg.ode_dt, lam=cfg.lam)
    limit = find_limit(cfg.game, cfg.rule, x0, tol=cfg.limit_tol, lam=cfg.lam)
    ensure_dir(cfg.out_dir)
    write_trajectory_csv(os.path.join(cfg.out_dir, "ode.csv"), traj.times, traj.states)
    write_json(
        os.path.join(cfg.out_dir, "limit.json"),
        {
            "x": [float(v) for v in limit.x],
            "converged": limit.converged,
            "t": limit.t,
            "rhs_norm": limit.rhs_norm,
        },
    )
    return 0


def cmd_landscape(cfg: ExperimentConfig) -> int:
    points, caught = _critical_points(cfg)
    ensure_dir(cfg.out_dir)
    write_json(
        os.path.join(cfg.out_dir, "landscape.json"),
        {
            "critical_points": [critical_point_to_dict(p) for p in points],
            "ess": [i for i, p in enumerate(points) if p.is_ess],
            "warnings": caught,
        },
    )
    return 0


def cmd_metastability(cfg: ExperimentConfig) -> int:
    if np.any(cfg.init_fractions <= 0.0):
        raise ConfigError(
            "$.init.fractions: metastability analysis assumes an interior initial "
            "condition (every action initially present)"
        )
    points, caught = _critical_points(cfg)
    reports = {}
    for n in cfg.n_sweep:
        trajs = _run_ensemble(cfg, n)
        reports[str(n)] = metastability_report(
            trajs, points, cfg.game, cfg.rule, gammas=cfg.gammas, deltas=cfg.deltas
        )
    ensure_dir(cfg.out_dir)
    write_json(
        os.path.join(cfg.out_dir, "metastability.json"),
        {"n_values": list(cfg.n_sweep), "reports": reports, "warnings": caught},
    )
    return 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    x0 = np.asarray(cfg.init_fractions, dtype=float)
    ode = integrate(cfg.game, cfg.rule, x0, T=cfg.horizon, dt=cfg.ode_dt, lam=cfg.lam)
    per_n = []
    for n in cfg.n_sweep:
        trajs = _run_ensemble(cfg, n)
        devs = [kurtz_deviation(t, ode, T=cfg.horizon) for t in trajs]
        per_n.append(
            {
                "n": n,
                "deviations": [float(d) for d in devs],
                "median_deviation": float(np.median(devs)),
                "max_deviation": float(np.max(devs)),
            }
        )
    ensure_dir(cfg.out_dir)
    report = {"flow": "fully_mixed", "ode_points": len(ode.times), "per_n": per_n}
    write_json(os.path.join(cfg.out_dir, "compare.json"), report)
    with open(os.path.join(cfg.out_dir, "deviation_vs_n.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,median_deviation,max_deviation,runs\n")
        for row in per_n:
            fh.write(
                f"{row['n']},{row['median_deviation']!r},{row['max_deviation']!r},{len(row['deviations'])}\n"
            )
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "ode": cmd_ode,
    "landscape": cmd_landscape,
    "metastability": cmd_metastability,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imitodyn",
        description="Stochastic imitation dynamics on potential population games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline from a config file")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override ensemble.base_seed")
        p.add_argument("--out", default=None, help="override output.dir")
        p.add_argument("--runs", type=int, default=None, help="override ensemble.runs")
        p.add_argument(
            "--log-level", choices=("warning", "info", "debug"), default="warning",
            help="level of the imitodyn loggers, written to stderr",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    log = logging.getLogger("imitodyn")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(levelname)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _run(args: argparse.Namespace) -> int:
    try:
        try:
            _thread_cap()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, base_seed=_value(args.seed, "--seed", lo=0, hi=_MAX_SEED, integer=True))
        if args.runs is not None:
            cfg = replace(cfg, runs=_value(args.runs, "--runs", lo=1, hi=MAX_RUNS, integer=True))
        if args.out is not None:
            if not args.out:
                raise ConfigError("--out: must be a directory path")
            cfg = replace(cfg, out_dir=args.out)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"imitodyn: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure inside a pipeline
        print(f"imitodyn: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
