"""Command-line front end.

    imitodyn simulate      --config cfg.json [--seed S] [--out DIR] [--runs K]
    imitodyn ode           --config cfg.json [--seed S] [--out DIR]
    imitodyn landscape     --config cfg.json [--seed S] [--out DIR]
    imitodyn metastability --config cfg.json [--seed S] [--out DIR] [--runs K]
    imitodyn compare       --config cfg.json [--seed S] [--out DIR] [--runs K]

One config file drives every subcommand (see config.py for the schema).
Every subcommand also takes --log-level {warning,info,debug} (default
warning), the level at which the imitodyn loggers write to stderr; at debug
the landscape search reports its method, faces, points and continuum faces,
the facts that landscape.json also holds in its "search" block; at info
simulate and ode report the seconds spent in the engine (or the flow and
its limit) and in writing CSVs, with events (or RK4 steps) per second and
the rows and bytes written; metastability and compare report the seconds
spent in the engine, with events and events per second, and in analysing
the paths, and compare also the seconds and RK4 steps of its flow.  The
three ensemble subcommands share one sweep (_sweep): simulate at sim.n,
metastability and compare over analysis.n_sweep take their runs from it.
A size's runs share one RunSpec on every topology: ExperimentConfig.sim,
the start type of init.fractions at that size and one ExperimentConfig.graph
call, whose seconds count as engine seconds, as do each run's as it
arrives from engine._runs.  A subcommand holds one run's path at a time
but keeps a record per run, so its memory grows with the runs: simulate
keeps each summary record (its CSV is written as the run arrives),
metastability each report entry and compare each deviation, about 1.9, 6.3
and 0.2 KB a run (ru_maxrss at 500 and 5,000 runs of example4, n = 20);
MAX_RUNS bounds the runs, not the memory.  simulate creates the output
directory when the first run arrives, so a first run that fails leaves no
directory, and a later run that fails leaves the CSVs of the runs before it
and no summary.json.

A game is its reward polynomials, from whose coefficients the landscape is
solved exactly, with no random numbers; --seed seeds the ensembles only.
The unused alias find_critical_points_2action and the unused ensemble and
run_one imports stay because perfbench/tracer.py patches them by name, as
it patches integrate, kurtz_deviation and metastability_report here, which
the subcommands call through this module.
Exit codes: 0 success, 1 runtime failure, 2 invalid config or arguments.
Config problems, a bad edge-list file among them, are detected before any
output file is created.  Every artifact is byte-reproducible from (config,
seed).  IMITODYN_THREADS caps the worker count for every ensemble, on any
topology, and so do the CPUs available: a pool never has more workers than
CPUs.  A value that is not a positive integer exits 2.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from .config import _MAX_SEED, MAX_RUNS, ConfigError, ExperimentConfig, _value, load_config
# ensemble and run_one are unused here, but perfbench/tracer.py wraps
# cli.ensemble and cli.run_one by name.
from .engine import RunSpec, _runs, _thread_cap, ensemble, run_one  # noqa: F401
from .games import PopulationType
from .landscape import _median, critical_point_to_dict, find_critical_points_multi, metastability_report
from .meanfield import find_limit, integrate, kurtz_deviation
from .output import ensure_dir, run_summary, write_json, write_trajectory_csv

# find_critical_points_2action is unused here, but perfbench/tracer.py wraps
# cli.find_critical_points_2action by name, so the alias stays with the
# benchmark.
find_critical_points_2action = find_critical_points_multi

logger = logging.getLogger(__name__)

__all__ = ["main", "cmd_simulate", "cmd_ode", "cmd_landscape", "cmd_metastability", "cmd_compare"]


def _sweep(cfg: ExperimentConfig, sizes: tuple[int, ...], spent: list):
    """(n, runs) of cfg's ensemble at each population size n in `sizes`, in
    order: every subcommand that simulates takes its runs from here.  runs
    makes each run when it is asked for the next one.  The seconds of each
    size's graph build and of each run add to spent[0], a run's events to
    spent[1]."""
    for n in sizes:
        start = time.perf_counter()
        graph = cfg.graph(n)
        spent[0] += time.perf_counter() - start
        spec = RunSpec(cfg.game, cfg.rule, cfg.sim, PopulationType.from_fractions(n, cfg.init_fractions), graph)
        yield n, _spend(_runs(spec, cfg.runs, cfg.base_seed), spent)


def _spend(runs, spent: list):
    """runs, timed: holds no run while the next one is made."""
    while True:
        start = time.perf_counter()
        traj = next(runs, None)
        spent[0] += time.perf_counter() - start
        if traj is None:
            return
        spent[1] += traj.event_count
        yield traj
        del traj


def _critical_points(cfg: ExperimentConfig):
    search: dict = {}
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        points = find_critical_points_multi(cfg.game, search=search)
    return points, search, [str(w.message) for w in wlist]


def cmd_simulate(cfg: ExperimentConfig) -> int:
    spent = [0.0, 0]
    [(_, trajs)] = _sweep(cfg, (cfg.n,), spent)
    width = max(3, len(str(cfg.runs - 1)))
    summaries, rows, size = [], 0, 0
    start = time.perf_counter()
    for traj in trajs:  # each run is written and dropped as it arrives
        if not summaries:
            ensure_dir(cfg.out_dir)
        path = os.path.join(cfg.out_dir, f"run_{len(summaries):0{width}d}.csv")
        write_trajectory_csv(path, traj.times, traj.counts, n=traj.n)
        size += os.path.getsize(path)
        rows += len(traj.times)
        summaries.append(run_summary(traj))
        del traj
    engine_s, events = spent
    logger.info(
        "simulate: engine %.3f s, %d events (%.0f events/s); csv %.3f s, %d rows, %d bytes",
        engine_s, events, events / max(engine_s, 1e-9), time.perf_counter() - start - engine_s, rows, size,
    )
    write_json(os.path.join(cfg.out_dir, "summary.json"), {"config": cfg.raw, "runs": summaries})
    return 0


def cmd_ode(cfg: ExperimentConfig) -> int:
    start = time.perf_counter()
    traj = integrate(cfg.game, cfg.rule, cfg.init_fractions, T=cfg.ode_horizon, dt=cfg.ode_dt, lam=cfg.sim.lam)
    flowed = time.perf_counter()
    limit = find_limit(cfg.game, cfg.rule, cfg.init_fractions, tol=cfg.limit_tol, lam=cfg.sim.lam)
    ensure_dir(cfg.out_dir)
    limited = time.perf_counter()
    path = os.path.join(cfg.out_dir, "ode.csv")
    write_trajectory_csv(path, traj.times, traj.states)
    steps = len(traj.times) - 1
    logger.info(
        "ode: flow %.3f s, %d RK4 steps (%.0f steps/s); limit %.3f s; csv %.3f s, %d rows, %d bytes",
        flowed - start, steps, steps / max(flowed - start, 1e-9), limited - flowed,
        time.perf_counter() - limited, len(traj.times), os.path.getsize(path),
    )
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
    points, search, caught = _critical_points(cfg)
    ensure_dir(cfg.out_dir)
    write_json(
        os.path.join(cfg.out_dir, "landscape.json"),
        {
            "critical_points": [critical_point_to_dict(p) for p in points],
            "ess": [i for i, p in enumerate(points) if p.is_ess],
            "search": search,
            "warnings": caught,
        },
    )
    return 0


def _log_stages(command: str, spent: list, start: float, more: str = "") -> None:
    """The info line of a subcommand that analysed the paths of a sweep it
    began at `start`: its analysis took the time the engine did not."""
    engine_s, events = spent
    analysis_s = time.perf_counter() - start - engine_s
    logger.info(
        "%s: engine %.3f s, %d events (%.0f events/s); analysis %.3f s%s",
        command, engine_s, events, events / max(engine_s, 1e-9), analysis_s, more,
    )


def cmd_metastability(cfg: ExperimentConfig) -> int:
    if np.any(cfg.init_fractions <= 0.0):
        raise ConfigError(
            "$.init.fractions: metastability analysis assumes an interior initial "
            "condition (every action initially present)"
        )
    points, _, caught = _critical_points(cfg)
    spent = [0.0, 0]
    start = time.perf_counter()
    reports = {
        str(n): metastability_report(trajs, points, cfg.game, cfg.rule, gammas=cfg.gammas, deltas=cfg.deltas)
        for n, trajs in _sweep(cfg, cfg.n_sweep, spent)
    }
    _log_stages("metastability", spent, start)
    ensure_dir(cfg.out_dir)
    write_json(
        os.path.join(cfg.out_dir, "metastability.json"),
        {"n_values": list(cfg.n_sweep), "reports": reports, "warnings": caught},
    )
    return 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    start = time.perf_counter()
    ode = integrate(cfg.game, cfg.rule, cfg.init_fractions, T=cfg.sim.horizon, dt=cfg.ode_dt, lam=cfg.sim.lam)
    flow_s = time.perf_counter() - start
    spent = [0.0, 0]
    start = time.perf_counter()
    per_n = []
    for n, trajs in _sweep(cfg, cfg.n_sweep, spent):
        devs = list(map(lambda t: kurtz_deviation(t, ode, T=cfg.sim.horizon), trajs))
        per_n.append(
            {
                "n": n,
                "deviations": [float(d) for d in devs],
                "median_deviation": _median(devs),
                "max_deviation": float(np.max(devs)),
            }
        )
    steps = len(ode.times) - 1
    _log_stages("compare", spent, start, f"; flow {flow_s:.3f} s, {steps} RK4 steps")
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
