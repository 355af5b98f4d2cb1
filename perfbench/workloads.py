"""Workloads and metric definitions of the imitodyn benchmark.

A workload is a fixed sequence of CLI invocations, each one subcommand on
one config file.  Every repeat of a workload is a fresh interpreter that
runs the steps in order through ``imitodyn.cli.main`` with the benchmark's
seed.  The metric lists here and in BENCHMARK.json must agree; a test
checks that they do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CONGESTION3_ESS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
EXAMPLE4_ESS = (0.75, 0.25)


@dataclass(frozen=True)
class Step:
    """One CLI invocation.  ``runs`` overrides the config's ensemble size
    through ``--runs``; ``seed``, when set, replaces the benchmark's seed;
    ``expect`` holds known values that hold for any correct engine (see
    checks.py)."""

    command: str
    config: str  # relative to the checkout root
    runs: int | None = None
    seed: int | None = None
    expect: dict = field(default_factory=dict)

    def argv(self, seed: int, out_dir: str) -> list[str]:
        seed = seed if self.seed is None else self.seed
        args = [self.command, "--config", self.config, "--seed", str(seed), "--out", out_dir]
        if self.runs is not None:
            args += ["--runs", str(self.runs)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]

    @property
    def configs(self) -> list[str]:
        return list(dict.fromkeys(s.config for s in self.steps))


# Why this input: congestion3's game, rule, n and initial state on a seedless
# Erdos-Renyi graph of mean degree about 10 (p = 10 / (n - 1)), so every run
# builds a fresh graph and the per-node engine takes its m >= 3 branch, which
# rebuilds the rule matrix on every flip.
ER_M3 = "perfbench/inputs/er_m3.json"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "complete_m2",
            "m=2 complete-graph table loop with every jump recorded and written, "
            "path metrics on full-jump paths, and the 20k-step m=2 RK4 flow",
            (
                Step("simulate", "configs/two_phase.json"),
                Step("metastability", "configs/two_phase.json", expect={"ess": [EXAMPLE4_ESS]}),
                Step("compare", "configs/two_phase.json"),
            ),
        ),
        Workload(
            "complete_m3",
            "generic complete engine rebuilding the numpy rate matrix per event, "
            "the m=3 numpy flow and limit, and the 48-start landscape search",
            (
                # One run keeps a repeat short; 23k events are plenty to time.
                Step("simulate", "configs/congestion3.json", runs=1),
                Step("ode", "configs/congestion3.json", expect={"limit": CONGESTION3_ESS}),
                # The seed only places the 48 starts, and the search's cost
                # varies up to 2.6x between seeds, so the starts stay fixed.
                Step("landscape", "configs/congestion3.json", seed=0, expect={"ess": [CONGESTION3_ESS]}),
            ),
        ),
        Workload(
            "network",
            "per-node engine on both branches (m=2 lattice tables, m=3 ER rule "
            "rebuild per flip), topology builds and activations that do not flip",
            (
                Step("simulate", "configs/lattice.json"),
                Step("simulate", ER_M3),
            ),
        ),
    )
}

SUBCOMMANDS = ("simulate", "ode", "landscape", "metastability", "compare")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


# End-to-end times are in reference seconds: wall-clock time scaled by the
# host-speed reference sampled over the same interval (see speed.py), so that
# they measure the program rather than the shared host.  run.py also prints
# the wall-clock values as raw_wall_s, raw_simulate_s, ...
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.2),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("simulate_s", "s", "lower", 0.2),
    Metric("events_per_s", "1/s", "higher", 0.2),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    Metric("config.load_calls", "count", "lower"),
    Metric("config.load_s", "s", "lower"),
    Metric("topology.build_calls", "count", "lower"),
    Metric("topology.build_s", "s", "lower"),
    Metric("topology.edges", "count", "higher"),
    Metric("games.rewards_at_calls", "count", "lower"),
    Metric("games.rewards_at_us", "us", "lower"),
    Metric("rules.prob_matrix_calls", "count", "lower"),
    Metric("rules.prob_matrix_us", "us", "lower"),
    Metric("engine.runs", "count", "higher"),
    Metric("engine.events", "count", "higher"),
    Metric("engine.self_s", "s", "lower"),
    Metric("engine.events_per_s", "1/s", "higher"),
    Metric("engine.flips", "count", "higher"),
    Metric("engine.flip_ratio", "ratio", "higher"),
    Metric("engine.rows_recorded", "count", "lower"),
    Metric("engine.recorded_bytes_per_event", "B/event", "lower"),
    Metric("engine.drift_rates_calls", "count", "lower"),
    Metric("engine.drift_rates_us", "us", "lower"),
    Metric("meanfield.rk4_steps", "count", "higher"),
    Metric("meanfield.integrate_s", "s", "lower"),
    Metric("meanfield.rk4_step_us", "us", "lower"),
    Metric("meanfield.rhs_calls", "count", "lower"),
    Metric("meanfield.rhs_us", "us", "lower"),
    Metric("meanfield.find_limit_s", "s", "lower"),
    Metric("meanfield.kurtz_deviation_s", "s", "lower"),
    Metric("landscape.find_critical_points_s", "s", "lower"),
    Metric("landscape.critical_points", "count", "higher"),
    Metric("landscape.metastability_report_self_s", "s", "lower"),
    Metric("landscape.time_near_set_s", "s", "lower"),
    Metric("landscape.exit_time_s", "s", "lower"),
    Metric("output.csv_rows", "count", "lower"),
    Metric("output.csv_bytes", "B", "lower"),
    Metric("output.write_csv_s", "s", "lower"),
    Metric("output.csv_mb_per_s", "MB/s", "higher"),
    Metric("output.write_json_s", "s", "lower"),
    Metric("cli.self_s", "s", "lower"),
    *(Metric(f"cli.{c}_s", "s", "lower") for c in SUBCOMMANDS),
    Metric("cli.failed_ops_frac", "ratio", "lower"),
    Metric("trace.overhead_s", "s", "lower"),
    Metric("trace.self_total_s", "s", "lower"),
    Metric("trace.unattributed_s", "s", "lower"),
)
