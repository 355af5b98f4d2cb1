"""Per-layer tracing of one benchmark repeat, from outside the package.

Each public function of an imitodyn module is wrapped at the name its
caller looks it up by (``cli`` binds names with ``from .engine import ...``,
so wrapping ``imitodyn.engine.ensemble`` would miss its calls).  Per span
name the tracer keeps a call count, the inclusive time and the self time,
which excludes time spent in wrapped callees.  Hot per-event calls are
aggregated this way instead of being stored one span each.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: dict[str, float] = {}
        self._stack = [0.0]  # time covered by child spans, one slot per open span

    def _enter(self) -> None:
        self._stack.append(0.0)

    def _leave(self, name: str, dt: float) -> None:
        inner = self._stack.pop()
        self._stack[-1] += dt
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dt
        entry[2] += dt - inner

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(name, time.perf_counter() - t0)

    def wrap(self, name: str, fn, count=None):
        """Wrap fn as span ``name``; count(tracer, result, args) runs after
        the span closes, so its cost is charged to the caller."""
        enter, leave, clock = self._enter, self._leave, time.perf_counter

        def traced(*args, **kwargs):
            enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, clock() - t0)
            if count is not None:
                count(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self) -> None:
        """Wrap the layer boundaries of an imported imitodyn."""
        from imitodyn import cli, config, engine, games, landscape, meanfield, rules

        load = self.wrap("config.load", config.load_config)
        config.load_config = load
        cli.load_config = load
        for fn in ("complete", "erdos_renyi", "square_lattice", "from_edge_list"):
            self.patch(config, fn, "topology.build", _count_graph)
        self.patch(games.Game, "rewards_at", "games.rewards_at")
        for cls in vars(rules).values():
            if isinstance(cls, type) and issubclass(cls, rules.ImitationRule) and "prob_matrix" in vars(cls):
                self.patch(cls, "prob_matrix", "rules.prob_matrix")
        self.patch(engine, "simulate_complete", "engine.run", _count_run)
        self.patch(engine, "simulate_network", "engine.run", _count_run)
        self.patch(cli, "ensemble", "engine.ensemble")
        self.patch(cli, "run_one", "engine.run_one")
        self.patch(landscape, "potential_drift_rates", "engine.drift_rates")
        self.patch(meanfield, "mean_field_rhs", "meanfield.rhs")
        self.patch(cli, "integrate", "meanfield.integrate", _count_ode)
        self.patch(cli, "find_limit", "meanfield.find_limit")
        self.patch(cli, "kurtz_deviation", "meanfield.kurtz_deviation")
        self.patch(cli, "find_critical_points_2action", "landscape.find_critical_points", _count_points)
        self.patch(cli, "find_critical_points_multi", "landscape.find_critical_points", _count_points)
        self.patch(cli, "metastability_report", "landscape.metastability_report")
        self.patch(landscape, "time_near_set", "landscape.time_near_set")
        self.patch(landscape, "exit_time", "landscape.exit_time")
        self.patch(cli, "write_trajectory_csv", "output.write_csv", _count_csv)
        self.patch(cli, "write_json", "output.write_json")


def _count_graph(tracer: Tracer, graph, args) -> None:
    if graph.neighbors is None:
        edges = graph.n * (graph.n - 1) // 2
    else:
        edges = sum(nb.size for nb in graph.neighbors) // 2
    tracer.add("topology.edges", edges)


def _count_run(tracer: Tracer, traj, args) -> None:
    tracer.add("engine.events", traj.event_count)
    # The complete engine samples jumps only, so every event is a flip.
    tracer.add("engine.flips", traj.meta.get("flip_count", traj.event_count))
    tracer.add("engine.rows_recorded", len(traj.times))
    tracer.add("engine.recorded_bytes", traj.times.nbytes + traj.counts.nbytes)


def _count_ode(tracer: Tracer, traj, args) -> None:
    tracer.add("meanfield.rk4_steps", len(traj.times) - 1)


def _count_points(tracer: Tracer, points, args) -> None:
    tracer.add("landscape.critical_points", len(points))


def _count_csv(tracer: Tracer, result, args) -> None:
    tracer.add("output.csv_rows", len(args[1]))
    tracer.add("output.csv_bytes", os.path.getsize(args[0]))


def _per_call_us(span) -> float:
    return span[1] / span[0] * 1e6 if span[0] else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (the cli.<sub>_s, cli.failed_ops_frac
    and trace.* metrics come from the whole run, see run.py)."""
    zero = [0, 0.0, 0.0]

    def s(name: str) -> list:
        return spans.get(name, zero)

    def c(key: str) -> float:
        return counts.get(key, 0)

    run, csv = s("engine.run"), s("output.write_csv")
    return {
        "config.load_calls": s("config.load")[0],
        "config.load_s": s("config.load")[1],
        "topology.build_calls": s("topology.build")[0],
        "topology.build_s": s("topology.build")[1],
        "topology.edges": c("topology.edges"),
        "games.rewards_at_calls": s("games.rewards_at")[0],
        "games.rewards_at_us": _per_call_us(s("games.rewards_at")),
        "rules.prob_matrix_calls": s("rules.prob_matrix")[0],
        "rules.prob_matrix_us": _per_call_us(s("rules.prob_matrix")),
        "engine.runs": run[0],
        "engine.events": c("engine.events"),
        "engine.self_s": run[2],
        "engine.events_per_s": _ratio(c("engine.events"), run[2]),
        "engine.flips": c("engine.flips"),
        "engine.flip_ratio": _ratio(c("engine.flips"), c("engine.events")),
        "engine.rows_recorded": c("engine.rows_recorded"),
        # Computed from the returned arrays' nbytes, not measured memory.
        "engine.recorded_bytes_per_event": _ratio(c("engine.recorded_bytes"), c("engine.events")),
        "engine.drift_rates_calls": s("engine.drift_rates")[0],
        "engine.drift_rates_us": _per_call_us(s("engine.drift_rates")),
        "meanfield.rk4_steps": c("meanfield.rk4_steps"),
        "meanfield.integrate_s": s("meanfield.integrate")[1],
        "meanfield.rk4_step_us": _ratio(s("meanfield.integrate")[1] * 1e6, c("meanfield.rk4_steps")),
        "meanfield.rhs_calls": s("meanfield.rhs")[0],
        "meanfield.rhs_us": _per_call_us(s("meanfield.rhs")),
        "meanfield.find_limit_s": s("meanfield.find_limit")[1],
        "meanfield.kurtz_deviation_s": s("meanfield.kurtz_deviation")[1],
        "landscape.find_critical_points_s": s("landscape.find_critical_points")[1],
        "landscape.critical_points": c("landscape.critical_points"),
        "landscape.metastability_report_self_s": s("landscape.metastability_report")[2],
        "landscape.time_near_set_s": s("landscape.time_near_set")[1],
        "landscape.exit_time_s": s("landscape.exit_time")[1],
        "output.csv_rows": c("output.csv_rows"),
        "output.csv_bytes": c("output.csv_bytes"),
        "output.write_csv_s": csv[1],
        "output.csv_mb_per_s": _ratio(c("output.csv_bytes") / 1e6, csv[1]),
        "output.write_json_s": s("output.write_json")[1],
        "cli.self_s": sum(v[2] for k, v in spans.items() if k.startswith("cli.")),
        "trace.self_total_s": sum(v[2] for v in spans.values()),
    }
