"""Output checks that hold for any correct engine, and artifact hashes.

The checks test properties of the law, not bytes, so that a change to the
random stream (for example batched ensembles) still passes:

* every trajectory CSV row lies on the simplex (sums to 1 within 1e-9) and
  its times rise from 0 to the horizon or the absorption time;
* every unabsorbed run has event_count > 0;
* the landscape's ESS set is the known one within 1e-6;
* the mean-field limit is converged and within 1e-4 of the ESS where the
  step expects it (not on two_phase, whose flow stalls at the degenerate
  point (0.25, 0.75) by design);
* metastability reports no drift violations (q_plus >= q_minus, AC08);
* compare deviations are finite.

Byte hashes serve only to check that repeats of one (workload, seed) agree.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

SIMPLEX_TOL = 1e-9
ESS_TOL = 1e-6
LIMIT_TOL = 1e-4


def hash_artifacts(out_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_csv(path: Path, t_end: float | tuple[float, ...], t_tol: float = 1e-12) -> list[str]:
    """Rows on the simplex, times non-decreasing from 0 to one of t_end
    (within t_tol: the ODE clock is a running sum of steps)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times, states = data[:, 0], data[:, 1:]
    problems = []
    worst = float(np.max(np.abs(states.sum(axis=1) - 1.0)))
    if not worst <= SIMPLEX_TOL or np.any(states < 0.0):
        problems.append(f"{path.name}: a row is off the simplex (|sum - 1| up to {worst:g})")
    if times[0] != 0.0 or np.any(np.diff(times) < 0.0):
        problems.append(f"{path.name}: times do not rise from 0")
    ends = t_end if isinstance(t_end, tuple) else (t_end,)
    if not any(math.isclose(times[-1], e, rel_tol=0.0, abs_tol=t_tol) for e in ends):
        problems.append(f"{path.name}: ends at t = {times[-1]!r}, expected one of {ends}")
    return problems


def check_runs(runs: list[dict], label: str) -> list[str]:
    return [
        f"{label}: unabsorbed run {i} has no events"
        for i, r in enumerate(runs)
        if r["absorbed_at"] is None and not r["event_count"] > 0
    ]


def check_ess(points: list[dict], expected: list, label: str) -> list[str]:
    found = [p["x"] for p in points if p["is_ess"]]

    def near(a, b) -> bool:
        return len(a) == len(b) and max(abs(u - v) for u, v in zip(a, b)) <= ESS_TOL

    if len(found) == len(expected) and all(any(near(f, e) for f in found) for e in expected):
        return []
    return [f"{label}: ESS set {found} is not {[list(e) for e in expected]}"]


def _check_simulate(out: Path, config: dict, expect: dict) -> list[str]:
    summary = _load(out / "summary.json")
    horizon = float(config["sim"]["horizon"])
    problems = check_runs(summary["runs"], "summary.json")
    csvs = sorted(out.glob("run_*.csv"))
    if len(csvs) != len(summary["runs"]):
        problems.append(f"{len(csvs)} run CSVs for {len(summary['runs'])} runs")
    for path, run in zip(csvs, summary["runs"]):
        ends = (horizon,) if run["absorbed_at"] is None else (float(run["absorbed_at"]), horizon)
        problems += check_csv(path, ends)
    return problems


def _check_ode(out: Path, config: dict, expect: dict) -> list[str]:
    problems = []
    limit = _load(out / "limit.json")
    if "limit" in expect:
        gap = max(abs(u - v) for u, v in zip(limit["x"], expect["limit"]))
        if not (limit["converged"] and gap <= LIMIT_TOL):
            problems.append(f"limit.json: {limit['x']} (converged={limit['converged']}) is not the ESS")
    horizon = float(config.get("analysis", {}).get("ode_horizon", config["sim"]["horizon"]))
    return problems + check_csv(out / "ode.csv", horizon, t_tol=1e-9 * horizon)


def _check_landscape(out: Path, config: dict, expect: dict) -> list[str]:
    if "ess" not in expect:
        return []
    return check_ess(_load(out / "landscape.json")["critical_points"], expect["ess"], "landscape.json")


def _check_metastability(out: Path, config: dict, expect: dict) -> list[str]:
    doc = _load(out / "metastability.json")
    problems = []
    for n, rep in doc["reports"].items():
        label = f"metastability.json n={n}"
        if rep["aggregates"]["drift_violations"] != 0:
            problems.append(f"{label}: {rep['aggregates']['drift_violations']} drift violations")
        problems += check_runs(rep["per_run"], label)
        if "ess" in expect:
            problems += check_ess(rep["critical_points"], expect["ess"], label)
    return problems


def _check_compare(out: Path, config: dict, expect: dict) -> list[str]:
    doc = _load(out / "compare.json")
    devs = [d for row in doc["per_n"] for d in row["deviations"]]
    if devs and all(math.isfinite(d) for d in devs):
        return []
    return [f"compare.json: deviations {devs} are not all finite"]


CHECKS = {
    "simulate": _check_simulate,
    "ode": _check_ode,
    "landscape": _check_landscape,
    "metastability": _check_metastability,
    "compare": _check_compare,
}


def check_step(command: str, out_dir: Path, config: dict, expect: dict) -> list[str]:
    """Problems found in one step's artifacts (config is the step's parsed
    config file); empty when they pass."""
    try:
        return CHECKS[command](out_dir, config, expect)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command}: unreadable artifacts: {exc!r}"]
