"""Potential-landscape analysis and long-run trajectory metrics.

Critical points of the potential restricted to the simplex classify the
long-run behavior of the dynamics: isolated local maxima are evolutionarily
stable, minima and saddles repel, and the two vertices of a 2-action game
are always flow fixed points.  Trajectory metrics quantify metastability:
occupation time near stable points, dwell time around unstable ones, and
the split of jump rates into potential-raising and potential-lowering parts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .engine import Trajectory, potential_drift_rates
from .games import Game, PopulationType, _fd_gradient, uniform_simplex_sample
from .rules import ImitationRule

__all__ = [
    "CriticalPoint",
    "LandscapeWarning",
    "find_critical_points_2action",
    "find_critical_points_multi",
    "ess_set",
    "time_near_set",
    "exit_time",
    "metastability_report",
    "critical_point_to_dict",
]

_TANGENT_ZERO = 1e-9  # |reduced derivative| below this flags a tangential zero


class LandscapeWarning(UserWarning):
    """Non-fatal landscape findings: degenerate sets, vertex maxima."""


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    x: np.ndarray
    phi: float
    kind: str  # "local_max" | "local_min" | "saddle_or_degenerate"
    is_ne: bool
    is_ess: bool
    on_boundary: bool


def critical_point_to_dict(cp: CriticalPoint) -> dict:
    return {
        "x": [float(v) for v in cp.x],
        "phi": cp.phi,
        "kind": cp.kind,
        "is_ne": cp.is_ne,
        "is_ess": cp.is_ess,
        "on_boundary": cp.on_boundary,
    }


def _gradient(game: Game, x: np.ndarray) -> np.ndarray:
    if game.potential_gradient is not None:
        return np.asarray(game.potential_gradient(x), dtype=float)
    return _fd_gradient(game.potential, x)


def _is_ne(game: Game, x: np.ndarray, tol: float = 1e-7) -> bool:
    r = game.rewards_at(x)
    used = x > 1e-9
    scale = max(1.0, float(np.max(np.abs(r))))
    return bool(np.min(r[used]) >= np.max(r) - tol * scale)


def _make_point(game: Game, x: np.ndarray, kind: str, on_boundary: bool) -> CriticalPoint:
    x = np.asarray(x, dtype=float)
    ne = _is_ne(game, x)
    return CriticalPoint(
        x=x,
        phi=float(game.potential(x)),
        kind=kind,
        is_ne=ne,
        is_ess=(kind == "local_max" and ne),
        on_boundary=on_boundary,
    )


def find_critical_points_2action(
    game: Game,
    grid: int = 2000,
    refine_tol: float = 1e-9,
) -> list[CriticalPoint]:
    """Scan the reduced derivative g(x1) = dPhi/dx1 - dPhi/dx2 on the line
    x = (x1, 1 - x1).

    Sign changes bracket transversal roots (bisected to refine_tol) and are
    classified by the bracket signs: + to - is a local max, - to + a local
    min.  Tangential zeros (|g| < 1e-9 at a grid point with no sign change)
    refine by local minimization of |g| and classify as degenerate.  The two
    vertices always appear as boundary points, classified one-sidedly.
    """
    if game.m != 2:
        raise ValueError(f"2-action scanner needs m = 2, got m = {game.m}")
    if game.potential is None:
        raise ValueError("landscape analysis requires a game with a potential")
    if grid < 8:
        raise ValueError("grid too coarse")

    def g(x1: float) -> float:
        grad = _gradient(game, np.array([x1, 1.0 - x1]))
        return float(grad[0] - grad[1])

    xs = np.linspace(0.0, 1.0, grid + 1)
    gs = np.array([g(x) for x in xs])

    near_zero = np.abs(gs) < _TANGENT_ZERO
    if np.count_nonzero(near_zero[1:-1]) > grid // 2:
        warnings.warn(
            "non-isolated critical set: the reduced derivative vanishes on more "
            "than half the scan grid; classification is degenerate everywhere",
            LandscapeWarning,
        )
        return [
            _make_point(game, np.array([x, 1.0 - x]), "saddle_or_degenerate", x in (0.0, 1.0))
            for x in xs
        ]

    found: list[tuple[float, str]] = []

    def classify(sign_left: float, sign_right: float) -> str:
        if sign_left > 0 and sign_right < 0:
            return "local_max"
        if sign_left < 0 and sign_right > 0:
            return "local_min"
        return "saddle_or_degenerate"

    i = 1
    while i < grid:
        if near_zero[i]:
            # batch a run of consecutive near-zero grid points
            j = i
            while j < grid and near_zero[j]:
                j += 1
            lo = max(xs[i - 1], 0.0)
            hi = min(xs[j], 1.0)
            res = optimize.minimize_scalar(
                lambda v: abs(g(v)), bounds=(lo, hi), method="bounded",
                options={"xatol": refine_tol},
            )
            root = float(res.x)
            found.append((root, classify(np.sign(gs[i - 1]), np.sign(gs[j]))))
            i = j + 1
            continue
        if gs[i - 1] != 0.0 and np.sign(gs[i - 1]) != np.sign(gs[i]) and not near_zero[i - 1]:
            a, b = xs[i - 1], xs[i]
            ga = gs[i - 1]
            while b - a > refine_tol:
                mid = 0.5 * (a + b)
                gm = g(mid)
                if gm == 0.0:
                    a = b = mid
                    break
                if (gm > 0) == (ga > 0):
                    a, ga = mid, gm
                else:
                    b = mid
            root = 0.5 * (a + b)
            found.append((root, classify(np.sign(gs[i - 1]), np.sign(gs[i]))))
        i += 1

    # dedupe interior roots, then add the vertices with one-sided classes
    found.sort()
    merged: list[tuple[float, str]] = []
    for root, kind in found:
        if merged and abs(root - merged[-1][0]) <= 10.0 * refine_tol:
            continue
        if root <= 10.0 * refine_tol or root >= 1.0 - 10.0 * refine_tol:
            continue  # ended up on a vertex; handled below
        merged.append((root, kind))

    points = [
        _make_point(game, np.array([x1, 1.0 - x1]), kind, on_boundary=False)
        for x1, kind in merged
    ]

    inner_left = next((gs[i] for i in range(1, grid) if not near_zero[i]), 0.0)
    inner_right = next((gs[i] for i in range(grid - 1, 0, -1) if not near_zero[i]), 0.0)
    kind_left = "local_min" if inner_left > 0 else ("local_max" if inner_left < 0 else "saddle_or_degenerate")
    kind_right = "local_max" if inner_right > 0 else ("local_min" if inner_right < 0 else "saddle_or_degenerate")
    points.insert(0, _make_point(game, np.array([0.0, 1.0]), kind_left, on_boundary=True))
    points.append(_make_point(game, np.array([1.0, 0.0]), kind_right, on_boundary=True))

    _warn_vertex_maxima(points)
    return points


def _warn_vertex_maxima(points: list[CriticalPoint]) -> None:
    for cp in points:
        if cp.on_boundary and np.max(cp.x) > 1.0 - 1e-9 and cp.kind == "local_max":
            warnings.warn(
                f"pure configuration {cp.x.tolist()} classifies as a local maximum "
                "of the potential; the metastability guarantees assume this does "
                "not happen",
                LandscapeWarning,
            )


def _tangent_directions(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    dirs = []
    while len(dirs) < count:
        v = rng.standard_normal(m)
        v -= v.mean()
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            dirs.append(v / norm)
    return np.asarray(dirs)


def _classify_by_sphere(game: Game, x: np.ndarray, eps: float, rng: np.random.Generator) -> str:
    m = x.size
    phi0 = float(game.potential(x))
    noise = 64.0 * np.finfo(float).eps * max(1.0, abs(phi0))
    higher = lower = False
    for d in _tangent_directions(m, 2 * m * m, rng):
        y = x + eps * d
        if np.any(y < 0.0):
            y = np.maximum(y, 0.0)
            y = y / y.sum()
            if np.linalg.norm(y - x) < 0.25 * eps:
                continue
        dphi = float(game.potential(y)) - phi0
        if dphi > noise:
            higher = True
        elif dphi < -noise:
            lower = True
    if higher and not lower:
        return "local_min"
    if lower and not higher:
        return "local_max"
    return "saddle_or_degenerate"


def find_critical_points_multi(
    game: Game,
    starts: int = 64,
    step_tol: float = 1e-5,
    seed: int = 0,
    max_iter: int = 500,
    merge_tol: float = 1e-3,
) -> list[CriticalPoint]:
    """Multi-start search for critical points of the potential on the simplex.

    From each start this runs projected-gradient ascent and descent (which
    land on maxima, minima, and the vertices) and a least-squares solve of
    the reduced gradient (which also lands on saddles; plain ascent or
    descent cannot).  Every non-vertex candidate is polished by a
    derivative-free minimization of the squared reduced gradient, which
    copes with degenerate roots where the least-squares step stalls.
    Candidates closer than merge_tol collapse to one point (exact vertices
    win, then the smallest gradient norm) and classify by sampling the
    potential on 2 m^2 points of an eps-sphere, eps = 10 * step_tol,
    intersected with the simplex.
    """
    if game.potential is None:
        raise ValueError("landscape analysis requires a game with a potential")
    m = game.m
    rng = np.random.default_rng(seed)
    eps = 10.0 * step_tol

    def reduced_grad(u: np.ndarray) -> np.ndarray:
        x = np.append(u, 1.0 - u.sum())
        grad = _gradient(game, x)
        return grad[:-1] - grad[-1]

    def grad_sq(u: np.ndarray) -> float:
        if np.any(u < -1e-12) or u.sum() > 1.0 + 1e-12:
            return 1e12
        return float(np.sum(reduced_grad(np.maximum(u, 0.0)) ** 2))

    def tangent_grad_norm(x: np.ndarray) -> float:
        grad = _gradient(game, x)
        return float(np.linalg.norm(grad - grad.mean()))

    candidates: list[np.ndarray] = [np.eye(m)[i] for i in range(m)]

    def walk(x: np.ndarray, direction: float) -> np.ndarray:
        step = 0.1
        for _ in range(max_iter):
            grad = _gradient(game, x)
            v = grad - grad.mean()
            if np.linalg.norm(v) < step_tol:
                break
            moved = False
            while step > 1e-12:
                y = np.maximum(x + direction * step * v, 0.0)
                s = y.sum()
                if s <= 0.0:
                    step *= 0.5
                    continue
                y /= s
                better = (game.potential(y) - game.potential(x)) * direction
                if better > 0.0:
                    if np.linalg.norm(y - x) < 0.25 * step_tol:
                        return y
                    x = y
                    moved = True
                    step *= 1.5
                    break
                step *= 0.5
            if not moved:
                break
        return x

    for _ in range(starts):
        u0 = uniform_simplex_sample(rng, m)
        candidates.append(walk(u0.copy(), +1.0))
        candidates.append(walk(u0.copy(), -1.0))
        try:
            sol = optimize.least_squares(
                reduced_grad, u0[:-1], bounds=(np.zeros(m - 1), np.ones(m - 1)),
                xtol=step_tol * 1e-3, ftol=1e-14, gtol=1e-14,
            )
        except Exception:
            continue
        u = sol.x
        total = u.sum()
        if total <= 1.0 + 1e-9 and np.max(np.abs(reduced_grad(u))) < max(10.0 * step_tol, 1e-6):
            x = np.append(u, max(0.0, 1.0 - total))
            candidates.append(x / x.sum())

    def is_vertex(x: np.ndarray) -> bool:
        return bool(np.max(x) > 1.0 - 1e-9)

    polished: list[tuple[np.ndarray, float, bool]] = []
    for x in candidates:
        if not is_vertex(x):
            res = optimize.minimize(
                grad_sq, x[:-1], method="Nelder-Mead",
                options={"xatol": 1e-9, "fatol": 0.0, "maxiter": 400 * m},
            )
            u = np.maximum(res.x, 0.0)
            if u.sum() <= 1.0 + 1e-9:
                x = np.append(u, max(0.0, 1.0 - u.sum()))
                x = x / x.sum()
        polished.append((x, tangent_grad_norm(x), is_vertex(x)))

    merged: list[tuple[np.ndarray, float, bool]] = []
    for x, gnorm, vert in sorted(polished, key=lambda t: (not t[2], t[1])):
        if not any(np.linalg.norm(x - y) <= merge_tol for y, _, _ in merged):
            merged.append((x, gnorm, vert))

    points = []
    for x, gnorm, vert in sorted(merged, key=lambda t: tuple(t[0])):
        if not vert and gnorm > max(100.0 * step_tol, 1e-4):
            continue  # walk stalled somewhere non-stationary
        on_boundary = bool(np.min(x) < 1e-9)
        kind = _classify_by_sphere(game, x, eps, rng)
        points.append(_make_point(game, x, kind, on_boundary))

    _warn_vertex_maxima(points)
    return points


def ess_set(critical_points: list[CriticalPoint]) -> list[CriticalPoint]:
    """Evolutionarily stable states: the isolated local maxima.

    Pure configurations that classify as maxima are kept but flagged with a
    warning, since the long-run guarantees assume they do not occur.
    """
    out = [cp for cp in critical_points if cp.is_ess]
    if not out:
        warnings.warn("no evolutionarily stable state among the critical points", LandscapeWarning)
    _warn_vertex_maxima(out)
    return out


def _distances(fractions: np.ndarray, center: np.ndarray, norm: str) -> np.ndarray:
    diff = fractions - center[None, :]
    if norm == "euclidean":
        return np.linalg.norm(diff, axis=1)
    if norm == "sup":
        return np.max(np.abs(diff), axis=1)
    raise ValueError(f"unknown norm {norm!r}")


def time_near_set(
    traj: Trajectory,
    targets: list[np.ndarray] | np.ndarray,
    gamma: float,
    norm: str = "euclidean",
) -> float:
    """Fraction of [0, last recorded time] spent within gamma of the target
    set, integrated exactly from the piecewise-constant path."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    fr = traj.fractions
    near = np.zeros(len(fr), dtype=bool)
    for center in targets:
        near |= _distances(fr, center, norm) < gamma
    total = float(traj.times[-1] - traj.times[0])
    if total <= 0.0:
        return 1.0 if near[0] else 0.0
    dwell = np.diff(traj.times)
    return float(dwell[near[:-1]].sum() / total)


def exit_time(
    traj: Trajectory,
    center: np.ndarray,
    delta: float,
    norm: str = "sup",
) -> float | None:
    """Dwell duration around a point: from first entry into the delta/2-ball
    until the path first sits delta or farther away.  None when the path
    never enters, or never exits before the record ends (censored)."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    center = np.asarray(center, dtype=float)
    d = _distances(traj.fractions, center, norm)
    inside = np.flatnonzero(d < 0.5 * delta)
    if inside.size == 0:
        return None
    start = inside[0]
    outside = np.flatnonzero(d[start:] >= delta)
    if outside.size == 0:
        return None
    return float(traj.times[start + outside[0]] - traj.times[start])


def metastability_report(
    trajectories: list[Trajectory],
    critical_points: list[CriticalPoint],
    game: Game,
    rule: ImitationRule,
    gammas: tuple[float, ...] = (0.05,),
    deltas: tuple[float, ...] = (0.1,),
    drift_margin: float = 0.05,
    drift_samples: int = 200,
    norms: tuple[str, str] = ("euclidean", "sup"),
) -> dict:
    """Aggregate long-run metrics over an ensemble of sample paths.

    Per run: absorbing time (None while unabsorbed), occupation fraction
    near the stable set per gamma, dwell times around each interior critical
    point per delta, and drift-rate checks q_plus >= q_minus on sampled
    states away from fixed points.  Aggregates report medians, censoring
    fractions, and the observed minimum of q_plus / q_minus as the margin.
    """
    ess_points = [cp for cp in critical_points if cp.is_ess]
    ess_targets = [cp.x for cp in ess_points]
    interior_points = [cp for cp in critical_points if not cp.on_boundary]
    fixed_centers = [cp.x for cp in critical_points]
    m = game.m
    for i in range(m):
        v = np.zeros(m)
        v[i] = 1.0
        if not any(np.allclose(v, c) for c in fixed_centers):
            fixed_centers.append(v)

    near_norm, exit_norm = norms
    per_run = []
    violations_total = 0
    min_ratio: float | None = None
    lam = float(trajectories[0].meta.get("lambda", 1.0)) if trajectories else 1.0

    for traj in trajectories:
        entry: dict = {
            "seed": traj.meta.get("seed"),
            "n": traj.n,
            "absorbed_at": traj.absorbed_at,
            "absorbing_action": traj.absorbing_action,
            "event_count": traj.event_count,
        }
        entry["time_near_ess"] = {
            str(g): (time_near_set(traj, ess_targets, g, norm=near_norm) if ess_targets else None)
            for g in gammas
        }
        exits = []
        for idx, cp in enumerate(interior_points):
            for dlt in deltas:
                exits.append(
                    {
                        "point": idx,
                        "center": [float(v) for v in cp.x],
                        "delta": dlt,
                        "dwell": exit_time(traj, cp.x, dlt, norm=exit_norm),
                    }
                )
        entry["exit_times"] = exits

        stride = max(1, len(traj.times) // drift_samples)
        fractions = traj.fractions
        viol = 0
        run_min: float | None = None
        for row in range(0, len(traj.times), stride):
            x = fractions[row]
            if any(np.max(np.abs(x - c)) <= drift_margin for c in fixed_centers):
                continue
            dr = potential_drift_rates(game, rule, traj.state(row), lam)
            if dr.q_plus < dr.q_minus:
                viol += 1
            if dr.q_minus > 0.0:
                ratio = dr.q_plus / dr.q_minus
                run_min = ratio if run_min is None else min(run_min, ratio)
        entry["drift_violations"] = viol
        entry["min_drift_ratio"] = run_min
        violations_total += viol
        if run_min is not None:
            min_ratio = run_min if min_ratio is None else min(min_ratio, run_min)
        per_run.append(entry)

    absorbed = [e["absorbed_at"] for e in per_run if e["absorbed_at"] is not None]
    aggregates: dict = {
        "runs": len(per_run),
        "absorbed_fraction": (len(absorbed) / len(per_run)) if per_run else None,
        "median_absorbing_time": float(np.median(absorbed)) if absorbed else None,
        "median_time_near_ess": {
            str(g): (
                float(np.median([e["time_near_ess"][str(g)] for e in per_run]))
                if per_run and ess_targets
                else None
            )
            for g in gammas
        },
        "drift_violations": violations_total,
        "observed_min_drift_ratio": min_ratio,
    }
    exit_agg = []
    for idx, cp in enumerate(interior_points):
        for dlt in deltas:
            vals = []
            censored = 0
            for e in per_run:
                match = next(
                    v["dwell"] for v in e["exit_times"] if v["point"] == idx and v["delta"] == dlt
                )
                if match is None:
                    censored += 1
                else:
                    vals.append(match)
            exit_agg.append(
                {
                    "point": idx,
                    "center": [float(v) for v in cp.x],
                    "kind": cp.kind,
                    "delta": dlt,
                    "median_dwell": float(np.median(vals)) if vals else None,
                    "censored_fraction": (censored / len(per_run)) if per_run else None,
                }
            )
    aggregates["exit_times"] = exit_agg

    caught: list[str] = []
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        ess_set(critical_points)
        caught = [str(w.message) for w in wlist]

    return {
        "critical_points": [critical_point_to_dict(cp) for cp in critical_points],
        "norms": {"time_near_set": near_norm, "exit_time": exit_norm},
        "per_run": per_run,
        "aggregates": aggregates,
        "warnings": caught,
    }
