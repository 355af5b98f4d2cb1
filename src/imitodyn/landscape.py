"""Potential-landscape analysis and long-run trajectory metrics.

Critical points of the potential restricted to the simplex classify the
long-run behavior of the dynamics: isolated local maxima are evolutionarily
stable, minima and saddles repel, and the two vertices of a 2-action game
are always flow fixed points.  The critical points of a congestion game
are solved and classified exactly from its polynomial coefficients.
Trajectory metrics quantify metastability: occupation time near stable
points, dwell time around unstable ones, and the split of jump rates into
potential-raising and potential-lowering parts.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import Trajectory, potential_drift_rates
from .games import Game
from .rules import ImitationRule

__all__ = [
    "CriticalPoint",
    "LandscapeWarning",
    "find_critical_points_multi",
    "ess_set",
    "time_near_set",
    "exit_time",
    "metastability_report",
    "critical_point_to_dict",
]

logger = logging.getLogger(__name__)

_DRIFT_MARGIN = 0.05  # drift checks skip states this close (sup norm) to a fixed point
_DRIFT_SAMPLES = 200  # about this many drift checks per run


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


def _warn_vertex_maxima(points: list[CriticalPoint]) -> None:
    for cp in points:
        if cp.on_boundary and np.max(cp.x) > 1.0 - 1e-9 and cp.kind == "local_max":
            warnings.warn(
                f"pure configuration {cp.x.tolist()} classifies as a local maximum "
                "of the potential; the metastability guarantees assume this does "
                "not happen",
                LandscapeWarning,
            )


def _warn_continuum(face: tuple) -> None:
    what = f"edge {face}" if len(face) == 2 else f"face {face}"
    warnings.warn(
        f"non-isolated critical set: the rewards on {what} are equal on a continuum of "
        f"points; the {what.split()[0]} adds no critical points",
        LandscapeWarning,
    )


def _exact_points(game: Game) -> tuple[list[CriticalPoint], list[list[int]]]:
    """Every face rest point of a congestion game, found and classified
    exactly by _exact.rest_points; and the faces that hold a continuum."""
    from ._exact import rest_points  # fractions loads only when an exact search runs

    found, continuum = rest_points(game.coeffs)
    for face in continuum:
        _warn_continuum(tuple(face))
    points = [
        CriticalPoint(
            x=np.array(x), phi=game.potential(x), kind=kind, is_ne=ne,
            is_ess=(kind == "local_max" and ne), on_boundary=on_boundary,
        )
        for x, kind, ne, on_boundary in found
    ]
    return sorted(points, key=lambda p: tuple(p.x)), continuum


def find_critical_points_multi(game: Game, search: dict | None = None) -> list[CriticalPoint]:
    """Critical points of the potential on every face of the simplex.

    The rest points of imitation dynamics are the restricted equilibria of
    the faces: on the face with support S, r_a(x_a) = mu for every a in S
    (Sandholm 2010, ch. 5).  Every vertex is one.

    A game is its reward polynomials, and it is solved exactly from their
    coefficients as fractions, with no random numbers.
      - On each edge (a, b) the rest points are the roots in (0, 1) of
        g(t) = r_a(t) - r_b(1 - t), found by _exact.unit_roots: exact for
        the root of a linear factor or one that bisection hits, otherwise
        bracketed until both coordinates round to one float.
      - On a face of three or more affine rewards, sum_a x_a(mu) = 1 is
        linear in mu and solved exactly; a constant reward fixes mu, and
        the other coordinates are exact roots of r_b - mu.
      - Otherwise x_a(mu) inverts r_a on each of its monotone pieces, in
        floats, and sum_a x_a(mu) = 1 is bisected over the mu range a tuple
        of pieces shares: at most one root where the pieces all rise or all
        fall, a scan of 65 values of mu where they are mixed (a
        root where the sum touches 1 without crossing it is missed there).
      - Each point classifies exactly.  Within its face, Phi is a local
        max (min) when diag(r_a'(x_a)) is negative (positive) definite on
        {sum v = 0}; at an edge root of multiplicity k, when g^(k) < 0
        (> 0) for odd k.  Entering an absent action b changes Phi at the
        rate r_b(0) - mu.  A local max needs a max within the face and
        r_b(0) < mu for every absent b, a local min the reverse; a singular
        face Hessian, an even multiplicity or a tie r_b(0) = mu is
        saddle_or_degenerate.  A point is a NE iff r_b(0) <= mu for every
        absent b (Sandholm 2001: the NE of a potential game are the KKT
        points of its potential).

    An edge or face that holds a continuum of rest points adds no point
    and raises a LandscapeWarning.  When `search` is a dict it receives the
    search facts: "method" ("exact"), "faces" (the faces of two or more
    actions solved), "points" and "continuum_faces".  Each point's phi is
    game.potential at it.
    """
    points, continuum = _exact_points(game)
    faces = 2**game.m - 1 - game.m
    logger.debug(
        "find_critical_points_multi: exact search, %d faces, %d points, %d continuum faces",
        faces, len(points), len(continuum),
    )
    if search is not None:
        search.update(method="exact", faces=faces, points=len(points), continuum_faces=continuum)
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
        # row by row in numpy's order (pairwise from m = 8 on); a row's
        # norm does not depend on the other rows of the array
        return np.linalg.norm(diff, axis=1)
    if norm == "sup":
        return np.max(np.abs(diff), axis=1)
    raise ValueError(f"unknown norm {norm!r}")


class _Path:
    """A sample path as the metrics read it: its times, its distinct
    states and the state of each row (`index`).  Fractions and distances
    are computed once per state, the distances once per (center, norm).

    The states are the path's distinct count rows, found by sorting one
    integer key per row (the first m - 1 counts in base n + 1) and decoding
    the distinct keys, or, when the key does not fit in int64, by sorting
    the rows themselves."""

    def __init__(self, traj: Trajectory) -> None:
        self.times = traj.times
        counts, n = traj.counts, traj.n
        m = counts.shape[1]
        if (n + 1) ** (m - 1) < 2**62:
            key = counts[:, 0]
            for a in range(1, m - 1):
                key = key * (n + 1) + counts[:, a]
            key, self.index = np.unique(key, return_inverse=True)
            states = np.empty((key.size, m), dtype=np.int64)
            for a in range(m - 2, 0, -1):
                key, states[:, a] = np.divmod(key, n + 1)
            states[:, 0] = key
            states[:, -1] = n - states[:, :-1].sum(axis=1)
        else:
            states, index = np.unique(counts, axis=0, return_inverse=True)
            self.index = index.reshape(-1)
        self.fractions = states / n
        self._distance: dict = {}

    def distances(self, center: np.ndarray, norm: str) -> np.ndarray:
        """_distances of each state from center."""
        key = (center.tobytes(), norm)
        d = self._distance.get(key)
        if d is None:
            d = self._distance[key] = _distances(self.fractions, center, norm)
        return d


def _path(traj: Trajectory | _Path) -> _Path:
    return traj if isinstance(traj, _Path) else _Path(traj)


def _median(values: list[float]) -> float:
    """The median as np.median gives it, by sorting: the middle value, or
    the mean of the middle two as (a + b) / 2."""
    s = sorted(values)
    half = len(s) // 2
    return float(s[half]) if len(s) % 2 else float((s[half - 1] + s[half]) / 2)


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
    path = _path(traj)
    near = np.zeros(len(path.fractions), dtype=bool)
    for center in targets:
        near |= path.distances(center, norm) < gamma
    total = float(path.times[-1] - path.times[0])
    if total <= 0.0:
        return 1.0 if near[path.index[0]] else 0.0
    dwell = np.diff(path.times)
    return float(dwell[near[path.index[:-1]]].sum() / total)


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
    return _dwell(_path(traj), np.asarray(center, dtype=float), delta, norm)[1]


def _dwell(path: _Path, center: np.ndarray, delta: float, norm: str) -> tuple[bool, float | None]:
    """(entered, dwell): whether the path enters the delta/2-ball, and
    exit_time's dwell."""
    d = path.distances(center, norm)
    inside = (d < 0.5 * delta)[path.index]
    start = int(inside.argmax())
    if not inside[start]:
        return False, None
    outside = (d >= delta)[path.index[start:]]
    stop = int(outside.argmax())
    if not outside[stop]:
        return True, None
    return True, float(path.times[start + stop] - path.times[start])


def metastability_report(
    trajectories: Iterable[Trajectory],
    critical_points: list[CriticalPoint],
    game: Game,
    rule: ImitationRule,
    gammas: tuple[float, ...] = (0.05,),
    deltas: tuple[float, ...] = (0.1,),
) -> dict:
    """Aggregate long-run metrics over an ensemble of sample paths.

    Per run: absorbing time (None while unabsorbed), occupation fraction
    near the stable set per gamma, dwell times around each interior critical
    point per delta (with whether the path entered the delta/2 ball at
    all), and drift-rate checks q_plus >= q_minus on sampled states away
    from fixed points.  Aggregates report medians, the observed minimum of
    q_plus / q_minus as the margin, and per point and delta: the fraction
    of runs that never entered, the fraction that entered but never left
    (censored), and median_dwell over the runs that entered, a censored
    dwell counting as +inf, None when half or more of them are censored.
    Each run's drift rates are taken at that run's lambda, and the runs are
    read once, so any iterable of them will do.
    """
    ess_points = [cp for cp in critical_points if cp.is_ess]
    ess_targets = [cp.x for cp in ess_points]
    interior_points = [cp for cp in critical_points if not cp.on_boundary]
    # (point, critical point, delta) of each dwell, in each run's exit_times order
    exit_cases = [(idx, cp, dlt) for idx, cp in enumerate(interior_points) for dlt in deltas]
    fixed_centers = [cp.x for cp in critical_points]
    m = game.m
    for i in range(m):
        v = np.zeros(m)
        v[i] = 1.0
        if not any(np.allclose(v, c) for c in fixed_centers):
            fixed_centers.append(v)

    near_norm, exit_norm = "euclidean", "sup"
    per_run = []
    violations_total = 0
    min_ratio: float | None = None

    drift: dict = {}  # (n, lam, counts) -> (q_plus, q_minus): each state's rates once per report
    for traj in trajectories:
        lam = float(traj.meta.get("lambda", 1.0))
        path = _Path(traj)
        entry: dict = {
            "seed": traj.meta.get("seed"),
            "n": traj.n,
            "absorbed_at": traj.absorbed_at,
            "absorbing_action": traj.absorbing_action,
            "event_count": traj.event_count,
        }
        entry["time_near_ess"] = {
            str(g): (time_near_set(path, ess_targets, g, norm=near_norm) if ess_targets else None)
            for g in gammas
        }
        exits = []
        for idx, cp, dlt in exit_cases:
            entered, dwell = _dwell(path, cp.x, dlt, exit_norm)
            exits.append(
                {"point": idx, "center": [float(v) for v in cp.x], "delta": dlt, "entered": entered, "dwell": dwell}
            )
        entry["exit_times"] = exits

        # drift checks on every stride-th row whose state lies farther than
        # the margin from every fixed point
        stride = max(1, len(traj.times) // _DRIFT_SAMPLES)
        away = np.ones(len(path.fractions), dtype=bool)
        for c in fixed_centers:
            away &= ~(path.distances(c, "sup") <= _DRIFT_MARGIN)
        rows = np.arange(0, len(traj.times), stride)
        rows = rows[away[path.index[rows]]].tolist()
        viol = 0
        run_min: float | None = None
        for row in rows:
            key = (traj.n, lam, traj.counts[row].tobytes())
            q = drift.get(key)
            if q is None:
                dr = potential_drift_rates(game, rule, traj.state(row), lam)
                q = drift[key] = (dr.q_plus, dr.q_minus)
            q_plus, q_minus = q
            if q_plus < q_minus:
                viol += 1
            if q_minus > 0.0:
                ratio = q_plus / q_minus
                run_min = ratio if run_min is None else min(run_min, ratio)
        entry["drift_violations"] = viol
        entry["min_drift_ratio"] = run_min
        violations_total += viol
        if run_min is not None:
            min_ratio = run_min if min_ratio is None else min(min_ratio, run_min)
        per_run.append(entry)
        del traj, path  # a stream's next run is made without this one

    absorbed = [e["absorbed_at"] for e in per_run if e["absorbed_at"] is not None]
    aggregates: dict = {
        "runs": len(per_run),
        "absorbed_fraction": (len(absorbed) / len(per_run)) if per_run else None,
        "median_absorbing_time": _median(absorbed) if absorbed else None,
        "median_time_near_ess": {
            str(g): (
                _median([e["time_near_ess"][str(g)] for e in per_run])
                if per_run and ess_targets
                else None
            )
            for g in gammas
        },
        "drift_violations": violations_total,
        "observed_min_drift_ratio": min_ratio,
    }
    exit_agg = []
    for q, (idx, cp, dlt) in enumerate(exit_cases):
        rows = [e["exit_times"][q] for e in per_run]
        # a censored dwell lasts past the record: +inf in the median
        dwells = [np.inf if v["dwell"] is None else v["dwell"] for v in rows if v["entered"]]
        censored = dwells.count(np.inf)
        exit_agg.append(
            {
                "point": idx,
                "center": [float(v) for v in cp.x],
                "kind": cp.kind,
                "delta": dlt,
                "median_dwell": _median(dwells) if 2 * censored < len(dwells) else None,
                "censored_fraction": (censored / len(per_run)) if per_run else None,
                "never_entered_fraction": ((len(per_run) - len(dwells)) / len(per_run)) if per_run else None,
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
