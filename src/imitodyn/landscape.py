"""Potential-landscape analysis and long-run trajectory metrics.

Critical points of the potential restricted to the simplex classify the
long-run behavior of the dynamics: isolated local maxima are evolutionarily
stable, minima and saddles repel, and the two vertices of a 2-action game
are always flow fixed points.  Trajectory metrics quantify metastability:
occupation time near stable points, dwell time around unstable ones, and
the split of jump rates into potential-raising and potential-lowering parts.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from ._law import potential_pair
from .engine import Trajectory, potential_drift_rates
from .games import Game, PopulationType, _fd_gradient, uniform_simplex_sample
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

_TANGENT_ZERO = 1e-9  # |reduced derivative| below this flags a tangential zero
_REFINE_TOL = 1e-9  # 2-action roots are bisected to this width
_SLOPE_STEP = 1e-6  # half-width of the difference that locates an even-order zero
_STEP_TOL = 1e-5  # least-squares step tolerance; points classify on a sphere of 10x this
_MERGE_TOL = 1e-3  # multi-start candidates this close collapse to one point
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


def _gradient(game: Game, x: np.ndarray) -> np.ndarray:
    if game.potential_gradient is not None:
        return np.asarray(game.potential_gradient(x), dtype=float)
    return _fd_gradient(game.potential, x)


def _reference_pair(game: Game):
    """(phi, grad) on lists of floats through game.potential and _gradient,
    for games that potential_pair does not compile."""

    def phi(x: list) -> float:
        return float(game.potential(np.array(x)))

    def grad(x: list) -> list:
        return _gradient(game, np.array(x)).tolist()

    return phi, grad


def _is_ne(game: Game, x: np.ndarray, tol: float = 1e-7) -> bool:
    r = game.rewards_at(x)
    used = x > 1e-9
    scale = max(1.0, float(np.max(np.abs(r))))
    return bool(np.min(r[used]) >= np.max(r) - tol * scale)


def _make_point(game: Game, phi, x: np.ndarray, kind: str, on_boundary: bool) -> CriticalPoint:
    x = np.asarray(x, dtype=float)
    ne = _is_ne(game, x)
    return CriticalPoint(
        x=x,
        phi=phi(x.tolist()),
        kind=kind,
        is_ne=ne,
        is_ess=(kind == "local_max" and ne),
        on_boundary=on_boundary,
    )


def _bisect(f, a: float, b: float) -> float:
    """A sign change of f on [a, b], bisected to _REFINE_TOL."""
    fa = f(a)
    while b - a > _REFINE_TOL:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _scan(g, grid: int) -> list[float] | None:
    """Scan a scalar function g on [0, 1] at grid + 1 points.

    Sign changes bracket transversal roots, bisected to _REFINE_TOL.  A run
    of grid points with |g| < 1e-9 is bracketed by its two neighbours: when
    they differ in sign the run holds a transversal root, bisected on g;
    otherwise it holds an even-order zero, bisected on the slope
    g(v + h) - g(v - h).

    Returns the merged roots strictly inside (0, 1), or None when near-zero
    values flood more than half the grid.
    """
    def slope(v: float) -> float:
        return g(v + _SLOPE_STEP) - g(v - _SLOPE_STEP)

    xs = np.linspace(0.0, 1.0, grid + 1)
    gs = np.array([g(x) for x in xs.tolist()])

    near_zero = np.abs(gs) < _TANGENT_ZERO
    if np.count_nonzero(near_zero[1:-1]) > grid // 2:
        return None

    found: list[float] = []
    i = 1
    while i < grid:
        if near_zero[i]:
            # batch a run of consecutive near-zero grid points
            j = i
            while j < grid and near_zero[j]:
                j += 1
            transversal = np.sign(gs[i - 1]) * np.sign(gs[j]) < 0
            found.append(_bisect(g if transversal else slope, float(xs[i - 1]), float(xs[j])))
            i = j + 1
            continue
        if gs[i - 1] != 0.0 and np.sign(gs[i - 1]) != np.sign(gs[i]) and not near_zero[i - 1]:
            found.append(_bisect(g, float(xs[i - 1]), float(xs[i])))
        i += 1

    # dedupe the roots and drop those that ended up on an end point
    found.sort()
    merged: list[float] = []
    for root in found:
        if merged and abs(root - merged[-1]) <= 10.0 * _REFINE_TOL:
            continue
        if root <= 10.0 * _REFINE_TOL or root >= 1.0 - 10.0 * _REFINE_TOL:
            continue
        merged.append(root)
    return merged


def _warn_vertex_maxima(points: list[CriticalPoint]) -> None:
    for cp in points:
        if cp.on_boundary and np.max(cp.x) > 1.0 - 1e-9 and cp.kind == "local_max":
            warnings.warn(
                f"pure configuration {cp.x.tolist()} classifies as a local maximum "
                "of the potential; the metastability guarantees assume this does "
                "not happen",
                LandscapeWarning,
            )


def _tangent_directions(m: int, rng: np.random.Generator | None) -> np.ndarray:
    """The m (m - 1) pairwise directions +-(e_a - e_b) / sqrt 2, then 2 m^2
    random ones when rng is given."""
    eye = np.eye(m)
    dirs = [(eye[a] - eye[b]) / np.sqrt(2.0) for a, b in itertools.permutations(range(m), 2)]
    count = len(dirs) + (2 * m * m if rng is not None else 0)
    while len(dirs) < count:
        v = rng.standard_normal(m)
        v -= v.mean()
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            dirs.append(v / norm)
    return np.asarray(dirs)


def _classify_by_sphere(phi, x: np.ndarray, eps: float, rng: np.random.Generator | None) -> str:
    m = x.size
    phi0 = phi(x.tolist())
    noise = 64.0 * np.finfo(float).eps * max(1.0, abs(phi0))
    higher = lower = False
    for d in _tangent_directions(m, rng):
        y = x + eps * d
        if np.any(y < 0.0):
            y = np.maximum(y, 0.0)
            y = y / y.sum()
            if np.linalg.norm(y - x) < 0.25 * eps:
                continue
        dphi = phi(y.tolist()) - phi0
        if dphi > noise:
            higher = True
        elif dphi < -noise:
            lower = True
    if higher and not lower:
        return "local_min"
    if lower and not higher:
        return "local_max"
    return "saddle_or_degenerate"


def _merge(xs: list[np.ndarray]) -> list[np.ndarray]:
    """The points of xs, in order, that lie farther than _MERGE_TOL from every earlier kept one."""
    kept: list[np.ndarray] = []
    for x in xs:
        if not any(np.linalg.norm(x - y) <= _MERGE_TOL for y in kept):
            kept.append(x)
    return kept


def _warn_continuum(face: tuple) -> None:
    what = f"edge {face}" if len(face) == 2 else f"face {face}"
    warnings.warn(
        f"non-isolated critical set: the rewards on {what} are equal on a continuum of "
        f"points; the {what.split()[0]} adds no critical points",
        LandscapeWarning,
    )


def _exact_points(game: Game, phi) -> tuple[list[CriticalPoint], list[list[int]]]:
    """Every face rest point of a congestion game, found and classified
    exactly by _exact.rest_points; and the faces that hold a continuum."""
    from ._exact import rest_points  # fractions loads only when an exact search runs

    found, continuum = rest_points(game.potential_gradient.coeffs)
    for face in continuum:
        _warn_continuum(tuple(face))
    points = [
        CriticalPoint(
            x=np.array(x), phi=phi(x), kind=kind, is_ne=ne,
            is_ess=(kind == "local_max" and ne), on_boundary=on_boundary,
        )
        for x, kind, ne, on_boundary in found
    ]
    return sorted(points, key=lambda p: tuple(p.x)), continuum


def _numeric_points(game: Game, starts: int, seed: int, grid: int):
    """The face-by-face numeric search of a game without polynomial
    coefficients: (points, flooded edges, raised least-squares solves)."""
    m = game.m
    rng = np.random.default_rng(seed) if m > 2 else None
    phi, grad = _reference_pair(game)
    candidates: list[np.ndarray] = list(np.eye(m))

    flooded = []
    for a, b in itertools.combinations(range(m), 2):

        def g(t: float, a: int = a, b: int = b) -> float:
            x = [0.0] * m
            x[a], x[b] = t, 1.0 - t
            d = grad(x)
            return d[a] - d[b]

        roots = _scan(g, grid)
        if roots is None:
            flooded.append([a, b])
            warnings.warn(
                f"non-isolated critical set: the reduced derivative on edge ({a}, {b}) vanishes "
                "on more than half the scan grid; the edge adds no critical points",
                LandscapeWarning,
            )
            continue
        for t in roots:
            x = np.zeros(m)
            x[a], x[b] = t, 1.0 - t
            candidates.append(x)

    def face_points(face: tuple[int, ...]) -> list[np.ndarray]:
        nonlocal failed
        from scipy import optimize

        k = len(face)

        def embed(u: np.ndarray) -> np.ndarray:  # (u, 1 - sum u) on the face, 0 elsewhere
            x = np.zeros(m)
            x[list(face)] = np.append(u, 1.0 - u.sum())
            return x

        def reduced(u: np.ndarray) -> np.ndarray:  # face gradient minus its last entry
            d = grad(embed(u).tolist())
            return np.array([d[i] - d[face[-1]] for i in face[:-1]])

        def grad_sq(u: np.ndarray) -> float:
            if np.any(u < -1e-12) or u.sum() > 1.0 + 1e-12:
                return 1e12
            return float(np.sum(reduced(np.maximum(u, 0.0)) ** 2))

        def lift(u: np.ndarray) -> np.ndarray:
            x = np.maximum(embed(u), 0.0)
            return x / x.sum()

        solved = []
        for _ in range(starts):
            u0 = uniform_simplex_sample(rng, k)
            try:
                sol = optimize.least_squares(
                    reduced, u0[:-1], bounds=(np.zeros(k - 1), np.ones(k - 1)),
                    xtol=_STEP_TOL * 1e-3, ftol=1e-14, gtol=1e-14,
                )
            except Exception:
                failed += 1
                continue
            residual = float(np.max(np.abs(reduced(sol.x))))
            if sol.x.sum() <= 1.0 + 1e-9 and residual < max(10.0 * _STEP_TOL, 1e-6):
                solved.append((residual, lift(sol.x)))

        out = []
        for x in _merge([x for _, x in sorted(solved, key=lambda t: t[0])]):
            res = optimize.minimize(
                grad_sq, x[list(face)][:-1], method="Nelder-Mead",
                options={"xatol": 1e-9, "fatol": 0.0, "maxiter": 400 * k},
            )
            u = np.maximum(res.x, 0.0)
            out.append(lift(u) if u.sum() <= 1.0 + 1e-9 else x)
        return out

    failed = 0
    for k in range(3, m + 1):
        for face in itertools.combinations(range(m), k):
            candidates.extend(face_points(face))

    points = []
    for x in sorted(_merge(candidates), key=tuple):
        kind = _classify_by_sphere(phi, x, 10.0 * _STEP_TOL, rng)
        points.append(_make_point(game, phi, x, kind, on_boundary=bool(np.min(x) < 1e-9)))
    return points, flooded, failed


def find_critical_points_multi(
    game: Game,
    starts: int = 64,
    seed: int = 0,
    grid: int = 2000,
    search: dict | None = None,
) -> list[CriticalPoint]:
    """Critical points of the potential on every face of the simplex.

    The rest points of imitation dynamics are the restricted equilibria of
    the faces: on the face with support S, r_a(x_a) = mu for every a in S
    (Sandholm 2010, ch. 5).  Every vertex is one.

    A congestion game (the game potential_pair compiles, which includes
    every game a config builds) is solved exactly, from its polynomial
    coefficients as fractions, with no random numbers: `starts`, `seed`
    and `grid` are checked but unused, and scipy is never imported.
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

    Any other game takes the numeric search.  Each edge (a, b) is scanned
    with _scan at grid + 1 points of g(t) = dPhi/dx_a - dPhi/dx_b at
    t e_a + (1 - t) e_b.  On each face of three or more actions a
    least-squares solve of the face's reduced gradient runs from `starts`
    uniform points of the face; solutions closer than _MERGE_TOL collapse
    to the one with the smallest residual, which a derivative-free
    minimization of the squared reduced gradient then polishes.  Across
    faces, vertices win, then edge roots, then the smaller faces.  Every
    point classifies by sampling the potential on an eps-sphere,
    eps = 10 * _STEP_TOL, intersected with the simplex: in the m (m - 1)
    directions +-(e_a - e_b) and, for m >= 3, 2 m^2 random ones drawn from
    `seed`.  scipy and numpy.random load only when a face of three or more
    actions exists.

    An edge or face that holds a continuum of rest points adds no point
    and raises a LandscapeWarning.  When `search` is a dict it receives the
    search facts: "method" ("exact" or "numeric"), "faces" (the faces of
    two or more actions solved), "points" and "continuum_faces".
    """
    if game.potential is None:
        raise ValueError("landscape analysis requires a game with a potential")
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if grid < 8:
        raise ValueError(f"grid too coarse: {grid} < 8")
    m = game.m
    compiled = potential_pair(game)
    if compiled is not None:
        points, continuum = _exact_points(game, compiled[0])
        extra = ""
    else:
        points, continuum, failed = _numeric_points(game, starts, seed, grid)
        extra = f", {starts} starts, {failed} least_squares solves raised"
    facts = {
        "method": "numeric" if compiled is None else "exact",
        "faces": 2**m - 1 - m,
        "points": len(points),
        "continuum_faces": continuum,
    }
    logger.debug(
        "find_critical_points_multi: %s search, %d faces, %d points, %d continuum faces%s",
        facts["method"], facts["faces"], facts["points"], len(continuum), extra,
    )
    if search is not None:
        search.update(facts)
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

    near_norm, exit_norm = "euclidean", "sup"
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
                dwell = exit_time(traj, cp.x, dlt, norm=exit_norm)
                entered = dwell is not None
                if not entered:
                    # a path that entered and never left ends within delta; one
                    # that ends within delta/2 has entered; else scan the path
                    last = float(_distances(traj.counts[-1:] / traj.n, cp.x, exit_norm)[0])
                    entered = last < 0.5 * dlt or (
                        last < dlt and bool(np.min(_distances(traj.fractions, cp.x, exit_norm)) < 0.5 * dlt)
                    )
                exits.append(
                    {
                        "point": idx,
                        "center": [float(v) for v in cp.x],
                        "delta": dlt,
                        "entered": entered,
                        "dwell": dwell,
                    }
                )
        entry["exit_times"] = exits

        stride = max(1, len(traj.times) // _DRIFT_SAMPLES)
        fractions = traj.fractions
        viol = 0
        run_min: float | None = None
        for row in range(0, len(traj.times), stride):
            x = fractions[row]
            if any(np.max(np.abs(x - c)) <= _DRIFT_MARGIN for c in fixed_centers):
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
            rows = [
                next(v for v in e["exit_times"] if v["point"] == idx and v["delta"] == dlt) for e in per_run
            ]
            # a censored dwell lasts past the record: +inf in the median
            dwells = [np.inf if v["dwell"] is None else v["dwell"] for v in rows if v["entered"]]
            censored = dwells.count(np.inf)
            exit_agg.append(
                {
                    "point": idx,
                    "center": [float(v) for v in cp.x],
                    "kind": cp.kind,
                    "delta": dlt,
                    "median_dwell": float(np.median(dwells)) if 2 * censored < len(dwells) else None,
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
