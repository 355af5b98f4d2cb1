"""Shared fixtures and exact oracles for the test suite.

transition_rates is the reference jump-rate matrix, engine._rate_matrix at
a population type, that the compiled law and the exact oracles are checked
against.  check_potential_consistency (with _fd_gradient) samples the
simplex for r_j - r_i = dPhi/dx_j - dPhi/dx_i, and verify_sign_condition
samples it for sign(f_ij - f_ji) = sign(r_j - r_i); every game a config
builds and both config rules meet them by construction, so the program
never runs these checks.

The birth-death helpers below compute absorption statistics of the 2-action
complete-graph chain independently of the engine, straight from the rate
definition, so empirical results can be checked against exact numbers.

loop_rhs, loop_rates and loop_step are the loops that the law's generated
straight-line code replaced, kept as its bit-for-bit reference.

loop_complete_2action and loop_complete_generic are the complete-graph
engine as scalar loops at m = 2 and at m >= 3, two random() calls and one
log per jump, which the one block-drawn loop replaced; they are its
bit-for-bit references.

loop_write_trajectory_csv is the trajectory CSV writer that joined one
repr string per cell, which the block writer (output._reprs and its byte
matrices) replaced; it is that writer's byte-for-byte reference.

reference_time_near_set, reference_exit_time, reference_metastability_report
and reference_kurtz_deviation are the path metrics as they were written on
whole fraction arrays, with np.union1d grids and np.median, before they
moved to per-state tables; they are those metrics' bit-for-bit reference.

numeric_critical_points is the numeric landscape search (edge scans,
least-squares face solves and sphere classification) that the exact search
replaced, kept as its cross-check reference; it reads the game only
through game.potential and its gradient, the rewards (reference_pair).
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from scipy import linalg

from imitodyn import (
    CriticalPoint,
    Game,
    ImitationRule,
    LandscapeWarning,
    OdeTrajectory,
    PopulationType,
    Trajectory,
    arctan_rule,
    critical_point_to_dict,
    ess_set,
    example4_game,
    potential_drift_rates,
)
import imitodyn.engine as engine_mod
from imitodyn._law import _Law, pair_tables
from imitodyn.engine import _CHUNK, _rate_matrix, _Recorder
from imitodyn.landscape import _DRIFT_MARGIN, _DRIFT_SAMPLES
from imitodyn.rules import ArctanRule

_TANGENT_ZERO = 1e-9  # |g| below this times the game's largest edge |g| flags a tangential zero
_REFINE_TOL = 1e-9  # 2-action roots are bisected to this width
_SLOPE_STEP = 1e-6  # half-width of the difference that locates an even-order zero
_STEP_TOL = 1e-5  # least-squares step tolerance; points classify on a sphere of 10x this
_MERGE_TOL = 1e-3  # multi-start candidates this close collapse to one point


def transition_rates(game: Game, rule: ImitationRule, state: PopulationType, lam: float = 1.0) -> np.ndarray:
    """Jump-rate matrix: entry (i, j) is the rate of one player moving from
    action i to action j, n * lambda * x_i * x_j * f_ij(x)."""
    if state.m != game.m:
        raise ValueError(f"state has {state.m} actions, game has {game.m}")
    return _rate_matrix(game, rule, state.fractions, state.n, lam)[0]


def uniform_simplex_sample(rng: np.random.Generator, m: int, size: int | None = None) -> np.ndarray:
    """Uniform (flat Dirichlet) samples from the m-action simplex."""
    return rng.dirichlet(np.ones(m), size=size)


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    max_violation: float
    num_samples: int
    tol: float


def _fd_gradient(potential: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (potential(xp) - potential(xm)) / (2.0 * h)
    return g


def check_potential_consistency(
    game: Game,
    num_samples: int = 200,
    tol: float = 1e-6,
    seed: int = 0,
) -> ConsistencyReport:
    """Check r_j - r_i = dPhi/dx_j - dPhi/dx_i on sampled simplex points.

    Gradients come from central finite differences (h = 1e-6) on the stored
    potential; points closer than 1e-5 to the boundary are pulled inward by
    that margin before differencing.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    margin = 1e-5
    worst = 0.0
    for _ in range(num_samples):
        x = uniform_simplex_sample(rng, game.m)
        if np.min(x) < margin:
            x = (x + margin) / (1.0 + game.m * margin)
        r = game.rewards_at(x)
        g = _fd_gradient(game.potential, x)
        dr = r[None, :] - r[:, None]
        dg = g[None, :] - g[:, None]
        worst = max(worst, float(np.max(np.abs(dr - dg))))
    return ConsistencyReport(passed=worst <= tol, max_violation=worst, num_samples=num_samples, tol=tol)


@dataclass(frozen=True)
class SignConditionReport:
    violations: int
    num_samples: int
    worst: tuple | None  # (x, i, j, f_ij, f_ji, r_i, r_j) of the worst violation


def verify_sign_condition(rule: ImitationRule, game: Game, num_samples: int = 1000, seed: int = 0) -> SignConditionReport:
    """Sample simplex points and check sign(f_ij - f_ji) = sign(r_j - r_i).

    Reward ties require |f_ij - f_ji| <= 1e-12.  Returns the violation
    count and the worst offending tuple, if any.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    worst = None
    worst_mag = -1.0
    for _ in range(num_samples):
        x = uniform_simplex_sample(rng, game.m)
        r = game.rewards_at(x)
        F = rule.prob_matrix(r)
        for i in range(game.m):
            for j in range(i + 1, game.m):
                d_f = float(F[i, j] - F[j, i])
                d_r = float(r[j] - r[i])
                if d_r == 0.0:
                    bad = abs(d_f) > 1e-12
                    mag = abs(d_f)
                else:
                    bad = (d_f == 0.0) or (d_f > 0) != (d_r > 0)
                    mag = abs(d_f - d_r)
                if bad:
                    violations += 1
                    if mag > worst_mag:
                        worst_mag = mag
                        worst = (x.copy(), i, j, float(F[i, j]), float(F[j, i]), float(r[i]), float(r[j]))
    return SignConditionReport(violations=violations, num_samples=num_samples, worst=worst)


@pytest.fixture(scope="session")
def game4():
    return example4_game()


@pytest.fixture(scope="session")
def arctan1():
    return arctan_rule(1.0)


def birth_death_rates(game, rule, n: int, lam: float = 1.0):
    """Exact up/down jump rates of the count-of-action-0 chain, k = 0..n."""
    up = np.zeros(n + 1)
    dn = np.zeros(n + 1)
    for k in range(1, n):
        pt = PopulationType.from_fractions(n, [k / n, 1 - k / n])
        L = transition_rates(game, rule, pt, lam=lam)
        up[k] = L[1, 0]  # a 1-player copies action 0
        dn[k] = L[0, 1]
    return up, dn


def exact_hit_probability(up: np.ndarray, dn: np.ndarray, k0: int) -> float:
    """P(hit n before 0 | start k0) for the absorbing birth-death chain."""
    n = up.size - 1
    rho = np.ones(n)  # rho[j] = prod_{i<=j} dn_i/up_i, rho[0] = 1
    for j in range(1, n):
        rho[j] = rho[j - 1] * dn[j] / up[j]
    return float(rho[:k0].sum() / rho.sum())


def exact_mean_absorption_time(up: np.ndarray, dn: np.ndarray, k0: int) -> float:
    """E[time to hit {0, n}] from k0, by solving the tridiagonal system."""
    n = up.size - 1
    size = n - 1  # interior states 1..n-1
    A = np.zeros((size, size))
    b = -np.ones(size)
    for i, k in enumerate(range(1, n)):
        A[i, i] = -(up[k] + dn[k])
        if k + 1 <= n - 1:
            A[i, i + 1] = up[k]
        if k - 1 >= 1:
            A[i, i - 1] = dn[k]
    tau = np.linalg.solve(A, b)
    return float(tau[k0 - 1])


def exact_absorbed_probability_by(up: np.ndarray, dn: np.ndarray, k0: int, T: float) -> float:
    """P(absorbed by time T | start k0) via the matrix exponential of the
    full generator (states 0..n, 0 and n absorbing)."""
    n = up.size - 1
    Q = np.zeros((n + 1, n + 1))
    for k in range(1, n):
        Q[k, k + 1] = up[k]
        Q[k, k - 1] = dn[k]
        Q[k, k] = -(up[k] + dn[k])
    P = linalg.expm(Q * T)
    return float(P[k0, 0] + P[k0, n])


def loop_rhs(game: Game, rule: ImitationRule, lam: float):
    """The flow's right-hand side as a loop over F's rows, with F from
    game.rewards_at and the rule's formula on Python floats: one math.atan
    per ordered pair for the arctan rule, as the law computes it, and
    rule._mapped for the replicator rule."""
    m = game.m
    others = [[j for j in range(m) if j != i] for i in range(m)]
    if isinstance(rule, ArctanRule):
        K = rule._k_for(m).tolist()

        def F_at(x: list) -> list:
            r = game.rewards_at(x).tolist()
            return [[0.5 + math.atan(K[i][j] * (r[j] - r[i])) / math.pi for j in range(m)] for i in range(m)]

    else:

        def F_at(x: list) -> list:
            return [rule._mapped(game.rewards_at(x)).tolist()] * m

    def rhs(x: list) -> list:
        F = F_at(x)
        out = []
        for i, js in enumerate(others):
            Fi = F[i]
            s = 0.0
            for j in js:
                s += (F[j][i] - Fi[j]) * x[j]
            out.append(lam * x[i] * s)
        return out

    return rhs


def loop_rates(law, n: int, lam: float):
    """The jump rates n lam (x_i x_j) f_ij over law.pairs, from law.probs."""
    probs = law.probs
    pairs = law.pairs
    xs = (np.arange(n + 1) / n).tolist()
    cn = n * lam

    def rates(counts: list) -> list:
        F = probs(counts)
        x = [xs[c] for c in counts]
        return [cn * (x[i] * x[j]) * F[i][j] for i, j in pairs]

    return rates


def loop_step(rhs):
    """The RK4 step and clip-and-renormalise guard on lists."""

    def step(x: list, h: float, k1: list) -> tuple[list, float, bool]:
        half = 0.5 * h
        k2 = rhs([a + half * b for a, b in zip(x, k1)])
        k3 = rhs([a + half * b for a, b in zip(x, k2)])
        k4 = rhs([a + h * b for a, b in zip(x, k3)])
        sixth = h / 6.0
        x = [a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
        clipped = 0.0
        total = 0.0
        for v in x:
            if v < 0.0:
                clipped -= v
            else:
                total += v
        if clipped > 0.0:
            x = [v if v > 0.0 else 0.0 for v in x]
        return [v / total for v in x], max(clipped, abs(total - 1.0)), clipped > 0.0

    return step


def loop_complete_2action(game, rule, x0, cfg, meta):
    """The m = 2 complete-graph jump chain, one jump per iteration."""
    n = x0.n
    lam = cfg.lam
    f01, f10 = pair_tables(game, rule, n)
    ks = np.arange(n + 1, dtype=float)
    base = lam * ks * (n - ks) / n
    up = base * f10  # a 1-player copies action 0: k -> k + 1
    dn = base * f01
    tot_arr = up + dn
    with np.errstate(invalid="ignore", divide="ignore"):
        pup_arr = np.where(tot_arr > 0.0, up / np.where(tot_arr > 0.0, tot_arr, 1.0), 0.0)
    tot = tot_arr.tolist()
    pup = pup_arr.tolist()

    rng = random.Random(cfg.seed)
    rr = rng.random
    log = math.log
    horizon = cfg.horizon
    stride = cfg.record_stride
    t = 0.0
    k = int(x0.counts[0])
    rec = _Recorder(k, cfg)
    cap = engine_mod.EVENT_RECORD_CAP
    ts, path = [], []
    events = 0
    absorbed_at: float | None = None
    next_rec = 0.0

    while True:
        lam_k = tot[k]
        if lam_k <= 0.0:
            break  # defensive; absorption is handled at the jump below
        t_next = t - log(1.0 - rr()) / lam_k
        if t_next >= horizon:
            t = horizon
            break
        t = t_next
        k = k + 1 if rr() < pup[k] else k - 1
        events += 1
        if t >= next_rec:  # every jump up to the cap, then the first one a stride after the last row
            ts.append(t)
            path.append(k)
            if events == cap:
                rec.stride_from = t
            if events >= cap:
                next_rec = t + stride
        if k == 0 or k == n:
            absorbed_at = t
            break

    rec._put(np.array(ts), np.array(path, dtype=np.int64))
    return rec.close(k, n, absorbed_at, events, meta)


def loop_complete_generic(game, rule, x0, cfg, meta):
    """The complete-graph jump chain at m >= 3, one jump per iteration: the
    cumulative rates of the law's cum_rates, bisected at random() times
    their total."""
    n = x0.n
    law = _Law(game, rule, cfg.lam, n)
    cum_rates = law.cum_rates
    pairs = law.pairs
    rng = random.Random(cfg.seed)
    rr = rng.random
    log = math.log
    horizon = cfg.horizon
    stride = cfg.record_stride
    counts = x0.counts.tolist()
    t = 0.0
    rec = _Recorder(counts, cfg)
    cap = engine_mod.EVENT_RECORD_CAP
    ts, rows = [], []
    events = 0
    absorbed_at: float | None = None
    next_rec = 0.0

    while True:
        cum = cum_rates(counts)
        total = cum[-1]
        if total <= 0.0:
            break
        t_next = t - log(1.0 - rr()) / total
        if t_next >= horizon:
            t = horizon
            break
        t = t_next
        # total is the last cumulative rate, so rr() * total < total picks a
        # pair whose rate is positive
        i, j = pairs[bisect_right(cum, rr() * total)]
        counts[i] -= 1
        counts[j] += 1
        events += 1
        if t >= next_rec:  # every jump up to the cap, then the first one a stride after the last row
            ts.append(t)
            rows.append(counts.copy())
            if events == cap:
                rec.stride_from = t
            if events >= cap:
                next_rec = t + stride
        if counts[j] == n:
            absorbed_at = t
            break

    rec._put(np.array(ts), np.array(rows, dtype=np.int64).reshape(-1, len(counts)))
    return rec.close(counts, n, absorbed_at, events, meta)


def loop_write_trajectory_csv(path: str, times: np.ndarray, states: np.ndarray, n: int | None = None) -> None:
    """states has one row per time, one column per action: fractions, or,
    with n, the integer counts of a population of n, written as count / n.

    Both forms give the same bytes for states = counts / n.  From counts
    each x-value is one of n + 1 cached repr strings (one "x_0,x_1" tail per
    count when m = 2), so only the time takes a fresh repr per row.  A path
    with no more cells than the cache would take reprs to build is written
    from counts / n instead.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float if n is None else np.int64)
    if states.ndim != 2 or states.shape[0] != times.size:
        raise ValueError(f"states shape {states.shape} does not match {times.size} times")
    m = states.shape[1]
    if n is not None:
        if states.size and (states.min() < 0 or np.any(states.sum(axis=1) != n)):
            raise ValueError(f"counts must be non-negative and sum to n = {n} in every row")
        if times.size * m <= (n + 1) * (2 if m == 2 else 1):
            states, n = states / n, None
    if n is not None and m == 2:
        x = np.arange(n + 1) / n
        cache = [f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), x[::-1].tolist())]

        def tails(block: np.ndarray) -> list[str]:
            return [cache[c] for c in block[:, 0].tolist()]
    else:
        cell = repr if n is None else list(map(repr, (np.arange(n + 1) / n).tolist())).__getitem__

        def tails(block: np.ndarray) -> list[str]:
            return [",".join(map(cell, row)) + "\n" for row in block.tolist()]

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(f"x_{j}" for j in range(m)) + "\n")
        for lo in range(0, times.size, _CHUNK):
            hi = lo + _CHUNK
            fh.writelines([f"{t!r},{tail}" for t, tail in zip(times[lo:hi].tolist(), tails(states[lo:hi]))])


def reference_pair(game: Game):
    """(phi, grad) on lists of floats: game.potential and its gradient,
    which is the reward vector, game.rewards_at."""

    def phi(x: list) -> float:
        return float(game.potential(np.array(x)))

    def grad(x: list) -> list:
        return game.rewards_at(np.array(x)).tolist()

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


def _scan(g, gs: np.ndarray, scale: float) -> list[float] | None:
    """Scan a scalar function g on [0, 1] from its values gs at the
    len(gs) grid points of np.linspace(0, 1, len(gs)).

    Sign changes bracket transversal roots, bisected to _REFINE_TOL.  A run
    of grid points with |g| <= _TANGENT_ZERO scale is bracketed by its two
    neighbours: when they differ in sign the run holds a transversal root,
    bisected on g; otherwise it holds an even-order zero, bisected on the
    slope g(v + h) - g(v - h).  A run that reaches an end point is that end
    point's zero (a flat zero at a vertex, such as t**3 at 0) and adds
    nothing.

    Returns the merged roots strictly inside (0, 1), or None when near-zero
    values flood more than half the grid.
    """
    def slope(v: float) -> float:
        return g(v + _SLOPE_STEP) - g(v - _SLOPE_STEP)

    grid = gs.size - 1
    xs = np.linspace(0.0, 1.0, grid + 1)
    near_zero = np.abs(gs) <= _TANGENT_ZERO * scale
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
            if not near_zero[i - 1] and not near_zero[j]:
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


def numeric_critical_points(game: Game, starts: int = 64, seed: int = 0, grid: int = 2000):
    """The face-by-face numeric search of a game without polynomial
    coefficients: (points, flooded edges, raised least-squares solves).

    Each edge (a, b) is scanned with _scan at grid + 1 points of
    g(t) = dPhi/dx_a - dPhi/dx_b at t e_a + (1 - t) e_b, on the scale of
    the largest |g| on any edge: an edge whose g is negligible next to the
    game's is flat, whatever the game's own size.  On each face of
    three or more actions a least-squares solve of the face's reduced
    gradient runs from `starts` uniform points of the face and keeps the
    solutions where it is at most _TANGENT_ZERO times that scale; solutions
    closer than _MERGE_TOL collapse to the one with the smallest residual,
    which a derivative-free minimization of the squared reduced gradient
    then polishes.  Across faces, vertices win, then edge roots, then the
    smaller faces.  Every point classifies by sampling the potential on an
    eps-sphere, eps = 10 * _STEP_TOL, intersected with the simplex: in the
    m (m - 1) directions +-(e_a - e_b) and, for m >= 3, 2 m^2 random ones
    drawn from `seed`.
    """
    m = game.m
    rng = np.random.default_rng(seed) if m > 2 else None
    phi, grad = reference_pair(game)
    candidates: list[np.ndarray] = list(np.eye(m))

    flooded = []
    ts = np.linspace(0.0, 1.0, grid + 1).tolist()
    edges = {}
    for a, b in itertools.combinations(range(m), 2):

        def g(t: float, a: int = a, b: int = b) -> float:
            x = [0.0] * m
            x[a], x[b] = t, 1.0 - t
            d = grad(x)
            return d[a] - d[b]

        edges[a, b] = g, np.array([g(t) for t in ts])
    scale = max(float(np.abs(gs).max()) for _, gs in edges.values())
    for (a, b), (g, gs) in edges.items():
        roots = _scan(g, gs, scale)
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
            if sol.x.sum() <= 1.0 + 1e-9 and residual <= _TANGENT_ZERO * scale:
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


def _reference_distances(fractions: np.ndarray, center: np.ndarray, norm: str) -> np.ndarray:
    diff = fractions - center[None, :]
    if norm == "euclidean":
        return np.linalg.norm(diff, axis=1)
    if norm == "sup":
        return np.max(np.abs(diff), axis=1)
    raise ValueError(f"unknown norm {norm!r}")


def reference_time_near_set(
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
        near |= _reference_distances(fr, center, norm) < gamma
    total = float(traj.times[-1] - traj.times[0])
    if total <= 0.0:
        return 1.0 if near[0] else 0.0
    dwell = np.diff(traj.times)
    return float(dwell[near[:-1]].sum() / total)


def reference_exit_time(
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
    d = _reference_distances(traj.fractions, center, norm)
    inside = np.flatnonzero(d < 0.5 * delta)
    if inside.size == 0:
        return None
    start = inside[0]
    outside = np.flatnonzero(d[start:] >= delta)
    if outside.size == 0:
        return None
    return float(traj.times[start + outside[0]] - traj.times[start])


def reference_metastability_report(
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
            str(g): (reference_time_near_set(traj, ess_targets, g, norm=near_norm) if ess_targets else None)
            for g in gammas
        }
        exits = []
        for idx, cp in enumerate(interior_points):
            for dlt in deltas:
                dwell = reference_exit_time(traj, cp.x, dlt, norm=exit_norm)
                entered = dwell is not None
                if not entered:
                    # a path that entered and never left ends within delta; one
                    # that ends within delta/2 has entered; else scan the path
                    last = float(_reference_distances(traj.counts[-1:] / traj.n, cp.x, exit_norm)[0])
                    entered = last < 0.5 * dlt or (
                        last < dlt and bool(np.min(_reference_distances(traj.fractions, cp.x, exit_norm)) < 0.5 * dlt)
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


def reference_kurtz_deviation(stoch: Trajectory, ode: OdeTrajectory, T: float) -> float:
    """Exact sup over [0, T] of the max-coordinate gap between the
    piecewise-constant sample path and the linearly interpolated flow.

    Both inputs must cover [0, T]; an absorbed sample path extends past its
    absorption time by holding the vertex state.
    """
    if T <= 0.0:
        raise ValueError("need T > 0")
    if stoch.m != ode.m:
        raise ValueError("dimension mismatch between sample path and flow")
    ode_end = float(ode.times[-1])
    if ode_end < T - 1e-9:
        raise ValueError(f"flow covers only [0, {ode_end:g}], need [0, {T:g}]")
    stoch_end = float(stoch.times[-1])
    if stoch_end < T - 1e-9 and stoch.absorbed_at is None:
        raise ValueError(f"sample path covers only [0, {stoch_end:g}], need [0, {T:g}]")

    grid = np.union1d(stoch.times[stoch.times <= T], ode.times[ode.times <= T])
    if grid[-1] < T:
        grid = np.append(grid, T)
    idx = np.searchsorted(stoch.times, grid, side="right") - 1
    X = stoch.fractions[idx]  # right-continuous step values, (G, m)
    xs = np.empty_like(X)
    for c in range(ode.m):
        xs[:, c] = np.interp(grid, ode.times, ode.states[:, c])
    # On each cell the step path is constant and the flow is linear, so the
    # sup is attained at cell endpoints (against the left step value).
    d_here = np.abs(X - xs).max()
    d_carry = np.abs(X[:-1] - xs[1:]).max() if len(grid) > 1 else 0.0
    return float(max(d_here, d_carry))
