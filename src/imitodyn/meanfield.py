"""Deterministic mean-field flow of the imitation dynamics.

The large-population limit of the jump chain follows
x' = lambda * diag(x) (F(x)^T - F(x)) x, which preserves the simplex and
increases the potential along trajectories of potential games.  Fixed-step
RK4 keeps results reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import Game, _PolyRewards, as_simplex_point
from .rules import ArctanRule, ImitationRule, ReplicatorRule
from .engine import Trajectory

__all__ = [
    "OdeTrajectory",
    "LimitResult",
    "mean_field_rhs",
    "integrate",
    "find_limit",
    "kurtz_deviation",
]


@dataclass(eq=False)
class OdeTrajectory:
    times: np.ndarray
    states: np.ndarray  # (T, m)

    @property
    def m(self) -> int:
        return int(self.states.shape[1])


@dataclass(frozen=True)
class LimitResult:
    x: np.ndarray
    converged: bool
    t: float
    rhs_norm: float


def mean_field_rhs(game: Game, rule: ImitationRule, x: np.ndarray, lam: float = 1.0) -> np.ndarray:
    """Right-hand side lambda * diag(x) (F^T - F) x at a simplex point."""
    x = np.asarray(x, dtype=float)
    r = game.rewards_at(x)
    F = rule.prob_matrix(r)
    return lam * x * ((F.T - F) @ x)


def _guard(x: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Clip tiny negatives and renormalize; report the violation size."""
    clipped = float(-(x[x < 0.0].sum())) if np.any(x < 0.0) else 0.0
    x = np.maximum(x, 0.0)
    s = float(x.sum())
    violation = max(clipped, abs(s - 1.0))
    return x / s, violation, clipped > 0.0


def integrate(
    game: Game,
    rule: ImitationRule,
    x0: np.ndarray,
    T: float,
    dt: float = 0.01,
    lam: float = 1.0,
) -> OdeTrajectory:
    """Fixed-step RK4 integration over [0, T], recording every step.

    A clip-and-renormalize guard keeps iterates on the simplex; the run
    aborts if the guard fires more than 10^3 times or a step leaves the
    simplex by more than 1e-6 even after guarding.
    """
    if T <= 0.0 or dt <= 0.0:
        raise ValueError("need T > 0 and dt > 0")
    x = as_simplex_point(x0).copy()
    steps = int(math.floor(T / dt + 1e-9))
    rem = T - steps * dt
    times = [0.0]
    states = [x.copy()]
    guard_hits = 0
    t = 0.0

    def rhs(v: np.ndarray) -> np.ndarray:
        return mean_field_rhs(game, rule, v, lam)

    for step in range(steps + (1 if rem > 1e-12 else 0)):
        h = dt if step < steps else rem
        x = _rk4_step(rhs, x, h, rhs(x))
        x, violation, hit = _guard(x)
        if hit:
            guard_hits += 1
        if violation > 1e-6:
            raise RuntimeError(f"simplex violation {violation:g} at t = {t + h:g} exceeds 1e-6")
        if guard_hits > 1000:
            raise RuntimeError("simplex guard activated more than 1000 times")
        t += h
        times.append(t)
        states.append(x.copy())
    return OdeTrajectory(times=np.asarray(times), states=np.asarray(states))


def _rk4_step(rhs, x: np.ndarray, h: float, k1: np.ndarray) -> np.ndarray:
    """One classical RK4 step of size h from x, given k1 = rhs(x)."""
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _find_limit_2action_scalar(
    game: Game, rule: ImitationRule, x1: float, tol: float, max_T: float, dt: float, lam: float
) -> LimitResult:
    """Scalar fast path: 2 actions, polynomial rewards, builtin rules."""
    c0, c1 = game.rewards.coeffs  # ascending coefficients per action
    # (leading coefficient, the rest by falling degree) for inline Horner
    a0, c0 = c0[-1], c0[-2::-1]
    a1, c1 = c1[-1], c1[-2::-1]
    atan = math.atan
    pi = math.pi
    if isinstance(rule, ArctanRule):
        K = rule._k_for(2)
        k10 = float(K[1, 0])
        k01 = float(K[0, 1])

        def rhs(v: float) -> float:
            r0 = a0
            for c in c0:
                r0 = r0 * v + c
            w = 1.0 - v
            r1 = a1
            for c in c1:
                r1 = r1 * w + c
            g = r0 - r1
            return lam * v * (1.0 - v) * (atan(k10 * g) + atan(k01 * g)) / pi

    else:
        eps = rule.eps_margin
        lo = rule.r_lo
        s = rule.slope
        cap = 1.0 - eps

        def rhs(v: float) -> float:
            r0 = a0
            for c in c0:
                r0 = r0 * v + c
            w = 1.0 - v
            r1 = a1
            for c in c1:
                r1 = r1 * w + c
            f10 = eps + s * (r0 - lo)
            f01 = eps + s * (r1 - lo)
            f10 = eps if f10 < eps else (cap if f10 > cap else f10)
            f01 = eps if f01 < eps else (cap if f01 > cap else f01)
            return lam * v * (1.0 - v) * (f10 - f01)

    t = 0.0
    x = x1
    sixth = dt / 6.0
    half = 0.5 * dt
    while t < max_T:
        k1 = rhs(x)
        if abs(k1) < tol:
            return LimitResult(np.array([x, 1.0 - x]), True, t, abs(k1))
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + dt * k3)
        x += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if x < 0.0:
            x = 0.0
        elif x > 1.0:
            x = 1.0
        t += dt
    return LimitResult(np.array([x, 1.0 - x]), False, t, abs(rhs(x)))


def find_limit(
    game: Game,
    rule: ImitationRule,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_T: float = 1e4,
    dt: float = 0.02,
    lam: float = 1.0,
) -> LimitResult:
    """Integrate until the flow stalls (sup-norm of the RHS below tol).

    Near a degenerate critical point the state can only approach within
    about sqrt(tol / curvature-scale), so downstream comparisons should use
    tolerances of that order.  The default step is coarser than integrate()
    since only the stopping rule determines the returned point.
    """
    if tol <= 0.0 or max_T <= 0.0 or dt <= 0.0:
        raise ValueError("need tol > 0, max_T > 0, dt > 0")
    x = as_simplex_point(x0).copy()
    if (
        game.m == 2
        and isinstance(game.rewards, _PolyRewards)
        and isinstance(rule, (ArctanRule, ReplicatorRule))
    ):
        return _find_limit_2action_scalar(game, rule, float(x[0]), tol, max_T, dt, lam)

    def rhs(v: np.ndarray) -> np.ndarray:
        return mean_field_rhs(game, rule, v, lam)

    t = 0.0
    while t < max_T:
        k1 = rhs(x)
        norm = float(np.max(np.abs(k1)))
        if norm < tol:
            return LimitResult(x, True, t, norm)
        x = _rk4_step(rhs, x, dt, k1)
        x, violation, _ = _guard(x)
        if violation > 1e-6:
            raise RuntimeError(f"simplex violation {violation:g} during find_limit")
        t += dt
    norm = float(np.max(np.abs(rhs(x))))
    return LimitResult(x, False, t, norm)


def kurtz_deviation(stoch: Trajectory, ode: OdeTrajectory, T: float) -> float:
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
