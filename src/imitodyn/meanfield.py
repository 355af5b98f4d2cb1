"""Deterministic mean-field flow of the imitation dynamics.

The large-population limit of the jump chain follows
x' = lambda * diag(x) (F(x)^T - F(x)) x, which preserves the simplex and
increases the potential along trajectories of potential games.  Fixed-step
RK4 keeps results reproducible across runs and platforms.  integrate and
find_limit step on Python floats through the compiled law (_law): in x_0
alone for two actions, and for m >= 3 with the law's generated
straight-line rhs and step.  mean_field_rhs is the reference right-hand
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._law import _Law
from .engine import Trajectory
from .games import Game, as_simplex_point
from .rules import ImitationRule

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


class _Flow1:
    """Flow of a 2-action game in v = x_0 alone, x_1 = 1 - v."""

    def __init__(self, game: Game, rule: ImitationRule, lam: float):
        self.rhs = rhs = _Law(game, rule, lam).drift

        def step(v: float, h: float, k1: float) -> tuple[float, float, bool]:
            """RK4 step of size h from v, given k1 = rhs(v), then the guard:
            (new v clipped to [0, 1], violation size, whether it clipped)."""
            half = 0.5 * h
            k2 = rhs(v + half * k1)
            k3 = rhs(v + half * k2)
            k4 = rhs(v + h * k3)
            v += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if v < 0.0:
                return 0.0, -v, True
            if v > 1.0:
                return 1.0, v - 1.0, True
            return v, 0.0, False

        self.step = step

    norm = staticmethod(abs)

    @staticmethod
    def start(x: np.ndarray) -> float:
        return float(x[0])

    @staticmethod
    def point(v: float) -> tuple[float, float]:
        return v, 1.0 - v


class _FlowM:
    """Flow of an m-action game on frequency lists, stepped by the law's
    generated rhs and step."""

    def __init__(self, game: Game, rule: ImitationRule, lam: float):
        law = _Law(game, rule, lam)
        self.rhs, self.step = law.rhs, law.step

    @staticmethod
    def norm(k: list) -> float:
        return max(abs(v) for v in k)

    @staticmethod
    def start(x: np.ndarray) -> list:
        return x.tolist()

    @staticmethod
    def point(x: list) -> list:
        return x


def _flow(game: Game, rule: ImitationRule, lam: float) -> _Flow1 | _FlowM:
    return (_Flow1 if game.m == 2 else _FlowM)(game, rule, lam)


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
    simplex by more than 1e-6 even after guarding.  A 2-action flow runs
    in x_0 alone.
    """
    if T <= 0.0 or dt <= 0.0:
        raise ValueError("need T > 0 and dt > 0")
    x0 = as_simplex_point(x0)
    flow = _flow(game, rule, lam)
    steps = int(math.floor(T / dt + 1e-9))
    rem = T - steps * dt
    total = steps + (1 if rem > 1e-12 else 0)
    times = np.empty(total + 1)
    states = np.empty((total + 1, game.m))
    times[0] = 0.0
    states[0] = x0
    x = flow.start(x0)
    guard_hits = 0
    t = 0.0
    for step in range(total):
        h = dt if step < steps else rem
        x, violation, hit = flow.step(x, h, flow.rhs(x))
        guard_hits += hit
        if violation > 1e-6:
            raise RuntimeError(f"simplex violation {violation:g} at t = {t + h:g} exceeds 1e-6")
        if guard_hits > 1000:
            raise RuntimeError("simplex guard activated more than 1000 times")
        t += h
        times[step + 1] = t
        states[step + 1] = flow.point(x)
    return OdeTrajectory(times=times, states=states)


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
    flow = _flow(game, rule, lam)
    rhs, step, norm = flow.rhs, flow.step, flow.norm
    x = flow.start(as_simplex_point(x0))
    t = 0.0
    converged = False
    while t < max_T:
        k1 = rhs(x)
        if norm(k1) < tol:
            converged = True
            break
        x, violation, _ = step(x, dt, k1)
        if violation > 1e-6:
            raise RuntimeError(f"simplex violation {violation:g} during find_limit")
        t += dt
    return LimitResult(np.array(flow.point(x)), converged, t, norm(rhs(x)))


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
