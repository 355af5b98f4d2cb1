"""Deterministic mean-field flow of the imitation dynamics.

The large-population limit of the jump chain follows
x' = lambda * diag(x) (F(x)^T - F(x)) x, which preserves the simplex and
increases the potential along trajectories of potential games.  Fixed-step
RK4 keeps results reproducible across runs and platforms.  integrate and
find_limit step on Python floats, at every m, with the compiled law's
(_law) generated straight-line rhs and step.  mean_field_rhs is the
reference right-hand side.
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


def _finite(x: list) -> list:
    """x, after checking that the flow met no NaN copy probability: with
    every f_ij in [0, 1] the flow stays finite, and a NaN reaches every
    later state."""
    if math.isnan(sum(x)):
        raise ValueError("rate conservation violated: copy probability nan outside [0, 1] on the flow")
    return x


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
    x0 = as_simplex_point(x0)
    law = _Law(game, rule, lam)
    steps = int(math.floor(T / dt + 1e-9))
    rem = T - steps * dt
    total = steps + (1 if rem > 1e-12 else 0)
    times = np.empty(total + 1)
    states = np.empty((total + 1, game.m))
    times[0] = 0.0
    states[0] = x0
    x = x0.tolist()
    guard_hits = 0
    t = 0.0
    for step in range(total):
        h = dt if step < steps else rem
        x, violation, hit = law.step(x, h, law.rhs(x))
        guard_hits += hit
        if violation > 1e-6:
            raise RuntimeError(f"simplex violation {violation:g} at t = {t + h:g} exceeds 1e-6")
        if guard_hits > 1000:
            raise RuntimeError("simplex guard activated more than 1000 times")
        t += h
        times[step + 1] = t
        states[step + 1] = x
    _finite(x)
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
    law = _Law(game, rule, lam)
    rhs, step = law.rhs, law.step
    x = as_simplex_point(x0).tolist()
    t = 0.0
    converged = False
    while t < max_T:
        k1 = rhs(x)
        if max(map(abs, k1)) < tol:
            converged = True
            break
        x, violation, _ = step(x, dt, k1)
        if violation > 1e-6:
            raise RuntimeError(f"simplex violation {violation:g} during find_limit")
        t += dt
    return LimitResult(np.array(_finite(x)), converged, t, max(map(abs, rhs(x))))


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
