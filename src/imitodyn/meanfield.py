"""Deterministic mean-field flow of the imitation dynamics.

The large-population limit of the jump chain follows
x' = lambda * diag(x) (F(x)^T - F(x)) x, which preserves the simplex and
increases the potential along trajectories of potential games.  Fixed-step
RK4 keeps results reproducible across runs and platforms.  integrate and
find_limit step on Python floats, at every m, with the compiled law's
(_law) generated straight-line rhs and step, so they take a congestion
game under the arctan or the replicator rule and raise ValueError for any
other pair.  mean_field_rhs is the numpy right-hand side, for any game and
rule, that the tests compare the generated one against.
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
    rhs, step = law.rhs, law.step
    steps = int(math.floor(T / dt + 1e-9))
    rem = T - steps * dt
    total = steps + (1 if rem > 1e-12 else 0)
    times = np.empty(total + 1)
    states = np.empty((total + 1, game.m))
    times[0] = 0.0
    states[0] = x0
    # flat typed views of the arrays: Python floats go in without a numpy
    # call per step
    tv, sv = memoryview(times), memoryview(states.reshape(-1))
    at = game.m
    x = x0.tolist()
    guard_hits = 0
    t = 0.0
    for k in range(total):
        h = dt if k < steps else rem
        x, violation, hit = step(x, h, rhs(x))
        guard_hits += hit
        if violation > 1e-6:
            raise RuntimeError(f"simplex violation {violation:g} at t = {t + h:g} exceeds 1e-6")
        if guard_hits > 1000:
            raise RuntimeError("simplex guard activated more than 1000 times")
        t += h
        tv[k + 1] = t
        for v in x:
            sv[at] = v
            at += 1
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

    # On each cell of the union grid of both paths' times up to T (and T)
    # the step path is constant and the flow linear, so the sup is the max
    # of the gap at each grid point and of the step value there against
    # the flow at the next point.  Those values come without the grid: at
    # the step path's distinct times (the last row of each run of equal
    # times) the gap and the carry from the distinct time before; at the
    # flow's knots, which np.interp returns exactly, the gap alone, as the
    # carry into a knot equals it; and the gap at T past both paths' times.
    times = stoch.times
    t = times[: np.searchsorted(times, T, side="right")]
    rows = _last_of_runs(t)
    X = stoch.counts[: t.size][rows] / stoch.n
    t = t[rows]
    flow = np.empty_like(X)
    for c in range(ode.m):
        flow[:, c] = np.interp(t, ode.times, ode.states[:, c])
    gap = float(np.abs(X - flow).max())
    if t.size > 1:
        gap = max(gap, float(np.abs(X[:-1] - flow[1:]).max()))
    knots = ode.times[: np.searchsorted(ode.times, T, side="right")]
    last = _last_of_runs(knots)  # np.interp reads the last of equal knots
    at = np.searchsorted(times, knots[last], side="right") - 1
    held = np.take(stoch.counts, at, axis=0) / stoch.n
    gap = max(gap, float(np.abs(held - ode.states[: knots.size][last]).max()))
    if max(t[-1], knots[-1]) < T:
        end = np.array([np.interp(T, ode.times, ode.states[:, c]) for c in range(ode.m)])
        gap = max(gap, float(np.abs(X[-1] - end).max()))
    return gap


def _last_of_runs(t: np.ndarray) -> slice | np.ndarray:
    """The index of the last of each run of equal values of the sorted t:
    all of t, as a slice, when no value repeats."""
    new = t[1:] != t[:-1]
    return slice(None) if new.all() else np.flatnonzero(np.append(new, True))
