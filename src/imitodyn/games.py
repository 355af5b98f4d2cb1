"""Congestion games, the population games imitodyn runs, and population states.

A population game assigns each action a reward that depends only on the
current action-frequency vector (the "type" of the population).  A
congestion game is a potential game given by per-action polynomials:
action a earns r_a(x_a), and the potential Phi(x) = sum_a Psi_a(x_a) sums
their zero-constant antiderivatives, so reward differences are gradient
differences of Phi by construction (the tests sample that,
conftest.check_potential_consistency).  A game is its polynomials: Game
holds their coefficients, and its rewards, its potential, the compiled law
of every pair, the landscape and the reward bounds are all computed from
them.  Every game a config builds is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Game",
    "PopulationType",
    "Configuration",
    "make_congestion_game",
    "example4_game",
    "reward_bounds",
    "as_simplex_point",
]

SIMPLEX_TOL = 1e-9


def as_simplex_point(x: Sequence[float], tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Validate and return x as a float vector on the probability simplex."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"simplex point must be a 1-d vector of length >= 2, got shape {v.shape}")
    if np.any(v < -tol):
        raise ValueError(f"simplex point has negative entry: {v}")
    s = float(v.sum())
    if abs(s - 1.0) > tol:
        raise ValueError(f"simplex point sums to {s!r}, expected 1 within {tol}")
    return v


@dataclass(frozen=True, eq=False)
class PopulationType:
    """Exact population state: integer head-counts per action, population n."""

    counts: np.ndarray
    n: int = -1  # derived from counts when omitted

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("counts must be a 1-d vector of length >= 2")
        if np.any(c < 0):
            raise ValueError(f"counts must be nonnegative, got {c}")
        if self.n < 0:
            object.__setattr__(self, "n", int(c.sum()))
        elif int(c.sum()) != self.n:
            raise ValueError(f"counts sum to {int(c.sum())}, expected n = {self.n}")
        if self.n < 1:
            raise ValueError("population size must be >= 1")

    @property
    def m(self) -> int:
        return int(self.counts.size)

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.n

    @staticmethod
    def from_fractions(n: int, fractions: Sequence[float]) -> "PopulationType":
        """Nearest grid state to a target frequency vector.

        Largest-remainder apportionment; any strictly positive target that
        would round to zero players is bumped to one (taken from the largest
        count) so the declared support is represented exactly.
        """
        x = as_simplex_point(fractions)
        raw = x * n
        counts = np.floor(raw).astype(np.int64)
        short = n - int(counts.sum())
        if short > 0:
            order = np.argsort(-(raw - counts), kind="stable")
            counts[order[:short]] += 1
        for i in np.flatnonzero((x > 0.0) & (counts == 0)):
            donor = int(np.argmax(counts))
            if counts[donor] <= 1:
                raise ValueError(f"population n = {n} too small to represent support of {x}")
            counts[donor] -= 1
            counts[i] = 1
        return PopulationType(counts, n)


@dataclass(frozen=True, eq=False)
class Configuration:
    """Node-level assignment of actions, the microscopic state on a graph."""

    actions: np.ndarray
    m: int

    def __post_init__(self) -> None:
        a = np.asarray(self.actions, dtype=np.int64)
        object.__setattr__(self, "actions", a)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("actions must be a nonempty 1-d vector")
        if self.m < 2:
            raise ValueError("need at least 2 actions")
        if np.any((a < 0) | (a >= self.m)):
            raise ValueError("action labels out of range")

    @property
    def n(self) -> int:
        return int(self.actions.size)

    def population_type(self) -> PopulationType:
        return PopulationType(np.bincount(self.actions, minlength=self.m), self.n)


def _polyval(coeffs: tuple, x) -> np.ndarray:
    """p_a(x_a) for the ascending coefficient rows coeffs[a], by Horner;
    broadcasts over the trailing axes of x."""
    x = np.asarray(x, dtype=float)
    C = np.array(coeffs)  # (m, deg+1), ascending
    r = np.empty(x.shape)
    r[...] = C[:, -1].reshape((-1,) + (1,) * (x.ndim - 1))
    for j in range(C.shape[1] - 2, -1, -1):
        r *= x
        r += C[:, j].reshape((-1,) + (1,) * (x.ndim - 1))
    return r


@dataclass(frozen=True, eq=False)
class Game:
    """A congestion game: action a earns r_a(x_a), the polynomial in its own
    frequency whose ascending coefficients are coeffs[a], zero-padded to one
    length.  Its potential is Phi(x) = sum_a Psi_a(x_a), Psi_a the
    zero-constant antiderivative of r_a, so dPhi/dx_a = r_a.
    """

    coeffs: tuple[tuple[float, ...], ...]
    name: str = "congestion"

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def rewards(self, X) -> np.ndarray:
        """[r_a(X[a])]: X is (m,) or (m, ...) for a batch of states."""
        return _polyval(self.coeffs, X)

    def rewards_at(self, x) -> np.ndarray:
        """The reward vector (m,) at a frequency vector or PopulationType."""
        v = x.fractions if isinstance(x, PopulationType) else np.asarray(x, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"state has shape {v.shape}, expected ({self.m},)")
        return _polyval(self.coeffs, v)

    def potential(self, x) -> float | np.ndarray:
        """Phi(x), a float for x of shape (m,), an array for a batch."""
        anti = tuple((0.0,) + tuple(c / (k + 1) for k, c in enumerate(p)) for p in self.coeffs)
        total = _polyval(anti, x).sum(axis=0)
        return float(total) if total.ndim == 0 else total


def make_congestion_game(polynomials: Sequence[Sequence[float]], name: str = "congestion") -> Game:
    """Build a congestion game from per-action reward polynomials.

    polynomials[i] lists ascending coefficients of r_i as a function of x_i;
    they are zero-padded to one length.
    """
    polys = [tuple(float(c) for c in p) for p in polynomials]
    if len(polys) < 2:
        raise ValueError("need at least 2 actions")
    if any(len(p) == 0 for p in polys):
        raise ValueError("each polynomial needs at least one coefficient")
    deg = max(len(p) for p in polys)
    return Game(tuple(p + (0.0,) * (deg - len(p)) for p in polys), name)


def example4_game() -> Game:
    """Builtin 2-action benchmark: quartic potential with a degenerate saddle.

    Rewards are r_1(x_1) = 12 - 28 x_1 + 80 x_1^2 - 64 x_1^3 and r_2 = 9,
    built by make_congestion_game.  The potential is Psi_1(x_1) + 9 x_2 with
    Psi_1(x_1) = 12 x_1 - 14 x_1^2 + 80/3 x_1^3 - 16 x_1^4, so its x_2
    partial is 9.  On the simplex it equals the quartic
    -16 x_1^4 + 80/3 x_1^3 - 14 x_1^2 + 3 x_1 + 9, with interior critical
    points at x_1 = 1/4 (degenerate, double root of the derivative) and
    x_1 = 3/4 (isolated maximum), and minima at the two vertices.
    """
    return make_congestion_game([[12.0, -28.0, 80.0, -64.0], [9.0]], name="example4")


def reward_bounds(game: Game) -> tuple[float, float]:
    """Conservative reward range of a congestion game over a simplex grid
    (resolution 256 for two actions, 64 for more), widened by one percent.

    The widening keeps affine reward-to-probability maps strictly inside
    (0, 1) when rewards attain the raw extremes.  Polynomial rewards are
    separable: r_a depends on x_a alone, which takes every value k / res on
    the grid, so each action is evaluated on those res + 1 values, with the
    extremes of the whole grid bit for bit.
    """
    res = 256 if game.m == 2 else 64
    R = game.rewards(np.tile(np.arange(res + 1) / res, (game.m, 1)))
    lo = float(np.min(R))
    hi = float(np.max(R))
    span = hi - lo
    if span > 0.0:
        pad = 0.01 * span
    else:
        pad = 0.01 * abs(hi) + 1e-9
    return lo - pad, hi + pad
