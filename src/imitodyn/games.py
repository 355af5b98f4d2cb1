"""Population games with action-frequency rewards and optional potentials.

A population game assigns each action a reward that depends only on the
current action-frequency vector (the "type" of the population).  A game is
a potential game when reward differences are gradient differences of a
scalar potential; congestion games built from per-action polynomials are
the canonical constructive family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Game",
    "PopulationType",
    "Configuration",
    "ConsistencyReport",
    "support",
    "is_interior",
    "make_congestion_game",
    "example4_game",
    "check_potential_consistency",
    "reward_bounds",
    "rewards_grid",
    "as_simplex_point",
    "uniform_simplex_sample",
    "simplex_grid",
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


def uniform_simplex_sample(rng: np.random.Generator, m: int, size: int | None = None) -> np.ndarray:
    """Uniform (flat Dirichlet) samples from the m-action simplex."""
    return rng.dirichlet(np.ones(m), size=size)


def simplex_grid(m: int, resolution: int) -> np.ndarray:
    """All points of the simplex grid with denominator `resolution`, shape (N, m)."""
    if m < 1 or resolution < 1:
        raise ValueError("need m >= 1 and resolution >= 1")
    if m == 1:
        return np.array([[1.0]])
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining + 1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), resolution, m)
    return np.array(out, dtype=float) / resolution


def support(x) -> set[int]:
    """Labels of actions present in x (strictly positive entries).

    Accepts a PopulationType (exact, via integer counts) or a frequency vector.
    """
    if isinstance(x, PopulationType):
        return set(np.flatnonzero(x.counts).tolist())
    return set(np.flatnonzero(np.asarray(x, dtype=float) > 0.0).tolist())


def is_interior(x, eps: float) -> bool:
    """True iff every action present in x has frequency strictly above eps."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    v = x.fractions if isinstance(x, PopulationType) else np.asarray(x, dtype=float)
    nz = v[v > 0.0]
    return bool(nz.size > 0 and np.all(nz > eps))


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

    def is_pure(self) -> bool:
        return bool(np.max(self.counts) == self.n)

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


@dataclass(frozen=True)
class _PolyRewards:
    """Per-action polynomial rewards r_i(x_i); broadcasts over trailing axes."""

    coeffs: tuple[tuple[float, ...], ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        C = np.array(self.coeffs)  # (m, deg+1), ascending
        r = np.broadcast_to(C[:, -1].reshape((-1,) + (1,) * (x.ndim - 1)), x.shape).copy()
        for j in range(C.shape[1] - 2, -1, -1):
            r *= x
            r += C[:, j].reshape((-1,) + (1,) * (x.ndim - 1))
        return r


@dataclass(frozen=True)
class _PolyPotential:
    """Separable potential Phi(x) = sum_i Psi_i(x_i) from ascending coefficients."""

    coeffs: tuple[tuple[float, ...], ...]

    def __call__(self, x: np.ndarray) -> float | np.ndarray:
        total = _PolyRewards(self.coeffs)(x).sum(axis=0)
        return float(total) if total.ndim == 0 else total


@dataclass(frozen=True, eq=False)
class Game:
    """A population game: m actions and a reward map on the simplex.

    rewards(x) takes a frequency vector (m,) and returns the reward vector
    (m,).  Potential and its gradient are optional; when the potential is
    given it must be evaluable in a small neighborhood of the simplex so
    finite differences are well defined.
    """

    m: int
    rewards: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], float] | None = None
    potential_gradient: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"need at least 2 actions, got m = {self.m}")

    def rewards_at(self, x) -> np.ndarray:
        v = x.fractions if isinstance(x, PopulationType) else np.asarray(x, dtype=float)
        r = np.asarray(self.rewards(v), dtype=float)
        if r.shape != (self.m,):
            raise ValueError(f"rewards returned shape {r.shape}, expected ({self.m},)")
        return r


def make_congestion_game(polynomials: Sequence[Sequence[float]], name: str = "congestion") -> Game:
    """Build a congestion game from per-action reward polynomials.

    polynomials[i] lists ascending coefficients of r_i as a function of x_i.
    The potential is the sum of the zero-constant antiderivatives, which by
    construction matches the reward differences coordinate-wise.
    """
    polys = [tuple(float(c) for c in p) for p in polynomials]
    if len(polys) < 2:
        raise ValueError("need at least 2 actions")
    if any(len(p) == 0 for p in polys):
        raise ValueError("each polynomial needs at least one coefficient")
    deg = max(len(p) for p in polys)
    padded = tuple(p + (0.0,) * (deg - len(p)) for p in polys)
    anti = tuple(
        (0.0,) + tuple(c / (k + 1) for k, c in enumerate(p)) for p in padded
    )
    return Game(
        m=len(polys),
        rewards=_PolyRewards(padded),
        potential=_PolyPotential(anti),
        potential_gradient=_PolyRewards(padded),
        name=name,
    )


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
    if game.potential is None:
        raise ValueError("game has no potential to check")
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


def rewards_grid(game: Game, X: np.ndarray) -> np.ndarray:
    """Rewards over a batch of states, X of shape (m, K) -> (m, K).

    Tries one vectorized call (polynomial-backed games broadcast for free)
    and falls back to a per-column loop for scalar-only reward callables.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != game.m:
        raise ValueError(f"expected state batch of shape ({game.m}, K), got {X.shape}")
    try:
        R = np.asarray(game.rewards(X), dtype=float)
        if R.shape == X.shape and np.all(np.isfinite(R)):
            return R
    except Exception:
        pass
    R = np.empty_like(X)
    for k in range(X.shape[1]):
        R[:, k] = game.rewards_at(X[:, k])
    return R


def reward_bounds(game: Game) -> tuple[float, float]:
    """Conservative reward range over a simplex grid (resolution 256 for two
    actions, 64 for more, whose grid grows combinatorially), widened by one
    percent.

    The widening keeps affine reward-to-probability maps strictly inside
    (0, 1) when rewards attain the raw extremes.
    """
    R = rewards_grid(game, simplex_grid(game.m, 256 if game.m == 2 else 64).T)
    lo = float(np.min(R))
    hi = float(np.max(R))
    span = hi - lo
    if span > 0.0:
        pad = 0.01 * span
    else:
        pad = 0.01 * abs(hi) + 1e-9
    return lo - pad, hi + pad
