"""One (game, rule) pair compiled for scalar Python evaluation.

Every engine loop and the mean-field flow take their copy probabilities
from here.  They evaluate them once per event or RK4 stage on a handful of
actions, where numpy's per-call overhead costs more than the arithmetic, so
the pair is compiled once:

- at m = 2, pair_tables gives f_01 and f_10 at every count k = 0..n of
  action 0 from one batched rule.prob_matrix call on the states
  (k/n, 1 - k/n), for any game and rule;
- at m >= 3, congestion rewards (_PolyRewards) are separable, r_a depends
  on x_a alone, so at population n they become per-count tables
  R[a][c] = r_a(c/n), and in the flow an inline Horner per action;
- the replicator rule becomes the table g[a][c] = f_ia, and the arctan
  rule at m = 2 an inline atan in the flow's drift;
- any other game or rule at m >= 3 (the arctan rule included) falls back
  to rule.prob_matrix(game.rewards_at(x)) per state, range-checked on
  every call.

engine.transition_rates and meanfield.mean_field_rhs stay the reference
definitions that the tests compare these paths against.

potential_pair compiles a congestion game's potential (_PolyPotential) and
gradient (_PolyRewards) into closures phi(x) and grad(x) on a list of
floats: Horner per action and numpy's summation order, so both equal
game.potential and game.potential_gradient bit for bit.  The landscape
finder solves the games that have a compiled pair exactly, from their
coefficients, and takes each point's potential from phi.  Any other game
has no compiled pair, and the finder's numeric search calls game.potential
and landscape._gradient.
"""

from __future__ import annotations

import math

import numpy as np

from .games import Game, _PolyPotential, _PolyRewards, rewards_grid
from .rules import ArctanRule, ImitationRule, ReplicatorRule, logger


def check_probs(F: np.ndarray) -> np.ndarray:
    """Return F, an (m, m) or (m, m, K) copy-probability array, after checking
    that every off-diagonal entry lies in [0, 1].  Outside that range a rule
    can make the jump rates out of a state exceed n * lambda."""
    off = F[~np.eye(F.shape[0], dtype=bool)]
    bad = ~((off >= 0.0) & (off <= 1.0))
    if np.any(bad):
        raise ValueError(f"rate conservation violated: copy probability {float(off[bad][0])!r} outside [0, 1]")
    return F


def pair_tables(game: Game, rule: ImitationRule, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(f01, f10) of a 2-action game at every state (k/n, 1 - k/n), as
    arrays indexed by k = 0..n, the count of action 0."""
    ks = np.arange(n + 1, dtype=float)
    F = check_probs(rule.prob_matrix(rewards_grid(game, np.vstack([ks / n, 1.0 - ks / n]))))
    return F[0, 1], F[1, 0]


def _replicator_map(rule: ReplicatorRule):
    """Scalar form of ReplicatorRule._mapped (same operations, same bits,
    and the same debug log when a reward is clamped)."""
    eps = rule.eps_margin
    lo = rule.r_lo
    s = rule.slope
    cap = 1.0 - eps

    def g(r: float) -> float:
        f = eps + s * (r - lo)
        if f < eps:
            f = eps
        elif f > cap:
            f = cap
        else:
            return f
        logger.debug("replicator rule clamped rewards outside (%s, %s)", rule.r_lo, rule.r_hi)
        return f

    return g


def _horner(coeffs: tuple) -> tuple[float, tuple]:
    """(leading coefficient, the rest by falling degree) of an ascending
    coefficient tuple.  Zero terms above the highest nonzero one, the
    padding to a common degree, are dropped: on finite x, Horner reaches
    that coefficient exactly either way.  An all-zero tuple is kept whole,
    so that the sign of a zero result matches numpy's."""
    c = list(coeffs)
    top = max((k for k, v in enumerate(c) if v != 0.0), default=len(c) - 1)
    return c[top], tuple(reversed(c[:top]))


def _horner_all(H: list, x: list) -> list:
    """[p_a(x_a)] for the _horner forms H = [p_0, ..., p_{m-1}]."""
    out = []
    for (r, cs), v in zip(H, x):
        for c in cs:
            r = r * v + c
        out.append(r)
    return out


def np_sum(values: list) -> float:
    """sum(values) in numpy's order: left to right from 0.0 below 8 terms;
    numpy sums 8 or more pairwise, so longer lists go through numpy."""
    if len(values) >= 8:
        return float(np.sum(values))
    s = 0.0
    for v in values:
        s += v
    return s


def potential_pair(game: Game):
    """(phi, grad) of a congestion game as closures on a list of m floats,
    equal bit for bit to game.potential and game.potential_gradient; None
    for any other game."""
    if not (isinstance(game.potential, _PolyPotential) and isinstance(game.potential_gradient, _PolyRewards)):
        return None
    P = [_horner(c) for c in game.potential.coeffs]
    D = [_horner(c) for c in game.potential_gradient.coeffs]

    def phi(x: list) -> float:
        return np_sum(_horner_all(P, x))

    def grad(x: list) -> list:
        return _horner_all(D, x)

    return phi, grad


class _Law:
    """The law of (game, rule) at rate lam, as closures on Python floats.

    - probs_at(x): F[i][j] = f_ij at a frequency list x (diagonal unread);
    - rhs(x): the mean-field right-hand side lam x_i sum_j (f_ji - f_ij) x_j;
    - drift(v), m = 2 only: the x_0 component of rhs at (v, 1 - v);
    - with n given, probs(counts), F at counts / n (at m = 2 from
      pair_tables, so at (k/n, 1 - k/n)), and rates(counts), the
      jump rates n lam x_i x_j f_ij of the (i, j) in `pairs` (row-major,
      off-diagonal).
    """

    def __init__(self, game: Game, rule: ImitationRule, lam: float = 1.0, n: int | None = None):
        m = game.m
        self.m = m
        self._game = game
        self._rule = rule
        poly = isinstance(game.rewards, _PolyRewards)
        # the replicator map on polynomial rewards; None selects the
        # per-state fallback
        self._g = _replicator_map(rule) if poly and isinstance(rule, ReplicatorRule) else None
        self._horner = [_horner(c) for c in game.rewards.coeffs] if poly else None
        self.rhs = self._rhs(lam)
        if m == 2:
            self.drift = self._drift(lam)
        if n is not None:
            self.pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
            self.probs = self._count_probs(n)
            self.rates = self._rates(n, lam)

    def _fallback(self, x: np.ndarray) -> list:
        return check_probs(self._rule.prob_matrix(self._game.rewards_at(x))).tolist()

    def probs_at(self, x: list) -> list:
        g = self._g
        if g is None:
            return self._fallback(np.asarray(x))
        # inline Horner: the flow calls this once per RK4 stage
        r = []
        for (ra, cs), v in zip(self._horner, x):
            for c in cs:
                ra = ra * v + c
            r.append(g(ra))
        return [r] * self.m

    def _rhs(self, lam: float):
        probs_at = self.probs_at
        others = [[j for j in range(self.m) if j != i] for i in range(self.m)]

        def rhs(x: list) -> list:
            F = probs_at(x)
            out = []
            for i, js in enumerate(others):
                Fi = F[i]
                s = 0.0
                for j in js:
                    s += (F[j][i] - Fi[j]) * x[j]
                out.append(lam * x[i] * s)
            return out

        return rhs

    def _drift(self, lam: float):
        if self._horner is None or not isinstance(self._rule, ArctanRule):
            probs_at = self.probs_at

            def drift(v: float) -> float:
                F = probs_at([v, 1.0 - v])
                return lam * v * (1.0 - v) * (F[1][0] - F[0][1])

            return drift
        # find_limit calls this millions of times, so the arctan rule on
        # polynomial rewards runs inline
        (a0, c0), (a1, c1) = self._horner
        K = self._rule._k_for(2)
        k10 = float(K[1, 0])
        k01 = float(K[0, 1])
        atan = math.atan
        pi = math.pi

        def drift(v: float) -> float:
            r0 = a0
            for c in c0:
                r0 = r0 * v + c
            w = 1.0 - v
            r1 = a1
            for c in c1:
                r1 = r1 * w + c
            # f_10 - f_01 = (atan(k10 g) + atan(k01 g)) / pi, g = r_0 - r_1
            g = r0 - r1
            return lam * v * (1.0 - v) * (atan(k10 * g) + atan(k01 * g)) / pi

        return drift

    def _count_probs(self, n: int):
        m = self.m
        if m == 2:
            f01, f10 = pair_tables(self._game, self._rule, n)
            # the diagonal is never read
            tables = [[[0.0, a], [b, 0.0]] for a, b in zip(f01.tolist(), f10.tolist())]

            def probs(counts: list) -> list:
                return tables[counts[0]]

            return probs
        if self._g is None:
            fallback = self._fallback

            def probs(counts: list) -> list:
                return fallback(np.asarray(counts) / n)

            return probs
        # separable rewards: row a holds r_a(c / n) for c = 0..n
        R = rewards_grid(self._game, np.tile(np.arange(n + 1) / n, (m, 1)))
        G = self._rule._mapped(R)  # g(r) entrywise; logs once if it clamps
        check_probs(np.broadcast_to(G[None], (m, m, n + 1)))
        G = G.tolist()

        def probs(counts: list) -> list:
            return [[Ga[c] for Ga, c in zip(G, counts)]] * m

        return probs

    def _rates(self, n: int, lam: float):
        probs = self.probs
        pairs = self.pairs
        xs = (np.arange(n + 1) / n).tolist()
        cn = n * lam

        def rates(counts: list) -> list:
            F = probs(counts)
            x = [xs[c] for c in counts]
            return [cn * (x[i] * x[j]) * F[i][j] for i, j in pairs]

        return rates
