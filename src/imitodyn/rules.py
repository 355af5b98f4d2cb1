"""Imitation rules: reward-driven pairwise copying probabilities.

A rule maps the current reward vector to probabilities f_ij in (0, 1) that
a player using action i copies an observed player using action j.  Rules
must favor the better action: sign(f_ij - f_ji) = sign(r_j - r_i).
Self-pairs are fixed at f_ii = 1 as a totality convention; engines never
consult them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .games import Game, uniform_simplex_sample

__all__ = [
    "ImitationRule",
    "ArctanRule",
    "ReplicatorRule",
    "CustomRule",
    "arctan_rule",
    "replicator_rule",
    "copy_prob",
    "verify_sign_condition",
    "SignConditionReport",
]

logger = logging.getLogger(__name__)


class ImitationRule:
    """Base interface; subclasses implement prob_matrix over reward vectors."""

    def prob_matrix(self, rewards: np.ndarray) -> np.ndarray:
        """F with F[i, j] = f_ij(r).  rewards may be (m,) or (m, K) for a
        batch of states; the result is (m, m) or (m, m, K)."""
        raise NotImplementedError

    def copy_prob(self, i: int, j: int, rewards: np.ndarray) -> float:
        r = np.asarray(rewards, dtype=float)
        m = r.shape[0]
        if not (0 <= i < m and 0 <= j < m):
            raise IndexError(f"action labels ({i}, {j}) out of range for m = {m}")
        if i == j:
            return 1.0
        return float(self.prob_matrix(r)[i, j])


def _set_diagonal(F: np.ndarray) -> np.ndarray:
    m = F.shape[0]
    idx = np.arange(m)
    F[idx, idx, ...] = 1.0
    return F


@dataclass(frozen=True, eq=False)
class ArctanRule(ImitationRule):
    """Smooth sigmoidal rule f_ij = 1/2 + arctan(K_ij (r_j - r_i)) / pi."""

    K: np.ndarray

    def __post_init__(self) -> None:
        K = np.asarray(self.K, dtype=float)
        if K.ndim == 0:
            K = K.reshape(1, 1)
        object.__setattr__(self, "K", K)
        if np.any(K <= 0.0) or not np.all(np.isfinite(K)):
            raise ValueError("sensitivity K must be finite and strictly positive")
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError(f"K must be scalar or square, got shape {K.shape}")

    def _k_for(self, m: int) -> np.ndarray:
        if self.K.shape == (1, 1):
            return np.broadcast_to(self.K, (m, m))
        if self.K.shape != (m, m):
            raise ValueError(f"K has shape {self.K.shape}, rewards have m = {m}")
        return self.K

    def prob_matrix(self, rewards: np.ndarray) -> np.ndarray:
        r = np.asarray(rewards, dtype=float)
        m = r.shape[0]
        K = self.K if self.K.shape == (1, 1) else self._k_for(m)  # (1, 1) broadcasts below
        diff = r[None, :, ...] - r[:, None, ...]  # diff[i, j] = r_j - r_i
        K = K.reshape(K.shape + (1,) * (r.ndim - 1))
        F = 0.5 + np.arctan(K * diff) / np.pi
        return _set_diagonal(F)


@dataclass(frozen=True, eq=False)
class ReplicatorRule(ImitationRule):
    """Affine rule: f_ij depends on the observed reward r_j alone.

    r_j is mapped affinely from [r_lo, r_hi] onto [eps_margin, 1 - eps_margin];
    rewards escaping the declared bounds are clamped (and logged).  With
    eps_margin = 0 openness of the range relies on r_lo, r_hi being strict
    bounds, which reward_bounds() guarantees by construction.
    """

    r_lo: float
    r_hi: float
    eps_margin: float = 1e-6

    def __post_init__(self) -> None:
        if not (self.r_lo < self.r_hi):
            raise ValueError(f"need r_lo < r_hi, got ({self.r_lo}, {self.r_hi})")
        if not (0.0 <= self.eps_margin < 0.5):
            raise ValueError(f"eps_margin must lie in [0, 1/2), got {self.eps_margin}")

    @property
    def slope(self) -> float:
        """Slope of the affine map, (1 - 2 eps) / (r_hi - r_lo)."""
        return (1.0 - 2.0 * self.eps_margin) / (self.r_hi - self.r_lo)

    def _mapped(self, r: np.ndarray) -> np.ndarray:
        raw = self.eps_margin + self.slope * (r - self.r_lo)
        clipped = np.clip(raw, self.eps_margin, 1.0 - self.eps_margin)
        if np.any(raw != clipped):
            logger.debug("replicator rule clamped rewards outside (%s, %s)", self.r_lo, self.r_hi)
        return clipped

    def prob_matrix(self, rewards: np.ndarray) -> np.ndarray:
        r = np.asarray(rewards, dtype=float)
        m = r.shape[0]
        g = self._mapped(r)  # (m,) or (m, K)
        F = np.broadcast_to(g[None, :, ...], (m,) + g.shape).copy()
        return _set_diagonal(F)


@dataclass(frozen=True, eq=False)
class CustomRule(ImitationRule):
    """User-supplied f(i, j, rewards).  Assumed Lipschitz in the rewards;
    outputs are range-checked at call time, the sign condition is verified
    only by verify_sign_condition."""

    fn: Callable[[int, int, np.ndarray], float]

    def prob_matrix(self, rewards: np.ndarray) -> np.ndarray:
        r = np.asarray(rewards, dtype=float)
        if r.ndim == 1:
            m = r.shape[0]
            F = np.empty((m, m))
            for i in range(m):
                for j in range(m):
                    if i == j:
                        F[i, j] = 1.0
                        continue
                    p = float(self.fn(i, j, r))
                    if not (0.0 < p < 1.0):
                        raise ValueError(f"custom rule returned f_{i}{j} = {p}, outside (0, 1)")
                    F[i, j] = p
            return F
        m, K = r.shape
        F = np.empty((m, m, K))
        for k in range(K):
            F[:, :, k] = self.prob_matrix(r[:, k])
        return F


def arctan_rule(K) -> ArctanRule:
    """Arctan rule with scalar or per-pair positive sensitivity K."""
    return ArctanRule(np.asarray(K, dtype=float))


def replicator_rule(r_lo: float, r_hi: float, eps_margin: float = 1e-6) -> ReplicatorRule:
    return ReplicatorRule(float(r_lo), float(r_hi), float(eps_margin))


def copy_prob(rule: ImitationRule, i: int, j: int, rewards: np.ndarray) -> float:
    """Probability that an i-player copies an observed j-player at rewards r."""
    return rule.copy_prob(i, j, rewards)


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
