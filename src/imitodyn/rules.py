"""Imitation rules: reward-driven pairwise copying probabilities.

A rule maps the current reward vector to probabilities f_ij in (0, 1) that
a player using action i copies an observed player using action j.  Rules
must favor the better action: sign(f_ij - f_ji) = sign(r_j - r_i).
Self-pairs are fixed at f_ii = 1 as a totality convention; engines never
consult them.  The two rules here, arctan with K > 0 and the replicator
wherever it does not clamp, meet that sign condition by construction; the
tests sample it (conftest.verify_sign_condition).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImitationRule",
    "ArctanRule",
    "ReplicatorRule",
    "arctan_rule",
    "replicator_rule",
]

logger = logging.getLogger(__name__)


class ImitationRule:
    """Base interface; subclasses implement prob_matrix over reward vectors."""

    def prob_matrix(self, rewards: np.ndarray) -> np.ndarray:
        """F with F[i, j] = f_ij(r).  rewards may be (m,) or (m, K) for a
        batch of states; the result is (m, m) or (m, m, K)."""
        raise NotImplementedError


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


def arctan_rule(K) -> ArctanRule:
    """Arctan rule with scalar or per-pair positive sensitivity K."""
    return ArctanRule(np.asarray(K, dtype=float))


def replicator_rule(r_lo: float, r_hi: float, eps_margin: float = 1e-6) -> ReplicatorRule:
    return ReplicatorRule(float(r_lo), float(r_hi), float(eps_margin))
