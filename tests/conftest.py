"""Shared fixtures and exact oracles for the test suite.

The birth-death helpers below compute absorption statistics of the 2-action
complete-graph chain independently of the engine, straight from the rate
definition, so empirical results can be checked against exact numbers.

loop_rhs, loop_rates and loop_step are the loops that the law's generated
straight-line code replaced, kept as its bit-for-bit reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import linalg

from imitodyn import PopulationType, arctan_rule, example4_game, transition_rates


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


def loop_rhs(law, lam: float):
    """The flow's right-hand side as a loop over law.probs_at's lists."""
    probs_at = law.probs_at
    others = [[j for j in range(law.m) if j != i] for i in range(law.m)]

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
