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
- the replicator rule becomes the table G[a][c] = f_ia, and the arctan
  rule at m = 2 an inline atan in the flow's drift;
- any other game or rule at m >= 3 (the arctan rule included) falls back
  to rule.prob_matrix(game.rewards_at(x)) per state, range-checked on
  every call.

_Law's rhs (the flow's right-hand side), step (one RK4 step with the
clip-and-renormalise guard) and cum_rates (the running sums of the jump
rates that the m >= 3 complete engine bisects) are straight-line Python
that _compile generates and execs once per m and law shape: one flat
statement per Horner coefficient and per (i, j) term, with names built
from indices and every coefficient passed in through a factory.  Each
statement does the float operations of the loop it replaced, in the same
order, so results are the same bits; the tests keep those loops as the
reference.  On the replicator path Horner and the clamp (with its debug
log) run inline and the rates read G; the fallback reads F from probs_at
and probs.  engine.transition_rates and meanfield.mean_field_rhs stay the
reference definitions that the tests compare these paths against.

potential_pair compiles a congestion game's potential (_PolyPotential) and
gradient (_PolyRewards) into closures phi(x) and grad(x) on a list of
floats: Horner per action and numpy's summation order, so both equal
game.potential and game.potential_gradient bit for bit.  The landscape
finder solves the games that have a compiled pair exactly, from their
coefficients, and takes each point's potential from phi; it rejects any
other game.
"""

from __future__ import annotations

import functools
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


def _replicator_consts(rule: ReplicatorRule) -> dict:
    """The constants of ReplicatorRule._mapped on Python floats, and
    clamped(), which writes its debug log when a reward is clamped."""

    def clamped() -> None:
        logger.debug("replicator rule clamped rewards outside (%s, %s)", rule.r_lo, rule.r_hi)

    eps = rule.eps_margin
    return dict(eps=eps, slope=rule.slope, lo=rule.r_lo, cap=1.0 - eps, clamped=clamped)


def _replicator_map(rule: ReplicatorRule):
    """Scalar form of ReplicatorRule._mapped (same operations, same bits,
    and the same debug log when a reward is clamped)."""
    k = _replicator_consts(rule)
    eps, s, lo, cap, clamped = k["eps"], k["slope"], k["lo"], k["cap"], k["clamped"]

    def g(r: float) -> float:
        f = eps + s * (r - lo)
        if f < eps:
            f = eps
        elif f > cap:
            f = cap
        else:
            return f
        clamped()
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


def _names(prefix: str, count: int) -> str:
    return ", ".join(f"{prefix}{a}" for a in range(count))


def _rhs_lines(m: int, degrees: tuple | None, z: str, out: str) -> list:
    """Statements that set out0..out{m-1} to the flow's right-hand side at
    z0..z{m-1}: t = 0.0, then t += (F_ji - F_ij) * z_j for each j != i in
    order, then lam * z_i * t."""
    if degrees is None:
        lines = [f"{_names('F', m)} = probs_at([{_names(z, m)}])"]

        def diff(i: int, j: int) -> str:
            return f"F{j}[{i}] - F{i}[{j}]"

    else:
        # f_ij = g(r_j) for every i, so F_ji - F_ij = g(r_i) - g(r_j)
        lines = []
        for a, d in enumerate(degrees):
            lines.append(f"r = A{a} * {z}{a} + C{a}_0" if d else f"r = A{a}")
            lines += [f"r = r * {z}{a} + C{a}_{k}" for k in range(1, d)]
            lines += [
                f"f{a} = eps + slope * (r - lo)",
                f"if f{a} < eps:",
                f"    f{a} = eps",
                "    clamped()",
                f"elif f{a} > cap:",
                f"    f{a} = cap",
                "    clamped()",
            ]

        def diff(i: int, j: int) -> str:
            return f"f{i} - f{j}"

    for i in range(m):
        terms = [f"({diff(i, j)}) * {z}{j}" for j in range(m) if j != i]
        lines.append(f"t = 0.0 + {terms[0]}")
        lines += [f"t += {term}" for term in terms[1:]]
        lines.append(f"{out}{i} = lam * {z}{i} * t")
    return lines


def _step_lines(m: int, degrees: tuple | None) -> list:
    """Body of step(x, h, k1): the RK4 stages, x + h/6 (k1 + 2 k2 + 2 k3 + k4),
    then the guard that clips negatives to 0 and renormalises."""
    lines = [f"{_names('x', m)} = x", f"{_names('k1_', m)} = k1", "half = 0.5 * h"]
    for stage, scale in ((2, "half"), (3, "half"), (4, "h")):
        lines += [f"z{a} = x{a} + {scale} * k{stage - 1}_{a}" for a in range(m)]
        lines += _rhs_lines(m, degrees, "z", f"k{stage}_")
    lines.append("sixth = h / 6.0")
    lines += [f"x{a} = x{a} + sixth * (k1_{a} + 2.0 * k2_{a} + 2.0 * k3_{a} + k4_{a})" for a in range(m)]
    lines += ["clipped = 0.0", "total = 0.0"]
    for a in range(m):
        lines += [f"if x{a} < 0.0:", f"    clipped -= x{a}", "else:", f"    total += x{a}"]
    lines.append("if clipped > 0.0:")
    for a in range(m):
        lines += [f"    if not x{a} > 0.0:", f"        x{a} = 0.0"]
    quotients = ", ".join(f"x{a} / total" for a in range(m))
    lines.append(f"return [{quotients}], max(clipped, abs(total - 1.0)), clipped > 0.0")
    return lines


def _rates_lines(m: int, degrees: tuple | None) -> list:
    """Body of cum_rates(counts): the running sums of the jump rates
    cn * (x_i * x_j) * f_ij over the off-diagonal (i, j), row-major, added
    left to right as itertools.accumulate adds them."""
    lines = [f"{_names('c', m)} = counts"]
    lines += [f"w{a} = xs[c{a}]" for a in range(m)]
    if degrees is None:
        lines.append(f"{_names('F', m)} = probs(counts)")

        def f(i: int, j: int) -> str:
            return f"F{i}[{j}]"

    else:
        lines += [f"g{a} = G{a}[c{a}]" for a in range(m)]

        def f(i: int, j: int) -> str:
            return f"g{j}"

    # x_i * x_j == x_j * x_i bit for bit, so each pair's cn * (x_i * x_j)
    # is computed once
    lines += [f"s{i}_{j} = cn * (w{i} * w{j})" for i in range(m) for j in range(i + 1, m)]
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    for k, (i, j) in enumerate(pairs):
        rate = f"s{min(i, j)}_{max(i, j)} * {f(i, j)}"
        lines.append(f"u{k} = u{k - 1} + {rate}" if k else f"u0 = {rate}")
    lines.append(f"return [{_names('u', len(pairs))}]")
    return lines


@functools.cache
def _compile(m: int, degrees: tuple | None):
    """factory(lam, xs, cn, probs_at, probs, G, **replicator constants) ->
    (rhs, step, cum_rates) as straight-line code for m actions.  degrees
    holds the number of Horner steps of each action's reward on the
    replicator path; None compiles the fallback, which reads F from
    probs_at and probs.  Every statement is flat, so no expression nests
    deeper as m or the degree grows."""
    body = []
    if degrees is not None:
        body.append(f"{_names('A', m)} = A")
        body += [f"{_names(f'C{a}_', d)}, = C[{a}]" for a, d in enumerate(degrees) if d]
        body += ["if G is not None:", f"    {_names('G', m)} = G"]
    functions = {
        "rhs(x)": [f"{_names('x', m)} = x", *_rhs_lines(m, degrees, "x", "k"), f"return [{_names('k', m)}]"],
        "step(x, h, k1)": _step_lines(m, degrees),
        "cum_rates(counts)": _rates_lines(m, degrees),
    }
    for signature, lines in functions.items():
        body += [f"def {signature}:", *("    " + line for line in lines)]
    body.append("return rhs, step, cum_rates")
    head = "def factory(lam, xs, cn, probs_at, probs, G, A=None, C=None, eps=None, slope=None, lo=None, cap=None,"
    head += " clamped=None):"
    source = "\n".join([head, *("    " + line for line in body)])
    namespace: dict = {}
    exec(compile(source, f"<imitodyn._law m={m} degrees={degrees}>", "exec"), namespace)
    return namespace["factory"]


class _Law:
    """The law of (game, rule) at rate lam, on Python floats.

    - probs_at(x): F[i][j] = f_ij at a frequency list x (diagonal unread);
    - rhs(x): the mean-field right-hand side lam x_i sum_j (f_ji - f_ij) x_j;
    - step(x, h, k1): one RK4 step of size h from x given k1 = rhs(x), then
      the guard: (x with negatives clipped to 0 and renormalised, violation
      size, whether it clipped);
    - drift(v), m = 2 only: the x_0 component of rhs at (v, 1 - v);
    - with n given, probs(counts), F at counts / n (at m = 2 at
      (k/n, 1 - k/n), from pair_tables), and cum_rates(counts), the running
      sums of the jump rates n lam x_i x_j f_ij over the (i, j) in `pairs`
      (row-major, off-diagonal).

    rhs, step and cum_rates are the straight-line code that _compile
    generates for m and the law's shape.
    """

    def __init__(self, game: Game, rule: ImitationRule, lam: float = 1.0, n: int | None = None):
        m = game.m
        self.m = m
        self._game = game
        self._rule = rule
        poly = isinstance(game.rewards, _PolyRewards)
        replicator = poly and isinstance(rule, ReplicatorRule)
        # the replicator map on polynomial rewards; None selects the
        # per-state fallback
        self._g = _replicator_map(rule) if replicator else None
        self._horner = [_horner(c) for c in game.rewards.coeffs] if poly else None
        if m == 2:
            self.drift = self._drift(lam)
        probs = G = xs = cn = None
        if n is not None:
            self.pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
            probs, G = self._count_probs(n)
            self.probs = probs
            xs = (np.arange(n + 1) / n).tolist()
            cn = n * lam
        consts: dict = {}
        degrees = None
        if replicator:
            A, C = zip(*self._horner)
            consts = dict(_replicator_consts(rule), A=A, C=C)
            degrees = tuple(map(len, C))
        factory = _compile(m, degrees)
        self.rhs, self.step, cum_rates = factory(lam, xs, cn, self.probs_at, probs, G, **consts)
        if n is not None:
            self.cum_rates = cum_rates

    def _fallback(self, x: np.ndarray) -> list:
        return check_probs(self._rule.prob_matrix(self._game.rewards_at(x))).tolist()

    def probs_at(self, x: list) -> list:
        g = self._g
        if g is None:
            return self._fallback(np.asarray(x))
        # inline Horner: the 2-action drift calls this once per RK4 stage
        r = []
        for (ra, cs), v in zip(self._horner, x):
            for c in cs:
                ra = ra * v + c
            r.append(g(ra))
        return [r] * self.m

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
        """(probs, G): G[a][c] = f_ia at count c of action a on the
        replicator path, else None."""
        m = self.m
        if self._g is not None:
            if m == 2:
                # pair_tables' bits: f_10 at count k of action 0, f_01 at
                # count n - k of action 1
                f01, f10 = pair_tables(self._game, self._rule, n)
                G = [f10.tolist(), f01.tolist()[::-1]]
            else:
                # separable rewards: row a holds r_a(c / n) for c = 0..n
                R = rewards_grid(self._game, np.tile(np.arange(n + 1) / n, (m, 1)))
                Gm = self._rule._mapped(R)  # g(r) entrywise; logs once if it clamps
                check_probs(np.broadcast_to(Gm[None], (m, m, n + 1)))
                G = Gm.tolist()

            def probs(counts: list) -> list:
                return [[Ga[c] for Ga, c in zip(G, counts)]] * m

            return probs, G
        if m == 2:
            f01, f10 = pair_tables(self._game, self._rule, n)
            # the diagonal is never read
            tables = [[[0.0, a], [b, 0.0]] for a, b in zip(f01.tolist(), f10.tolist())]

            def probs(counts: list) -> list:
                return tables[counts[0]]

            return probs, None
        fallback = self._fallback

        def probs(counts: list) -> list:
            return fallback(np.asarray(counts) / n)

        return probs, None
