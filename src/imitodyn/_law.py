"""One (game, rule) pair compiled for scalar Python evaluation.

Every engine loop and the mean-field flow take their copy probabilities
from here.  They evaluate them once per event or RK4 stage on a handful of
actions, where numpy's per-call overhead costs more than the arithmetic, so
the pair is compiled once:

- at m = 2, pair_tables gives f_01 and f_10 at every count k = 0..n of
  action 0 from one batched rule.prob_matrix call on the states
  (k/n, 1 - k/n); jump_path walks the jump-rate tables built from them
  (walk), the network loop reads their per-count rows (probs);
- a game is its reward polynomials (games.Game.coeffs), and they are
  separable, r_a depends on x_a alone, so the flow evaluates each by an
  inline Horner, and at m >= 3 and population n the count paths read the
  per-count tables R[a][c] = r_a(c/n);
- both rules a config can name are one law shape each: the replicator
  rule clamps g_a = f_ia (with its debug log; the count paths read the
  table G[a][c] instead), and the arctan rule computes one
  f_ij = 0.5 + atan(K_ij (r_j - r_i)) / pi per ordered pair, K scalar or
  per pair.

_Law raises ValueError for any other rule, so every engine loop and the
flow reject such a pair before they draw.

_Law's rhs (the flow's right-hand side), step (one RK4 step with the
clip-and-renormalise guard) and, at m >= 3, cum_rates (the running sums of
the jump rates that jump_path bisects for the complete engine) and probs are
straight-line Python that _compile generates and execs once per m and law
shape: one flat statement per Horner coefficient, copy probability and
(i, j) term, with names built from indices and every coefficient passed in
through a factory.  One emitter (_f_lines) writes the copy probabilities
for all of them, so they read the same F.  Each statement does the float
operations of the loop it replaced, in the same order, so results are the
same bits; the tests keep those loops as the reference, and compare them
with the reference rate matrix and meanfield.mean_field_rhs, which
evaluate rule.prob_matrix(game.rewards_at(x)); under the arctan rule
math.atan may differ from numpy's arctan in the last bit.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right

import numpy as np

from .games import Game
from .rules import ArctanRule, ImitationRule, ReplicatorRule, logger


@functools.cache
def _off_diagonal(m: int) -> np.ndarray:
    return ~np.eye(m, dtype=bool)


def check_probs(F: np.ndarray) -> np.ndarray:
    """Return F, an (m, m) or (m, m, K) copy-probability array, after checking
    that every off-diagonal entry lies in [0, 1].  Outside that range a rule
    can make the jump rates out of a state exceed n * lambda."""
    off = F[_off_diagonal(F.shape[0])]
    if not (off.min() >= 0.0 and off.max() <= 1.0):  # a NaN fails both
        bad = ~((off >= 0.0) & (off <= 1.0))
        raise ValueError(f"rate conservation violated: copy probability {float(off[bad][0])!r} outside [0, 1]")
    return F


def pair_tables(game: Game, rule: ImitationRule, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(f01, f10) of a 2-action game at every state (k/n, 1 - k/n), as
    arrays indexed by k = 0..n, the count of action 0."""
    X = np.empty((2, n + 1))
    np.divide(np.arange(n + 1, dtype=float), n, out=X[0])
    np.subtract(1.0, X[0], out=X[1])
    F = check_probs(rule.prob_matrix(game.rewards(X)))
    return F[0, 1].copy(), F[1, 0].copy()  # a law keeps these, not all of F


def _replicator_consts(rule: ReplicatorRule) -> dict:
    """The constants of ReplicatorRule._mapped on Python floats, and
    clamped(), which writes its debug log when a reward is clamped."""

    def clamped() -> None:
        logger.debug("replicator rule clamped rewards outside (%s, %s)", rule.r_lo, rule.r_hi)

    eps = rule.eps_margin
    return dict(eps=eps, slope=rule.slope, lo=rule.r_lo, cap=1.0 - eps, clamped=clamped)


def _horner(coeffs: tuple) -> tuple[float, tuple]:
    """(leading coefficient, the rest by falling degree) of an ascending
    coefficient tuple.  Zero terms above the highest nonzero one, the
    padding to a common degree, are dropped: on finite x, Horner reaches
    that coefficient exactly either way.  An all-zero tuple is kept whole,
    so that the sign of a zero result matches numpy's."""
    c = list(coeffs)
    top = max((k for k, v in enumerate(c) if v != 0.0), default=len(c) - 1)
    return c[top], tuple(reversed(c[:top]))


def _names(prefix: str, count: int) -> str:
    return ", ".join(f"{prefix}{a}" for a in range(count))


def _pairs(m: int) -> list:
    """The ordered pairs (i, j), i != j, row-major."""
    return [(i, j) for i in range(m) for j in range(m) if i != j]


def _f_lines(m: int, shape: tuple, src: str) -> tuple[list, object]:
    """(statements, f): the statements set the copy probabilities at the
    frequencies {src}0..{src}{m-1}, or at the counts c0..c{m-1} when src is
    "c", and f(i, j) is the expression that reads f_ij after them."""
    kind, degrees = shape
    lines = []
    for a, d in enumerate(degrees):
        if src == "c":
            lines.append(f"g{a} = G{a}[c{a}]" if kind == "replicator" else f"r{a} = R{a}[c{a}]")
            continue
        lines.append(f"r{a} = A{a} * {src}{a} + C{a}_0" if d else f"r{a} = A{a}")
        lines += [f"r{a} = r{a} * {src}{a} + C{a}_{k}" for k in range(1, d)]
        if kind == "replicator":
            lines += [
                f"g{a} = eps + slope * (r{a} - lo)",
                f"if g{a} < eps:",
                f"    g{a} = eps",
                "    clamped()",
                f"elif g{a} > cap:",
                f"    g{a} = cap",
                "    clamped()",
            ]
    if kind == "replicator":
        return lines, lambda i, j: f"g{j}"
    lines += [f"f{i}_{j} = 0.5 + atan(K{i}_{j} * (r{j} - r{i})) / pi" for i, j in _pairs(m)]
    return lines, lambda i, j: f"f{i}_{j}"


def _rhs_lines(m: int, shape: tuple, z: str, out: str) -> list:
    """Statements that set out0..out{m-1} to the flow's right-hand side at
    z0..z{m-1}: t = 0.0, then t += (F_ji - F_ij) * z_j for each j != i in
    order, then lam * z_i * t."""
    lines, f = _f_lines(m, shape, z)
    for i in range(m):
        terms = [f"({f(j, i)} - {f(i, j)}) * {z}{j}" for j in range(m) if j != i]
        lines.append(f"t = 0.0 + {terms[0]}")
        lines += [f"t += {term}" for term in terms[1:]]
        lines.append(f"{out}{i} = lam * {z}{i} * t")
    return lines


def _step_lines(m: int, shape: tuple) -> list:
    """Body of step(x, h, k1): the RK4 stages, x + h/6 (k1 + 2 k2 + 2 k3 + k4),
    then the guard that clips negatives to 0 and renormalises."""
    lines = [f"{_names('x', m)} = x", f"{_names('k1_', m)} = k1", "half = 0.5 * h"]
    for stage, scale in ((2, "half"), (3, "half"), (4, "h")):
        lines += [f"z{a} = x{a} + {scale} * k{stage - 1}_{a}" for a in range(m)]
        lines += _rhs_lines(m, shape, "z", f"k{stage}_")
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


def _rates_lines(m: int, shape: tuple) -> list:
    """Body of cum_rates(counts): the running sums of the jump rates
    cn * (x_i * x_j) * f_ij over the off-diagonal (i, j), row-major, added
    left to right as itertools.accumulate adds them."""
    lines = [f"{_names('c', m)} = counts"]
    lines += [f"w{a} = xs[c{a}]" for a in range(m)]
    f_lines, f = _f_lines(m, shape, "c")
    lines += f_lines
    # x_i * x_j == x_j * x_i bit for bit, so each pair's cn * (x_i * x_j)
    # is computed once
    lines += [f"s{i}_{j} = cn * (w{i} * w{j})" for i in range(m) for j in range(i + 1, m)]
    for k, (i, j) in enumerate(_pairs(m)):
        rate = f"s{min(i, j)}_{max(i, j)} * {f(i, j)}"
        lines.append(f"u{k} = u{k - 1} + {rate}" if k else f"u0 = {rate}")
    lines.append(f"return [{_names('u', m * (m - 1))}]")
    return lines


def _probs_lines(m: int, shape: tuple) -> list:
    """Body of probs(counts): F at counts / n as a list of rows; the
    diagonal is never read."""
    lines, f = _f_lines(m, shape, "c")
    if shape[0] == "replicator":  # f_ij = g_j in every row i: one row serves
        F = f"[[{_names('g', m)}]] * {m}"
    else:
        F = "[" + ", ".join("[" + ", ".join(f(i, j) if i != j else "1.0" for j in range(m)) + "]" for i in range(m)) + "]"
    return [f"{_names('c', m)} = counts", *lines, f"return {F}"]


@functools.cache
def _compile(m: int, shape: tuple):
    """factory(lam, xs, cn, T, **constants) -> (rhs, step), and at m >= 3
    also (cum_rates, probs), as straight-line code for m actions.
    shape is (kind, degrees): kind "replicator" or "arctan" on rewards whose
    Horner forms take degrees steps per action.  The count paths read xs,
    the frequencies c / n, cn = n lam and T, the per-count table, G for the
    replicator rule and R for the arctan rule.  Every statement is flat, so
    no expression nests deeper as m or the degree grows."""
    kind, degrees = shape
    body = [f"{_names('A', m)} = A"]
    body += [f"{_names(f'C{a}_', d)}, = C[{a}]" for a, d in enumerate(degrees) if d]
    functions = {
        "rhs(x)": [f"{_names('x', m)} = x", *_rhs_lines(m, shape, "x", "k"), f"return [{_names('k', m)}]"],
        "step(x, h, k1)": _step_lines(m, shape),
    }
    if m > 2:
        body += ["if T is not None:", f"    {_names('G' if kind == 'replicator' else 'R', m)} = T"]
        functions["cum_rates(counts)"] = _rates_lines(m, shape)
        functions["probs(counts)"] = _probs_lines(m, shape)
    if kind == "arctan":
        body += [f"{', '.join(f'K{i}_{j}' for i, j in _pairs(m))} = K", "atan = math.atan", "pi = math.pi"]
    for signature, lines in functions.items():
        body += [f"def {signature}:", *("    " + line for line in lines)]
    body.append(f"return {', '.join(signature.split('(')[0] for signature in functions)}")
    head = "def factory(lam, xs=None, cn=None, T=None, A=None, C=None, K=None, eps=None, slope=None, lo=None,"
    head += " cap=None, clamped=None):"
    source = "\n".join([head, *("    " + line for line in body)])
    namespace: dict = {"math": math}
    exec(compile(source, f"<imitodyn._law m={m} shape={shape}>", "exec"), namespace)
    return namespace["factory"]


class _Law:
    """The law of (game, rule) at rate lam, on Python floats.

    - rhs(x): the mean-field right-hand side lam x_i sum_j (f_ji - f_ij) x_j;
    - step(x, h, k1): one RK4 step of size h from x given k1 = rhs(x), then
      the guard: (x with negatives clipped to 0 and renormalised, violation
      size, whether it clipped);
    - with n given, probs(counts), F at counts / n, `pairs`, the
      off-diagonal (i, j) row-major, and jump_path, the complete loop's
      jumps: at m = 2 over walk, the jump-rate tables, at m >= 3 over
      cum_rates(counts), the running sums of the jump rates
      n lam x_i x_j f_ij over `pairs`.

    All but jump_path are the straight-line code that _compile generates
    for m and the law's shape, except at m = 2 probs and walk, which read
    the pair tables and are built when a loop first asks for them.  A rule
    other than the arctan and the replicator rule raises ValueError.
    """

    def __init__(self, game: Game, rule: ImitationRule, lam: float = 1.0, n: int | None = None):
        m = game.m
        self.m = m
        self._game = game
        self._rule = rule
        self._lam = lam
        self._n = n
        if not isinstance(rule, (ReplicatorRule, ArctanRule)):
            raise ValueError("the compiled law requires the arctan or the replicator rule")
        if isinstance(rule, ReplicatorRule):
            kind, consts = "replicator", _replicator_consts(rule)
        else:
            K = rule._k_for(m)
            kind, consts = "arctan", dict(K=[float(K[i, j]) for i, j in _pairs(m)])
        A, C = zip(*(_horner(c) for c in game.coeffs))
        consts.update(A=A, C=C)
        if n is not None:
            self.pairs = _pairs(m)
            if m > 2:
                consts.update(T=self._count_table(n, kind), xs=(np.arange(n + 1) / n).tolist(), cn=n * lam)
        factory = _compile(m, (kind, tuple(map(len, C))))
        self.rhs, self.step, *counts = factory(lam, **consts)
        if n is not None and m > 2:
            self.cum_rates, self.probs = counts
            i, j = np.array(self.pairs).T
            eye = np.eye(m, dtype=np.int64)[:, :-1]
            self._moves = eye[j] - eye[i]  # row p adds e_j - e_i to the first m - 1 counts, pairs[p] = (i, j)

    @functools.cached_property
    def _pair(self) -> tuple[np.ndarray, np.ndarray]:
        return pair_tables(self._game, self._rule, self._n)

    @functools.cached_property
    def walk(self) -> tuple[list, list, np.ndarray]:
        """m = 2: (pup, tot, -tot), indexed by the count k of action 0: the
        chance that a jump goes up, k -> k + 1, and the total jump rate
        lam k (n - k) / n (f01 + f10), as lists and negated as an array."""
        f01, f10 = self._pair
        n = self._n
        ks = np.arange(n + 1, dtype=float)
        base = self._lam * ks * (n - ks) / n
        up = base * f10  # a 1-player copies action 0: k -> k + 1
        tot = up + base * f01
        pup = np.divide(up, tot, out=np.zeros(n + 1), where=tot > 0.0)
        return pup.tolist(), tot.tolist(), -tot

    def jump_path(self, counts: list, directions) -> tuple[np.ndarray, np.ndarray, float]:
        """The complete loop's jump chain from `counts`, one jump per
        direction uniform d of `directions`, any iterable of floats (the
        complete loop passes a memoryview), stopping at a state that
        nothing leaves: at m = 2 up when d < pup (walk), at m >= 3 to the
        pair at which the cumulative rates first exceed d times their total.
        Returns (path, -rates, rate): the first m - 1 counts before the
        first jump and after each as rows, the negated total rate before
        each jump and the total rate out of the last state, which `counts`
        is left at."""
        if self.m == 2:
            pup, tot, neg_tot = self.walk
            k = counts[0]
            path = [k]
            step = path.append
            for d in directions:
                k = k + 1 if d < pup[k] else k - 1
                step(k)
                if tot[k] <= 0.0:
                    break  # absorbed, or a state that nothing leaves
            counts[:] = k, self._n - k
            path = np.fromiter(path, np.int64, len(path))
            return path[:, None], neg_tot[path[:-1]], tot[k]
        cum_rates, pairs = self.cum_rates, self.pairs
        start = counts[:-1]
        cum = cum_rates(counts)
        total = cum[-1]
        moved, neg = [], []
        for d in directions:
            # total is the last cumulative rate, so d * total < total picks
            # a pair whose rate is positive
            p = bisect_right(cum, d * total)
            moved.append(p)
            neg.append(-total)
            i, j = pairs[p]
            counts[i] -= 1
            counts[j] += 1
            cum = cum_rates(counts)
            total = cum[-1]
            if total <= 0.0:
                break  # absorbed, or a state that nothing leaves
        return np.cumsum(np.vstack([start, self._moves[moved]]), axis=0), np.array(neg), total

    @functools.cached_property
    def probs(self):
        """m = 2: probs(counts), the pair tables' row at counts[0]; at
        m >= 3 __init__ sets the generated probs in its place."""
        f01, f10 = self._pair
        # the diagonal is never read
        rows = [[[0.0, a], [b, 0.0]] for a, b in zip(f01.tolist(), f10.tolist())]

        def probs(counts: list) -> list:
            return rows[counts[0]]

        return probs

    def _count_table(self, n: int, kind: str) -> list:
        """T at m >= 3: the per-count table G[a][c] = f_ia of the replicator
        rule or R[a][c] = r_a(c / n) of the arctan rule."""
        m = self.m
        # separable rewards: row a holds r_a(c / n) for c = 0..n
        R = self._game.rewards(np.tile(np.arange(n + 1) / n, (m, 1)))
        if kind == "arctan":
            # f_ij = 0.5 + atan(K_ij (r_j - r_i)) / pi lies in [0, 1] unless
            # r_j - r_i is NaN: at a NaN reward, or where two actions' rewards
            # are the same infinity at counts c_i + c_j <= n
            first = [[int(row.argmax()) if row.any() else n + 1 for row in R == s] for s in (np.inf, -np.inf)]
            if np.isnan(R).any() or any(sum(sorted(c)[:2]) <= n for c in first):
                raise ValueError("rate conservation violated: copy probability nan outside [0, 1]")
            return R.tolist()
        G = self._rule._mapped(R)  # g(r) entrywise, clipped into [eps, 1 - eps]; logs once if it clamps
        if np.isnan(G).any():  # so only a NaN reward puts an f_ij outside [0, 1]
            raise ValueError("rate conservation violated: copy probability nan outside [0, 1]")
        return G.tolist()
