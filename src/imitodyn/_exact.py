"""Exact rest points of congestion games, from polynomial roots.

A polynomial is a list of fractions.Fraction coefficients in ascending
order with no trailing zero; the zero polynomial is [].  Every float is a
rational, so float coefficients convert without rounding.  Yun's
square-free factorisation (Yun 1976) gives each root's multiplicity, a
Sturm sequence counts the distinct roots of a square-free factor in an
interval, and bisection on rational endpoints narrows each root until
its bracket rounds to one float.  rest_points solves every face of the
simplex with them (see landscape.find_critical_points_multi).  landscape
imports this module only when a search runs, so that the other
subcommands do not load fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

_MU_SCAN = 64  # intervals of the mu scan on a face whose monotone pieces rise and fall
_SOLVE_STEPS = 200  # most steps of one float root solve
_FLAT = 1e-9  # |sum x_a(mu) - 1| below this counts as zero in the scan's continuum test


def poly(coeffs) -> list:
    """The exact polynomial of ascending coefficients (floats, ints or Fractions)."""
    return _trim([Fraction(c) for c in coeffs])


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def evaluate(p: list, x):
    """p(x) by Horner; exact for a Fraction x."""
    r = 0
    for c in reversed(p):
        r = r * x + c
    return r


def derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def sub(p: list, q: list) -> list:
    n = max(len(p), len(q))
    return _trim([(p[k] if k < len(p) else 0) - (q[k] if k < len(q) else 0) for k in range(n)])


def flip(p: list) -> list:
    """q(t) = p(1 - t), by Horner: q <- q * (1 - t) + c."""
    q: list = []
    for c in reversed(p):
        q = [(q[k] if k < len(q) else 0) - (q[k - 1] if k else 0) for k in range(len(q) + 1)]
        q[0] += c
    return _trim(q)


def _divmod(p: list, q: list) -> tuple[list, list]:
    r = list(p)
    out = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    for k in range(len(out) - 1, -1, -1):
        c = r[k + len(q) - 1] / q[-1]
        out[k] = c
        for j, qc in enumerate(q):
            r[k + j] -= c * qc
    return _trim(out), _trim(r[: len(q) - 1])


def _gcd(p: list, q: list) -> list:
    while q:
        p, q = q, _divmod(p, q)[1]
    return [c / p[-1] for c in p]


def squarefree(p: list) -> list[tuple[list, int]]:
    """Yun's factorisation of a nonzero p: [(f, k)] with p = c * prod f^k,
    each f square-free and non-constant, the f pairwise coprime."""
    dp = derivative(p)
    a = _gcd(p, dp)
    b, c = _divmod(p, a)[0], _divmod(dp, a)[0]
    d = sub(c, derivative(b))
    out = []
    k = 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, k))
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        d = sub(c, derivative(b))
        k += 1
    return out


def sign(v) -> int:
    return (v > 0) - (v < 0)


def _isolate(f: list) -> list[tuple[Fraction, Fraction]]:
    """The distinct roots of a square-free f in the open (0, 1), ascending,
    as brackets (lo, hi): lo == hi is the exact root; otherwise the root
    lies strictly inside, and lo, hi and 1 - lo, 1 - hi round to the same
    floats."""
    if evaluate(f, 1) == 0:
        f = _divmod(f, [Fraction(-1), Fraction(1)])[0]
    if len(f) < 2:
        return []
    if len(f) == 2:
        r = -f[0] / f[1]
        return [(r, r)] if 0 < r < 1 else []
    chain = [f, derivative(f)]
    while len(chain[-1]) > 1:
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c / abs(r[-1]) for c in r])

    def variations(x) -> int:
        # V(c) = V(c+) at a root c of f, so V(lo) - V(hi) counts the roots in (lo, hi]
        signs = [s for s in (sign(evaluate(q, x)) for q in chain) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    def done(lo, hi) -> bool:
        return float(lo) == float(hi) and float(1 - lo) == float(1 - hi)

    out = []
    lo, hi = Fraction(0), Fraction(1)
    stack = [(lo, hi, variations(lo), variations(hi))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi > 1:
            mid = (lo + hi) / 2
            vmid = variations(mid)
            stack += [(mid, hi, vmid, vhi), (lo, mid, vlo, vmid)]
            continue
        if vlo - vhi == 0:
            continue
        # one root in (lo, hi]; move lo off any other root by counting
        if evaluate(f, hi) == 0:
            out.append((hi, hi))
            continue
        while evaluate(f, lo) == 0:
            mid = (lo + hi) / 2
            vmid = variations(mid)
            if vlo - vmid == 1:
                if evaluate(f, mid) == 0:
                    lo = hi = mid
                    break
                hi = mid
            else:
                lo, vlo = mid, vmid
        # the root is simple: f changes sign across it
        flo = sign(evaluate(f, lo))
        while lo != hi and not done(lo, hi):
            mid = (lo + hi) / 2
            s = sign(evaluate(f, mid))
            if s == 0:
                lo = hi = mid
            elif s == flo:
                lo = mid
            else:
                hi = mid
        out.append((lo, hi))
    return sorted(out)


def unit_roots(p: list) -> list[tuple[Fraction, Fraction, int]]:
    """The distinct roots of a nonzero p in the open (0, 1), ascending, as
    (lo, hi, multiplicity) with the brackets of _isolate."""
    return sorted((lo, hi, k) for f, k in squarefree(p) for lo, hi in _isolate(f))


def _solve(f, lo: float, hi: float, df=None) -> float:
    """A root of f on [lo, hi], where f(lo) and f(hi) differ in sign, to
    adjacent floats: a Newton step from df while it stays inside the
    bracket, bisection otherwise."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    x = 0.5 * (lo + hi)
    for _ in range(_SOLVE_STEPS):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi = x
        nx = 0.5 * (lo + hi)
        d = df(x) if df is not None else 0.0
        if d and lo < x - fx / d < hi:
            nx = x - fx / d
        if nx == x or nx == lo or nx == hi:
            return x
        x = nx
    return x


def _pieces(r: list) -> list[tuple[float, float, float, float]]:
    """(p, q, r(p), r(q)) for the pieces of [0, 1] between the turning
    points of a non-constant exact polynomial r, on which r is monotone."""
    rf = [float(c) for c in r]
    ends = [0.0] + [float(lo) for lo, _, _ in unit_roots(derivative(r))] + [1.0]
    return [(p, q, evaluate(rf, p), evaluate(rf, q)) for p, q in zip(ends, ends[1:]) if p < q]


def _curvature(h: list) -> str:
    """'max' or 'min' when diag(h) restricted to {sum v = 0} is negative or
    positive definite, else 'degenerate'."""
    for direction, name in ((1, "min"), (-1, "max")):
        s = [direction * v for v in h]
        neg = [v for v in s if v < 0]
        zeros = s.count(0)
        if (not neg and zeros <= 1) or (len(neg) == 1 and not zeros and sum(1 / v for v in s) < 0):
            return name
    return "degenerate"


def _affine_face(c: list, s: list) -> tuple[list, bool]:
    """Rest points of a face whose rewards are c_a + s_a x_a, all s_a != 0:
    sum_a (mu - c_a) / s_a = 1 is linear in mu.

    Like _constant_face and _monotone_face it returns (solutions,
    continuum): each solution is (x on the face, mu_lo, mu_hi, curvature),
    mu_lo = mu_hi when mu is exact, and continuum says whether the face
    holds a continuum of rest points."""
    s1 = sum(1 / v for v in s)
    s2 = sum(a / v for a, v in zip(c, s))
    if s1 == 0:
        # every mu solves when s2 = -1: a continuum wherever all x_a > 0
        lo = max((a for a, v in zip(c, s) if v > 0), default=None)
        hi = min((a for a, v in zip(c, s) if v < 0), default=None)
        return [], s2 == -1 and (lo is None or hi is None or lo < hi)
    mu = (1 + s2) / s1
    x = [(mu - a) / v for a, v in zip(c, s)]
    if min(x) <= 0:
        return [], False
    return [([float(v) for v in x], mu, mu, _curvature(s))], False


def _constant_face(face: tuple, R: list, D: list) -> tuple[list, bool]:
    """Rest points of a face where some rewards are constant: mu is their
    common value, every other x_b a root of r_b - mu, and the one constant
    action takes the rest (two or more share it: a continuum)."""
    consts = [a for a in face if len(R[a]) <= 1]
    values = {evaluate(R[a], 0) for a in consts}
    if len(values) > 1:
        return [], False
    (mu,) = values
    others = [a for a in face if a not in consts]
    options = [unit_roots(sub(R[b], [mu])) for b in others]
    out, continuum = [], False
    for combo in itertools.product(*options):
        rest = 1 - sum(lo for lo, _, _ in combo)
        if rest <= 0:
            continue
        if len(consts) > 1:
            continuum = True
            continue
        x = dict(zip(others, (lo for lo, _, _ in combo)))
        x[consts[0]] = rest
        h = {b: (0 if k > 1 else evaluate(D[b], lo)) for b, (lo, _, k) in zip(others, combo)}
        h[consts[0]] = 0
        out.append(([float(x[a]) for a in face], mu, mu, _curvature([h[a] for a in face])))
    return out, continuum


def _monotone_face(face: tuple, R: list, D: list, pieces: dict) -> tuple[list, bool]:
    """Rest points of a face of non-constant rewards, in floats.  On each
    tuple of monotone pieces (one per action) x_a(mu) inverts r_a, and the
    roots of F(mu) = sum_a x_a(mu) - 1 over the mu range the pieces share
    are the rest points.  When the pieces all rise or all fall, F is
    monotone and a sign change at the ends brackets its one root;
    otherwise F is scanned at _MU_SCAN + 1 values of mu and each sign
    change bisected, which misses a root where F touches zero without
    crossing it.  A piece on which r_a is flat to float precision (its
    values round to one float) pins mu to that value, and x_a takes the
    rest when the rest lies on the piece; two such pieces add nothing."""
    Rf = [[float(c) for c in r] for r in R]
    Df = [[float(c) for c in d] for d in D]
    for a in face:
        if a not in pieces:
            pieces[a] = _pieces(R[a])

    def inverse(a: int, piece: tuple, mu: float) -> float:
        p, q, vp, vq = piece
        if (mu - vp) * (mu - vq) >= 0.0:  # at or past an end of the piece
            return p if abs(mu - vp) <= abs(mu - vq) else q
        ra, da = Rf[a], Df[a]
        return _solve(lambda v: evaluate(ra, v) - mu, p, q, lambda v: evaluate(da, v))

    out, continuum = [], False
    for tup in itertools.product(*(pieces[a] for a in face)):
        lo = max(min(vp, vq) for _, _, vp, vq in tup)
        hi = min(max(vp, vq) for _, _, vp, vq in tup)
        if lo > hi:
            continue

        def F(mu: float, tup: tuple = tup) -> float:
            return sum(inverse(a, piece, mu) for a, piece in zip(face, tup)) - 1.0

        flat = [i for i, (_, _, vp, vq) in enumerate(tup) if vp == vq]
        if len(flat) > 1:
            continue
        if flat:
            roots = [lo]  # == hi
        else:
            rising = {vq > vp for _, _, vp, vq in tup}
            mus = [lo, hi] if len(rising) == 1 else [lo + (hi - lo) * i / _MU_SCAN for i in range(_MU_SCAN + 1)]
            values = [F(mu) for mu in mus]
            if len(mus) > 2 and sum(abs(v) < _FLAT for v in values) > _MU_SCAN // 2:
                continuum = True
                continue
            roots = [mu for mu, v in zip(mus, values) if v == 0.0]
            roots += [
                _solve(F, mus[i - 1], mus[i])
                for i in range(1, len(mus))
                if values[i - 1] * values[i] < 0.0
            ]
        for mu in roots:
            x = [inverse(a, piece, mu) for a, piece in zip(face, tup)]
            # mu pins x_a least where r_a is flattest: that coordinate takes the rest
            slopes = [abs(evaluate(Df[a], v)) for a, v in zip(face, x)]
            j = flat[0] if flat else slopes.index(min(slopes))
            x[j] = 1.0 - sum(v for i, v in enumerate(x) if i != j)
            if min(x) <= 0.0 or (flat and not tup[j][0] <= x[j] <= tup[j][1]):
                continue
            # a root on the end of a piece is also found from the next piece
            if any(max(abs(u - v) for u, v in zip(x, y[0])) <= 1e-12 for y in out):
                continue
            exact = [Fraction(v) for v in x]
            mus_at = [evaluate(R[a], v) for a, v in zip(face, exact)]
            h = [evaluate(D[a], v) for a, v in zip(face, exact)]
            out.append((x, min(mus_at), max(mus_at), _curvature(h)))
    return out, continuum


def rest_points(coeffs) -> tuple[list[tuple[list[float], str, bool, bool]], list[list[int]]]:
    """The rest points of the congestion game whose reward r_a has the
    ascending coefficients coeffs[a], on every face of the simplex, as
    (x, kind, is_ne, on_boundary); and the faces that hold a continuum of
    rest points, which add none."""
    m = len(coeffs)
    R = [poly(c) for c in coeffs]
    D = [derivative(r) for r in R]
    at0 = [evaluate(r, 0) for r in R]
    pieces: dict = {}  # action -> _pieces, made when a face first needs them
    found = []  # (face, x on the face, mu_lo, mu_hi, curvature)
    continuum = []
    for a in range(m):
        mu = evaluate(R[a], 1)
        found.append(((a,), [1.0], mu, mu, None))
    for a, b in itertools.combinations(range(m), 2):
        # g(t) = r_a(t) - r_b(1 - t) is dPhi/dt along t e_a + (1 - t) e_b
        g = sub(R[a], flip(R[b]))
        if not g:
            continuum.append([a, b])
            continue
        for lo, hi, k in unit_roots(g):
            # at a root of odd multiplicity k, g crosses zero with the sign of g^(k)
            curvature = "degenerate"
            if k % 2:
                dk = g
                for _ in range(k):
                    dk = derivative(dk)
                signs = {sign(evaluate(dk, lo)), sign(evaluate(dk, hi))}
                curvature = "max" if signs == {-1} else "min" if signs == {1} else "degenerate"
            mus = sorted((evaluate(R[a], lo), evaluate(R[a], hi)))
            found.append(((a, b), [float(lo), float(1 - lo)], mus[0], mus[1], curvature))
    for k in range(3, m + 1):
        for face in itertools.combinations(range(m), k):
            if any(len(R[a]) <= 1 for a in face):
                solutions, flat = _constant_face(face, R, D)
            elif all(len(R[a]) == 2 for a in face):
                solutions, flat = _affine_face([R[a][0] for a in face], [R[a][1] for a in face])
            else:
                solutions, flat = _monotone_face(face, R, D, pieces)
            if flat:
                continuum.append(list(face))
            found += [(face, *solution) for solution in solutions]

    points = []
    for face, on_face, mu_lo, mu_hi, curvature in found:
        x = [0.0] * m
        for a, v in zip(face, on_face):
            x[a] = v
        # entering an absent action b changes Phi at the rate r_b(0) - mu
        absent = [at0[b] for b in range(m) if b not in face]
        if curvature in (None, "max") and all(v < mu_lo for v in absent):
            kind = "local_max"
        elif curvature in (None, "min") and all(v > mu_hi for v in absent):
            kind = "local_min"
        else:
            kind = "saddle_or_degenerate"
        ne = all(v <= mu_hi for v in absent)
        points.append((x, kind, ne, len(face) < m))
    return points, continuum
