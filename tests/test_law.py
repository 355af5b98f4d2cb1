"""The compiled scalar law against the reference definitions.

conftest.transition_rates and meanfield.mean_field_rhs are the reference
laws; every engine loop and the flow run on imitodyn._law instead.
The two must agree to 1e-12 on congestion games under both config rules.
The law's generated rhs, step and (at m >= 3) cum_rates must equal the
loops they replaced (conftest's loop_rhs, loop_step and loop_rates) bit for
bit.  The generated arctan probabilities must equal rule.prob_matrix to
1e-15.  Every game and rule that a config can build has a compiled law;
every loop and the flow raise ValueError for any other rule.
"""

import functools
import logging
import math
import time
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imitodyn import (
    Configuration,
    Game,
    ImitationRule,
    PopulationType,
    SimConfig,
    arctan_rule,
    complete,
    example4_game,
    find_limit,
    integrate,
    make_congestion_game,
    mean_field_rhs,
    replicator_rule,
    reward_bounds,
    simulate_complete,
    simulate_network,
)
from imitodyn._law import _compile, _Law
from imitodyn.rules import ArctanRule
from conftest import loop_rates, loop_rhs, loop_step, transition_rates

POLYS = ([1.0, -2.0, 0.5], [0.3, 1.0], [2.0, -1.0, -1.0], [0.5], [1.5, 0.0, -2.0, 0.5], [-0.5, 3.0])
RULES = ("arctan", "arctan_pairs", "replicator", "replicator_clamped")


@functools.cache
def _case(m: int, rule_name: str) -> tuple[Game, object]:
    game = make_congestion_game(POLYS[:m])
    lo, hi = reward_bounds(game)
    span = hi - lo
    rule = {
        "arctan": lambda: arctan_rule(0.7),
        "arctan_pairs": lambda: arctan_rule(0.3 + ((np.arange(m * m) * 7) % 5).reshape(m, m) / 2.0),
        "replicator": lambda: replicator_rule(lo, hi, 0.01),
        # clamps part of the reward range
        "replicator_clamped": lambda: replicator_rule(lo + 0.3 * span, hi - 0.3 * span, 0.01),
    }[rule_name]()
    return game, rule


@functools.cache
def _example4_case(rule_name: str) -> tuple[Game, object]:
    game = example4_game()
    rule = {
        "arctan": lambda: arctan_rule(1.0),
        "arctan2x2": lambda: arctan_rule([[1.0, 0.5], [2.0, 1.0]]),
        "replicator": lambda: replicator_rule(*reward_bounds(game)),
    }[rule_name]()
    return game, rule


law_cases = st.tuples(st.integers(2, 6), st.sampled_from(RULES))
games_and_rules = st.one_of(
    law_cases.map(lambda case: _case(*case)),
    st.sampled_from(["arctan", "arctan2x2", "replicator"]).map(_example4_case),
)


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _simplex_list(weights: list) -> list:
    w = np.array(weights)
    if w.sum() == 0.0:
        w[0] = 1.0
    return (w / w.sum()).tolist()


@given(games_and_rules, st.integers(2, 300), st.data(), st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_probs_and_rates_match_reference(game_and_rule, n, data, lam):
    game, rule = game_and_rule
    m = game.m
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    counts = np.diff([0, *cuts, n])
    law = _Law(game, rule, lam, n)
    off = ~np.eye(m, dtype=bool)

    K = rule._k_for(m) if isinstance(rule, ArctanRule) else None
    F = law.probs(counts.tolist())
    r = game.rewards_at(counts / n)
    # absolute, not relative: math.atan and np.arctan may differ in the
    # last bit, which moves f_ij by about 2e-16 however small f_ij is
    F_ref = rule.prob_matrix(r)
    np.testing.assert_allclose(np.array(F)[off], F_ref[off], rtol=0.0, atol=1e-15 if K is not None else 1e-12)
    # the generated arctan law computes one formula per ordered pair; the
    # m = 2 pair tables read numpy's bits instead
    if K is not None and m > 2:
        r = r.tolist()
        ref = [0.5 + math.atan(float(K[i, j]) * (r[j] - r[i])) / math.pi for i, j in law.pairs]
        assert _hex(F[i][j] for i, j in law.pairs) == _hex(ref)

    L_ref = transition_rates(game, rule, PopulationType(counts, n), lam=lam)
    assert law.pairs == [tuple(p) for p in np.argwhere(off).tolist()]  # row-major
    rates = loop_rates(law, n, lam)(counts.tolist())
    np.testing.assert_allclose(rates, L_ref[off], rtol=1e-12, atol=0.0)


@given(law_cases, st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6), st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_rhs_matches_mean_field_rhs(case, weights, lam):
    m = case[0]
    w = np.array(weights[:m])
    if w.sum() == 0.0:
        w[0] = 1.0
    x = w / w.sum()
    game, rule = _case(*case)
    law = _Law(game, rule, lam)
    ref = mean_field_rhs(game, rule, x, lam)
    np.testing.assert_allclose(law.rhs(x.tolist()), ref, rtol=0.0, atol=1e-12)


@given(law_cases, st.data(), st.floats(0.1, 5.0))
@settings(max_examples=300, deadline=None)
def test_generated_law_equals_the_loops(case, data, lam):
    game, rule = _case(*case)
    m = game.m
    n = data.draw(st.integers(2, 300))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    counts = np.diff([0, *cuts, n]).tolist()
    law = _Law(game, rule, lam, n)
    if m > 2:  # the m = 2 complete loop walks the pair tables instead
        assert _hex(law.cum_rates(counts)) == _hex(accumulate(loop_rates(law, n, lam)(counts)))

    # vertices and faces too: weights may be 0 or -0.0
    weight = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1.0))
    x = _simplex_list(data.draw(st.lists(weight, min_size=m, max_size=m)))
    rhs = loop_rhs(game, rule, lam)
    k1 = law.rhs(x)
    assert _hex(k1) == _hex(rhs(x))
    # steps up to h = 5 overshoot the simplex, so the guard clips
    h = data.draw(st.floats(1e-3, 5.0))
    y, violation, hit = law.step(x, h, k1)
    y_ref, violation_ref, hit_ref = loop_step(rhs)(x, h, k1)
    assert (_hex(y), violation.hex(), hit) == (_hex(y_ref), violation_ref.hex(), hit_ref)


@pytest.mark.parametrize("rule_name", RULES)
def test_generated_step_clips_like_the_loop(rule_name):
    game, rule = _case(4, rule_name)
    law = _Law(game, rule, 5.0)
    rhs = loop_rhs(game, rule, 5.0)
    # -0.0 stays -0.0 through the stages; the guard writes 0.0
    x = [0.997, 0.001, 0.002, -0.0]
    k1 = law.rhs(x)
    y, violation, hit = law.step(x, 4.0, k1)
    assert hit and violation > 0.0
    y_ref, violation_ref, hit_ref = loop_step(rhs)(x, 4.0, k1)
    assert (_hex(y), violation.hex(), hit) == (_hex(y_ref), violation_ref.hex(), hit_ref)


def test_twelve_action_law_builds_fast_and_once_per_shape():
    # degrees up to 35: every Horner coefficient is its own statement
    polys = [[1.0 + a, -1.0] + [0.25 / (k + 1) for k in range(3 * a)] for a in range(12)]
    game = make_congestion_game(polys)
    other = make_congestion_game([[2.0 * c for c in p] for p in polys])
    # each rule twice: other coefficients of the same degrees, and another
    # K (here per pair), reuse the compiled factory
    i, j = np.indices((12, 12))
    for rule, other_rule in (
        (replicator_rule(*reward_bounds(game), 0.01), replicator_rule(*reward_bounds(other), 0.01)),
        (arctan_rule(0.7), arctan_rule(0.5 + (i + 2 * j) % 5 / 4.0)),
    ):
        _compile.cache_clear()
        t0 = time.perf_counter()
        law = _Law(game, rule, 1.0, 1000)
        assert time.perf_counter() - t0 < 1.0
        counts = [83] * 11 + [87]
        assert _hex(law.cum_rates(counts)) == _hex(accumulate(loop_rates(law, 1000, 1.0)(counts)))
        x = [c / 1000 for c in counts]
        k1 = law.rhs(x)
        assert _hex(law.step(x, 0.05, k1)[0]) == _hex(loop_step(loop_rhs(game, rule, 1.0))(x, 0.05, k1)[0])
        _Law(other, other_rule, 2.0, 500)
        assert _compile.cache_info().misses == 1


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("rule_name", ["arctan", "arctan_pairs", "replicator"])
def test_config_pairs_never_fall_back(m, rule_name):
    # every game a config builds is a congestion game, and every rule it
    # names is the arctan or the replicator rule: each pair has a compiled
    # law, so no path rejects it
    game, rule = _case(m, rule_name)
    x0 = np.linspace(1.0, 2.0, m) / np.linspace(1.0, 2.0, m).sum()
    integrate(game, rule, x0, T=2.0, dt=0.05)
    find_limit(game, rule, x0, max_T=5.0)
    cfg = SimConfig(horizon=2.0, seed=0)
    simulate_complete(game, rule, PopulationType.from_fractions(60, x0), cfg)
    y0 = Configuration(np.arange(60) % m, m=m)
    simulate_network(complete(60), game, rule, y0, cfg)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("rule_name", ["arctan", "replicator"])
def test_jump_path_serves_every_m(m, rule_name):
    # jump_path(counts, []) is the start row and the rate out of it; a block
    # leaves counts at the full state of its last row, and each jump's
    # negated rate is the rate out of the row before it
    game, rule = _case(m, rule_name)
    n, lam = 60, 1.3
    law = _Law(game, rule, lam, n)
    rng = np.random.default_rng(m)

    def rate_at(row):
        return law.jump_path([*row, n - sum(row)], [])[2]

    for _ in range(30):
        counts = np.diff([0, *sorted(rng.integers(0, n + 1, m - 1)), n]).tolist()
        start = counts.copy()
        path, neg, rate = law.jump_path(counts, [])
        assert path.tolist() == [start[:-1]] and neg.size == 0 and counts == start
        if m == 2:
            assert rate == law.walk[1][start[0]]
        else:
            ref = transition_rates(game, rule, PopulationType(np.array(start), n), lam=lam).sum()
            assert rate == pytest.approx(ref, rel=1e-12, abs=0.0)
        if rate > 0.0:
            path, neg, last = law.jump_path(counts, rng.random(40).tolist())
            assert path.shape == (neg.size + 1, m - 1) and path[0].tolist() == start[:-1]
            assert counts[:-1] == path[-1].tolist() and sum(counts) == n and min(counts) >= 0
            assert last == rate_at(path[-1].tolist())
            assert neg.tolist() == [-rate_at(row) for row in path[:-1].tolist()]
    for a in range(m):
        assert law.jump_path([n if b == a else 0 for b in range(m)], [])[2] == 0.0


class _NumpyArctan(ImitationRule):
    """The arctan rule with K = 1, as a rule the law has no shape for."""

    def prob_matrix(self, rewards):
        return arctan_rule(1.0).prob_matrix(rewards)


@pytest.mark.parametrize("m", [2, 3])
def test_pairs_without_a_generated_law_raise(m):
    game = example4_game() if m == 2 else _case(3, "arctan")[0]
    rule = _NumpyArctan()
    x0 = np.full(m, 1.0 / m)
    cfg = SimConfig(horizon=2.0, seed=0)
    y0 = Configuration(np.arange(60) % m, m=m)
    with pytest.raises(ValueError, match="compiled law requires the arctan or the replicator rule"):
        integrate(game, rule, x0, T=2.0, dt=0.05)
    with pytest.raises(ValueError, match="compiled law requires the arctan or the replicator rule"):
        find_limit(game, rule, x0, max_T=5.0)
    with pytest.raises(ValueError, match="compiled law requires the arctan or the replicator rule"):
        simulate_network(complete(60), game, rule, y0, cfg)
    with pytest.raises(ValueError, match="compiled law requires the arctan or the replicator rule"):
        simulate_complete(game, rule, PopulationType(np.full(m, 20)), cfg)
    # a pure start is rejected as well, though nothing would jump
    with pytest.raises(ValueError, match="compiled law requires the arctan or the replicator rule"):
        simulate_network(complete(60), game, rule, Configuration(np.zeros(60, dtype=np.int64), m=m), cfg)
    with pytest.raises(ValueError, match="compiled law requires the arctan or the replicator rule"):
        simulate_complete(game, rule, PopulationType(np.eye(m, dtype=np.int64)[0] * 60), cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nan_arctan_probabilities_raise():
    # finite coefficients whose rewards overflow: r_0 = r_1 = +inf from
    # x_a = 0.06 on, so inf - inf makes f_01 and f_10 NaN
    game = make_congestion_game([[1.7e308, 1.7e308], [1.7e308, 1.7e308], [0.0]])
    rule = arctan_rule(1.0)
    cfg = SimConfig(horizon=1.0, seed=0)
    with pytest.raises(ValueError, match="rate conservation"):
        simulate_complete(game, rule, PopulationType(np.array([10, 10, 40])), cfg)
    with pytest.raises(ValueError, match="rate conservation"):
        simulate_network(complete(60), game, rule, Configuration(np.arange(60) % 3, m=3), cfg)
    x0 = np.array([0.4, 0.4, 0.2])
    with pytest.raises(ValueError, match="rate conservation"):
        integrate(game, rule, x0, T=1.0, dt=0.05)
    with pytest.raises(ValueError, match="rate conservation"):
        find_limit(game, rule, x0, max_T=1.0)
    # one infinite reward alone gives copy probabilities 0 and 1
    game = make_congestion_game([[1.7e308, 1.7e308], [0.0], [0.0]])
    simulate_complete(game, rule, PopulationType(np.array([10, 10, 40])), cfg)
    simulate_network(complete(60), game, rule, Configuration(np.arange(60) % 3, m=3), cfg)
    integrate(game, rule, x0, T=1.0, dt=0.05)


def test_nan_replicator_table_raises(monkeypatch):
    # g clips into [eps, 1 - eps], so only a NaN reward reaches the check
    game, rule = _case(3, "replicator")
    monkeypatch.setattr(type(rule), "_mapped", lambda self, r: np.where(r > r.min(), 0.5, np.nan))
    with pytest.raises(ValueError, match=r"rate conservation violated: copy probability nan outside \[0, 1\]"):
        _Law(game, rule, 1.0, 50)


def test_replicator_table_check_holds_no_copies():
    # bound set before measuring: the table as floats (8 m B per count) and
    # as Python lists (about 32 m B), with slack; a check of every
    # off-diagonal f_ij would gather m (m - 1) more floats per count
    m, n = 16, 20_000
    game = make_congestion_game([[0.0, -1.0, 0.5]] * m)
    rule = replicator_rule(-2.0, 2.0, 1e-6)
    tracemalloc.start()
    try:
        _Law(game, rule, 1.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 1024


@pytest.mark.parametrize("rule_name, logged", [("replicator", False), ("replicator_clamped", True)])
def test_replicator_clamping_is_logged(caplog, rule_name, logged):
    game, rule = _case(3, rule_name)
    with caplog.at_level(logging.DEBUG, logger="imitodyn.rules"):
        law = _Law(game, rule, 1.0, 50)
        law.rhs([0.2, 0.3, 0.5])
    assert ("replicator rule clamped rewards" in caplog.text) == logged
