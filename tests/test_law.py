"""The compiled scalar law against the reference definitions.

engine.transition_rates and meanfield.mean_field_rhs are the reference
laws; every engine loop and the flow run on imitodyn._law instead.
The two must agree to 1e-12 on every kind of game and rule, including the
per-state fallback that a lambda-rewards game takes.  The law's generated
rhs, step and cum_rates must equal the loops they replaced (conftest's
loop_rhs, loop_step and loop_rates) bit for bit.  The compiled potential
and gradient that the landscape finders use must equal game.potential and
game.potential_gradient bit for bit.
"""

import functools
import logging
import time
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imitodyn import (
    Game,
    PopulationType,
    arctan_rule,
    example4_game,
    make_congestion_game,
    mean_field_rhs,
    replicator_rule,
    reward_bounds,
    transition_rates,
)
from imitodyn._law import _compile, _Law, potential_pair
from conftest import loop_rates, loop_rhs, loop_step, reference_pair

POLYS = ([1.0, -2.0, 0.5], [0.3, 1.0], [2.0, -1.0, -1.0], [0.5], [1.5, 0.0, -2.0, 0.5], [-0.5, 3.0])
RULES = ("arctan", "arctan_pairs", "replicator", "replicator_clamped")


@functools.cache
def _case(m: int, rule_name: str, lambda_rewards: bool) -> tuple[Game, object]:
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
    if lambda_rewards:  # not a _PolyRewards, so the law falls back per state
        poly = game
        game = Game(m=m, rewards=lambda x: poly.rewards(x))
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


law_cases = st.tuples(st.sampled_from([2, 3, 4]), st.sampled_from(RULES), st.booleans())
games_and_rules = st.one_of(
    law_cases.map(lambda case: _case(*case)),
    st.sampled_from(["arctan", "arctan2x2", "replicator"]).map(_example4_case),
)


@given(games_and_rules, st.integers(2, 300), st.data(), st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_probs_and_rates_match_reference(game_and_rule, n, data, lam):
    game, rule = game_and_rule
    m = game.m
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    counts = np.diff([0, *cuts, n])
    law = _Law(game, rule, lam, n)
    off = ~np.eye(m, dtype=bool)

    F = np.array(law.probs(counts.tolist()))
    F_ref = rule.prob_matrix(game.rewards_at(counts / n))
    np.testing.assert_allclose(F[off], F_ref[off], rtol=0.0, atol=1e-12)

    L_ref = transition_rates(game, rule, PopulationType(counts, n), lam=lam)
    assert law.pairs == [tuple(p) for p in np.argwhere(off).tolist()]  # row-major
    rates = loop_rates(law, n, lam)(counts.tolist())
    np.testing.assert_allclose(rates, L_ref[off], rtol=1e-12, atol=0.0)


@given(law_cases, st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), st.floats(0.1, 5.0))
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
    if m == 2:
        v = float(x[0])
        ref = mean_field_rhs(game, rule, np.array([v, 1.0 - v]), lam)[0]
        assert law.drift(v) == pytest.approx(ref, rel=0.0, abs=1e-12)


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _simplex_list(weights: list) -> list:
    w = np.array(weights)
    if w.sum() == 0.0:
        w[0] = 1.0
    return (w / w.sum()).tolist()


@given(st.tuples(st.integers(2, 6), st.sampled_from(RULES), st.booleans()), st.data(), st.floats(0.1, 5.0))
@settings(max_examples=300, deadline=None)
def test_generated_law_equals_the_loops(case, data, lam):
    game, rule = _case(*case)
    m = game.m
    n = data.draw(st.integers(2, 300))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    counts = np.diff([0, *cuts, n]).tolist()
    law = _Law(game, rule, lam, n)
    assert _hex(law.cum_rates(counts)) == _hex(accumulate(loop_rates(law, n, lam)(counts)))

    # vertices and faces too: weights may be 0 or -0.0
    weight = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1.0))
    x = _simplex_list(data.draw(st.lists(weight, min_size=m, max_size=m)))
    rhs = loop_rhs(law, lam)
    k1 = law.rhs(x)
    assert _hex(k1) == _hex(rhs(x))
    # steps up to h = 5 overshoot the simplex, so the guard clips
    h = data.draw(st.floats(1e-3, 5.0))
    y, violation, hit = law.step(x, h, k1)
    y_ref, violation_ref, hit_ref = loop_step(rhs)(x, h, k1)
    assert (_hex(y), violation.hex(), hit) == (_hex(y_ref), violation_ref.hex(), hit_ref)


@pytest.mark.parametrize("rule_name", RULES)
@pytest.mark.parametrize("lambda_rewards", [False, True])
def test_generated_step_clips_like_the_loop(rule_name, lambda_rewards):
    game, rule = _case(4, rule_name, lambda_rewards)
    law = _Law(game, rule, 5.0)
    rhs = loop_rhs(law, 5.0)
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
    rule = replicator_rule(*reward_bounds(game), 0.01)
    _compile.cache_clear()
    t0 = time.perf_counter()
    law = _Law(game, rule, 1.0, 1000)
    assert time.perf_counter() - t0 < 1.0
    counts = [83] * 11 + [87]
    assert _hex(law.cum_rates(counts)) == _hex(accumulate(loop_rates(law, 1000, 1.0)(counts)))
    x = [c / 1000 for c in counts]
    assert _hex(law.step(x, 0.05, law.rhs(x))[0]) == _hex(loop_step(loop_rhs(law, 1.0))(x, 0.05, law.rhs(x))[0])
    # other coefficients of the same degrees reuse the compiled factory
    other = make_congestion_game([[2.0 * c for c in p] for p in polys])
    _Law(other, replicator_rule(*reward_bounds(other), 0.01), 2.0, 500)
    assert _compile.cache_info().misses == 1


@pytest.mark.parametrize("rule_name, logged", [("replicator", False), ("replicator_clamped", True)])
def test_replicator_clamping_is_logged(caplog, rule_name, logged):
    game, rule = _case(3, rule_name, False)
    with caplog.at_level(logging.DEBUG, logger="imitodyn.rules"):
        law = _Law(game, rule, 1.0, 50)
        law.rhs([0.2, 0.3, 0.5])
    assert ("replicator rule clamped rewards" in caplog.text) == logged


coefficient = st.one_of(st.just(0.0), st.floats(-50.0, 50.0))


@given(st.integers(2, 9), st.data(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_compiled_potential_equals_reference(m, data, plain):
    # mixed degrees, so the shorter polynomials are zero-padded
    polys = data.draw(st.lists(st.lists(coefficient, min_size=1, max_size=5), min_size=m, max_size=m))
    poly = make_congestion_game(polys)
    w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    if w.sum() == 0.0:
        w[0] = 1.0
    # up to 1e-12 off the simplex, as the finders' trial points may be
    off = np.array(data.draw(st.lists(st.floats(-1e-12, 1e-12), min_size=m, max_size=m)))
    x = w / w.sum() + off
    if plain:  # plain callables: no compiled pair, the reference path
        game = Game(
            m=m,
            rewards=poly.rewards,
            potential=lambda x: poly.potential(x),
            potential_gradient=lambda x: poly.potential_gradient(x),
        )
        assert potential_pair(game) is None
        phi, grad = reference_pair(game)
    else:
        game = poly
        phi, grad = potential_pair(game)
    # float.hex also tells -0.0 from 0.0
    assert phi(x.tolist()).hex() == float(game.potential(x)).hex()
    assert [v.hex() for v in grad(x.tolist())] == [float(v).hex() for v in game.potential_gradient(x)]


def test_compiled_potential_keeps_numpys_signed_zeros():
    # action 0's gradient is the zero polynomial -0.0, padded to degree 1:
    # numpy's Horner ends on 0.0 * x + -0.0 == 0.0, not on -0.0
    game = make_congestion_game([[-0.0], [1.0, -1.0]])
    phi, grad = potential_pair(game)
    x = np.array([0.25, 0.75])
    assert [v.hex() for v in grad(x.tolist())] == [float(v).hex() for v in game.potential_gradient(x)]
    assert phi(x.tolist()).hex() == float(game.potential(x)).hex()
