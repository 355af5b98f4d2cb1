"""The compiled scalar law against the reference definitions.

engine.transition_rates and meanfield.mean_field_rhs are the reference
laws; the engines' m >= 3 loops and the flow run on imitodyn._law instead.
The two must agree to 1e-12 on every kind of game and rule, including the
per-state fallback that a lambda-rewards game takes.
"""

import functools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imitodyn import (
    Game,
    PopulationType,
    arctan_rule,
    make_congestion_game,
    mean_field_rhs,
    replicator_rule,
    reward_bounds,
    transition_rates,
)
from imitodyn._law import _Law

POLYS = ([1.0, -2.0, 0.5], [0.3, 1.0], [2.0, -1.0, -1.0], [0.5])
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


law_cases = st.tuples(st.sampled_from([2, 3, 4]), st.sampled_from(RULES), st.booleans())


@given(law_cases, st.integers(2, 300), st.data(), st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_probs_and_rates_match_reference(case, n, data, lam):
    m = case[0]
    game, rule = _case(*case)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    counts = np.diff([0, *cuts, n])
    law = _Law(game, rule, lam, n)
    off = ~np.eye(m, dtype=bool)

    F = np.array(law.probs(counts.tolist()))
    F_ref = rule.prob_matrix(game.rewards_at(counts / n))
    np.testing.assert_allclose(F[off], F_ref[off], rtol=0.0, atol=1e-12)

    L_ref = transition_rates(game, rule, PopulationType(counts, n), lam=lam)
    assert law.pairs == [tuple(p) for p in np.argwhere(off).tolist()]  # row-major
    np.testing.assert_allclose(law.rates(counts.tolist()), L_ref[off], rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("rule_name, logged", [("replicator", False), ("replicator_clamped", True)])
def test_replicator_clamping_is_logged(caplog, rule_name, logged):
    game, rule = _case(3, rule_name, False)
    with caplog.at_level(logging.DEBUG, logger="imitodyn.rules"):
        law = _Law(game, rule, 1.0, 50)
        law.rhs([0.2, 0.3, 0.5])
    assert ("replicator rule clamped rewards" in caplog.text) == logged
