import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imitodyn import (
    ArctanRule,
    ImitationRule,
    ReplicatorRule,
    arctan_rule,
    example4_game,
    make_congestion_game,
    replicator_rule,
)
from conftest import verify_sign_condition

finite_rewards = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False), min_size=2, max_size=4
).map(np.array)


class TestArctanRule:
    def test_reference_values(self):
        # reward gap 1 with K = 1: copy probability is exactly 3/4
        F = arctan_rule(1.0).prob_matrix(np.array([10.0, 9.0]))
        assert F[1, 0] == 0.75
        assert F[0, 1] == 0.25
        assert F[0, 0] == 1.0 and F[1, 1] == 1.0

    def test_matrix_gains(self):
        K = np.array([[1.0, 2.0], [0.5, 1.0]])
        F = ArctanRule(K=K).prob_matrix(np.array([1.0, 0.0]))
        assert F[0, 1] == pytest.approx(0.5 + np.arctan(2.0 * -1.0) / np.pi)
        assert F[1, 0] == pytest.approx(0.5 + np.arctan(0.5 * 1.0) / np.pi)

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            arctan_rule(0.0)
        with pytest.raises(ValueError):
            arctan_rule(-2.0)
        with pytest.raises(ValueError):
            ArctanRule(K=np.array([[1.0, np.inf], [1.0, 1.0]]))

    @given(finite_rewards, st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_probabilities_in_open_unit_interval(self, r, K):
        F = arctan_rule(K).prob_matrix(r)
        off = ~np.eye(len(r), dtype=bool)
        assert np.all(F[off] > 0.0) and np.all(F[off] < 1.0)

    @given(finite_rewards, st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_gain_pairs_sum_to_one(self, r, K):
        F = arctan_rule(K).prob_matrix(r)
        off = ~np.eye(len(r), dtype=bool)
        assert np.allclose((F + F.T)[off], 1.0, atol=1e-12)

    def test_batch_matches_single(self):
        rule = arctan_rule(2.0)
        R = np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 4.0]])  # (m, K) batch
        batch = rule.prob_matrix(R)
        assert batch.shape == (2, 2, 3)
        for k in range(3):
            assert np.allclose(batch[:, :, k], rule.prob_matrix(R[:, k]))


class TestReplicatorRule:
    def test_affine_map_values(self):
        rule = replicator_rule(0.0, 12.0, 0.0)
        F = rule.prob_matrix(np.array([10.0, 9.0]))
        assert F[0, 1] == pytest.approx(0.75, rel=1e-12)   # target reward 9 of 12
        assert F[1, 0] == pytest.approx(10.0 / 12.0, rel=1e-12)
        assert rule.slope == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_zero_margin_allowed(self):
        rule = replicator_rule(0.0, 1.0, 0.0)
        F = rule.prob_matrix(np.array([0.0, 1.0]))
        assert F[0, 1] == 1.0 and F[1, 0] == 0.0

    def test_clamping_with_margin(self):
        rule = replicator_rule(0.0, 1.0, 1e-3)
        F = rule.prob_matrix(np.array([5.0, -5.0]))  # far outside bounds
        assert F[1, 0] == pytest.approx(1.0 - 1e-3)
        assert F[0, 1] == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            replicator_rule(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            replicator_rule(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            replicator_rule(0.0, 1.0, -0.1)

    @given(finite_rewards, st.floats(1e-6, 0.4))
    @settings(max_examples=100, deadline=None)
    def test_probabilities_respect_margin(self, r, eps):
        F = replicator_rule(-50.0, 50.0, eps).prob_matrix(r)
        off = ~np.eye(len(r), dtype=bool)
        assert np.all(F[off] >= eps - 1e-15) and np.all(F[off] <= 1.0 - eps + 1e-15)


class TestSignCondition:
    def test_arctan_satisfies(self, game4):
        rep = verify_sign_condition(arctan_rule(1.0), game4, num_samples=300, seed=0)
        assert rep.violations == 0

    def test_replicator_satisfies(self, game4):
        from imitodyn import reward_bounds

        lo, hi = reward_bounds(game4)
        rep = verify_sign_condition(replicator_rule(lo, hi, 1e-6), game4, num_samples=300, seed=0)
        assert rep.violations == 0

    def test_contrarian_rule_caught(self, game4):
        # copying the worse action more often must be flagged
        class Contrarian(ImitationRule):
            def prob_matrix(self, rewards):
                r = np.asarray(rewards, dtype=float)
                return 0.5 - 0.1 * np.tanh(r[None, :] - r[:, None])

        rep = verify_sign_condition(Contrarian(), game4, num_samples=100, seed=0)
        assert rep.violations > 0
        assert rep.worst is not None

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_arctan_sign_random_congestion(self, seed):
        rng = np.random.default_rng(seed)
        polys = [tuple(rng.normal(scale=3.0, size=rng.integers(1, 4)).tolist()) for _ in range(3)]
        g = make_congestion_game(polys)
        rep = verify_sign_condition(arctan_rule(1.0), g, num_samples=50, seed=seed)
        assert rep.violations == 0
