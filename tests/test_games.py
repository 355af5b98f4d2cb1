import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imitodyn import (
    PopulationType,
    Configuration,
    example4_game,
    make_congestion_game,
    reward_bounds,
)
from imitodyn.games import as_simplex_point
from conftest import check_potential_consistency, uniform_simplex_sample


def simplex_points(m: int):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)
        .map(lambda v: np.array(v) / np.sum(v))
    )


class TestReferenceGame:
    def test_rewards_at_half(self, game4):
        r = game4.rewards_at(np.array([0.5, 0.5]))
        assert r[0] == pytest.approx(10.0, abs=1e-12)
        assert r[1] == 9.0

    def test_action1_reward_constant(self, game4):
        for x1 in (0.0, 0.123, 0.77, 1.0):
            assert game4.rewards_at(np.array([x1, 1.0 - x1]))[1] == 9.0

    def test_potential_values(self, game4):
        # exact values: 443/48, 153/16, 9, 26/3
        assert game4.potential(np.array([0.25, 0.75])) == pytest.approx(9.229166666666666, rel=1e-14)
        assert game4.potential(np.array([0.75, 0.25])) == pytest.approx(9.5625, rel=1e-14)
        assert game4.potential(np.array([0.0, 1.0])) == pytest.approx(9.0, rel=1e-14)
        assert game4.potential(np.array([1.0, 0.0])) == pytest.approx(8.666666666666666, rel=1e-13)

    def test_gradient_matches_reward_difference(self, game4):
        # the defining property: dPhi/dx_0 - dPhi/dx_1 = r_0 - r_1, where the
        # gradient of a congestion game's potential is its reward vector and
        # Phi on the simplex is -16 x^4 + 80/3 x^3 - 14 x^2 + 3 x + 9
        for x1 in (0.1, 0.25, 0.5, 0.75, 0.9):
            grad = game4.rewards_at(np.array([x1, 1.0 - x1]))
            slope = -64.0 * x1**3 + 80.0 * x1**2 - 28.0 * x1 + 3.0
            assert grad[0] - grad[1] == pytest.approx(slope, rel=1e-12, abs=1e-12)

    def test_gradient_zero_at_quarter_exactly(self, game4):
        grad = game4.rewards_at(np.array([0.25, 0.75]))
        assert grad[0] - grad[1] == 0.0

    def test_consistency_check_passes(self, game4):
        rep = check_potential_consistency(game4, num_samples=300, seed=7)
        assert rep.passed
        assert rep.max_violation < 1e-5

    def test_reward_bounds(self, game4):
        lo, hi = reward_bounds(game4)
        assert lo == pytest.approx(-0.12, abs=1e-12)
        assert hi == pytest.approx(12.12, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_reward_bounds_match_per_point_loop(self, game4, m):
        game = game4 if m == 2 else make_congestion_game([[1.0, -1.0], [0.5, 2.0, -3.0], [2.0]])
        if m == 2:
            x1 = np.linspace(0.0, 1.0, 257)
            pts = np.stack([x1, 1.0 - x1], axis=1)
        else:
            pts = simplex_grid(3, 64)
        r = np.array([game.rewards_at(x) for x in pts])
        pad = 0.01 * (r.max() - r.min())
        assert reward_bounds(game) == (r.min() - pad, r.max() + pad)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_separable_reward_bounds_equal_simplex_grid_bounds(self, m, data):
        # polynomial rewards take the 1-D grid; the simplex grid must agree exactly
        coefficient = st.one_of(st.just(0.0), st.floats(-50.0, 50.0))
        polys = data.draw(st.lists(st.lists(coefficient, min_size=1, max_size=5), min_size=m, max_size=m))
        game = make_congestion_game(polys)
        R = game.rewards(_reward_grid(m))
        lo, hi = float(np.min(R)), float(np.max(R))
        span = hi - lo
        pad = 0.01 * span if span > 0.0 else 0.01 * abs(hi) + 1e-9
        assert reward_bounds(game) == (lo - pad, hi + pad)


def simplex_grid(m: int, resolution: int) -> np.ndarray:
    """All points of the simplex grid with denominator `resolution`, shape (N, m)."""
    if m < 1 or resolution < 1:
        raise ValueError("need m >= 1 and resolution >= 1")
    if m == 1:
        return np.array([[1.0]])
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining + 1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), resolution, m)
    return np.array(out, dtype=float) / resolution


@functools.cache
def _reward_grid(m: int) -> np.ndarray:
    """The whole simplex grid that reward_bounds' separable scan stands for."""
    return simplex_grid(m, 256 if m == 2 else 64).T


class TestCongestionBuilder:
    def test_antiderivative_potential(self):
        g = make_congestion_game([[1.0, 2.0], [3.0]])
        # integral of 1+2x is x+x^2, of 3 is 3x
        assert g.potential(np.array([0.5, 0.5])) == pytest.approx(2.25, rel=1e-14)

    def test_consistency_random_polynomials(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            polys = [tuple(rng.normal(size=rng.integers(1, 5)).tolist()) for _ in range(3)]
            g = make_congestion_game(polys)
            rep = check_potential_consistency(g, num_samples=100, seed=1)
            assert rep.passed, f"violation {rep.max_violation} for {polys}"

    def test_rejects_too_few_actions(self):
        with pytest.raises(ValueError):
            make_congestion_game([[1.0]])


class TestPopulationType:
    def test_from_fractions_largest_remainder(self):
        assert PopulationType.from_fractions(3, [0.5, 0.5]).counts.tolist() == [2, 1]
        assert PopulationType.from_fractions(2500, [0.001, 0.999]).counts.tolist() == [3, 2497]
        assert PopulationType.from_fractions(10, [1 / 3, 1 / 3, 1 / 3]).counts.tolist() == [4, 3, 3]
        assert PopulationType.from_fractions(5, [0.0, 1.0]).counts.tolist() == [0, 5]

    def test_from_fractions_keeps_positive_support(self):
        # a positive fraction must never round down to zero players
        pt = PopulationType.from_fractions(50, [0.001, 0.999])
        assert pt.counts[0] >= 1
        with pytest.raises(ValueError):
            PopulationType.from_fractions(1, [0.4, 0.3, 0.3])

    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationType(np.array([3, -1]))
        with pytest.raises(ValueError):
            PopulationType(np.array([3, 1]), n=5)
        pt = PopulationType(np.array([3, 1]))
        assert pt.n == 4 and pt.m == 2

    def test_fractions_and_purity(self):
        pt = PopulationType(np.array([0, 7]))
        assert pt.counts.max() == pt.n
        assert pt.fractions.tolist() == [0.0, 1.0]
        mixed = PopulationType(np.array([1, 6]))
        assert mixed.counts.max() != mixed.n

    @given(st.integers(2, 6), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_from_fractions_sums_to_n(self, m, seed):
        rng = np.random.default_rng(seed)
        fr = uniform_simplex_sample(rng, m)
        n = int(rng.integers(m, 500))
        pt = PopulationType.from_fractions(n, fr)
        assert int(pt.counts.sum()) == n
        assert np.all(pt.counts >= 0)
        assert np.max(np.abs(pt.fractions - fr)) <= (m + 1) / n


class TestConfiguration:
    def test_population_type(self):
        c = Configuration(np.array([0, 1, 1, 0, 1]), m=2)
        assert c.n == 5
        assert c.population_type().counts.tolist() == [2, 3]

    def test_rejects_out_of_range_action(self):
        with pytest.raises(ValueError):
            Configuration(np.array([0, 2]), m=2)


class TestSimplexHelpers:
    def test_as_simplex_point_rejects_bad_input(self):
        with pytest.raises(ValueError):
            as_simplex_point([0.6, 0.6])
        with pytest.raises(ValueError):
            as_simplex_point([-0.1, 1.1])

    def test_simplex_grid(self):
        pts = simplex_grid(2, 4)
        assert pts.shape == (5, 2)
        assert np.allclose(pts.sum(axis=1), 1.0)
        pts3 = simplex_grid(3, 3)
        assert pts3.shape == (10, 3)  # C(3+2, 2)

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_uniform_sample_on_simplex(self, m, seed):
        x = uniform_simplex_sample(np.random.default_rng(seed), m)
        assert x.shape == (m,)
        assert np.all(x >= 0.0)
        assert abs(float(x.sum()) - 1.0) < 1e-9


@given(simplex_points(2))
@settings(max_examples=50, deadline=None)
def test_reference_game_potential_consistency_property(x):
    g = example4_game()
    grad = g.rewards_at(x)
    # d/dx_0 of the potential on the simplex, -16 x^4 + 80/3 x^3 - 14 x^2 + 3 x + 9
    slope = -64.0 * x[0] ** 3 + 80.0 * x[0] ** 2 - 28.0 * x[0] + 3.0
    assert grad[0] - grad[1] == pytest.approx(slope, rel=1e-10, abs=1e-10)
