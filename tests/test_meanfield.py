import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imitodyn import (
    Game,
    OdeTrajectory,
    Trajectory,
    arctan_rule,
    example4_game,
    find_limit,
    integrate,
    kurtz_deviation,
    make_congestion_game,
    mean_field_rhs,
    replicator_rule,
    reward_bounds,
)


def _traj(times, counts_0, n):
    k = np.asarray(counts_0, dtype=np.int64)
    return Trajectory(
        times=np.asarray(times, dtype=float),
        counts=np.column_stack([k, n - k]),
        n=n,
        absorbed_at=None,
        absorbing_action=None,
        event_count=len(k) - 1,
        meta={},
    )


class TestRhs:
    def test_reference_value(self, game4, arctan1):
        v = mean_field_rhs(game4, arctan1, np.array([0.5, 0.5]), 1.0)
        assert v[0] == 0.125 and v[1] == -0.125

    def test_vanishes_at_saddle_exactly(self, game4, arctan1):
        v = mean_field_rhs(game4, arctan1, np.array([0.25, 0.75]), 1.0)
        assert v[0] == 0.0 and v[1] == 0.0

    def test_vanishes_at_vertices(self, game4, arctan1):
        for x in ([1.0, 0.0], [0.0, 1.0]):
            assert np.all(mean_field_rhs(game4, arctan1, np.array(x), 1.0) == 0.0)

    def test_scales_with_lambda(self, game4, arctan1):
        x = np.array([0.4, 0.6])
        a = mean_field_rhs(game4, arctan1, x, 1.0)
        b = mean_field_rhs(game4, arctan1, x, 2.5)
        assert np.allclose(b, 2.5 * a, rtol=1e-12)

    @given(st.floats(0.01, 0.99), st.floats(0.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_mass_conserved(self, x1, lam):
        g = example4_game()
        v = mean_field_rhs(g, arctan_rule(1.0), np.array([x1, 1.0 - x1]), lam)
        assert abs(float(v.sum())) < 1e-14


class TestIntegrate:
    def test_stays_on_simplex(self, game4, arctan1):
        traj = integrate(game4, arctan1, np.array([0.3, 0.7]), T=30.0, dt=0.01)
        assert np.all(traj.states >= -1e-12)
        assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) < 1e-9

    def test_lands_exactly_on_horizon(self, game4, arctan1):
        traj = integrate(game4, arctan1, np.array([0.3, 0.7]), T=1.005, dt=0.01)
        assert traj.times[-1] == pytest.approx(1.005, abs=1e-12)

    def test_potential_monotone_along_flow(self, game4, arctan1):
        traj = integrate(game4, arctan1, np.array([0.05, 0.95]), T=40.0, dt=0.01)
        phis = np.array([game4.potential(x) for x in traj.states])
        assert np.min(np.diff(phis)) > -1e-8

    def test_vertex_is_fixed(self, game4, arctan1):
        traj = integrate(game4, arctan1, np.array([1.0, 0.0]), T=5.0, dt=0.01)
        assert np.allclose(traj.states, traj.states[0], atol=1e-12)

    def test_converges_to_ess_from_above_saddle(self, game4, arctan1):
        traj = integrate(game4, arctan1, np.array([0.3, 0.7]), T=60.0, dt=0.01)
        assert abs(traj.states[-1, 0] - 0.75) < 1e-6

    def test_three_action_game(self):
        g = make_congestion_game([[1.0, -1.0]] * 3)
        traj = integrate(g, arctan_rule(1.0), np.array([0.6, 0.3, 0.1]), T=90.0, dt=0.01)
        assert np.max(np.abs(traj.states[-1] - 1 / 3)) < 1e-6

    def test_rejects_off_simplex_start(self, game4, arctan1):
        with pytest.raises(ValueError):
            integrate(game4, arctan1, np.array([0.6, 0.6]), T=1.0, dt=0.01)


class TestFindLimit:
    def test_basin_membership(self, game4, arctan1):
        hi = find_limit(game4, arctan1, np.array([0.5, 0.5]))
        assert hi.converged
        assert abs(hi.x[0] - 0.75) < 1e-6
        lo = find_limit(game4, arctan1, np.array([0.1, 0.9]))
        assert lo.converged
        assert abs(lo.x[0] - 0.25) < 1e-4

    def test_saddle_is_fixed_point(self, game4, arctan1):
        res = find_limit(game4, arctan1, np.array([0.25, 0.75]))
        assert res.converged
        assert res.x[0] == 0.25
        assert res.t == 0.0

    def test_generic_path_three_actions(self):
        g = make_congestion_game([[1.0, -1.0]] * 3)
        res = find_limit(g, arctan_rule(1.0), np.array([0.5, 0.3, 0.2]))
        assert res.converged
        assert np.max(np.abs(res.x - 1 / 3)) < 1e-5

    def test_replicator_rule_fast_path(self, game4):
        lo, hi = reward_bounds(game4)
        rule = replicator_rule(lo, hi, 1e-6)
        res = find_limit(game4, rule, np.array([0.5, 0.5]))
        assert res.converged
        assert abs(res.x[0] - 0.75) < 1e-4

    def test_unconverged_reports_honestly(self, game4, arctan1):
        res = find_limit(game4, arctan1, np.array([0.5, 0.5]), max_T=0.5)
        assert not res.converged
        assert res.t == pytest.approx(0.5, abs=0.05)
        assert res.rhs_norm > 0.0

    @pytest.mark.parametrize("rule_name", ["arctan", "arctan2x2", "replicator"])
    def test_scalar_path_matches_vector_path(self, game4, rule_name):
        rule = {
            "arctan": arctan_rule(1.0),
            "arctan2x2": arctan_rule([[1.0, 0.5], [2.0, 1.0]]),
            "replicator": replicator_rule(*reward_bounds(game4)),
        }[rule_name]
        # same rewards behind a lambda, so find_limit takes the vector path
        wrapped = Game(m=2, rewards=lambda x: game4.rewards(x), potential=game4.potential)
        for x1 in (0.05, 0.3, 0.6, 0.95):
            x0 = np.array([x1, 1.0 - x1])
            fast = find_limit(game4, rule, x0, max_T=2.0)
            ref = find_limit(wrapped, rule, x0, max_T=2.0)
            assert fast.t == pytest.approx(ref.t, abs=1e-12)
            assert np.max(np.abs(fast.x - ref.x)) <= 1e-12


class TestKurtzDeviation:
    def test_hand_computed_sup(self):
        # step path constant at (0,1); flow moves linearly to (1,0):
        # the gap just before t=1 approaches 1 (the carry term catches it)
        stoch = _traj([0.0, 1.0], [0, 0], n=2)
        ode = OdeTrajectory(
            times=np.array([0.0, 1.0]), states=np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        assert kurtz_deviation(stoch, ode, T=1.0) == pytest.approx(1.0)

    def test_matching_paths_give_zero(self):
        stoch = _traj([0.0, 2.0], [1, 1], n=2)
        ode = OdeTrajectory(
            times=np.array([0.0, 2.0]), states=np.array([[0.5, 0.5], [0.5, 0.5]])
        )
        assert kurtz_deviation(stoch, ode, T=2.0) == 0.0

    def test_step_between_ode_knots(self):
        # jump to (1,0) at t=0.5 while the flow stays at (0,1): sup is 1
        stoch = _traj([0.0, 0.5, 1.0], [0, 2, 2], n=2)
        ode = OdeTrajectory(
            times=np.array([0.0, 1.0]), states=np.array([[0.0, 1.0], [0.0, 1.0]])
        )
        assert kurtz_deviation(stoch, ode, T=1.0) == pytest.approx(1.0)

    def test_insufficient_coverage_rejected(self):
        stoch = _traj([0.0, 1.0], [1, 1], n=2)
        ode = OdeTrajectory(times=np.array([0.0, 0.5]), states=np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            kurtz_deviation(stoch, ode, T=1.0)

    def test_shrinks_with_population(self, game4, arctan1):
        from imitodyn import PopulationType, RunSpec, SimConfig, derive_seed, run_one

        ode = integrate(game4, arctan1, np.array([0.5, 0.5]), T=10.0, dt=0.01)
        devs = {}
        for n in (100, 10_000):
            spec = RunSpec(
                game=game4,
                rule=arctan1,
                cfg=SimConfig(horizon=10.0, seed=0),
                x0=PopulationType.from_fractions(n, [0.5, 0.5]),
            )
            devs[n] = np.median(
                [kurtz_deviation(run_one(spec, derive_seed(5, i)), ode, T=10.0) for i in range(20)]
            )
        assert devs[10_000] < devs[100]
