import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import imitodyn.engine as engine_mod
from imitodyn import (
    Configuration,
    ImitationRule,
    PopulationType,
    RunSpec,
    SimConfig,
    arctan_rule,
    complete,
    derive_seed,
    ensemble,
    make_congestion_game,
    potential_drift_rates,
    replicator_rule,
    reward_bounds,
    run_one,
    simulate_complete,
    simulate_network,
    square_lattice,
    transition_rates,
)
from conftest import (
    birth_death_rates,
    exact_absorbed_probability_by,
    exact_hit_probability,
    exact_mean_absorption_time,
)


class _DoubledRule(ImitationRule):
    """Invalid rule with every copy probability f_ij = 2."""

    def prob_matrix(self, rewards):
        r = np.asarray(rewards)
        return np.full((r.shape[0],) + r.shape, 2.0)


class TestTransitionRates:
    def test_reference_values(self, game4, arctan1):
        pt = PopulationType.from_fractions(100, [0.5, 0.5])
        L = transition_rates(game4, arctan1, pt, lam=1.0)
        assert L[1, 0] == pytest.approx(18.75, rel=1e-12)  # 100 * 0.25 * 0.75
        assert L[0, 1] == pytest.approx(6.25, rel=1e-12)
        assert L[0, 0] == 0.0 and L[1, 1] == 0.0

    def test_pure_state_has_zero_rates(self, game4, arctan1):
        pt = PopulationType(np.array([100, 0]))
        assert np.all(transition_rates(game4, arctan1, pt, lam=1.0) == 0.0)

    @given(st.integers(2, 300), st.integers(0, 10_000), st.floats(0.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_rate_conservation_bound(self, n, seed, lam):
        game4 = __import__("imitodyn").example4_game()
        rule = arctan_rule(1.0)
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(n, [0.5, 0.5])
        pt = PopulationType(counts, n=n)
        L = transition_rates(game4, rule, pt, lam=lam)
        assert float(L.sum()) <= n * lam * (1.0 + 1e-9)

    def test_conservation_violation_raises_value_error(self):
        game = make_congestion_game([[1.0, -1.0]] * 3)
        pt = PopulationType(np.array([10, 10, 10]))  # barycenter: total = 4/3 n lambda
        rule = _DoubledRule()
        with pytest.raises(ValueError, match="rate conservation"):
            transition_rates(game, rule, pt)
        with pytest.raises(ValueError, match="rate conservation"):
            potential_drift_rates(game, rule, pt)
        with pytest.raises(ValueError, match="rate conservation"):
            simulate_complete(game, rule, pt, SimConfig(horizon=1.0, seed=0))
        # every engine rejects the rule: the m = 2 table loop, and the network
        # loop for m = 2 and m = 3
        game2 = make_congestion_game([[1.0, -1.0]] * 2)
        cfg = SimConfig(horizon=1.0, seed=0)
        with pytest.raises(ValueError, match="rate conservation"):
            simulate_complete(game2, rule, PopulationType(np.array([10, 10])), cfg)
        for g, y0 in ((game2, [0, 1] * 10), (game, [0, 1, 2] * 10)):
            with pytest.raises(ValueError, match="rate conservation"):
                simulate_network(complete(len(y0)), g, rule, Configuration(np.array(y0), m=g.m), cfg)

    @given(
        st.integers(2, 200), st.data(), st.sampled_from(["arctan", "arctan2x2", "replicator"]), st.floats(0.1, 5.0)
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_tables_match_rate_matrix(self, n, data, rule_name, lam):
        game4 = __import__("imitodyn").example4_game()
        rule = {
            "arctan": arctan_rule(1.0),
            "arctan2x2": arctan_rule([[1.0, 0.5], [2.0, 1.0]]),
            "replicator": replicator_rule(*reward_bounds(game4)),
        }[rule_name]
        k = data.draw(st.integers(1, n - 1))
        f01, f10 = engine_mod._pair_tables_2action(game4, rule, n)
        base = lam * k * (n - k) / n
        L = transition_rates(game4, rule, PopulationType(np.array([k, n - k])), lam=lam)
        assert base * f10[k] == pytest.approx(L[1, 0], rel=1e-12, abs=0.0)  # k -> k + 1
        assert base * f01[k] == pytest.approx(L[0, 1], rel=1e-12, abs=0.0)


class TestDriftRates:
    def test_reference_split(self, game4, arctan1):
        pt = PopulationType.from_fractions(100, [0.5, 0.5])
        dr = potential_drift_rates(game4, arctan1, pt, lam=1.0)
        assert dr.q_plus == pytest.approx(18.75, rel=1e-12)
        assert dr.q_minus == pytest.approx(6.25, rel=1e-12)

    def test_requires_potential(self, arctan1):
        from imitodyn import Game

        g = Game(m=2, rewards=lambda x: np.array([x[0], x[1]]))
        pt = PopulationType(np.array([3, 3]))
        with pytest.raises(ValueError):
            potential_drift_rates(g, arctan1, pt, lam=1.0)


class TestCompleteEngine:
    def test_deterministic_given_seed(self, game4, arctan1):
        x0 = PopulationType.from_fractions(200, [0.4, 0.6])
        cfg = SimConfig(horizon=20.0, seed=123)
        a = simulate_complete(game4, arctan1, x0, cfg)
        b = simulate_complete(game4, arctan1, x0, cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.counts, b.counts)
        c = simulate_complete(game4, arctan1, x0, SimConfig(horizon=20.0, seed=124))
        assert not np.array_equal(a.times, c.times)

    def test_jumps_move_one_head(self, game4, arctan1):
        x0 = PopulationType.from_fractions(50, [0.5, 0.5])
        traj = simulate_complete(game4, arctan1, x0, SimConfig(horizon=10.0, seed=5))
        diffs = np.diff(traj.counts[:-1] if traj.absorbed_at is None else traj.counts, axis=0)
        # every recorded step is one player switching action (final horizon
        # sample repeats the state, hence the slice above)
        assert np.all(np.sum(np.abs(diffs), axis=1) <= 2)
        assert np.all(traj.counts.sum(axis=1) == 50)
        assert np.all(traj.counts >= 0)

    def test_start_pure_is_absorbed_immediately(self, game4, arctan1):
        x0 = PopulationType(np.array([0, 30]))
        y0 = Configuration(np.ones(30, dtype=np.int64), m=2)
        for stop in (True, False):
            cfg = SimConfig(horizon=10.0, seed=0, stop_on_absorption=stop)
            for traj in (
                simulate_complete(game4, arctan1, x0, cfg),
                simulate_network(complete(30), game4, arctan1, y0, cfg),
            ):
                assert traj.absorbed_at == 0.0
                assert traj.absorbing_action == 1
                assert traj.event_count == 0
                assert traj.times[-1] == (0.0 if stop else 10.0)
                assert np.all(traj.counts == [0, 30])

    def test_horizon_reached_unabsorbed(self, game4, arctan1):
        x0 = PopulationType.from_fractions(400, [0.5, 0.5])
        traj = simulate_complete(game4, arctan1, x0, SimConfig(horizon=5.0, seed=3))
        assert traj.absorbed_at is None
        assert traj.times[-1] == 5.0

    def test_continue_after_absorption_extends_to_horizon(self, game4, arctan1):
        x0 = PopulationType.from_fractions(4, [0.5, 0.5])
        cfg = SimConfig(horizon=500.0, seed=11, stop_on_absorption=False)
        traj = simulate_complete(game4, arctan1, x0, cfg)
        assert traj.absorbed_at is not None
        assert traj.times[-1] == 500.0
        assert traj.final_type().is_pure()

    def test_record_cap_switches_to_stride(self, game4, arctan1, monkeypatch):
        monkeypatch.setattr(engine_mod, "EVENT_RECORD_CAP", 40)
        x0 = PopulationType.from_fractions(300, [0.5, 0.5])
        cfg = SimConfig(horizon=40.0, seed=2, record_stride=1.0)
        traj = simulate_complete(game4, arctan1, x0, cfg)
        assert traj.event_count > 1000
        assert len(traj.times) < 200  # capped, then one point per stride
        # a capped run that absorbs still ends on its absorption row, in
        # both the m = 2 loop and the generic loop
        coordination = make_congestion_game([[0.0, 3.0]] * 3)
        for game, x0, seed in (
            (game4, PopulationType.from_fractions(12, [0.25, 0.75]), 0),
            (coordination, PopulationType.from_fractions(30, [0.4, 0.3, 0.3]), 3),
        ):
            cfg = SimConfig(horizon=1e4, seed=seed, record_stride=5.0)
            traj = simulate_complete(game, arctan1, x0, cfg)
            assert traj.absorbed_at is not None
            assert len(traj.times) < traj.event_count + 1
            assert traj.times[-1] == traj.absorbed_at
            assert traj.final_type().is_pure()
            assert traj.absorbing_action == int(np.argmax(traj.counts[-1]))

    def test_three_action_generic_path(self):
        g = make_congestion_game([[1.0, -1.0], [1.0, -1.0], [1.0, -1.0]])
        rule = arctan_rule(1.0)
        x0 = PopulationType.from_fractions(60, [0.2, 0.3, 0.5])
        traj = simulate_complete(g, rule, x0, SimConfig(horizon=30.0, seed=8))
        assert traj.m == 3
        assert np.all(traj.counts.sum(axis=1) == 60)
        diffs = np.diff(traj.counts, axis=0)
        nonfinal = diffs[:-1] if traj.absorbed_at is None else diffs
        assert np.all(np.abs(nonfinal) <= 1)
        # anti-coordination hovers around the barycenter; a time average over
        # the trailing half beats single-sample noise at this small n
        tail = traj.fractions[len(traj.times) // 2 :]
        assert np.max(np.abs(tail.mean(axis=0) - 1 / 3)) < 0.15


class TestAgainstThreeActionGenerator:
    """Both engines against the exact m = 3 jump chain (Gillespie 1977):
    each visited state's next-state counts pass a chi-square test against
    the embedded chain, and holding times scaled by the total rate out of
    their state pass a KS test against Exp(1)."""

    N = 6
    GAME = make_congestion_game([[1.0, -1.0]] * 3)
    RULE = replicator_rule(*reward_bounds(GAME), eps_margin=0.01)

    def _check(self, run_seeded, transitions=20_000):
        rates = {}
        observed: dict = {}
        scaled = []
        seen = run = 0
        while seen < transitions:
            traj = run_seeded(run)
            run += 1
            rows = [tuple(r) for r in traj.counts.tolist()]
            for a, b, dt in zip(rows[:-1], rows[1:], np.diff(traj.times)):
                if a == b:  # the censored stretch up to the horizon
                    continue
                if a not in rates:
                    rates[a] = transition_rates(self.GAME, self.RULE, PopulationType(np.array(a), self.N))
                observed.setdefault(a, {}).setdefault(b, 0)
                observed[a][b] += 1
                scaled.append(dt * rates[a].sum())
                seen += 1

        chi2, dof = 0.0, 0
        for a, nxt in observed.items():
            total = sum(nxt.values())
            if total < 50:
                continue
            obs, exp = [], []
            for (i, j), rate in np.ndenumerate(rates[a]):
                if rate > 0.0:
                    b = list(a)
                    b[i] -= 1
                    b[j] += 1
                    obs.append(nxt.get(tuple(b), 0))
                    exp.append(total * rate / rates[a].sum())
            assert sum(obs) == total  # no jump the generator forbids
            obs, exp = np.array(obs), np.array(exp)
            chi2 += float(((obs - exp) ** 2 / exp).sum())
            dof += len(obs) - 1
        assert dof >= 30
        assert stats.chi2.sf(chi2, dof) > 1e-3
        assert stats.kstest(scaled, "expon").pvalue > 1e-3

    def test_complete_engine(self):
        x0 = PopulationType(np.array([2, 2, 2]), self.N)
        self._check(
            lambda run: simulate_complete(
                self.GAME, self.RULE, x0, SimConfig(horizon=400.0, seed=derive_seed(3, run))
            )
        )

    def test_network_engine_on_complete_graph(self):
        g = complete(self.N)
        y0 = Configuration(np.array([0, 0, 1, 1, 2, 2]), m=3)
        self._check(
            lambda run: simulate_network(
                g,
                self.GAME,
                self.RULE,
                y0,
                SimConfig(horizon=400.0, seed=derive_seed(4, run), record_stride=1e9, record_jumps=True),
            )
        )


# f_ij orientation matters: a K[i][j] / K[j][i] swap changes the law
ASYMMETRIC_K3 = [[1.0, 0.5, 2.0], [3.0, 1.0, 0.7], [0.4, 1.5, 1.0]]


class TestAgainstThreeActionGeneratorArctan(TestAgainstThreeActionGenerator):
    """The same checks with an arctan rule whose gains are asymmetric, where
    f_ij depends on i as well as j (the replicator's f_ij does not)."""

    RULE = arctan_rule(ASYMMETRIC_K3)


class TestAbsorptionAgainstThreeActionGenerator:
    """Absorption probabilities and mean absorption times of an m = 3
    coordination game at n = 6 from (3, 2, 1), for both engines, against a
    linear solve of the exact generator built from transition_rates."""

    N = 6
    START = (3, 2, 1)
    GAME = make_congestion_game([[0.0, 1.0]] * 3)

    def _exact(self, rule):
        states = [(a, b, self.N - a - b) for a in range(self.N + 1) for b in range(self.N + 1 - a)]
        index = {s: k for k, s in enumerate(states)}
        Q = np.zeros((len(states), len(states)))
        for s in states:
            L = transition_rates(self.GAME, rule, PopulationType(np.array(s), self.N))
            for (i, j), rate in np.ndenumerate(L):
                if rate > 0.0:
                    b = list(s)
                    b[i] -= 1
                    b[j] += 1
                    Q[index[s], index[tuple(b)]] += rate
        np.fill_diagonal(Q, -Q.sum(axis=1))
        vertices = [index[tuple(self.N * (a == v) for a in range(3))] for v in range(3)]
        transient = [k for k in range(len(states)) if k not in vertices]
        A = -Q[np.ix_(transient, transient)]
        hit = np.linalg.solve(A, Q[np.ix_(transient, vertices)])  # column v: P(absorbed at vertex v)
        tau = np.linalg.solve(A, np.ones(len(transient)))
        k = transient.index(index[self.START])
        return hit[k], tau[k]

    @pytest.mark.parametrize(
        "rule", [arctan_rule(ASYMMETRIC_K3), replicator_rule(0.0, 1.0, 0.01)], ids=["arctan", "replicator"]
    )
    @pytest.mark.parametrize("engine", ["complete", "network"])
    def test_absorption(self, rule, engine):
        p_exact, tau_exact = self._exact(rule)
        runs = 2000
        if engine == "complete":
            x0 = PopulationType(np.array(self.START), self.N)

            def run(k):
                return simulate_complete(self.GAME, rule, x0, SimConfig(horizon=1e6, seed=derive_seed(6, k)))
        else:
            g = complete(self.N)
            y0 = Configuration(np.repeat(np.arange(3), self.START), m=3)

            def run(k):
                cfg = SimConfig(horizon=1e6, seed=derive_seed(7, k), record_stride=1e9)
                return simulate_network(g, self.GAME, rule, y0, cfg)

        trajs = [run(k) for k in range(runs)]
        assert all(t.absorbed_at is not None for t in trajs)
        hits = np.bincount([t.absorbing_action for t in trajs], minlength=3)
        assert stats.chisquare(hits, runs * p_exact).pvalue > 1e-3
        taus = np.array([t.absorbed_at for t in trajs])
        assert abs(taus.mean() - tau_exact) < 4 * taus.std(ddof=1) / np.sqrt(runs)


class TestAgainstBirthDeathOracle:
    def test_hitting_probability(self, game4, arctan1):
        n, k0, runs = 10, 5, 2000
        up, dn = birth_death_rates(game4, arctan1, n)
        p_exact = exact_hit_probability(up, dn, k0)
        x0 = PopulationType.from_fractions(n, [k0 / n, 1 - k0 / n])
        spec = RunSpec(game=game4, rule=arctan1, cfg=SimConfig(horizon=1e6, seed=0), x0=x0)
        hits = 0
        for i in range(runs):
            traj = run_one(spec, derive_seed(42, i))
            assert traj.absorbed_at is not None
            hits += traj.absorbing_action == 0
        sigma = np.sqrt(p_exact * (1 - p_exact) / runs)
        assert abs(hits / runs - p_exact) < 4 * sigma

    def test_mean_absorption_time(self, game4, arctan1):
        n, k0, runs = 8, 4, 2000
        up, dn = birth_death_rates(game4, arctan1, n)
        t_exact = exact_mean_absorption_time(up, dn, k0)
        x0 = PopulationType.from_fractions(n, [k0 / n, 1 - k0 / n])
        spec = RunSpec(game=game4, rule=arctan1, cfg=SimConfig(horizon=1e6, seed=0), x0=x0)
        taus = np.array([run_one(spec, derive_seed(77, i)).absorbed_at for i in range(runs)])
        se = taus.std(ddof=1) / np.sqrt(runs)
        assert abs(taus.mean() - t_exact) < 4 * se

    def test_absorption_probability_declines_with_n(self, game4, arctan1):
        # the desk-scale face of exponential absorbing times: the exact
        # probability of absorbing within a fixed horizon collapses as n grows
        probs = []
        for n in (8, 16, 24, 32):
            up, dn = birth_death_rates(game4, arctan1, n)
            k0 = max(1, round(0.3 * n))
            probs.append(exact_absorbed_probability_by(up, dn, k0, T=1000.0))
        assert all(a > b for a, b in zip(probs, probs[1:]))
        assert probs[0] > 0.99         # n = 8 absorbs almost surely
        assert probs[-1] < 0.01        # n = 32: exact value ~ 5.6e-3
        assert probs[0] / probs[-1] > 50.0

    def test_empirical_absorbed_fraction_matches_expm(self, game4, arctan1):
        n, k0, T, runs = 12, 4, 30.0, 1500
        up, dn = birth_death_rates(game4, arctan1, n)
        p_exact = exact_absorbed_probability_by(up, dn, k0, T)
        x0 = PopulationType.from_fractions(n, [k0 / n, 1 - k0 / n])
        spec = RunSpec(game=game4, rule=arctan1, cfg=SimConfig(horizon=T, seed=0), x0=x0)
        hits = sum(run_one(spec, derive_seed(9, i)).absorbed_at is not None for i in range(runs))
        sigma = np.sqrt(p_exact * (1 - p_exact) / runs)
        assert abs(hits / runs - p_exact) < 4 * sigma


class TestNetworkEngine:
    def test_stride_recording(self, game4, arctan1):
        g = square_lattice(10, periodic=True)
        y0 = Configuration(np.array([0] * 50 + [1] * 50), m=2)
        cfg = SimConfig(horizon=5.0, seed=4, record_stride=0.5)
        traj = simulate_network(g, game4, arctan1, y0, cfg)
        if traj.absorbed_at is None:
            expected = np.arange(0.0, 5.0, 0.5)
            assert np.allclose(traj.times[: len(expected)], expected)
            assert traj.times[-1] == 5.0

    def test_deterministic_given_seed(self, game4, arctan1):
        g = square_lattice(6, periodic=True)
        y0 = Configuration(np.array([0, 1] * 18), m=2)
        cfg = SimConfig(horizon=10.0, seed=21, record_stride=0.1)
        a = simulate_network(g, game4, arctan1, y0, cfg)
        b = simulate_network(g, game4, arctan1, y0, cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.counts, b.counts)

    def test_record_jumps_gives_unit_steps(self, game4, arctan1):
        g = complete(20)
        y0 = Configuration(np.array([0] * 10 + [1] * 10), m=2)
        cfg = SimConfig(horizon=20.0, seed=6, record_stride=100.0, record_jumps=True)
        traj = simulate_network(g, game4, arctan1, y0, cfg)
        diffs = np.diff(traj.counts[:, 0])
        if diffs[-1] == 0:  # trailing horizon sample repeats the state
            diffs = diffs[:-1]
        assert np.all(np.abs(diffs) == 1)
        assert traj.meta["flip_count"] == len(diffs)

    def test_record_jumps_capped_then_stride(self, game4, arctan1, monkeypatch):
        monkeypatch.setattr(engine_mod, "EVENT_RECORD_CAP", 40)
        g = square_lattice(10, periodic=True)
        y0 = Configuration(np.array([0, 1] * 50), m=2)
        cfg = SimConfig(horizon=10.0, seed=5, record_stride=0.5, record_jumps=True)
        traj = simulate_network(g, game4, arctan1, y0, cfg)
        assert traj.absorbed_at is None
        assert traj.meta["flip_count"] > 40
        on_grid = (traj.times % 0.5 == 0.0) | (traj.times == cfg.horizon)
        assert int((~on_grid).sum()) == 40  # one row per flip, up to the cap
        assert traj.times[on_grid].tolist() == np.arange(0.0, 10.5, 0.5).tolist()
        assert np.all(np.diff(traj.times) >= 0.0)

    def test_size_mismatch_rejected(self, game4, arctan1):
        g = complete(10)
        y0 = Configuration(np.array([0, 1]), m=2)
        with pytest.raises(ValueError):
            simulate_network(g, game4, arctan1, y0, SimConfig(horizon=1.0, seed=0))

    def test_absorbing_fraction_close_to_complete_engine(self, game4, arctan1):
        # complete-with-self-loops network chain is the same CTMC as the
        # type-space engine; compare absorbing-action frequencies
        n, runs, T = 6, 400, 1e5
        x0 = PopulationType.from_fractions(n, [0.5, 0.5])
        spec = RunSpec(game=game4, rule=arctan1, cfg=SimConfig(horizon=T, seed=0), x0=x0)
        f_complete = np.mean(
            [run_one(spec, derive_seed(1, i)).absorbing_action == 0 for i in range(runs)]
        )
        g = complete(n)
        hits = 0
        for i in range(runs):
            y0 = Configuration(np.array([0] * 3 + [1] * 3), m=2)
            cfg = SimConfig(horizon=T, seed=derive_seed(2, i), record_stride=10.0)
            hits += simulate_network(g, game4, arctan1, y0, cfg).absorbing_action == 0
        f_network = hits / runs
        # binomial 4-sigma allowance on the difference of two proportions
        se = np.sqrt(2 * 0.25 / runs)
        assert abs(f_complete - f_network) < 4 * se


class TestEnsemble:
    def test_derive_seed_frozen_values(self):
        assert derive_seed(0) == 6912158355717386040
        assert derive_seed(0, "placement") == 6887555190183123478
        assert derive_seed(2024, 3) == 3659536176972733833

    def test_run_seeds_distinct_and_stable(self, game4, arctan1):
        x0 = PopulationType.from_fractions(30, [0.5, 0.5])
        spec = RunSpec(game=game4, rule=arctan1, cfg=SimConfig(horizon=2.0, seed=0), x0=x0)
        trajs = ensemble(spec, num_runs=5, base_seed=10)
        seeds = [t.meta["seed"] for t in trajs]
        assert len(set(seeds)) == 5
        again = ensemble(spec, num_runs=5, base_seed=10)
        for a, b in zip(trajs, again):
            assert np.array_equal(a.times, b.times)

    def test_worker_pool_matches_sequential(self, game4, arctan1, monkeypatch):
        x0 = PopulationType.from_fractions(40, [0.5, 0.5])
        spec = RunSpec(game=game4, rule=arctan1, cfg=SimConfig(horizon=3.0, seed=0), x0=x0)
        seq = ensemble(spec, num_runs=6, base_seed=3)
        monkeypatch.setenv("IMITODYN_THREADS", "2")
        par = ensemble(spec, num_runs=6, base_seed=3)
        for a, b in zip(seq, par):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.counts, b.counts)

    def test_unpicklable_spec_rejected_by_pool(self, game4, arctan1, monkeypatch):
        spec = RunSpec(
            game=game4,
            rule=arctan1,
            cfg=SimConfig(horizon=1.0, seed=0),
            graph=lambda seed: complete(10),
            init_fractions=(0.5, 0.5),
        )
        assert len(ensemble(spec, num_runs=2, base_seed=0)) == 2
        monkeypatch.setenv("IMITODYN_THREADS", "2")
        with pytest.raises(ValueError, match="IMITODYN_THREADS=1"):
            ensemble(spec, num_runs=2, base_seed=0)

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_threads_env_var_rejected(self, game4, arctan1, monkeypatch, value):
        x0 = PopulationType.from_fractions(10, [0.5, 0.5])
        spec = RunSpec(game=game4, rule=arctan1, cfg=SimConfig(horizon=1.0, seed=0), x0=x0)
        monkeypatch.setenv("IMITODYN_THREADS", value)
        with pytest.raises(ValueError, match=f"IMITODYN_THREADS: .*'{value}'"):
            ensemble(spec, num_runs=2, base_seed=0)

    def test_network_placement_reproducible(self, game4, arctan1):
        g = square_lattice(5, periodic=True)
        spec = RunSpec(
            game=game4,
            rule=arctan1,
            cfg=SimConfig(horizon=1.0, seed=0),
            graph=g,
            init_fractions=(0.4, 0.6),
        )
        a = run_one(spec, 99)
        b = run_one(spec, 99)
        assert np.array_equal(a.counts, b.counts)
        assert a.counts[0].tolist() == [10, 15]

    def test_runspec_validation(self, game4, arctan1):
        x0 = PopulationType.from_fractions(10, [0.5, 0.5])
        g = complete(10)
        cfg = SimConfig(horizon=1.0, seed=0)
        with pytest.raises(ValueError):
            RunSpec(game=game4, rule=arctan1, cfg=cfg, x0=x0, graph=g)
        with pytest.raises(ValueError):
            RunSpec(game=game4, rule=arctan1, cfg=cfg)
        with pytest.raises(ValueError):
            RunSpec(game=game4, rule=arctan1, cfg=cfg, graph=g)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0.0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=2**64)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=0, record_stride=0.0)
        with pytest.raises(ValueError):
            SimConfig(horizon=1.0, seed=0, lam=-1.0)
