import itertools
import logging
import os
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

import imitodyn.engine as engine_mod
from imitodyn import (
    Configuration,
    Graph,
    ImitationRule,
    PopulationType,
    RunSpec,
    SimConfig,
    arctan_rule,
    complete,
    derive_seed,
    ensemble,
    erdos_renyi,
    make_congestion_game,
    potential_drift_rates,
    replicator_rule,
    reward_bounds,
    run_one,
    simulate_complete,
    simulate_network,
    square_lattice,
)
from imitodyn._law import _Law
from conftest import (
    birth_death_rates,
    exact_absorbed_probability_by,
    exact_hit_probability,
    exact_mean_absorption_time,
    loop_complete_2action,
    loop_complete_generic,
    transition_rates,
)


class _ConstantRule(ImitationRule):
    """Invalid rule with every copy probability f_ij = value."""

    def __init__(self, value: float):
        self.value = value

    def prob_matrix(self, rewards):
        r = np.asarray(rewards)
        return np.full((r.shape[0],) + r.shape, self.value)


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
        game2 = make_congestion_game([[1.0, -1.0]] * 2)
        pt = PopulationType(np.array([10, 10, 10]))
        cfg = SimConfig(horizon=1.0, seed=0)
        # at the barycenter f = 2 gives a total rate of 4/3 n lambda, and
        # f = -0.5 gives negative rates
        for rule in (_ConstantRule(2.0), _ConstantRule(-0.5)):
            with pytest.raises(ValueError, match="rate conservation"):
                transition_rates(game, rule, pt)
            with pytest.raises(ValueError, match="rate conservation"):
                potential_drift_rates(game, rule, pt)
            # every loop builds a compiled law, which exists for the config
            # rules alone
            for g, x0 in ((game2, PopulationType(np.array([10, 10]))), (game, pt)):
                with pytest.raises(ValueError, match="compiled law requires"):
                    simulate_complete(g, rule, x0, cfg)
            for g, y0 in ((game2, [0, 1] * 10), (game, [0, 1, 2] * 10)):
                with pytest.raises(ValueError, match="compiled law requires"):
                    simulate_network(complete(len(y0)), g, rule, Configuration(np.array(y0), m=g.m), cfg)


class TestDriftRates:
    def test_reference_split(self, game4, arctan1):
        pt = PopulationType.from_fractions(100, [0.5, 0.5])
        dr = potential_drift_rates(game4, arctan1, pt, lam=1.0)
        assert dr.q_plus == pytest.approx(18.75, rel=1e-12)
        assert dr.q_minus == pytest.approx(6.25, rel=1e-12)


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
            assert traj.meta["flip_count"] == 0  # the network run, as every network run reports

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
        assert traj.final_type().counts.max() == traj.n

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
            assert traj.final_type().counts.max() == traj.n
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


class TestCompleteDrawStream:
    """The m = 2 complete engine draws each block's uniforms with one
    getrandbits call and walks the block in one Python pass.  Its paths must
    equal, bit for bit, those of the scalar loop that calls random() twice
    per jump (loop_complete_2action), whatever the block sizes."""

    SEEDS = (0, 7, 2**32 - 1, 2**32, 2**63 + 5)

    @pytest.mark.parametrize("count", [1, 2, 7, 64, 3601])
    def test_block_uniforms_continue_random(self, count):
        for seed in self.SEEDS:
            blocks, calls = random.Random(seed), random.Random(seed)
            for _ in range(3):
                got = engine_mod._uniforms(blocks, count)
                assert got.dtype == np.float64
                assert got.tolist() == [calls.random() for _ in range(count)]
            assert blocks.random() == calls.random()  # the stream goes on in step

    @staticmethod
    def _specs(game4):
        g2 = make_congestion_game([[1.0, -1.0], [0.5, -2.0, 1.0]])
        return [
            ("arctan1", game4, arctan_rule(1.0)),
            ("arctan5", game4, arctan_rule(5.0)),
            ("replicator", game4, replicator_rule(*reward_bounds(game4))),
            ("g2", g2, arctan_rule(1.0)),
            # r_0 = r_1 = r_lo = 9 at x_0 = 1/4 and 3/4, so both copy
            # probabilities are 0 there: for n divisible by 4 nothing leaves
            ("stall", game4, replicator_rule(9.0, 12.0, 0.0)),
        ]

    @pytest.mark.parametrize(
        "cap, draw_cap, switches", [(40, 37, True), (1000, 3601, True), (engine_mod.EVENT_RECORD_CAP, None, False)]
    )
    def test_paths_equal_scalar_reference(self, game4, monkeypatch, cap, draw_cap, switches):
        monkeypatch.setattr(engine_mod, "EVENT_RECORD_CAP", cap)
        if draw_cap is not None:
            monkeypatch.setattr(engine_mod, "_DRAW_CAP", draw_cap)
        # (n, horizon): small n absorb within the horizon, large n end at it
        sizes = [(4, 50.0), (12, 50.0), (300, 7.3), (2500, 2.1)]
        ends = set()
        for (name, game, rule), (n, horizon), seed, stop in itertools.product(
            self._specs(game4), sizes, self.SEEDS, [True, False]
        ):
            x0 = PopulationType.from_fractions(n, [0.5, 0.5])
            cfg = SimConfig(horizon=horizon, seed=seed, record_stride=0.1, stop_on_absorption=stop)
            got = simulate_complete(game, rule, x0, cfg)
            meta = engine_mod._meta("complete", game, rule, cfg, n, f"complete(n={n})")
            want = loop_complete_2action(game, rule, x0, cfg, meta)
            case = (name, n, seed, stop)
            assert np.array_equal(got.times, want.times), case
            assert np.array_equal(got.counts, want.counts), case
            assert (got.event_count, got.absorbed_at, got.absorbing_action) == (
                want.event_count, want.absorbed_at, want.absorbing_action
            ), case
            assert got.meta == want.meta, case
            k = int(got.counts[-1, 0])
            if got.absorbed_at is not None:
                ends.add("absorbed")
            elif name == "stall" and k in (n // 4, 3 * n // 4):
                ends.add("stalled")
            else:
                ends.add("horizon")
            if "stride_from" in got.meta:
                ends.add("stride")
        assert ends >= {"absorbed", "stalled", "horizon"}
        assert ("stride" in ends) == switches


class TestCompleteDrawStreamManyActions:
    """At m >= 3 the complete engine walks the same draw blocks, one
    bisection of the law's cumulative rates per jump (_Law.jump_path).  Its
    paths must equal, bit for bit, those of the scalar loop that calls
    random() twice per jump (loop_complete_generic), whatever the block
    sizes."""

    SEEDS = (0, 7, 2**32 - 1, 2**63 + 5)

    @staticmethod
    def _specs():
        g3 = make_congestion_game([[1.0, -1.0], [0.5, -2.0, 1.0], [0.25, -0.5]])
        g4 = make_congestion_game([[1.0, -1.0], [0.5, -2.0, 1.0], [0.25, -0.5], [0.75, -1.5, 0.5]])
        # per-pair sensitivities with K_ij != K_ji, so the pair order counts
        K = [[1.0 + i + 0.5 * j for j in range(4)] for i in range(4)]
        # r_0 = r_1 = r_2 = r_lo = 9 at x_0 = 3/4, so every copy probability
        # is 0 there; from x_0 = 1/2 only copies of action 0 happen (r_0 > 9
        # below 3/4), so a run stalls at x_0 = 3/4 unless the horizon comes
        stall = make_congestion_game([[12.0, -28.0, 80.0, -64.0], [9.0], [9.0]])
        return [
            ("replicator3", g3, replicator_rule(*reward_bounds(g3), 0.01), [0.5, 0.3, 0.2]),
            ("arctan3", g3, arctan_rule(np.array(K)[:3, :3]), [0.5, 0.3, 0.2]),
            ("replicator4", g4, replicator_rule(*reward_bounds(g4), 0.01), [0.4, 0.3, 0.2, 0.1]),
            ("arctan4", g4, arctan_rule(K), [0.4, 0.3, 0.2, 0.1]),
            ("stall", stall, replicator_rule(9.0, 12.0, 0.0), [0.5, 0.25, 0.25]),
        ]

    @pytest.mark.parametrize(
        "cap, draw_cap, switches",
        [(engine_mod.EVENT_RECORD_CAP, None, False), (40, None, True), (engine_mod.EVENT_RECORD_CAP, 37, False)],
    )
    def test_paths_equal_scalar_reference(self, monkeypatch, cap, draw_cap, switches):
        monkeypatch.setattr(engine_mod, "EVENT_RECORD_CAP", cap)
        if draw_cap is not None:
            monkeypatch.setattr(engine_mod, "_DRAW_CAP", draw_cap)
        # (n, horizon): small n absorb within the horizon, large n end at it
        sizes = [(4, 50.0), (8, 50.0), (40, 30.0), (400, 4.3)]
        ends = set()
        for (name, game, rule, x), (n, horizon), seed, stop in itertools.product(
            self._specs(), sizes, self.SEEDS, [True, False]
        ):
            x0 = PopulationType.from_fractions(n, x)
            cfg = SimConfig(horizon=horizon, seed=seed, record_stride=0.1, stop_on_absorption=stop)
            got = simulate_complete(game, rule, x0, cfg)
            meta = engine_mod._meta("complete", game, rule, cfg, n, f"complete(n={n})")
            want = loop_complete_generic(game, rule, x0, cfg, meta)
            case = (name, n, seed, stop)
            assert np.array_equal(got.times, want.times), case
            assert np.array_equal(got.counts, want.counts), case
            assert (got.event_count, got.absorbed_at, got.absorbing_action) == (
                want.event_count, want.absorbed_at, want.absorbing_action
            ), case
            assert got.meta == want.meta, case
            if got.absorbed_at is not None:
                ends.add("absorbed")
            elif name == "stall" and got.counts[-1, 0] == 3 * n // 4:
                ends.add("stalled")
            else:
                ends.add("horizon")
            if "stride_from" in got.meta:
                ends.add("stride")
        assert ends >= {"absorbed", "stalled", "horizon"}
        assert ("stride" in ends) == switches


def _csr_graph(adj, kind):
    """The Graph on which node v's sorted neighbours are adj[v]."""
    off = np.cumsum([0] + [len(a) for a in adj])
    return Graph(n=len(adj), flat=np.concatenate(adj).astype(np.int64), off=off, kind=kind)


class TestNetworkAgainstNodeGenerator:
    """The per-node engine on non-regular graphs against the exact
    node-level chain.  Node u activates at rate lambda, contacts a uniform v
    in N(u) and copies y_v with probability f_{y_u y_v} at the current type.

    m = 2 on a 6-node star and path (64 configurations y): seeded runs must
    match the absorption probability and mean absorption time (linear
    solves of the generator), the probability that the first flip raises
    action 0's count, and the Exp law of the first flip's time.  m = 3 on a
    5-node star (243 configurations) adds the law of the first flip's type
    change and the type distribution at a fixed time (matrix exponential).
    A star separates "uniform node, then uniform neighbour" from "uniform
    edge"."""

    N = 6
    LAM = 1.0
    GRAPHS = {
        "star": ([[1, 2, 3, 4, 5], [0], [0], [0], [0], [0]], (0, 1, 1, 0, 0, 0)),
        "path": ([[1], [0, 2], [1, 3], [2, 4], [3, 5], [4]], (0, 1, 1, 0, 0, 0)),
    }
    STAR5 = [[1, 2, 3, 4], [0], [0], [0], [0]]
    START5 = (0, 0, 1, 1, 2)
    GAME3 = make_congestion_game([[1.0, -1.0]] * 3)
    RULE3 = replicator_rule(*reward_bounds(GAME3), eps_margin=0.01)

    def _generator(self, game, rule, adj, m):
        """Generator over the m**n configurations; configuration s has y_u =
        digit u of s in base m."""
        n = len(adj)
        Q = np.zeros((m**n, m**n))
        for s in range(m**n):
            y = [s // m**u % m for u in range(n)]
            F = rule.prob_matrix(game.rewards_at(np.bincount(y, minlength=m) / n))
            for u in range(n):
                for v in adj[u]:
                    if y[u] != y[v]:
                        Q[s, s + (y[v] - y[u]) * m**u] += self.LAM / len(adj[u]) * F[y[u], y[v]]
        np.fill_diagonal(Q, -Q.sum(axis=1))
        return Q

    def _exact(self, game, rule, adj, start, m):
        """The generator, the index of the start, P(absorbed at each vertex),
        the mean absorption time, P(first flip is i -> j) by (i, j) and the
        total flip rate at the start."""
        n = len(adj)
        Q = self._generator(game, rule, adj, m)
        s0 = sum(a * m**u for u, a in enumerate(start))
        first: dict = {}
        for u, i in enumerate(start):
            for j in range(m):
                if j != i:
                    rate = Q[s0, s0 + (j - i) * m**u]
                    first[i, j] = first.get((i, j), 0.0) + rate
        vertices = [a * (m**n - 1) // (m - 1) for a in range(m)]
        transient = [s for s in range(m**n) if s not in vertices]
        A = -Q[np.ix_(transient, transient)]
        k = transient.index(s0)
        hit = np.linalg.solve(A, Q[np.ix_(transient, vertices)])[k]
        tau = np.linalg.solve(A, np.ones(len(transient)))[k]
        total = -Q[s0, s0]
        return Q, s0, hit, tau, {ij: r / total for ij, r in first.items() if r > 0.0}, total

    def _runs(self, graph, game, rule, y0, runs, label, horizon=1000.0):
        trajs = []
        for k in range(runs):
            cfg = SimConfig(
                lam=self.LAM, horizon=horizon, seed=derive_seed(9, label, k), record_stride=1e9, record_jumps=True
            )
            trajs.append(simulate_network(graph, game, rule, y0, cfg))
        assert all(t.absorbed_at is not None for t in trajs)
        return trajs

    @pytest.mark.parametrize("name", ["star", "path"])
    def test_matches_node_generator(self, game4, arctan1, name):
        adj, start = self.GRAPHS[name]
        _, _, hit, tau, first, rate = self._exact(game4, arctan1, adj, start, 2)
        graph = _csr_graph(adj, name)
        runs = 3000
        trajs = self._runs(graph, game4, arctan1, Configuration(np.array(start), m=2), runs, name)
        absorbed_0 = sum(t.absorbing_action == 0 for t in trajs)
        taus = [t.absorbed_at for t in trajs]
        first_up = sum(t.counts[1, 0] > t.counts[0, 0] for t in trajs)
        first_times = [t.times[1] * rate for t in trajs]
        assert stats.binomtest(absorbed_0, runs, hit[0]).pvalue > 1e-3
        assert abs(np.mean(taus) - tau) < 4 * np.std(taus, ddof=1) / np.sqrt(runs)
        assert stats.binomtest(first_up, runs, first[1, 0]).pvalue > 1e-3
        assert stats.kstest(first_times, "expon").pvalue > 1e-3

    def test_three_actions_on_a_star(self):
        Q, s0, hit, tau, first, rate = self._exact(self.GAME3, self.RULE3, self.STAR5, self.START5, 3)
        graph = _csr_graph(self.STAR5, "star")
        runs = 2000
        trajs = self._runs(graph, self.GAME3, self.RULE3, Configuration(np.array(self.START5), m=3), runs, "star3")

        hits = np.bincount([t.absorbing_action for t in trajs], minlength=3)
        assert stats.chisquare(hits, runs * hit).pvalue > 1e-3
        taus = np.array([t.absorbed_at for t in trajs])
        assert abs(taus.mean() - tau) < 4 * taus.std(ddof=1) / np.sqrt(runs)

        pairs = sorted(first)
        moves = [tuple(int(np.flatnonzero(t.counts[1] - t.counts[0] == d)[0]) for d in (-1, 1)) for t in trajs]
        assert set(moves) <= set(pairs)  # no first flip the generator forbids
        observed = [moves.count(ij) for ij in pairs]
        assert stats.chisquare(observed, [runs * first[ij] for ij in pairs]).pvalue > 1e-3
        assert stats.kstest([t.times[1] * rate for t in trajs], "expon").pvalue > 1e-3

        # the type at a fixed time: each configuration's law from expm, summed by type
        t_fix = 0.5 * tau
        p_conf = linalg.expm(Q * t_fix)[s0]
        types = [tuple(np.bincount([s // 3**u % 3 for u in range(5)], minlength=3)) for s in range(3**5)]
        law: dict = {}
        for ty, p in zip(types, p_conf):
            law[ty] = law.get(ty, 0.0) + p
        seen = [tuple(t.counts[np.searchsorted(t.times, t_fix, side="right") - 1]) for t in trajs]
        big = [ty for ty in sorted(law) if runs * law[ty] >= 5.0]
        observed = [seen.count(ty) for ty in big] + [sum(ty not in big for ty in seen)]
        expected = [runs * law[ty] for ty in big] + [runs * (1.0 - sum(law[ty] for ty in big))]
        assert len(big) >= 8
        assert stats.chisquare(observed, expected).pvalue > 1e-3


def _network_draws(graph, seed):
    """The network loop's draws for one activation at a time: (standard
    exponential, active node, contact, copy uniform), drawn as the loop
    draws them, in blocks of 32, 64, ... up to 2,048 activations."""
    n = graph.n
    adj = None if graph.is_complete else [a.tolist() for a in graph.neighbors]
    rng = np.random.Generator(np.random.PCG64(seed))
    size = 32
    while True:
        waits = rng.standard_exponential(size).tolist()
        if adj is None:
            nodes, contacts = rng.integers(0, n, (2, size)).tolist()
        else:
            nodes = rng.integers(0, n, size).tolist()
            picks = rng.integers(0, np.array([len(adj[u]) for u in nodes])).tolist()
            contacts = [adj[u][k] for u, k in zip(nodes, picks)]
        copies = rng.random(size).tolist()
        yield from zip(waits, nodes, contacts, copies)
        size = min(2 * size, 2_048)


def _reference_network(graph, game, rule, y0, cfg):
    """simulate_network one activation at a time: the clock advances by
    e / (n * lambda) per activation, and the stride rows up to each
    activation's time are written before it is handled."""
    n = graph.n
    meta = engine_mod._meta("network", game, rule, cfg, n, f"{graph.kind}(n={n})")
    counts = np.bincount(y0.actions, minlength=game.m).tolist()
    law = _Law(game, rule, cfg.lam, n).probs
    F = law(counts)
    y = y0.actions.astype(np.int64).tolist()
    stride, record_jumps = cfg.record_stride, cfg.record_jumps
    t = 0.0
    rec = engine_mod._Recorder(counts[:-1], cfg, every_jump=record_jumps)
    cap = engine_mod.EVENT_RECORD_CAP
    ts, rows = [], []
    next_rec = stride
    events = flips = 0
    absorbed_at = None
    for e, u, v, c in _network_draws(graph, cfg.seed):
        t_next = t + e / (n * cfg.lam)
        while next_rec <= t_next and next_rec < cfg.horizon:
            ts.append(next_rec)
            rows.append(counts.copy())
            next_rec += stride
        if t_next >= cfg.horizon:
            break
        t = t_next
        events += 1
        i, j = y[u], y[v]
        if i == j:
            continue
        if c < F[i][j]:
            y[u] = j
            counts[i] -= 1
            counts[j] += 1
            flips += 1
            F = law(counts)
            if record_jumps:  # every flip up to the cap
                ts.append(t)
                rows.append(counts.copy())
                if flips == cap:
                    rec.stride_from = t
                    record_jumps = False
            if counts[j] == n:
                absorbed_at = t
                break
    meta["flip_count"] = flips
    rec._put(np.array(ts), np.array(rows, dtype=np.int64).reshape(-1, len(counts))[:, :-1])
    return rec.close(counts[:-1], n, absorbed_at, events, meta)


class TestNetworkDrawStream:
    """simulate_network draws its randomness in numpy blocks and handles the
    activations of a block in one pass.  Its paths must equal, bit for bit,
    those of the one-activation-at-a-time reference on the same draws, on
    every graph shape: the complete graph, a regular lattice, a star whose
    hub has 5 neighbours and an m = 3 ER graph; with and without every-jump
    rows, with a low every-jump cap, and with runs that end inside a block
    at absorption or at the horizon."""

    def _cases(self, game4, arctan1):
        """(name, graph, [(game, rule, start), ...]): on each graph some runs
        absorb within the horizons below and some do not."""
        g3 = make_congestion_game([[1.0, -1.0]] * 3)
        rep3 = replicator_rule(*reward_bounds(g3), eps_margin=0.01)
        ranked = make_congestion_game([[1.0], [0.5], [0.0]])  # action 0 takes over
        rep_ranked = replicator_rule(*reward_bounds(ranked), eps_margin=0.01)
        star_adj = TestNetworkAgainstNodeGenerator.GRAPHS["star"][0]
        star = _csr_graph(star_adj, "star")
        for name, graph in (("complete", complete(37)), ("lattice", square_lattice(5, periodic=True))):
            lone = np.ones(graph.n, dtype=np.int64)
            lone[0] = 0  # one node of action 0 drifts out more often than not
            yield name, graph, [(game4, arctan1, np.arange(graph.n) % 2), (game4, arctan1, lone)]
        yield "star", star, [(game4, arctan1, np.array([0, 1, 1, 0, 1, 0]))]
        er = erdos_renyi(60, 0.1, seed=3)
        yield "er", er, [(g3, rep3, np.arange(60) % 3), (ranked, rep_ranked, np.arange(60) % 3)]

    def test_paths_equal_one_activation_reference(self, game4, arctan1, monkeypatch):
        for cap, record_jumps in itertools.product([25, engine_mod.EVENT_RECORD_CAP], [True, False]):
            monkeypatch.setattr(engine_mod, "EVENT_RECORD_CAP", cap)
            self._check_paths(game4, arctan1, record_jumps, low_cap=cap == 25)

    def _check_paths(self, game4, arctan1, record_jumps, low_cap):
        ends = {}
        switched = 0
        for name, graph, runs in self._cases(game4, arctan1):
            # about 10,000 activations run past the last block size
            horizons = [3.0] * 8 + [30.0] * 8 + [10_000 / graph.n]
            for k, ((game, rule, actions), horizon) in enumerate(itertools.product(runs, horizons)):
                y0 = Configuration(actions, m=game.m)
                cfg = SimConfig(
                    horizon=horizon, seed=derive_seed(12, name, k), record_stride=0.5, record_jumps=record_jumps
                )
                got = simulate_network(graph, game, rule, y0, cfg)
                want = _reference_network(graph, game, rule, y0, cfg)
                assert np.array_equal(got.times, want.times), (name, k)
                assert np.array_equal(got.counts, want.counts), (name, k)
                assert (got.event_count, got.absorbed_at, got.absorbing_action) == (
                    want.event_count, want.absorbed_at, want.absorbing_action
                ), (name, k)
                assert got.meta == want.meta, (name, k)
                ends.setdefault(name, set()).add("horizon" if got.absorbed_at is None else "absorbed")
                switched += "stride_from" in got.meta
                if horizon > 30.0 and got.absorbed_at is None:
                    assert got.event_count > 4_064  # 32 + 64 + ... + 2,048
        assert all(e == {"horizon", "absorbed"} for e in ends.values()), ends
        assert (switched > 0) == (record_jumps and low_cap)

    @pytest.mark.parametrize("record_jumps", [False, True])
    def test_grid_row_at_a_flip_time_holds_the_state_before_it(self, game4, arctan1, monkeypatch, record_jumps):
        class Clockwork:
            """Unit exponentials, so with n * lambda = 2 every activation falls
            on the 0.5 grid, and node 0 copying nodes 2 and 1 in turn."""

            def __init__(self, bit_generator):
                pass

            def standard_exponential(self, size):
                return np.ones(size)

            def integers(self, low, high, size):
                return np.array([np.zeros(size[1], np.int64), np.tile([2, 1], size[1] // 2)])

            def random(self, size):
                return np.zeros(size)

        monkeypatch.setattr(np.random, "Generator", Clockwork)
        graph = complete(4)
        y0 = Configuration(np.array([0, 0, 1, 1]), 2)
        cfg = SimConfig(lam=0.5, horizon=10.0, record_stride=0.5, record_jumps=record_jumps)
        got = simulate_network(graph, game4, arctan1, y0, cfg)
        want = _reference_network(graph, game4, arctan1, y0, cfg)
        assert np.array_equal(got.times, want.times) and np.array_equal(got.counts, want.counts)
        assert got.meta == want.meta and got.meta["flip_count"] == 19  # one flip at each of 0.5, 1.0, ..., 9.5
        times, first = np.unique(got.times, return_index=True)
        assert times.tolist() == np.arange(0.0, 10.5, 0.5).tolist()
        # the grid row at 0.5 k holds the state before flip k: action 0 counts 2 after an even number of flips
        assert got.counts[first, 0].tolist() == [2] + [2, 1] * 10
        assert len(got.times) == (21 + 19 if record_jumps else 21)


class TestNetworkEngine:
    def test_stride_recording(self, game4, arctan1):
        g = square_lattice(10, periodic=True)
        y0 = Configuration(np.array([0] * 50 + [1] * 50), m=2)
        cfg = SimConfig(horizon=5.0, seed=4, record_stride=0.5)
        traj = simulate_network(g, game4, arctan1, y0, cfg)
        assert traj.absorbed_at is None
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
        with pytest.raises(ValueError, match="nodes"):
            simulate_network(g, game4, arctan1, y0, SimConfig(horizon=1.0, seed=0))
        y3 = Configuration(np.arange(10) % 3, m=3)
        with pytest.raises(ValueError, match="actions"):
            simulate_network(g, game4, arctan1, y3, SimConfig(horizon=1.0, seed=0))

    def test_peak_memory_does_not_grow_with_horizon(self, game4, arctan1):
        # Draw blocks hold at most _DRAW_CAP activations, so a run three times
        # as long peaks higher only by its extra recorded rows.
        g = square_lattice(20, periodic=True)
        y0 = Configuration(np.array([0, 1] * 200), m=2)
        simulate_network(g, game4, arctan1, y0, SimConfig(horizon=1.0, seed=3))  # warm the law's caches
        peaks, rows = [], []
        for horizon in (20.0, 60.0):  # 8k and 24k activations, past 32 + 64 + ... + 2,048
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                traj = simulate_network(g, game4, arctan1, y0, SimConfig(horizon=horizon, seed=3, record_stride=1.0))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert traj.absorbed_at is None and traj.event_count > 4_064
            rows.append(len(traj.times))
        assert peaks[1] <= peaks[0] + 256 * (rows[1] - rows[0])

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


class TestRecorder:
    """The one recorder of the three loops: chunked numpy blocks, one cap rule."""

    @staticmethod
    def _runs(game4, arctan1):
        g3 = make_congestion_game([[1.0, -1.0]] * 3)
        rep3 = replicator_rule(*reward_bounds(g3), 0.01)
        lattice = square_lattice(10, periodic=True)
        y0 = Configuration(np.array([0, 1] * 50), 2)
        return [
            simulate_complete(
                game4, arctan1, PopulationType.from_fractions(300, [0.5, 0.5]),
                SimConfig(horizon=40.0, seed=2, record_stride=1.0),
            ),
            simulate_complete(
                game4, arctan1, PopulationType.from_fractions(12, [0.25, 0.75]), SimConfig(horizon=1e4, seed=0)
            ),
            simulate_complete(
                g3, rep3, PopulationType.from_fractions(90, [0.6, 0.3, 0.1]),
                SimConfig(horizon=20.0, seed=3, record_stride=0.5),
            ),
            simulate_network(
                lattice, game4, arctan1, y0, SimConfig(horizon=10.0, seed=5, record_stride=0.5, record_jumps=True)
            ),
            simulate_network(lattice, game4, arctan1, y0, SimConfig(horizon=10.0, seed=5, record_stride=0.05)),
        ]

    @pytest.mark.parametrize("cap", [40, engine_mod.EVENT_RECORD_CAP])
    def test_chunking_leaves_every_path_unchanged(self, game4, arctan1, monkeypatch, cap):
        monkeypatch.setattr(engine_mod, "EVENT_RECORD_CAP", cap)
        lattice = square_lattice(10, periodic=True)
        y0 = Configuration(np.array([0, 1] * 50), 2)
        # about 25 time units between activations: thousands of grid rows per flip
        gap = SimConfig(lam=4e-4, horizon=600.0, seed=5, record_stride=0.01)

        def runs():
            return self._runs(game4, arctan1) + [simulate_network(lattice, game4, arctan1, y0, gap)]

        whole = runs()
        handed, put = [], []

        class Spy(engine_mod._Recorder):
            in_jumps = False

            def jumps(self, times, rows, events):
                # the complete loop's draw blocks, which _DRAW_CAP bounds
                self.in_jumps = True
                super().jumps(times, rows, events)
                self.in_jumps = False

            def _put(self, times, rows):
                if not self.in_jumps:
                    handed.append(times.size)
                super()._put(times, rows)

            def _flush(self):
                # rows leave _put's buffers only here
                put.append(self._fill)
                super()._flush()

        monkeypatch.setattr(engine_mod, "_Recorder", Spy)
        monkeypatch.setattr(engine_mod, "_CHUNK", 7)
        chunked = runs()
        assert max(handed) <= 7 and handed.count(7) > 3  # the network loop hands over full chunks
        assert max(put) <= 7
        assert put.count(7) > 3  # the complete runs fill _put's buffers
        for a, b in zip(whole, chunked):
            assert len(a.times) > 3 * 7
            assert np.array_equal(a.times, b.times) and np.array_equal(a.counts, b.counts)
            assert (a.event_count, a.absorbed_at, a.absorbing_action, a.meta) == (
                b.event_count, b.absorbed_at, b.absorbing_action, b.meta
            )
        assert np.diff(whole[-1].times).max() < 0.02  # the gap run is one row a stride

    def test_stride_switch_is_reported(self, game4, arctan1, monkeypatch):
        monkeypatch.setattr(engine_mod, "EVENT_RECORD_CAP", 40)
        complete_m2, _, complete_m3, network, strided = self._runs(game4, arctan1)
        for traj, stride in ((complete_m2, 1.0), (complete_m3, 0.5)):
            # rows 0..40 are the start and the first 40 jumps, then one row a stride
            assert traj.meta["stride_from"] == traj.times[40]
            assert np.all(np.diff(traj.times[40:-1]) >= stride)
        jump_times = network.times[(network.times % 0.5 != 0.0) & (network.times != 10.0)]
        assert network.meta["stride_from"] == jump_times[-1]
        assert "stride_from" not in strided.meta  # stride sampling from the start

    @pytest.mark.parametrize(
        "engine, m, bound", [("complete", 2, 55.0), ("complete", 3, 65.0), ("network", 2, 62.0), ("network", 3, 79.0)]
    )
    def test_peak_memory_per_recorded_row(self, game4, arctan1, monkeypatch, engine, m, bound):
        # The Python-list recording peaked at 110 and 244 B/row on the
        # complete graph, 191.5 and 199.4 on the stride-recorded networks.
        # Rows of m counts peaked at 34.5, 70.8, 67.4 and 84.3; rows of the
        # first m - 1 counts at 33.5, 59.9, 56.6 and 73.6.  The network loop
        # gathers up to _CHUNK rows in lists, so its cases keep the default
        # _CHUNK and record fewer rows than it.  Each case first warms the
        # law's caches, so that the generated code and the law's tables,
        # built once per process or spec, are not counted per row.
        g3 = make_congestion_game([[1.0, -1.0]] * 3)
        rep3 = replicator_rule(*reward_bounds(g3), 0.01)
        if engine == "complete":
            monkeypatch.setattr(engine_mod, "_CHUNK", 1024)
            if m == 2:
                args = (game4, arctan1, PopulationType.from_fractions(2000, [0.5, 0.5]), SimConfig(horizon=60.0, seed=1))
            else:
                args = (g3, rep3, PopulationType.from_fractions(900, [0.6, 0.3, 0.1]), SimConfig(horizon=25.0, seed=1))
            simulate_complete(*args[:3], SimConfig(horizon=1.0, seed=1))
            simulate = simulate_complete
        else:
            if m == 2:
                args = (square_lattice(20, periodic=True), game4, arctan1, Configuration(np.array([0, 1] * 200), 2))
            else:
                args = (erdos_renyi(300, 0.03, seed=1), g3, rep3, Configuration(np.arange(300) % 3, 3))
            simulate_network(*args, SimConfig(horizon=1.0, seed=1))
            args += (SimConfig(horizon=60.0, seed=1, record_stride=0.005),)
            simulate = simulate_network
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traj = simulate(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        rows = len(traj.times)
        assert rows > 8 * 1024
        if engine == "network":
            assert rows < engine_mod._CHUNK and traj.absorbed_at is None
        assert peak / rows <= bound


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
        monkeypatch.setattr(engine_mod, "_cpus", lambda: 2)  # a pool on a 1-CPU host too
        par = ensemble(spec, num_runs=6, base_seed=3)
        for a, b in zip(seq, par):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.counts, b.counts)

    def test_closing_the_stream_stops_the_pool(self, game4, arctan1, monkeypatch):
        import multiprocessing

        x0 = PopulationType.from_fractions(40, [0.5, 0.5])
        spec = RunSpec(game=game4, rule=arctan1, cfg=SimConfig(horizon=3.0, seed=0), x0=x0)
        monkeypatch.setenv("IMITODYN_THREADS", "2")
        monkeypatch.setattr(engine_mod, "_cpus", lambda: 2)  # a pool on a 1-CPU host too
        runs = engine_mod._runs(spec, 9, 3)
        first = next(runs)
        assert multiprocessing.active_children()  # the pool's workers
        runs.close()
        assert multiprocessing.active_children() == []
        assert np.array_equal(first.counts, run_one(spec, derive_seed(3, 0)).counts)

    def test_workers_capped_at_cpus(self, game4, arctan1, monkeypatch):
        import concurrent.futures

        asked = []

        class InlinePool:  # runs each task at submit and starts no process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures):
                pass

        x0 = PopulationType.from_fractions(40, [0.5, 0.5])
        spec = RunSpec(game=game4, rule=arctan1, cfg=SimConfig(horizon=3.0, seed=0), x0=x0)
        seq = ensemble(spec, num_runs=7, base_seed=4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setenv("IMITODYN_THREADS", "5000")
        ensemble(spec, num_runs=7, base_seed=4)  # a pool of min(CPUs, 7) workers; none on 1 CPU
        assert len(asked) <= 1 and all(1 < w <= min(os.cpu_count(), 7) for w in asked)
        monkeypatch.setattr(engine_mod, "_cpus", lambda: 3)
        par = ensemble(spec, num_runs=7, base_seed=4)
        assert asked[-1] == 3
        for a, b in zip(seq, par, strict=True):
            assert np.array_equal(a.times, b.times) and np.array_equal(a.counts, b.counts)

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
        monkeypatch.setattr(engine_mod, "_cpus", lambda: 2)  # a pool on a 1-CPU host too
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


@pytest.mark.parametrize("m", [2, 3])
def test_runs_of_one_spec_share_one_law(monkeypatch, caplog, m):
    built = []

    class CountingLaw(_Law):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(engine_mod, "_Law", CountingLaw)
    engine_mod._shared_law.cache_clear()
    game = make_congestion_game([[1.0, -1.0]] * m)
    lo, hi = reward_bounds(game)
    rule = replicator_rule(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo), 0.01)  # clamps part of the range
    sim = SimConfig(horizon=2.0)
    fractions = (0.6, 0.3, 0.1) if m == 3 else (0.6, 0.4)
    specs = [
        RunSpec(game, rule, sim, x0=PopulationType.from_fractions(30, fractions)),
        RunSpec(game, rule, sim, graph=complete(30), init_fractions=fractions),
    ]
    with caplog.at_level(logging.DEBUG, logger="imitodyn"):
        shared = [run_one(spec, seed) for spec in specs for seed in (1, 2, 3)]
    # both engines, one game, rule, lam and n: one law, one clamp line
    assert len(built) == 1
    assert caplog.text.count("replicator rule clamped rewards") == 1
    fresh = []
    for spec in specs:
        for seed in (1, 2, 3):
            engine_mod._shared_law.cache_clear()
            fresh.append(run_one(spec, seed))
    assert len(built) == 7
    for a, b in zip(shared, fresh):
        assert np.array_equal(a.times, b.times) and np.array_equal(a.counts, b.counts)
        assert a.event_count == b.event_count > 0
    # another lam, n or rule object builds its own law
    x0 = PopulationType.from_fractions(30, fractions)
    twin = replicator_rule(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo), 0.01)
    run_one(RunSpec(game, rule, SimConfig(horizon=2.0, lam=2.0), x0=x0), 1)
    run_one(RunSpec(game, rule, sim, x0=PopulationType.from_fractions(31, fractions)), 1)
    run_one(RunSpec(game, twin, sim, x0=x0), 1)
    run_one(RunSpec(game, twin, sim, x0=x0), 2)
    assert len(built) == 10
