import itertools
import json
import logging
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from imitodyn import (
    CriticalPoint,
    Game,
    LandscapeWarning,
    PopulationType,
    RunSpec,
    SimConfig,
    Trajectory,
    arctan_rule,
    critical_point_to_dict,
    derive_seed,
    ensemble,
    ess_set,
    exit_time,
    find_critical_points_2action,
    find_critical_points_multi,
    make_congestion_game,
    metastability_report,
    time_near_set,
)
from imitodyn._law import potential_pair

PHI_SADDLE = 443.0 / 48.0
PHI_ESS = 153.0 / 16.0


def _traj_from_counts(times, counts, n):
    counts = np.asarray(counts, dtype=np.int64)
    return Trajectory(
        times=np.asarray(times, dtype=float),
        counts=counts,
        n=n,
        absorbed_at=None,
        absorbing_action=None,
        event_count=len(times) - 1,
        meta={},
    )


class TestTwoActionScanner:
    def test_reference_game_landscape(self, game4):
        pts = find_critical_points_2action(game4)
        assert len(pts) == 4
        x1s = [p.x[0] for p in pts]
        assert x1s == sorted(x1s)

        left, saddle, peak, right = pts
        assert left.x[0] == 0.0 and left.kind == "local_min" and left.on_boundary
        assert right.x[0] == 1.0 and right.kind == "local_min" and right.on_boundary

        assert abs(saddle.x[0] - 0.25) < 1e-6
        assert saddle.kind == "saddle_or_degenerate"
        assert not saddle.is_ess

        assert abs(peak.x[0] - 0.75) < 1e-6
        assert peak.kind == "local_max"
        assert peak.is_ne and peak.is_ess and not peak.on_boundary

        assert saddle.phi == pytest.approx(PHI_SADDLE, abs=1e-9)
        assert peak.phi == pytest.approx(PHI_ESS, abs=1e-9)

    def test_simplex_coordinates_sum_to_one(self, game4):
        for p in find_critical_points_2action(game4):
            assert p.x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_three_action_game(self):
        g = make_congestion_game([[1.0, -1.0]] * 3)
        with pytest.raises(ValueError, match="m = 2"):
            find_critical_points_2action(g)

    def test_constant_potential_floods(self):
        flat = make_congestion_game([[5.0], [5.0]])
        with pytest.warns(LandscapeWarning, match="non-isolated"):
            pts = find_critical_points_2action(flat, grid=200)
        assert len(pts) == 201
        assert all(p.kind == "saddle_or_degenerate" for p in pts)

    def test_coordination_game_vertex_maxima_warn(self):
        # positive externalities: both pure states are strict maxima
        g = make_congestion_game([[0.0, 1.0]] * 2)
        with pytest.warns(LandscapeWarning, match="pure configuration"):
            pts = find_critical_points_2action(g)
        kinds = {round(p.x[0], 6): p.kind for p in pts}
        assert kinds[0.0] == "local_max"
        assert kinds[1.0] == "local_max"
        assert kinds[0.5] == "local_min"

    def test_to_dict_round_trips_through_json(self, game4):
        pts = find_critical_points_2action(game4)
        payload = json.dumps([critical_point_to_dict(p) for p in pts])
        back = json.loads(payload)
        assert back[2]["kind"] == "local_max"
        assert back[2]["is_ess"] is True
        assert back[2]["x"][0] == pytest.approx(0.75, abs=1e-6)


class TestMultiStartFinder:
    def test_agrees_with_scanner_on_reference_game(self, game4):
        scan = find_critical_points_2action(game4)
        multi = find_critical_points_multi(game4, seed=0)
        assert len(multi) == len(scan)
        for a, b in zip(scan, sorted(multi, key=lambda p: p.x[0])):
            assert abs(a.x[0] - b.x[0]) < 1e-6
            assert a.is_ess == b.is_ess

    def test_anticoordination_barycenter_is_ess(self):
        g = make_congestion_game([[1.0, -1.0]] * 3)
        pts = find_critical_points_multi(g, seed=0)
        interior = [p for p in pts if not p.on_boundary]
        assert len(interior) >= 1
        best = min(interior, key=lambda p: np.max(np.abs(p.x - 1 / 3)))
        assert np.max(np.abs(best.x - 1 / 3)) < 1e-6
        assert best.kind == "local_max" and best.is_ess

    def test_coordination_three_actions_vertices_are_maxima(self):
        g = make_congestion_game([[0.0, 1.0]] * 3)
        with pytest.warns(LandscapeWarning, match="pure configuration"):
            pts = find_critical_points_multi(g, seed=1)
        vertex_kinds = [p.kind for p in pts if np.max(p.x) > 1.0 - 1e-9]
        assert len(vertex_kinds) == 3
        assert all(k == "local_max" for k in vertex_kinds)

    def test_requires_potential(self, game4):
        bare = Game(m=game4.m, rewards=game4.rewards, name="bare")
        with pytest.raises(ValueError, match="potential"):
            find_critical_points_multi(bare)

    @pytest.mark.parametrize(
        "kwargs",
        [{"starts": 0}, {"starts": -2}, {"step_tol": 0.0}, {"step_tol": -1e-5}, {"grid": 7}],
        ids=["starts=0", "starts=-2", "step_tol=0", "step_tol<0", "grid=7"],
    )
    def test_rejects_bad_search_settings(self, game4, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            find_critical_points_multi(game4, **kwargs)

    def test_debug_log_counts_dropped_candidates(self, caplog, monkeypatch):
        # actions 0 and 1 earn the same constant, so the edge between them floods
        g = make_congestion_game([[1.0], [1.0], [1.0, -1.0], [1.0, -1.0]])

        def failing_solve(*args, **kwargs):
            raise ValueError("no solve")

        # the finder imports scipy.optimize when it runs
        monkeypatch.setattr(optimize, "least_squares", failing_solve)
        with caplog.at_level(logging.DEBUG, logger="imitodyn.landscape"), pytest.warns(LandscapeWarning):
            pts = find_critical_points_multi(g, starts=5, seed=0)
        # with every face solve failing only vertices and edge roots remain
        assert all(np.count_nonzero(p.x) <= 2 for p in pts)
        assert (
            f"5 starts, 5 faces, {len(pts)} points, 1 flooded edges, 25 least_squares solves raised, "
            "compiled potential" in caplog.text
        )

    def test_face_equilibrium_is_the_ess(self):
        # action 2 always earns -1, so the only ESS lies on the edge of actions 0 and 1
        g = make_congestion_game([[1.0, -1.0], [1.0, -1.0], [-1.0]])
        ess = [p for p in find_critical_points_multi(g, starts=8, seed=0) if p.is_ess]
        assert len(ess) == 1
        assert np.max(np.abs(ess[0].x - [0.5, 0.5, 0.0])) < 1e-9
        assert ess[0].on_boundary and ess[0].kind == "local_max"

    @pytest.mark.parametrize("m", [3, 4])
    def test_symmetric_congestion_lists_every_face_barycentre(self, m):
        # congestion3's game and its 4-action analogue: each face's barycentre
        # is a critical point, the full simplex's the only ESS
        pts = find_critical_points_multi(make_congestion_game([[1.0, -1.0]] * m), starts=48, seed=0)
        assert len(pts) == 2**m - 1
        for p in pts:
            face = p.x > 0.0
            assert np.max(np.abs(p.x[face] - 1.0 / np.count_nonzero(face))) < 1e-12
        by_size = {k: [p for p in pts if np.count_nonzero(p.x) == k] for k in range(1, m + 1)}
        assert all(p.kind == "local_min" for p in by_size[1])
        assert all(p.x[p.x > 0.0].tolist() == [0.5, 0.5] for p in by_size[2])
        assert all(p.kind == "saddle_or_degenerate" and not p.is_ess for k in range(2, m) for p in by_size[k])
        (centre,) = by_size[m]
        assert centre.kind == "local_max" and centre.is_ess and not centre.on_boundary
        assert [p.is_ess for p in pts].count(True) == 1


def _affine_face_solutions(c, b):
    """For r_a = c_a - b_a x_a, the critical point of the potential on each
    face S of two or more actions: x_a = (c_a - mu) / b_a with
    mu = (sum_S c_a / b_a - 1) / sum_S 1 / b_a."""
    m = len(c)
    for k in range(2, m + 1):
        for face in itertools.combinations(range(m), k):
            s = list(face)
            mu = (np.sum(c[s] / b[s]) - 1.0) / np.sum(1.0 / b[s])
            x = np.zeros(m)
            x[s] = (c[s] - mu) / b[s]
            yield x, x[s]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda m: st.tuples(
            st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m),
            st.lists(st.floats(0.5, 4.0), min_size=m, max_size=m),
        )
    )
)
def test_multi_finder_matches_affine_closed_form(cb):
    c, b = np.array(cb[0]), np.array(cb[1])
    inside = []
    for x, on_face in _affine_face_solutions(c, b):
        assume(abs(np.min(on_face)) >= 1e-3)  # each face solution clear of its face's boundary
        if np.min(on_face) > 0.0:
            inside.append(x)
    game = make_congestion_game([[ca, -ba] for ca, ba in zip(c, b)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = find_critical_points_multi(game, starts=8, seed=0)
    found = [p.x for p in pts if np.max(p.x) < 1.0]
    assert len(found) == len(inside)
    for x in inside:
        assert min(np.max(np.abs(x - y)) for y in found) < 1e-7
    ess = [p for p in pts if p.is_ess]
    assert len(ess) == 1
    assert ess[0].phi == max(p.phi for p in pts)


def _reference_game(game: Game) -> Game:
    """The same potential and gradient as plain callables, which the
    finders evaluate through game.potential rather than compiled."""
    return Game(
        m=game.m,
        rewards=game.rewards,
        potential=lambda x: game.potential(x),
        potential_gradient=lambda x: game.potential_gradient(x),
    )


def _assert_same_points(compiled, reference):
    assert len(compiled) == len(reference)
    for a, b in zip(compiled, reference):
        assert np.array_equal(a.x, b.x)
        assert (a.phi, a.kind, a.is_ne, a.is_ess, a.on_boundary) == (
            b.phi, b.kind, b.is_ne, b.is_ess, b.on_boundary
        )


class TestCompiledPotentialPath:
    @pytest.mark.parametrize(
        "polys",
        [[[1.0, -1.0]] * 3, [[0.0, 1.0]] * 3],  # configs/congestion3.json's game, coordination
        ids=["congestion3", "coordination3"],
    )
    def test_multi_finder_matches_reference_path(self, polys):
        game = make_congestion_game(polys)
        reference = _reference_game(game)
        assert potential_pair(game) is not None and potential_pair(reference) is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = find_critical_points_multi(game, starts=8, seed=3)
            want = find_critical_points_multi(reference, starts=8, seed=3)
        _assert_same_points(got, want)

    def test_scanner_matches_reference_path(self, game4):
        _assert_same_points(
            find_critical_points_2action(game4), find_critical_points_2action(_reference_game(game4))
        )


class TestEssSet:
    def test_reference_game(self, game4):
        pts = find_critical_points_2action(game4)
        ess = ess_set(pts)
        assert len(ess) == 1
        assert abs(ess[0].x[0] - 0.75) < 1e-6

    def test_warns_when_empty(self):
        pts = [
            CriticalPoint(
                x=np.array([0.0, 1.0]),
                phi=0.0,
                kind="local_min",
                is_ne=False,
                is_ess=False,
                on_boundary=True,
            )
        ]
        with pytest.warns(LandscapeWarning, match="no evolutionarily stable"):
            assert ess_set(pts) == []

    def test_vertex_maxima_kept_but_flagged(self):
        g = make_congestion_game([[0.0, 1.0]] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pts = find_critical_points_2action(g)
        with pytest.warns(LandscapeWarning, match="pure configuration"):
            ess = ess_set(pts)
        assert {round(p.x[0], 6) for p in ess} == {0.0, 1.0}


class TestOccupationAndExit:
    def test_time_near_set_hand_case(self):
        traj = _traj_from_counts([0.0, 1.0, 2.0], [[3, 1], [2, 2], [2, 2]], n=4)
        frac = time_near_set(traj, [np.array([0.75, 0.25])], gamma=0.05)
        assert frac == 0.5

    def test_time_near_set_union_of_targets(self):
        traj = _traj_from_counts([0.0, 1.0, 2.0], [[3, 1], [2, 2], [2, 2]], n=4)
        targets = [np.array([0.75, 0.25]), np.array([0.5, 0.5])]
        assert time_near_set(traj, targets, gamma=0.05) == 1.0

    def test_time_near_set_single_sample_is_indicator(self):
        near = _traj_from_counts([0.0], [[3, 1]], n=4)
        far = _traj_from_counts([0.0], [[0, 4]], n=4)
        center = [np.array([0.75, 0.25])]
        assert time_near_set(near, center, gamma=0.05) == 1.0
        assert time_near_set(far, center, gamma=0.05) == 0.0

    def test_time_near_set_rejects_bad_gamma(self):
        traj = _traj_from_counts([0.0, 1.0], [[2, 2], [2, 2]], n=4)
        with pytest.raises(ValueError, match="gamma"):
            time_near_set(traj, [np.array([0.5, 0.5])], gamma=0.0)

    def test_exit_time_hand_case(self):
        traj = _traj_from_counts(
            [0.0, 1.0, 3.0, 5.0], [[25, 25], [38, 12], [39, 11], [45, 5]], n=50
        )
        # enters the 0.05 core at t=1, first sits >= 0.1 away at t=5
        assert exit_time(traj, np.array([0.75, 0.25]), delta=0.1) == 4.0

    def test_exit_time_censored_and_absent(self):
        center = np.array([0.75, 0.25])
        stays = _traj_from_counts([0.0, 1.0, 3.0], [[25, 25], [38, 12], [39, 11]], n=50)
        assert exit_time(stays, center, delta=0.1) is None
        never = _traj_from_counts([0.0, 2.0], [[25, 25], [25, 25]], n=50)
        assert exit_time(never, center, delta=0.1) is None

    def test_exit_time_entry_needs_half_delta(self):
        # closest approach 0.06 >= delta/2, so the dwell never starts
        traj = _traj_from_counts([0.0, 1.0, 2.0], [[25, 25], [34, 16], [10, 40]], n=50)
        assert exit_time(traj, np.array([0.75, 0.25]), delta=0.1) is None

    def test_exit_time_rejects_bad_delta(self):
        traj = _traj_from_counts([0.0, 1.0], [[2, 2], [2, 2]], n=4)
        with pytest.raises(ValueError, match="delta"):
            exit_time(traj, np.array([0.5, 0.5]), delta=-1.0)

    def test_unknown_norm_rejected(self):
        traj = _traj_from_counts([0.0, 1.0], [[2, 2], [2, 2]], n=4)
        with pytest.raises(ValueError, match="norm"):
            time_near_set(traj, [np.array([0.5, 0.5])], gamma=0.1, norm="manhattan")


@pytest.fixture(scope="module")
def report(game4, arctan1):
    spec = RunSpec(
        game=game4,
        rule=arctan1,
        cfg=SimConfig(horizon=5.0, seed=derive_seed(77)),
        x0=PopulationType.from_fractions(100, [0.5, 0.5]),
    )
    trajs = ensemble(spec, num_runs=8, base_seed=77)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = find_critical_points_2action(game4)
    return metastability_report(trajs, pts, game4, arctan1)


class TestMetastabilityReport:

    def test_structure(self, report):
        assert set(report) == {"critical_points", "norms", "per_run", "aggregates", "warnings"}
        assert len(report["per_run"]) == 8
        run = report["per_run"][0]
        assert {"seed", "n", "absorbed_at", "time_near_ess", "exit_times"} <= set(run)
        assert "0.05" in run["time_near_ess"]

    def test_drift_condition_holds_for_reference_game(self, report):
        assert report["aggregates"]["drift_violations"] == 0
        ratio = report["aggregates"]["observed_min_drift_ratio"]
        assert ratio is None or ratio >= 1.0

    def test_occupation_medians_populated(self, report):
        med = report["aggregates"]["median_time_near_ess"]["0.05"]
        assert 0.0 <= med <= 1.0

    def test_json_serializable(self, report):
        payload = json.dumps(report)
        assert "observed_min_drift_ratio" in payload

    def test_exit_aggregates_cover_interior_points(self, report):
        rows = report["aggregates"]["exit_times"]
        # two interior critical points (saddle and peak) at one delta each
        assert {r["kind"] for r in rows} == {"saddle_or_degenerate", "local_max"}
        for r in rows:
            assert r["median_dwell"] is None or r["median_dwell"] > 0.0
            assert 0.0 <= r["censored_fraction"] <= 1.0
