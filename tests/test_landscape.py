import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from imitodyn import (
    CriticalPoint,
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
    find_critical_points_multi,
    make_congestion_game,
    metastability_report,
    time_near_set,
)

from conftest import numeric_critical_points

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
    """2-action games: both vertices and the one edge's scanned roots."""

    def test_reference_game_landscape(self, game4):
        pts = find_critical_points_multi(game4)
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
        for p in find_critical_points_multi(game4):
            assert p.x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_constant_potential_floods(self):
        # the edge is a continuum of rest points: it adds none, only a warning
        flat = make_congestion_game([[5.0], [5.0]])
        with pytest.warns(LandscapeWarning, match=r"non-isolated critical set: .* edge \(0, 1\)"):
            pts = find_critical_points_multi(flat)
        assert [p.x.tolist() for p in pts] == [[0.0, 1.0], [1.0, 0.0]]
        assert all(p.kind == "saddle_or_degenerate" for p in pts)

    def test_coordination_game_vertex_maxima_warn(self):
        # positive externalities: both pure states are strict maxima
        g = make_congestion_game([[0.0, 1.0]] * 2)
        with pytest.warns(LandscapeWarning, match="pure configuration"):
            pts = find_critical_points_multi(g)
        kinds = {round(p.x[0], 6): p.kind for p in pts}
        assert kinds[0.0] == "local_max"
        assert kinds[1.0] == "local_max"
        assert kinds[0.5] == "local_min"

    def test_to_dict_round_trips_through_json(self, game4):
        pts = find_critical_points_multi(game4)
        payload = json.dumps([critical_point_to_dict(p) for p in pts])
        back = json.loads(payload)
        assert back[2]["kind"] == "local_max"
        assert back[2]["is_ess"] is True
        assert back[2]["x"][0] == pytest.approx(0.75, abs=1e-6)


class TestMultiStartFinder:
    def test_anticoordination_barycenter_is_ess(self):
        g = make_congestion_game([[1.0, -1.0]] * 3)
        pts = find_critical_points_multi(g)
        interior = [p for p in pts if not p.on_boundary]
        assert len(interior) >= 1
        best = min(interior, key=lambda p: np.max(np.abs(p.x - 1 / 3)))
        assert np.max(np.abs(best.x - 1 / 3)) < 1e-6
        assert best.kind == "local_max" and best.is_ess

    def test_coordination_three_actions_vertices_are_maxima(self):
        g = make_congestion_game([[0.0, 1.0]] * 3)
        with pytest.warns(LandscapeWarning, match="pure configuration"):
            pts = find_critical_points_multi(g)
        vertex_kinds = [p.kind for p in pts if np.max(p.x) > 1.0 - 1e-9]
        assert len(vertex_kinds) == 3
        assert all(k == "local_max" for k in vertex_kinds)

    def test_face_equilibrium_is_the_ess(self):
        # action 2 always earns -1, so the only ESS lies on the edge of actions 0 and 1
        g = make_congestion_game([[1.0, -1.0], [1.0, -1.0], [-1.0]])
        ess = [p for p in find_critical_points_multi(g) if p.is_ess]
        assert len(ess) == 1
        assert np.max(np.abs(ess[0].x - [0.5, 0.5, 0.0])) < 1e-9
        assert ess[0].on_boundary and ess[0].kind == "local_max"

    @pytest.mark.parametrize("m", [3, 4])
    def test_symmetric_congestion_lists_every_face_barycentre(self, m):
        # congestion3's game and its 4-action analogue: each face's barycentre
        # is a critical point, the full simplex's the only ESS
        pts = find_critical_points_multi(make_congestion_game([[1.0, -1.0]] * m))
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
        pts = find_critical_points_multi(game)
    found = [p.x for p in pts if np.max(p.x) < 1.0]
    assert len(found) == len(inside)
    for x in inside:
        assert min(np.max(np.abs(x - y)) for y in found) < 1e-7
    ess = [p for p in pts if p.is_ess]
    assert len(ess) == 1
    assert ess[0].phi == max(p.phi for p in pts)


def _assert_reference_points_found(exact, reference, tol=1e-6):
    """Every point of the numeric reference search lies within tol of an
    exact point with the same kind and flags."""
    for p in reference:
        q = min(exact, key=lambda q: np.max(np.abs(q.x - p.x)))
        assert np.max(np.abs(q.x - p.x)) < tol, (p.x, [e.x for e in exact])
        assert (q.kind, q.is_ne, q.is_ess, q.on_boundary) == (p.kind, p.is_ne, p.is_ess, p.on_boundary)


class TestCompiledPotentialPath:
    """The exact search of a congestion game against the numeric search,
    which reads the game only through its potential and its rewards."""

    @pytest.mark.parametrize(
        "polys",
        [[[1.0, -1.0]] * 3, [[0.0, 1.0]] * 3],  # configs/congestion3.json's game, coordination
        ids=["congestion3", "coordination3"],
    )
    def test_multi_finder_matches_reference_path(self, polys):
        game = make_congestion_game(polys)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = find_critical_points_multi(game)
            want, _, _ = numeric_critical_points(game, starts=8, seed=3)
        assert len(got) == len(want) == 7
        _assert_reference_points_found(got, want)

    def test_scanner_matches_reference_path(self, game4):
        got = find_critical_points_multi(game4)
        want, _, _ = numeric_critical_points(game4)
        assert len(got) == len(want)
        _assert_reference_points_found(got, want)


class TestExactSearch:
    def test_example4_points_are_exact(self, game4):
        search = {}
        pts = find_critical_points_multi(game4, search=search)
        assert [p.x.tolist() for p in pts] == [[0.0, 1.0], [0.25, 0.75], [0.75, 0.25], [1.0, 0.0]]
        assert search == {"method": "exact", "faces": 1, "points": 4, "continuum_faces": []}

    def test_congestion3_points_and_kinds(self):
        third = 0.3333333333333333
        pts = find_critical_points_multi(make_congestion_game([[1.0, -1.0]] * 3))
        assert [(p.x.tolist(), p.kind, p.is_ne, p.is_ess) for p in pts] == [
            ([0.0, 0.0, 1.0], "local_min", False, False),
            ([0.0, 0.5, 0.5], "saddle_or_degenerate", False, False),
            ([0.0, 1.0, 0.0], "local_min", False, False),
            ([third, third, third], "local_max", True, True),
            ([0.5, 0.0, 0.5], "saddle_or_degenerate", False, False),
            ([0.5, 0.5, 0.0], "saddle_or_degenerate", False, False),
            ([1.0, 0.0, 0.0], "local_min", False, False),
        ]
        assert [p.on_boundary for p in pts] == [True, True, True, False, True, True, True]

    def test_draws_no_random_numbers(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("the exact search drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        game = make_congestion_game([[1.0, -1.0]] * 4)
        assert len(find_critical_points_multi(game)) == 15

    def test_tie_with_an_absent_action_is_degenerate(self):
        # on the edge of actions 0 and 1, mu = 1/2 = r_2(0): entering action 2
        # is flat to first order, so the edge midpoint is a NE but no maximum
        pts = find_critical_points_multi(make_congestion_game([[1.0, -1.0], [1.0, -1.0], [0.5]]))
        (mid,) = [p for p in pts if p.x.tolist() == [0.5, 0.5, 0.0]]
        assert mid.kind == "saddle_or_degenerate" and mid.is_ne and not mid.is_ess

    def test_constant_reward_fixes_mu(self):
        # action 0 earns 0.25 everywhere, so mu = 0.25 on the full face,
        # 1 - 3 x = 0.25 gives x_1 = x_2 = 0.25, and action 0 takes the rest
        pts = find_critical_points_multi(make_congestion_game([[0.25], [1.0, -3.0], [1.0, -3.0]]))
        (centre,) = [p for p in pts if not p.on_boundary]
        assert centre.x.tolist() == [0.5, 0.25, 0.25]
        # the constant action is flat: the face Hessian is diag(0, -3, -3)
        assert centre.kind == "local_max" and centre.is_ess

    @pytest.mark.parametrize(
        "polys, faces",
        [
            ([[1.0], [1.0], [1.5, -1.0]], [[0, 1], [0, 1, 2]]),  # two equal constants share the rest
            ([[0.0, 1.0], [0.0, 1.0], [0.5, -0.5]], [[0, 1, 2]]),  # (mu, mu, 1 - 2 mu) for every mu
        ],
        ids=["constants", "affine"],
    )
    def test_continuum_faces_warn_and_add_no_point(self, polys, faces):
        search = {}
        with pytest.warns(LandscapeWarning, match="non-isolated critical set") as rec:
            pts = find_critical_points_multi(make_congestion_game(polys), search=search)
        assert search["continuum_faces"] == faces
        assert sum("non-isolated" in str(w.message) for w in rec) == len(faces)
        assert not any(np.flatnonzero(p.x).tolist() in faces for p in pts)


def _reward_spread(game, p) -> float:
    r = game.rewards_at(p.x)[p.x > 0.0]
    return float(np.max(r) - np.min(r))


def _games(coefficients):
    polys = st.lists(coefficients, min_size=1, max_size=4)
    return st.integers(2, 5).flatmap(lambda m: st.lists(polys, min_size=m, max_size=m))


_GAMES = _games(st.floats(-3.0, 3.0))


def _exact_search(polys):
    game = make_congestion_game(polys)
    search = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        points = find_critical_points_multi(game, search=search)
    assume(not search["continuum_faces"])
    assert search["method"] == "exact" and search["points"] == len(points)
    return game, points


@settings(max_examples=60, deadline=None)
@given(_GAMES)
def test_exact_points_have_equal_rewards_on_their_support(polys):
    game, exact = _exact_search(polys)
    for p in exact:
        assert _reward_spread(game, p) <= 1e-10
        assert p.x.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(_GAMES)
@example([[0.0, 1e-6], [0.0]])  # rewards 1e-9 apart near (0.001, 0.999)
@example([[0.0, 0.0, 0.0, 1.0], [0.0]])  # a flat zero at a vertex
@example([[0.0], [0.0, 1.0], [5.877178349111224e-253]])  # an edge flat next to the game
@example([[0.0], [1e-08], [0.0, 1.0]])  # a least-squares minimum 5e-9 off zero
@example(  # r_2 flat to float precision: its face's rest point
    [[0.0], [1.5], [-2.67728703991979, 3.4073026265153546e-222], [-2.471909990523258, -2.1693918079729118],
     [0.0, -1.5571449059978648, -2.0]]
)
def test_numeric_reference_finds_no_other_point(polys):
    game, exact = _exact_search(polys)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference, flooded, _ = numeric_critical_points(game, starts=4, seed=0)
    # rewards within 1e-9 of each other along a whole edge flood the scan
    assume(not flooded)
    for p in reference:
        if _reward_spread(game, p) <= 1e-8:
            assert min(np.max(np.abs(q.x - p.x)) for q in exact) < 1e-6, (p.x, [q.x for q in exact])


class TestEssSet:
    def test_reference_game(self, game4):
        pts = find_critical_points_multi(game4)
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
            pts = find_critical_points_multi(g)
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
        pts = find_critical_points_multi(game4)
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

    def test_dwell_entry_and_censoring_are_reported_apart(self, game4, arctan1):
        runs = [
            _traj_from_counts([0.0, 1.0, 3.0], [[25, 75], [40, 60], [40, 60]], n=100),  # dwell 1
            _traj_from_counts([0.0, 2.0], [[50, 50], [60, 40]], n=100),  # never enters
            _traj_from_counts([0.0, 2.0], [[26, 74], [27, 73]], n=100),  # censored
            _traj_from_counts([0.0, 3.0], [[25, 75], [10, 90]], n=100),  # dwell 3
        ]
        pts = find_critical_points_multi(game4)
        rep = metastability_report(runs, pts, game4, arctan1)
        saddle = [e["exit_times"][0] for e in rep["per_run"]]
        assert [(e["center"], e["entered"], e["dwell"]) for e in saddle] == [
            ([0.25, 0.75], True, 1.0),
            ([0.25, 0.75], False, None),
            ([0.25, 0.75], True, None),
            ([0.25, 0.75], True, 3.0),
        ]
        saddle_agg, peak_agg = rep["aggregates"]["exit_times"]
        # over the three runs that entered, the censored one counts as +inf
        assert saddle_agg["median_dwell"] == 3.0
        assert saddle_agg["censored_fraction"] == 0.25
        assert saddle_agg["never_entered_fraction"] == 0.25
        assert peak_agg["never_entered_fraction"] == 1.0 and peak_agg["median_dwell"] is None
        # half or more of the entered runs censored: no median
        rep = metastability_report(runs[1:3] + runs[:1], pts, game4, arctan1)
        assert rep["aggregates"]["exit_times"][0]["median_dwell"] is None

