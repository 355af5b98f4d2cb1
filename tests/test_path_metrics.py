"""The path metrics against their whole-array reference, bit for bit.

time_near_set, exit_time, metastability_report and kurtz_deviation read
each distinct state of a path once (landscape._Path) and build the
deviation's grid values without a union grid; conftest keeps the versions
that worked on the whole fraction array as the reference.  Every float
must come out with the same bits at m = 2, 3 and >= 8 (where numpy's
row norms sum pairwise), on paths that are absorbed, recorded at a stride,
or hold repeated jump times, with centres inside the simplex and on its
boundary.  landscape._median must equal np.median.
"""

import functools
import json
import warnings

import numpy as np
import pytest
from conftest import (
    _reference_distances,
    reference_exit_time,
    reference_kurtz_deviation,
    reference_metastability_report,
    reference_time_near_set,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imitodyn import (
    OdeTrajectory,
    PopulationType,
    RunSpec,
    SimConfig,
    Trajectory,
    arctan_rule,
    ensemble,
    example4_game,
    exit_time,
    find_critical_points_multi,
    kurtz_deviation,
    make_congestion_game,
    metastability_report,
    replicator_rule,
    reward_bounds,
    time_near_set,
)
from imitodyn.landscape import _median, _Path

MS = st.sampled_from([2, 2, 3, 8, 11])


def make_path(m: int, n: int, rows: int, seed: int, kind: str) -> Trajectory:
    """A path of `rows` rows that each sum to n, from t = 0.

    kind "walk": one player moves per row, as the complete engine records
    every jump; "stride": rows on a fixed time grid, any state to any
    other; "ties": a walk whose jump times repeat; "absorbed": a walk that
    ends on a vertex at absorbed_at."""
    rng = np.random.default_rng(seed)
    counts = np.empty((rows, m), dtype=np.int64)
    counts[0] = rng.multinomial(n, rng.dirichlet(np.ones(m)))
    for r in range(1, rows):
        c = counts[r - 1].copy()
        if kind == "stride":
            c = rng.multinomial(n, (c + 0.5) / (n + 0.5 * m))
        else:
            i = rng.choice(np.flatnonzero(c))
            c[i] -= 1
            c[rng.integers(m)] += 1
        counts[r] = c
    if kind == "stride":
        times = np.arange(rows) * 0.1
    else:
        times = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0, rows - 1))])
    if kind == "ties":
        # about half the rows take the time of the row before
        times[1:] = times[np.arange(1, rows) - rng.integers(0, 2, rows - 1)]
    absorbed_at = None
    if kind == "absorbed":
        counts[-1] = 0
        counts[-1, rng.integers(m)] = n
        absorbed_at = float(times[-1])
    return Trajectory(
        times=times, counts=counts, n=n, absorbed_at=absorbed_at,
        absorbing_action=int(np.argmax(counts[-1])) if absorbed_at is not None else None,
        event_count=rows - 1, meta={"seed": seed, "lambda": 1.0},
    )


def centers(m: int, rng: np.random.Generator, traj: Trajectory) -> list[np.ndarray]:
    """A vertex, a point on a face, an interior point and one of the
    path's own states."""
    vertex = np.zeros(m)
    vertex[rng.integers(m)] = 1.0
    face = rng.dirichlet(np.ones(m))
    face[rng.integers(m)] = 0.0
    face /= face.sum()
    own = traj.counts[rng.integers(len(traj.times))] / traj.n
    return [vertex, face, rng.dirichlet(np.ones(m)), own]


PATHS = dict(
    m=MS,
    n=st.one_of(st.integers(1, 12), st.integers(13, 3000)),
    rows=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["walk", "stride", "ties", "absorbed"]),
)


def same(a, b) -> bool:
    return repr(a) == repr(b)


@settings(max_examples=150, deadline=None)
@given(**PATHS, gamma=st.floats(0.01, 0.6), norm=st.sampled_from(["euclidean", "sup"]))
def test_time_near_set_equals_reference(m, n, rows, seed, kind, gamma, norm):
    traj = make_path(m, n, rows, seed, kind)
    targets = centers(m, np.random.default_rng(seed), traj)
    for k in (1, 2, 4):
        assert same(time_near_set(traj, targets[:k], gamma, norm), reference_time_near_set(traj, targets[:k], gamma, norm))


@settings(max_examples=150, deadline=None)
@given(**PATHS, delta=st.floats(0.02, 0.8), norm=st.sampled_from(["euclidean", "sup"]))
def test_exit_time_equals_reference(m, n, rows, seed, kind, delta, norm):
    traj = make_path(m, n, rows, seed, kind)
    for center in centers(m, np.random.default_rng(seed), traj):
        assert same(exit_time(traj, center, delta, norm), reference_exit_time(traj, center, delta, norm))


@pytest.mark.parametrize("kind", ["walk", "stride"])
@pytest.mark.parametrize("m", [2, 3, 8, 9, 16, 40])
def test_state_distances_equal_the_rows_of_the_whole_array(m, kind):
    # from m = 8 on numpy sums each row's squares pairwise; a norm taken
    # per distinct state must still equal the norm of each row of the path
    traj = make_path(m, 10**6, 500, m, kind)
    path = _Path(traj)
    for center in centers(m, np.random.default_rng(m), traj):
        for norm in ("euclidean", "sup"):
            got = path.distances(center, norm)[path.index]
            assert got.tobytes() == _reference_distances(traj.fractions, center, norm).tobytes()


def make_flow(m: int, seed: int, end: float, dt: float) -> OdeTrajectory:
    rng = np.random.default_rng(seed + 1)
    times = np.arange(int(end / dt) + 1) * dt
    return OdeTrajectory(times=times, states=rng.dirichlet(np.ones(m), times.size))


@settings(max_examples=200, deadline=None)
@given(
    **PATHS,
    dt=st.sampled_from([0.05, 0.3, 1.0, 7.0]),
    cut=st.sampled_from(["inside", "end", "past"]),
)
def test_kurtz_deviation_equals_reference(m, n, rows, seed, kind, dt, cut):
    traj = make_path(m, n, rows, seed, kind)
    end = float(traj.times[-1])
    if cut == "inside":  # T between two recorded times, or at one
        T = 0.5 * end if end > 0.0 else 1.0
    elif cut == "end":
        T = end if end > 0.0 else 1.0
    else:  # past the path: only an absorbed path covers it
        T = end + 0.7 * dt + 0.1
    ode = make_flow(m, seed, T + 2.0 * dt, dt)
    if T > end and traj.absorbed_at is None:
        with pytest.raises(ValueError, match="sample path covers only"):
            kurtz_deviation(traj, ode, T)
        return
    assert same(kurtz_deviation(traj, ode, T), reference_kurtz_deviation(traj, ode, T))
    # a flow that ends within 1e-9 of T, and one whose knots include T
    short = OdeTrajectory(ode.times[ode.times <= T].copy(), ode.states[ode.times <= T])
    short.times[-1] = max(short.times[-1], T - 5e-10)
    assert same(kurtz_deviation(traj, short, T), reference_kurtz_deviation(traj, short, T))


def test_kurtz_deviation_with_jumps_on_the_flow_knots():
    traj = make_path(2, 50, 40, 3, "stride")  # jumps at 0.1 k
    ode = make_flow(2, 3, 5.0, 0.1)  # knots at 0.1 k
    for T in (1.0, 2.05, 3.9):
        assert same(kurtz_deviation(traj, ode, T), reference_kurtz_deviation(traj, ode, T))


def test_kurtz_deviation_reads_the_last_of_equal_times():
    # the step path holds (1, 0) for no time at t = 1, and the flow's first
    # knot at t = 1 is overridden by its second: neither value may count
    stoch = Trajectory(
        times=np.array([0.0, 1.0, 1.0, 2.0]), counts=np.array([[1, 1], [2, 0], [1, 1], [1, 1]]),
        n=2, absorbed_at=None, absorbing_action=None, event_count=3,
    )
    ode = OdeTrajectory(
        times=np.array([0.0, 1.0, 1.0, 2.0]), states=np.array([[0.5, 0.5], [0.9, 0.1], [0.4, 0.6], [0.5, 0.5]])
    )
    assert kurtz_deviation(stoch, ode, 2.0) == reference_kurtz_deviation(stoch, ode, 2.0) == 0.09999999999999998


@functools.cache
def landscape(m: int):
    if m == 2:
        game = example4_game()
        rule = arctan_rule(1.0)
    else:
        game = make_congestion_game([[1.0 + 0.1 * a, -1.0] for a in range(m)])
        rule = replicator_rule(*reward_bounds(game), 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return game, rule, find_critical_points_multi(game)


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([2, 3, 8]),
    n=st.integers(4, 400),
    runs=st.integers(1, 5),
    rows=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=2, n=4, runs=3, rows=1, seed=0)
def test_metastability_report_equals_reference(m, n, runs, rows, seed):
    game, rule, points = landscape(m)
    kinds = ["walk", "stride", "ties", "absorbed"]
    trajs = [make_path(m, n, rows, seed + r, kinds[(seed + r) % 4]) for r in range(runs)]
    args = (trajs, points, game, rule, (0.05, 0.3), (0.1, 0.4))
    got, want = metastability_report(*args), reference_metastability_report(*args)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_metastability_report_on_engine_paths():
    game, rule, points = landscape(2)
    spec = RunSpec(game=game, rule=rule, cfg=SimConfig(horizon=60.0), x0=PopulationType.from_fractions(200, [0.2, 0.8]))
    trajs = ensemble(spec, num_runs=6, base_seed=9)
    args = (trajs, points, game, rule, (0.05,), (0.1,))
    assert json.dumps(metastability_report(*args)) == json.dumps(reference_metastability_report(*args))


def test_metastability_report_reads_any_iterable_once():
    game, rule, points = landscape(2)
    spec = RunSpec(game=game, rule=rule, cfg=SimConfig(horizon=60.0), x0=PopulationType.from_fractions(200, [0.2, 0.8]))
    runs = ensemble(spec, num_runs=4, base_seed=9)
    args = (points, game, rule, (0.05,), (0.1,))
    assert json.dumps(metastability_report(iter(runs), *args)) == json.dumps(metastability_report(runs, *args))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(min_value=0.0), st.just(float("inf"))), min_size=1, max_size=30))
@example([1.0, float("inf")])
@example([float("inf"), 2.0, float("inf")])
@example([1.7976931348623157e308, 1.7976931348623157e308])
@example([3.0, 1.0, 2.0, 0.5])
def test_median_equals_np_median(values):
    with np.errstate(over="ignore"):  # np.median adds the middle two as _median does
        want = float(np.median(values))
    assert same(_median(values), want)
