"""The trajectory CSV writer: the count path against the float path.

`write_trajectory_csv(path, times, counts, n=n)` must write exactly the bytes
that the float path writes for `counts / n`, on synthetic grids and on every
shape of path the engines return.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imitodyn.engine as engine_mod
import imitodyn.output as output_mod
from imitodyn import (
    Configuration,
    PopulationType,
    SimConfig,
    arctan_rule,
    erdos_renyi,
    example4_game,
    make_congestion_game,
    replicator_rule,
    reward_bounds,
    run_summary,
    simulate_complete,
    simulate_network,
    square_lattice,
    write_trajectory_csv,
)
from imitodyn.output import write_json


def csv_bytes(tmp_path, name, times, states, n=None):
    path = tmp_path / name
    write_trajectory_csv(str(path), times, states, n=n)
    return path.read_bytes()


def both_paths(tmp_path, times, counts, n):
    return csv_bytes(tmp_path, "count.csv", times, counts, n=n), csv_bytes(tmp_path, "float.csv", times, counts / n)


def random_path(seed, m, n, rows):
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, rng.dirichlet(np.ones(m)), size=rows)
    times = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0 / n, size=rows - 1))])
    return times, counts


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 4),
    # small n take the per-count cache, large n (more counts than cells) not
    n=st.one_of(st.integers(1, 10), st.integers(11, 5000)),
    rows=st.sampled_from([1, 6, 7, 8, 20]),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_path_bytes_equal_float_path(tmp_path_factory, m, n, rows, seed):
    times, counts = random_path(seed, m, n, rows)
    with mock.patch.object(output_mod, "_CHUNK", 7):  # 20 rows span three blocks
        count, flt = both_paths(tmp_path_factory.mktemp("csv"), times, counts, n)
    assert count == flt
    assert count.count(b"\n") == rows + 1


@pytest.mark.parametrize("m", [2, 3])
def test_count_path_past_one_chunk(tmp_path, m):
    times, counts = random_path(m, m, 2500, output_mod._CHUNK + 3)
    count, flt = both_paths(tmp_path, times, counts, 2500)
    assert count == flt


def test_count_path_rejects_counts_off_the_population(tmp_path):
    times = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="sum to n = 10"):
        write_trajectory_csv(str(tmp_path / "a.csv"), times, np.array([[4, 6], [5, 6]]), n=10)
    with pytest.raises(ValueError, match="non-negative"):
        write_trajectory_csv(str(tmp_path / "a.csv"), times, np.array([[4, 6], [-1, 11]]), n=10)


def _paths():
    g4, arctan = example4_game(), arctan_rule(1.0)
    g3 = make_congestion_game([[1.0, -1.0]] * 3)
    rep3 = replicator_rule(*reward_bounds(g3), 0.01)
    yield "absorbed_m2", simulate_complete(
        g4, arctan, PopulationType.from_fractions(12, [0.25, 0.75]), SimConfig(horizon=1e4, seed=0)
    )
    yield "unabsorbed_m3", simulate_complete(
        g3, rep3, PopulationType.from_fractions(90, [0.6, 0.3, 0.1]), SimConfig(horizon=5.0, seed=1)
    )
    with mock.patch.object(engine_mod, "EVENT_RECORD_CAP", 40):
        yield "capped_then_stride_m2", simulate_complete(
            g4, arctan, PopulationType.from_fractions(300, [0.5, 0.5]),
            SimConfig(horizon=40.0, seed=2, record_stride=1.0),
        )
        yield "capped_then_stride_m3", simulate_complete(
            g3, rep3, PopulationType.from_fractions(90, [0.6, 0.3, 0.1]),
            SimConfig(horizon=20.0, seed=3, record_stride=0.5),
        )
    jumps = SimConfig(horizon=5.0, seed=4, record_stride=0.25, record_jumps=True)
    yield "network_jumps_m2", simulate_network(
        square_lattice(10), g4, arctan, Configuration(np.array([0, 1] * 50), 2), jumps
    )
    yield "network_jumps_m3", simulate_network(
        erdos_renyi(90, 0.08, seed=3), g3, rep3, Configuration(np.array([0, 1, 2] * 30), 3), jumps
    )


def test_engine_paths_write_the_same_bytes_from_counts(tmp_path):
    shapes = []
    for name, traj in _paths():
        shapes.append(name)
        count, flt = both_paths(tmp_path, traj.times, traj.counts, traj.n)
        assert count == flt, name
        assert (traj.absorbed_at is not None) == name.startswith("absorbed")
        assert ("stride_from" in traj.meta) == name.startswith("capped")
        assert count.count(b"\n") == len(traj.times) + 1
        assert run_summary(traj)["final_state"] == [float(v) for v in traj.fractions[-1]]
    assert len(shapes) == 6


@pytest.mark.parametrize("bad", [float("nan"), np.bool_(True)])
def test_write_json_that_fails_leaves_no_partial_artifact(tmp_path, bad):
    path = tmp_path / "report.json"
    report = {"a": list(range(500)), "z": bad}
    with pytest.raises((ValueError, TypeError)):
        write_json(str(path), report)
    assert not path.exists()
    write_json(str(path), {"a": 1})
    before = path.read_bytes()
    with pytest.raises((ValueError, TypeError)):
        write_json(str(path), report)
    assert path.read_bytes() == before == b'{\n  "a": 1\n}\n'
