"""The trajectory CSV writer: the count path against the float path, and
both against the repr-joining reference writer.

`write_trajectory_csv(path, times, counts, n=n)` must write exactly the bytes
that the float path writes for `counts / n`, on synthetic grids and on every
shape of path the engines return, and both must write the bytes of
`loop_write_trajectory_csv`.  The float cells come from `output._reprs`,
which must equal `repr` on every double.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import loop_write_trajectory_csv
from hypothesis import example, given, settings
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
from imitodyn.output import _reprs, _reprs_fast, write_json


def csv_bytes(tmp_path, name, times, states, n=None):
    path = tmp_path / name
    write_trajectory_csv(str(path), times, states, n=n)
    return path.read_bytes()


def both_paths(tmp_path, times, counts, n):
    return csv_bytes(tmp_path, "count.csv", times, counts, n=n), csv_bytes(tmp_path, "float.csv", times, counts / n)


def reference_bytes(tmp_path, times, states, n=None):
    path = tmp_path / "reference.csv"
    loop_write_trajectory_csv(str(path), times, states, n=n)
    return path.read_bytes()


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
    assert count == flt == reference_bytes(tmp_path, times, counts, 2500)


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
        assert count == flt == reference_bytes(tmp_path, traj.times, traj.counts, traj.n), name
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


def assert_reprs(values):
    x = np.asarray(values, dtype=float)
    cells = _reprs(x)
    assert cells.dtype == np.uint8 and cells.shape[0] == x.size
    want = [repr(v).encode() for v in x.tolist()]
    assert cells.shape[1] == max(map(len, want), default=0)
    assert [bytes(row) for row in cells] == [w.ljust(cells.shape[1], b"\0") for w in want]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
@example([float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, 2.2250738585072014e-308, -1.5])
def test_reprs_equal_repr(values):
    assert_reprs(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=40))
def test_reprs_equal_repr_in_positional_range(values):
    assert_reprs(values)


POWERS_OF_TEN = 10.0 ** np.arange(-6, 18)
FIXED = {
    "powers_of_two": 2.0 ** np.arange(-30, 61),
    "powers_of_ten": POWERS_OF_TEN,
    "next_powers_of_ten": np.concatenate([np.nextafter(POWERS_OF_TEN, np.inf), np.nextafter(POWERS_OF_TEN, -np.inf)]),
    "range_ends": [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0), np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf)],
    # short decimals; the dyadic ones (0.375, 0.625, ...) lie exactly halfway
    # between their shorter roundings
    "short_decimals": [0.5, 0.25, 0.375, 0.125, 0.625, 0.0625, 2.5, 12.5, 0.1, 0.3, 0.7, 1.1, 1234.5678],
    "near_2_53": 2.0**53 + np.arange(-20, 21),
    "near_2_53_over_10": (2.0**53 + np.arange(-20, 21)) / 10,
    "last_digit_17": [0.30000000000000004, 1.0000000000000002, 9007199254740993 / 2**53, 123456789012345.67],
}


@pytest.mark.parametrize("name", list(FIXED))
def test_reprs_on_fixed_values(name):
    assert_reprs(FIXED[name])


def test_reprs_of_the_path_kinds():
    rng = np.random.default_rng(5)
    n = rng.integers(1, 5000, 2000)
    assert_reprs(np.concatenate([
        np.cumsum(rng.exponential(1e-3, 3000)),  # jump times
        np.arange(4001) * 0.05,  # stride and flow grids
        rng.integers(0, n + 1) / n,  # c / n
        rng.integers(0, 10**6, 2000) / 1000,  # three decimals
        10.0 ** rng.uniform(-12.0, 38.0, 2000),  # every exponent form
        rng.integers(0, 2**63, 2000).view(float),  # any bits
    ]))


def test_reprs_fast_path_decides_ordinary_values():
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.random(5000) * 100.0, np.cumsum(rng.exponential(1e-3, 5000)) + 1.0])
    x = x[np.frexp(x)[0] != 0.5]  # powers of two go to repr
    out = np.zeros((x.size, 3), np.uint64)
    assert _reprs_fast(x, out).size == 0


def counts_path(seed, m, n, rows):
    """rows random compositions of n into m parts, at increasing times from 0."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, n + 1, size=(rows, m - 1)), axis=1)
    counts = np.diff(np.column_stack([np.zeros(rows, np.int64), cuts, np.full(rows, n)]), axis=1)
    times = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0 / min(n, 10**6), size=max(rows - 1, 0)))])[:rows]
    return times, counts


CHUNK = 7


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 2])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 9, 1600, 2**31 + 11, 2**53])
def test_writer_bytes_equal_reference(tmp_path, rows, m, n):
    times, counts = counts_path(rows * 1000 + m * 10 + n % 7, m, n, rows)
    with mock.patch.object(output_mod, "_CHUNK", CHUNK):
        count, flt = both_paths(tmp_path, times, counts, n)
    assert count == flt == reference_bytes(tmp_path, times, counts, n)
    assert count.count(b"\n") == rows + 1


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 2])
@pytest.mark.parametrize("m", [2, 3, 6])
def test_float_writer_bytes_equal_reference(tmp_path, rows, m):
    rng = np.random.default_rng(rows + 100 * m)
    times = np.arange(rows) * 0.01
    states = rng.dirichlet(np.ones(m), size=rows)
    states[::3, 0] = 0.0  # on a face
    states[1::4, -1] = 10.0 ** rng.uniform(-30.0, -3.0, states[1::4].shape[0])  # exponent form
    with mock.patch.object(output_mod, "_CHUNK", CHUNK):
        got = csv_bytes(tmp_path, "float.csv", times, states)
    assert got == reference_bytes(tmp_path, times, states)


def writer_peak(tmp_path, times, states, n=None) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        write_trajectory_csv(str(tmp_path / "peak.csv"), times, states, n=n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m, n", [(2, 2500), (3, 900), (2, None), (4, None)])
def test_writer_peak_does_not_grow_with_rows(tmp_path, m, n):
    peaks = []
    with mock.patch.object(output_mod, "_CHUNK", 1024):
        for blocks in (2, 16):
            times, counts = counts_path(blocks, m, n or 1000, blocks * 1024)
            states = counts if n else counts / 1000
            peaks.append(writer_peak(tmp_path, times, states, n=n))
    # the input's own size grows 8-fold; the writer's working set must not
    assert peaks[1] <= 1.1 * peaks[0] + 64 * 1024, peaks
