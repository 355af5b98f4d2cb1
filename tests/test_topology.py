import itertools
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imitodyn.topology as topology_mod
from imitodyn import Graph, complete, erdos_renyi, from_edge_list, square_lattice


def _reference_erdos_renyi(n, p, seed):
    """The per-node list builder that erdos_renyi replaced."""
    rng = np.random.default_rng(seed)
    adj = [[] for _ in range(n)]
    for u in range(n - 1):
        for w in (np.flatnonzero(rng.random(n - u - 1) < p) + u + 1).tolist():
            adj[u].append(w)
            adj[w].append(u)
    for u in range(n):
        if not adj[u]:
            w = int(rng.integers(n - 1))
            w += w >= u
            adj[u].append(w)
            adj[w].append(u)
    return [np.unique(np.asarray(a, dtype=np.int64)) for a in adj]


def _reference_square_lattice(side, periodic):
    """The per-node loop builder that square_lattice replaced."""
    nb = []
    for v in range(side * side):
        r, c = divmod(v, side)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            rr, cc = r + dr, c + dc
            if periodic:
                rr %= side
                cc %= side
            elif not (0 <= rr < side and 0 <= cc < side):
                continue
            out.append(rr * side + cc)
        nb.append(np.sort(np.asarray(out, dtype=np.int64)))
    return nb


def _same_rows(graph, reference):
    assert len(graph.neighbors) == len(reference)
    for got, want in zip(graph.neighbors, reference):
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()


class TestBuildersMatchReference:
    """The array builders give the per-node builders' rows, dtype and
    random stream (the same graph from the same seed)."""

    @pytest.mark.parametrize("side", range(2, 8))
    @pytest.mark.parametrize("periodic", [True, False])
    def test_square_lattice(self, side, periodic):
        _same_rows(square_lattice(side, periodic), _reference_square_lattice(side, periodic))

    def test_erdos_renyi(self, caplog, monkeypatch):
        caplog.set_level(logging.INFO, logger="imitodyn.topology")
        for n, p, seed in itertools.product([2, 3, 5, 12, 40, 150], [0.0, 0.01, 0.05, 0.2, 1.0], range(6)):
            _same_rows(erdos_renyi(n, p, seed=seed), _reference_erdos_renyi(n, p, seed))
        assert len(caplog.records) > 100  # the grid re-wires isolated nodes
        # Lowered slabs: rows of up to 149 pairs span many slabs, and slabs
        # end inside rows; p = 0 re-wires every node, p = 1 keeps every pair.
        for slab in (1, 7, 64):
            monkeypatch.setattr(topology_mod, "_SLAB", slab)
            for n, p, seed in itertools.product([2, 3, 12, 150], [0.0, 0.05, 1.0], range(3)):
                _same_rows(erdos_renyi(n, p, seed=seed), _reference_erdos_renyi(n, p, seed))
        assert erdos_renyi(150, 1.0, seed=0).flat.size == 150 * 149


@pytest.mark.parametrize("kind", ["complete", "lattice", "er"])
def test_contacts_are_int64_buffers_of_the_list_draw(kind):
    graph = {"complete": complete(9), "lattice": square_lattice(5), "er": erdos_renyi(40, 0.1, seed=2)}[kind]
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for size in (1, 32, 2048):
        got = graph._contacts(rng, size)
        # the same draws as lists, from the twin generator
        if graph.is_complete:
            want = tuple(ref.integers(0, graph.n, (2, size)).tolist())
        else:
            u = ref.integers(0, graph.n, size)
            lo = graph.off[u]
            want = u.tolist(), graph.flat[lo + ref.integers(0, graph.off[u + 1] - lo)].tolist()
        for buf, values in zip(got, want):
            assert isinstance(buf, memoryview)
            assert np.asarray(buf).dtype == np.int64
            assert buf.tolist() == values
    assert rng.bit_generator.state == ref.bit_generator.state


def test_erdos_renyi_peak_memory():
    # bound set before measuring: one slab's uniforms and mask (about 290 kB)
    # and the edge arrays stay under 1 MB beside the graph's own arrays; one
    # call per 2**20 pairs would hold 8 MB of uniforms at once
    erdos_renyi(3000, 0.002, seed=0)  # the imports of a first call are not traced
    tracemalloc.start()
    try:
        graph = erdos_renyi(3000, 0.002, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - graph.flat.nbytes - graph.off.nbytes < 1_000_000


def test_rows_equal_np_split(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n2 0\n2 3\n4 3\n5 0\n3 2\n")
    for graph in (
        square_lattice(7),
        square_lattice(2),
        square_lattice(5, periodic=False),
        erdos_renyi(60, 0.1, seed=3),
        erdos_renyi(30, 0.0, seed=1),
        from_edge_list(edges),
    ):
        flat, off = graph.flat, graph.off
        assert flat.dtype == off.dtype == np.int64 and off.shape == (graph.n + 1,)
        got = graph.neighbors
        want = np.split(flat, off[1:-1])
        assert len(got) == len(want) == graph.n
        for v, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert a.base is flat  # views, as np.split gives
            assert np.array_equal(graph.neighbor_list(v), a)
            assert (np.diff(a) >= 0).all()  # sorted rows
    assert from_edge_list(edges).neighbors[3].tolist() == [2, 4]


@pytest.mark.parametrize("kind", ["lattice", "er"])
def test_held_memory_per_node(kind):
    # bounds set before measuring: 8 B per neighbour entry and per offset,
    # with slack; a tuple of per-node row views holds about 120 B more
    build = (lambda: square_lattice(100)) if kind == "lattice" else (lambda: erdos_renyi(2000, 0.005, seed=0))
    build()  # the imports of a first call are not held by the graph
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    mean_degree = graph.flat.size / graph.n
    assert held / graph.n <= (48 if kind == "lattice" else 8 * mean_degree + 16)


def test_graph_rejects_bad_offsets():
    flat = np.array([1, 0, 2, 1])  # the path 0 - 1 - 2
    Graph(n=3, flat=flat, off=np.array([0, 1, 3, 4]), kind="t")
    for off in ([0, 1, 3], [1, 1, 3, 4], [0, 1, 3, 5]):
        with pytest.raises(ValueError, match="offsets"):
            Graph(n=3, flat=flat, off=np.array(off), kind="t")
    with pytest.raises(ValueError, match="node 1 has no neighbors"):
        Graph(n=3, flat=flat, off=np.array([0, 2, 2, 4]), kind="t")


class TestComplete:
    def test_implicit_adjacency(self):
        g = complete(5)
        assert g.is_complete
        assert g.n == 5
        assert g.degree(2) == 5
        assert g.neighbor_list(3).tolist() == [0, 1, 2, 3, 4]

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            complete(1)


class TestErdosRenyi:
    def test_p_one_is_complete_without_self_loops(self):
        g = erdos_renyi(6, 1.0, seed=0)
        for v in range(6):
            assert g.degree(v) == 5
            assert v not in g.neighbor_list(v)

    def test_p_zero_rewires_isolated_nodes(self):
        g = erdos_renyi(8, 0.0, seed=1)
        for v in range(8):
            assert g.degree(v) >= 1

    def test_symmetry(self):
        g = erdos_renyi(30, 0.2, seed=5)
        for v in range(30):
            for w in g.neighbor_list(v):
                assert v in g.neighbor_list(int(w))

    def test_seed_determinism(self):
        a = erdos_renyi(40, 0.1, seed=9)
        b = erdos_renyi(40, 0.1, seed=9)
        c = erdos_renyi(40, 0.1, seed=10)
        assert all(np.array_equal(x, y) for x, y in zip(a.neighbors, b.neighbors))
        assert any(not np.array_equal(x, y) for x, y in zip(a.neighbors, c.neighbors))

    @given(st.integers(5, 40), st.floats(0.0, 1.0), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_always_connected_enough_for_dynamics(self, n, p, seed):
        g = erdos_renyi(n, p, seed=seed)
        assert all(g.degree(v) >= 1 for v in range(n))


class TestSquareLattice:
    def test_periodic_degrees(self):
        g = square_lattice(4, periodic=True)
        assert g.n == 16
        assert all(g.degree(v) == 4 for v in range(16))

    def test_open_corner_degrees(self):
        g = square_lattice(3, periodic=False)
        assert g.degree(0) == 2       # corner
        assert g.degree(1) == 3       # edge midpoint
        assert g.degree(4) == 4       # center

    def test_periodic_neighbor_wrap(self):
        g = square_lattice(3, periodic=True)
        assert set(g.neighbor_list(0).tolist()) == {1, 2, 3, 6}

    def test_symmetry(self):
        g = square_lattice(5, periodic=True)
        for v in range(g.n):
            for w in g.neighbor_list(v):
                assert v in g.neighbor_list(int(w))


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 2\n2 0\n\n2 3\n")
        g = from_edge_list(str(p))
        assert g.n == 4
        assert set(g.neighbor_list(2).tolist()) == {0, 1, 3}
        assert g.degree(3) == 1

    def test_duplicate_edges_collapse(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 0\n0 1\n")
        g = from_edge_list(str(p))
        assert g.degree(0) == 1 and g.degree(1) == 1

    def test_malformed_line_anchored(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\nnot numbers\n")
        with pytest.raises(ValueError, match=r"edges\.txt:2"):
            from_edge_list(str(p))

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 0\n")
        with pytest.raises(ValueError, match=":1"):
            from_edge_list(str(p))

    def test_negative_id_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 -1\n")
        with pytest.raises(ValueError):
            from_edge_list(str(p))

    def test_isolated_id_rejected(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n3 4\n")  # node 2 never appears
        with pytest.raises(ValueError, match="isolated"):
            from_edge_list(str(p))
