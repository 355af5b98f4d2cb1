"""Interaction graphs for the network simulation engine.

The complete graph keeps self-loops and an implicit O(1) representation
(contacting yourself is a harmless no-op and keeps contact probabilities
exactly proportional to action frequencies).  All other topologies are
simple undirected graphs stored as compressed sparse rows (see Graph).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Graph", "complete", "erdos_renyi", "square_lattice", "from_edge_list"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected interaction graph on nodes 0..n-1.

    flat and off are None for the implicit complete graph; otherwise node
    v's sorted, nonempty int64 neighbour row is flat[off[v]:off[v + 1]].
    Periodic lattices of side 2 keep duplicate entries so that torus
    contact multiplicities stay uniform.
    """

    n: int
    flat: np.ndarray | None
    off: np.ndarray | None
    kind: str

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got n = {self.n}")
        if self.flat is not None:
            if self.off.shape != (self.n + 1,) or self.off[0] != 0 or self.off[-1] != self.flat.size:
                raise ValueError("adjacency offsets do not match n and the neighbour array")
            empty = np.flatnonzero(np.diff(self.off) == 0)
            if empty.size:
                raise ValueError(f"node {empty[0]} has no neighbors")

    @property
    def is_complete(self) -> bool:
        return self.flat is None

    @property
    def neighbors(self) -> tuple[np.ndarray, ...] | None:
        """Every node's neighbour row as a view of flat (None if complete)."""
        return None if self.flat is None else tuple(np.split(self.flat, self.off[1:-1]))

    def neighbor_list(self, v: int) -> np.ndarray:
        """Neighbors of v (materialized on demand for the complete graph)."""
        if not (0 <= v < self.n):
            raise IndexError(f"node {v} out of range")
        if self.flat is None:
            return np.arange(self.n, dtype=np.int64)
        return self.flat[self.off[v] : self.off[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.neighbor_list(v).size)

    def _contacts(self, rng: np.random.Generator, size: int) -> tuple[memoryview, memoryview]:
        """`size` active nodes u and their contacts v, as memoryviews of int64
        arrays, read in place: rows 0 and 1 of one integers(0, n, (2, size))
        on the complete graph, otherwise u = integers(0, n, size) and then
        flat[off[u] + integers(0, deg[u])]."""
        if self.flat is None:
            u, v = rng.integers(0, self.n, (2, size))
            return memoryview(u), memoryview(v)
        u = rng.integers(0, self.n, size)
        lo = self.off[u]
        return memoryview(u), memoryview(self.flat[lo + rng.integers(0, self.off[u + 1] - lo)])


def complete(n: int) -> Graph:
    """Complete graph with self-loops, represented implicitly."""
    return Graph(n=n, flat=None, off=None, kind="complete")


# Upper-triangle pairs that erdos_renyi draws in one rng.random call: 256
# KiB of uniforms.  Slabs of 2**20 pairs raised the network benchmark's peak
# memory from 39.2 to 42.4 MB.
_SLAB = 2**15


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) without self-loops; isolated nodes are re-wired to one
    uniformly random other node so every node can be contacted.

    The pairs u-w, w > u, are taken row by row, each with one uniform, in
    slabs of at most _SLAB pairs per rng.random call: consecutive calls read
    one stream, so a seed gives the graph of one call per row."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n = {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    first = _offsets(np.arange(n - 1, 0, -1))  # row u's pairs are first[u]..first[u + 1] - 1
    pairs = int(first[-1])
    hits = np.concatenate([np.flatnonzero(rng.random(min(_SLAB, pairs - s)) < p) + s for s in range(0, pairs, _SLAB)])
    tails = np.searchsorted(first, hits, side="right") - 1
    heads = hits - first[tails] + tails + 1
    deg = np.bincount(tails, minlength=n) + np.bincount(heads, minlength=n)
    extra: list[tuple[int, int]] = []
    for u in np.flatnonzero(deg == 0).tolist():
        if deg[u]:
            continue  # an earlier re-wiring reached it
        w = int(rng.integers(n - 1))
        if w >= u:
            w += 1
        extra.append((u, w))
        deg[u] += 1
        deg[w] += 1
    if extra:
        logger.info("erdos_renyi(n=%d, p=%g): re-wired %d isolated node(s)", n, p, len(extra))
        tails = np.concatenate([tails, [u for u, _ in extra]])
        heads = np.concatenate([heads, [w for _, w in extra]])
    src = np.concatenate([tails, heads])
    dst = np.concatenate([heads, tails])
    return Graph(n=n, flat=dst[np.lexsort((dst, src))], off=_offsets(deg), kind="er")


def square_lattice(side: int, periodic: bool = True) -> Graph:
    """side x side grid with 4-neighborhoods.

    Periodic boundaries wrap around; without them, border nodes keep only
    their in-grid neighbors (degree 2 or 3).
    """
    if side < 2:
        raise ValueError(f"need side >= 2, got {side}")
    n = side * side
    r, c = np.divmod(np.arange(n, dtype=np.int64), side)
    rr = r[:, None] + np.array([-1, 1, 0, 0])
    cc = c[:, None] + np.array([0, 0, -1, 1])
    if periodic:
        rr %= side
        cc %= side
    inside = (rr >= 0) & (rr < side) & (cc >= 0) & (cc < side)
    ids = np.where(inside, rr * side + cc, n)  # n sorts after every node
    ids.sort(axis=1)
    return Graph(n=n, flat=ids[ids < n], off=_offsets(inside.sum(axis=1)), kind="lattice")


def _offsets(deg: np.ndarray) -> np.ndarray:
    """The row offsets of nodes of degrees `deg`: 0, then their running sum."""
    return np.concatenate(([0], np.cumsum(deg)))


def from_edge_list(path: str | Path) -> Graph:
    """Load an undirected graph from a text file of 'u v' pairs, one per line.

    Node count is max id + 1.  Edges given in either or both directions
    collapse to one; self-loops, malformed lines, and isolated node ids are
    errors.
    """
    path = Path(path)
    edges: list[tuple[int, int]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {stripped!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id in {stripped!r}") from exc
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative node id in {stripped!r}")
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop {u}-{v} not allowed")
            edges.append((u, v))
    if not edges:
        raise ValueError(f"{path}: no edges")
    e = np.array(edges, dtype=np.int64)
    pairs = np.unique(np.concatenate([e, e[:, ::-1]]), axis=0)  # (u, v) rows in order, duplicates dropped
    n = int(pairs[-1, 0]) + 1
    deg = np.bincount(pairs[:, 0], minlength=n)
    isolated = np.flatnonzero(deg == 0).tolist()
    if isolated:
        raise ValueError(f"{path}: isolated node id(s) {isolated}; every id in 0..{n - 1} needs an edge")
    return Graph(n=n, flat=pairs[:, 1].copy(), off=_offsets(deg), kind="file")
