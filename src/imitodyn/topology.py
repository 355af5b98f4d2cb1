"""Interaction graphs for the network simulation engine.

The complete graph keeps self-loops and an implicit O(1) representation
(contacting yourself is a harmless no-op and keeps contact probabilities
exactly proportional to action frequencies).  All other topologies are
simple undirected graphs stored as per-node sorted adjacency arrays.
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

    neighbors is None for the implicit complete graph; otherwise a tuple of
    sorted integer arrays, one per node, each nonempty.  Periodic lattices
    of side 2 keep duplicate entries so that torus contact multiplicities
    stay uniform.
    """

    n: int
    neighbors: tuple[np.ndarray, ...] | None
    self_loops: bool
    kind: str

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got n = {self.n}")
        if self.neighbors is not None:
            if len(self.neighbors) != self.n:
                raise ValueError("adjacency length does not match n")
            for u, nb in enumerate(self.neighbors):
                if nb.size == 0:
                    raise ValueError(f"node {u} has no neighbors")

    @property
    def is_complete(self) -> bool:
        return self.neighbors is None

    def neighbor_list(self, v: int) -> np.ndarray:
        """Neighbors of v (materialized on demand for the complete graph)."""
        if not (0 <= v < self.n):
            raise IndexError(f"node {v} out of range")
        if self.neighbors is None:
            return np.arange(self.n, dtype=np.int64)
        return self.neighbors[v]

    def degree(self, v: int) -> int:
        return int(self.neighbor_list(v).size)


def complete(n: int) -> Graph:
    """Complete graph with self-loops, represented implicitly."""
    return Graph(n=n, neighbors=None, self_loops=True, kind="complete")


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) without self-loops; isolated nodes are re-wired to one
    uniformly random other node so every node can be contacted."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n = {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    # row u draws the edges u-w for w > u, one rng.random call per row
    heads = [np.flatnonzero(rng.random(n - u - 1) < p) + (u + 1) for u in range(n - 1)]
    tails = np.repeat(np.arange(n - 1), [h.size for h in heads])
    heads = np.concatenate(heads)
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
    return Graph(n=n, neighbors=_rows(dst[np.lexsort((dst, src))], deg), self_loops=False, kind="er")


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
    return Graph(n=n, neighbors=_rows(ids[ids < n], inside.sum(axis=1)), self_loops=False, kind="lattice")


def _rows(flat: np.ndarray, deg: np.ndarray) -> tuple[np.ndarray, ...]:
    """Split the concatenated sorted adjacency rows by node degree."""
    return tuple(np.split(flat, np.cumsum(deg)[:-1]))


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
    n = max(max(u, v) for u, v in edges) + 1
    if n < 2:
        raise ValueError(f"{path}: need at least 2 nodes")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    isolated = [u for u in range(n) if not adj[u]]
    if isolated:
        raise ValueError(f"{path}: isolated node id(s) {isolated}; every id in 0..{n - 1} needs an edge")
    nb = tuple(np.asarray(sorted(a), dtype=np.int64) for a in adj)
    return Graph(n=n, neighbors=nb, self_loops=False, kind="file")
