"""Immutable undirected simple graph with BFS layering and closed-triplet counts.

Node identity is a dense integer index in ``[0, node_count)``.  Adjacency is
stored CSR-style (``indptr``/``indices``) with each neighbor row sorted, so
iteration order is deterministic everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError


class Graph:
    """Undirected simple graph: no self-loops, no duplicate edges.

    Instances are immutable after construction and safe to share across
    threads.  Use :func:`build_graph` to construct one from a raw edge list.
    """

    __slots__ = ("node_count", "edges", "_indptr", "_indices")

    def __init__(self, node_count: int, edge_list) -> None:
        if node_count < 0:
            raise InputError(f"node_count must be nonnegative, got {node_count}")
        self.node_count = int(node_count)

        e = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= node_count:
                raise InputError(
                    f"edge endpoint out of range [0, {node_count}): "
                    f"min={e.min()}, max={e.max()}"
                )
            lo = e.min(axis=1)
            hi = e.max(axis=1)
            keep = lo != hi  # drop self-loops
            e = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
        else:
            e = np.empty((0, 2), dtype=np.int64)
        self.edges = e
        self.edges.setflags(write=False)

        counts = np.bincount(e.ravel(), minlength=node_count) if e.size else np.zeros(
            node_count, dtype=np.int64
        )
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((dst, src))
        self._indptr = indptr
        self._indices = dst[order]
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor indices of ``v`` (read-only view)."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def to_csr(self):
        """Adjacency as a scipy CSR matrix of float64 (built per call)."""
        from scipy.sparse import csr_matrix

        data = np.ones(len(self._indices), dtype=np.float64)
        return csr_matrix(
            (data, self._indices, self._indptr),
            shape=(self.node_count, self.node_count),
        )

    def __repr__(self) -> str:
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"


def build_graph(node_count: int, edge_list) -> Graph:
    """Build a graph from an edge list, deduplicating and dropping self-loops.

    Raises :class:`InputError` if any endpoint is outside ``[0, node_count)``.
    """
    return Graph(node_count, edge_list)


@dataclass(frozen=True)
class LayeredView:
    """BFS layering of a graph from a set of source nodes.

    ``layer_of[v]`` is the hop distance from ``v`` to the nearest source, or
    ``-1`` if unreachable.  ``layers[L]`` holds the sorted node indices at
    distance ``L``; ``layers[0]`` is the source set itself.
    """

    sources: np.ndarray
    layer_of: np.ndarray
    layers: tuple

    @property
    def depth(self) -> int:
        """Largest layer index among reachable nodes."""
        return len(self.layers) - 1

    def layer(self, v: int):
        """Layer index of ``v``, or None if unreachable."""
        L = int(self.layer_of[v])
        return None if L < 0 else L


def hop_distances(A, frontier):
    """Breadth-first search on CSR adjacency ``A``, one ``A @ frontier`` per hop.

    ``frontier`` is an (n,) vector or an (n, B) block of independent searches,
    positive at the sources.  Returns ``(dist, sigma)`` of its shape: the hop
    distance to the nearest source (-1 when unreached) and shortest-path counts.
    """
    sigma = np.array(frontier, dtype=np.float64)
    dist = np.where(sigma > 0, 0, -1)
    frontier = sigma
    d = 0
    while True:
        contrib = A @ frontier  # path counts arriving one hop out
        new = (contrib > 0) & (dist < 0)
        if not new.any():
            return dist, sigma
        d += 1
        dist[new] = d
        frontier = np.where(new, contrib, 0.0)
        sigma += frontier  # exact: an unreached node's count is still 0


def layer_from_sources(g: Graph, sources) -> LayeredView:
    """Multi-source BFS: layer = hop distance to the nearest source."""
    src = np.unique(np.asarray(list(sources), dtype=np.int64))
    if src.size == 0:
        raise InputError("source set must be non-empty")
    if src.min() < 0 or src.max() >= g.node_count:
        raise InputError(f"source index out of range [0, {g.node_count})")

    frontier = np.zeros(g.node_count)
    frontier[src] = 1.0
    layer_of, _ = hop_distances(g.to_csr(), frontier)
    reached = np.flatnonzero(layer_of >= 0)
    # stable: each layer keeps ascending node order
    by_layer = reached[np.argsort(layer_of[reached], kind="stable")]
    by_layer.setflags(write=False)  # and so every layer, a view of it
    layers = tuple(np.split(by_layer, np.cumsum(np.bincount(layer_of[reached]))[:-1]))
    layer_of.setflags(write=False)
    return LayeredView(sources=layers[0], layer_of=layer_of, layers=layers)


def effective_edge_count(g: Graph, lv: LayeredView, target: int, source: int) -> int:
    """Number of closed triplets boosting a transmission from source to target.

    Counts nodes in the target's own layer that are adjacent to both the
    target and the source.  Requires ``layer(target) == layer(source) + 1``
    and an existing edge between the two; violations raise
    :class:`ContractError`.
    """
    lt = int(lv.layer_of[target])
    ls = int(lv.layer_of[source])
    if lt < 0 or ls < 0 or lt != ls + 1:
        raise ContractError(
            f"target layer ({lt}) must be source layer ({ls}) + 1"
        )
    if not g.has_edge(target, source):
        raise ContractError(f"no edge between target {target} and source {source}")
    common = np.intersect1d(g.neighbors(target), g.neighbors(source), assume_unique=True)
    return int(np.count_nonzero(lv.layer_of[common] == lt))


def layer_edges(g: Graph, lv: LayeredView):
    """Every consecutive-layer edge with its effective-edge count, in update order.

    Returns ``(targets, sources, counts)``: for each node of layer L >= 1,
    in layer order and then ascending node order, its layer L - 1 neighbors
    in ascending order and, per such edge, the :func:`effective_edge_count`.
    The counts are read from ``S @ C`` at C's entries, where S is the
    same-layer adjacency over layers >= 1 and C the consecutive-layer
    adjacency directed from the deeper node to the shallower one.
    """
    from scipy.sparse import csr_matrix

    n = g.node_count
    rows = np.repeat(np.arange(n), g.degrees)
    cols = g._indices
    row_layer = lv.layer_of[rows]
    col_layer = lv.layer_of[cols]
    deep = row_layer >= 1
    cross = deep & (col_layer == row_layer - 1)
    same = deep & (col_layer == row_layer)

    def adjacency(mask):
        # rows and cols are in CSR order, so each masked subset is canonical CSR
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[mask], minlength=n), out=indptr[1:])
        data = np.ones(int(indptr[-1]), dtype=np.int64)
        return csr_matrix((data, cols[mask], indptr), shape=(n, n))

    targets, sources = rows[cross], cols[cross]
    counts = np.asarray((adjacency(same) @ adjacency(cross))[targets, sources]).ravel()
    # stable: inside a layer the CSR order (target, then source) is kept
    order = np.argsort(row_layer[cross], kind="stable")
    return targets[order], sources[order], counts[order]


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list text format: ``n m`` then one ``u v`` per line."""
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format produced by :func:`format_edge_list`."""
    tokens = text.split()
    if len(tokens) < 2:
        raise InputError("edge-list text must start with 'n m'")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise InputError(f"edge-list contains a non-integer token: {exc}") from None
    n, m = values[0], values[1]
    body = values[2:]
    if len(body) != 2 * m:
        raise InputError(
            f"edge-list declares {m} edges but carries {len(body) // 2}"
        )
    edges = np.array(body, dtype=np.int64).reshape(-1, 2)
    return Graph(n, edges)


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(g))


def load_edge_list(path) -> Graph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_edge_list(fh.read())
    except FileNotFoundError:
        raise InputError(f"no such edge-list file: {path}") from None
