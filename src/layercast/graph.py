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

    Instances are logically immutable and safe to share across threads.  Three
    derived caches, the scipy adjacency (:meth:`to_csr`), the triangle index
    (:func:`triangle_index`) and the closeness and betweenness scores
    (``centrality._path_scores``), are built on first use and read-only;
    two threads racing on first use build identical values, and either one
    may be kept.  Use :func:`build_graph` to construct one from a raw edge
    list.
    """

    __slots__ = (
        "node_count", "edges", "_indptr", "_indices", "_csr", "_triangles", "_paths",
    )

    def __init__(self, node_count: int, edge_list) -> None:
        if node_count < 0:
            raise InputError(f"node_count must be nonnegative, got {node_count}")
        self.node_count = int(node_count)

        if not isinstance(edge_list, np.ndarray):
            edge_list = list(edge_list)
        e = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= node_count:
                raise InputError(
                    f"edge endpoint out of range [0, {node_count}): "
                    f"min={e.min()}, max={e.max()}"
                )
            lo = e.min(axis=1)
            hi = e.max(axis=1)
            keep = lo != hi  # drop self-loops
            # one key per edge, in (lo, hi) order: hi < node_count
            key = np.unique(lo[keep] * node_count + hi[keep])
            e = np.stack([key // node_count, key % node_count], axis=1)
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
        self._csr = None
        self._triangles = None
        self._paths = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor indices of ``v`` (read-only view)."""
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def to_csr(self):
        """Adjacency as a scipy CSR matrix of float64, built once, read-only."""
        if self._csr is None:
            from scipy.sparse import csr_matrix

            data = np.ones(len(self._indices), dtype=np.float64)
            A = csr_matrix(
                (data, self._indices, self._indptr),
                shape=(self.node_count, self.node_count),
            )
            for arr in (A.data, A.indices, A.indptr):
                arr.setflags(write=False)
            self._csr = A
        return self._csr

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


def _dense(x, copy=False):
    """``x`` as a float64 ndarray; a scipy sparse matrix is densified."""
    if hasattr(x, "toarray"):
        return x.toarray().astype(np.float64, copy=False)
    return np.array(x, dtype=np.float64) if copy else np.asarray(x, dtype=np.float64)


def hop_distances(A, frontier):
    """Breadth-first search on CSR adjacency ``A``, one ``A @ frontier`` per hop.

    ``frontier`` is an (n,) vector or an (n, B) block of independent searches,
    positive at the sources; a scipy sparse block is taken as it is, so its
    first product stays sparse until it is densified.  Returns ``(dist,
    sigma)`` of its shape: the hop distance to the nearest source (-1 when
    unreached) and shortest-path counts.  A search that reaches every node
    stops without the product that would find nothing new, so it takes one
    product per hop of its depth.
    """
    sigma = _dense(frontier, copy=True)
    unreached = sigma <= 0
    remaining = np.count_nonzero(unreached)
    # dist counts the hops each node stayed unreached; the never-reached get -1
    dist = np.zeros(sigma.shape, dtype=np.int64)
    while remaining:
        contrib = _dense(A @ frontier)  # path counts arriving one hop out
        # exact: counts are >= 0, so a reached node's becomes +0.0
        np.multiply(contrib, unreached, out=contrib)
        new = contrib > 0
        found = np.count_nonzero(new)
        if not found:
            break
        dist += unreached
        unreached ^= new
        sigma += contrib  # exact: an unreached node's count is still 0
        frontier = contrib
        remaining -= found
    if remaining:
        dist[unreached] = -1
    return dist, sigma


def unique_nodes(nodes) -> np.ndarray:
    """The distinct node ids of ``nodes``, ascending, as int64.

    An ndarray is used as it is; a list, set or other iterable is listed
    first.
    """
    if not isinstance(nodes, np.ndarray):
        nodes = list(nodes)
    return np.unique(np.asarray(nodes, dtype=np.int64))


def layer_from_sources(g: Graph, sources) -> LayeredView:
    """Multi-source BFS: layer = hop distance to the nearest source."""
    src = unique_nodes(sources)
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


#: Wedges tested per step while indexing triangles, and the most triangles
#: kept from the counting pass.  It bounds the index build's working memory
#: whatever the graph's wedge count (on ER, 1/p times its triangle count).
_CHUNK = 1 << 14


def _closed_wedges(g: Graph, rows, fwd):
    """Per chunk of about ``_CHUNK`` forward wedges, the entry ids of their triangles.

    ``fwd`` lists the forward entries (a, b), a < b.  A forward wedge is one
    of them with a later entry (a, c) of a's row; it closes when (b, c) is a
    forward entry too, looked up in their sorted keys ``row * n + col``.
    Yields ``(ab, ac, bc)`` in ascending (a, b, c) order; a single entry
    with more wedges than ``_CHUNK`` is one chunk.
    """
    n, cols = g.node_count, g._indices
    keys = rows[fwd] * n + cols[fwd]  # ascending: each CSR row is sorted
    after = g._indptr[rows[fwd] + 1] - fwd - 1  # wedges of each forward entry
    ends = np.cumsum(after)
    lo = 0
    while lo < len(fwd):
        hi = max(int(np.searchsorted(ends, ends[lo] - after[lo] + _CHUNK, "right")), lo + 1)
        w = after[lo:hi]
        ab = np.repeat(fwd[lo:hi], w)
        ac = np.arange(len(ab)) + np.repeat(fwd[lo:hi] + 1 - (np.cumsum(w) - w), w)
        key = cols[ab] * n + cols[ac]
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        closed = keys[at] == key
        yield ab[closed], ac[closed], fwd[at[closed]]
        lo = hi


def triangle_index(g: Graph):
    """Every triangle of ``g`` by CSR entry id, built once per graph.

    Returns read-only integer arrays ``(rows, mirror, tri)``: ``rows[e]`` is
    the row of CSR entry e (its column is ``g._indices[e]``), ``mirror[e]``
    the entry of the reverse edge, and column k of the (3, t) array ``tri``
    holds the entries (a, b), (a, c) and (b, c) of the k-th triangle
    a < b < c, in ascending (a, b, c) order.  It keeps 8 bytes per CSR entry
    and 12 per triangle.  The triangles are counted in one pass over the
    wedges; beyond ``_CHUNK`` of them they are written in a second pass, so
    the build holds one chunk of wedges beside the index, never a second
    copy of it.
    """
    if g._triangles is None:
        n, cols = g.node_count, g._indices
        idx = np.int32 if len(cols) < 2**31 else np.int64
        rows = np.repeat(np.arange(n), g.degrees)
        # entries by (col, row): by symmetry, the k-th is the reverse of entry k
        mirror = np.argsort(cols, kind="stable")
        fwd = np.flatnonzero(rows < cols)
        count, head = 0, [np.empty((3, 0), dtype=idx)]
        for found in _closed_wedges(g, rows, fwd):
            count += len(found[0])
            if count <= _CHUNK:
                head.append(np.array(found, dtype=idx))
        if count <= _CHUNK:  # few triangles: keep them from the counting pass
            tri = np.concatenate(head, axis=1)
        else:
            tri = np.empty((3, count), dtype=idx)
            at = 0
            for found in _closed_wedges(g, rows, fwd):
                tri[:, at : at + len(found[0])] = found
                at += len(found[0])
        rows, mirror = rows.astype(idx), mirror.astype(idx)
        for arr in (rows, mirror, tri):
            arr.setflags(write=False)
        g._triangles = rows, mirror, tri
    return g._triangles


def layer_edges(g: Graph, lv: LayeredView):
    """Every consecutive-layer edge with its effective-edge count, in update order.

    Returns int64 arrays ``(targets, sources, counts)``: for each node of
    layer L >= 1, in layer order and then ascending node order, its layer
    L - 1 neighbors in ascending order and, per such edge, the
    :func:`effective_edge_count`.  A triangle with two nodes in layer L >= 1
    and the third in layer L - 1 adds 1 to each of its two cross edges,
    directed from the deeper node to the shallower one; the counts are
    those hits tallied over :func:`triangle_index` per CSR entry.
    """
    rows, mirror, (ab, ac, bc) = triangle_index(g)
    cols = g._indices
    # take: fancy indexing by the index's int32 arrays is about twice as slow
    row_layer = lv.layer_of.take(rows)
    col_layer = lv.layer_of.take(cols)
    cross = (row_layer >= 1) & (row_layer - col_layer == 1)
    la = row_layer.take(ab)
    d1 = la - col_layer.take(ab)
    d2 = la - col_layer.take(ac)
    # which corner is the triangle's shallow node, one layer above the other
    # two; a hit on an edge out of layer 0 (or unreached) falls outside cross
    low_c = np.flatnonzero((d1 == 0) & (d2 == 1))
    low_b = np.flatnonzero((d1 == 1) & (d2 == 0))
    low_a = np.flatnonzero((d1 == -1) & (d2 == -1))
    hits = np.concatenate([
        ac[low_c], bc[low_c],
        ab[low_b], mirror.take(bc[low_b]),
        mirror.take(ab[low_a]), mirror.take(ac[low_a]),
    ])
    sel = np.flatnonzero(cross)
    # stable: inside a layer the CSR order (target, then source) is kept
    sel = sel[np.argsort(row_layer[sel], kind="stable")]
    counts = np.bincount(hits, minlength=len(cols))[sel]
    return rows[sel].astype(np.int64), cols[sel], counts


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
