"""Immutable undirected simple graph with BFS layering and closed-triplet counts.

Node identity is a dense integer index in ``[0, node_count)``.  Adjacency is
stored CSR-style (``indptr``/``indices``) with each neighbor row sorted, so
iteration order is deterministic everywhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError, as_integer, read_text

#: Largest node count a graph may have: node ids fit scipy's 32-bit sparse
#: index arrays, and a larger n would ask for 16 GiB per-node arrays at once.
MAX_NODES = 2**31 - 1


class Graph:
    """Undirected simple graph: no self-loops, no duplicate edges.

    Instances are logically immutable and safe to share across threads.  Three
    derived caches, the scipy adjacency (:meth:`to_csr`, one per dtype), the
    triangle index (:func:`triangle_index`) and the centrality scores
    (``centrality.compute_centrality``), are built on first use and read-only;
    two threads racing on first use build identical values, and either one
    may be kept.  Use :func:`build_graph` to construct one from a raw edge
    list.
    """

    __slots__ = (
        "node_count", "edges", "_indptr", "_indices", "_csr", "_triangles", "_scores",
    )

    def __init__(self, node_count: int, edge_list) -> None:
        # checked before any per-node array is allocated
        node_count = as_integer("node_count", node_count)
        if not 0 <= node_count <= MAX_NODES:
            raise InputError(f"node_count must be in [0, {MAX_NODES}], got {node_count}")
        self.node_count = node_count

        if not isinstance(edge_list, np.ndarray):
            edge_list = list(edge_list)
        e = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
        n = self.node_count
        # one key row * n + col per edge, in (lo, hi) order; sorted, then
        # deduplicated by comparing neighbours
        key = np.empty(0, dtype=np.int64)
        if e.size:
            if e.min() < 0 or e.max() >= n:
                raise InputError(
                    f"edge endpoint out of range [0, {n}): "
                    f"min={e.min()}, max={e.max()}"
                )
            # np.minimum of the two columns: e.min(axis=1) costs several times more
            lo = np.minimum(e[:, 0], e[:, 1])
            hi = np.maximum(e[:, 0], e[:, 1])
            keep = lo != hi  # drop self-loops
            key = np.sort(lo[keep] * n + hi[keep])
            first = np.ones(len(key), dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            key = key[first]
        # an edge needs n >= 1, so n = 0 leaves key empty and divides nothing
        lo, hi = (key // n, key % n) if key.size else (key, key)
        self.edges = np.stack([lo, hi], axis=1)
        self.edges.setflags(write=False)

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edges.ravel(), minlength=n), out=indptr[1:])
        # both directions of every edge as CSR entry keys, in (row, col) order
        entries = np.sort(np.concatenate([key, hi * n + lo]))
        self._indptr = indptr
        self._indices = entries % n if entries.size else entries
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        self._csr = {}
        self._triangles = None
        self._scores = {}

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

    def to_csr(self, dtype=np.float64):
        """Adjacency as a read-only scipy CSR matrix of ``dtype``, built once per
        dtype: float64 for the spectral measures, int16 for the path counts
        of :func:`hop_distances`.  Every dtype shares one copy of the index
        arrays."""
        dtype = np.dtype(dtype)
        if dtype not in self._csr:
            from scipy.sparse import csr_matrix

            # the index arrays scipy made for the first dtype serve them all;
            # a snapshot, as another thread may be adding a dtype
            built = [*self._csr.values(), None][0]
            indices, indptr = (
                (self._indices, self._indptr) if built is None else (built.indices, built.indptr)
            )
            A = csr_matrix(
                (np.ones(len(indices), dtype=dtype), indices, indptr),
                shape=(self.node_count, self.node_count),
            )
            for arr in (A.data, A.indices, A.indptr):
                arr.setflags(write=False)
            self._csr[dtype] = A
        return self._csr[dtype]

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

    ``layer_of[v]`` is the int64 hop distance from ``v`` to the nearest
    source, or ``-1`` if unreachable; the view makes it read-only.
    """

    layer_of: np.ndarray

    def __post_init__(self):
        self.layer_of.setflags(write=False)

    @property
    def sources(self) -> np.ndarray:
        """The source nodes, ascending."""
        return np.flatnonzero(self.layer_of == 0)

    @property
    def depth(self) -> int:
        """Largest layer index among reachable nodes."""
        return int(self.layer_of.max(initial=-1))

    def layer(self, v: int):
        """Layer index of ``v``, or None if unreachable."""
        L = int(self.layer_of[v])
        return None if L < 0 else L


def product_into(A, x, out):
    """``A @ x`` for CSR ``A`` and a dense ``x``, written into the C-contiguous ``out``.

    ``A``, ``x`` and ``out`` share one dtype (float64 or int16 here).  The
    product goes through the kernel scipy's ``A @ x`` picks for it:
    ``csr_matvec`` for a vector or a single column, ``csr_matvecs`` for a
    wider block.  So the result is the same bytes.  Both kernels add into
    ``out``, so it is zeroed first and may hold anything before the call.
    Returns ``out``.

    The kernels are scipy's private ``scipy.sparse._sparsetools``, and the
    equality with ``A @ x`` was checked on scipy 1.17.1 only;
    ``tests/test_traversal.py::TestProductInto`` fails if a scipy release
    moves them or their bytes stop matching ``A @ x``.
    """
    rows, cols = A.shape
    # the kernels write through out's memory unchecked: wrong shape or layout
    # would write out of bounds, and another dtype into a converted copy
    if x.shape[0] != cols or out.shape != (rows, *x.shape[1:]) or not out.flags.c_contiguous:
        raise ContractError(f"cannot write a {A.shape} @ {x.shape} product into {out.shape}")
    if not A.dtype == x.dtype == out.dtype:
        raise ContractError(f"cannot write a {A.dtype} @ {x.dtype} product into {out.dtype}")
    out.fill(0)
    # imported here: scipy.sparse loads on first use, not with the package
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

    if x.ndim == 1 or x.shape[1] == 1:
        csr_matvec(rows, cols, A.indptr, A.indices, A.data, x.ravel(), out.ravel())
    else:
        csr_matvecs(rows, cols, x.shape[1], A.indptr, A.indices, A.data, x.ravel(), out.ravel())
    return out


def _frontier_product(A, x, out):
    """``A @ x`` for CSR ``A`` holding 1 at each edge and an ``x`` of 0s and
    1s (fastest as bool), written into the C-contiguous ``out`` in its dtype;
    returns ``out``.

    ``out[u, j]`` counts u's neighbours v with ``x[v, j] = 1``, so one
    ``np.add.at`` of 1 over the CSR rows of x's nonzero entries writes it,
    in memory the size of those rows rather than of ``out``.  The counts are
    integers at most the largest degree, exact in float64 and, below 2**15,
    in int16, so the bytes are :func:`product_into`'s.
    """
    width = 1 if x.ndim == 1 else x.shape[1]
    node, col = np.divmod(np.flatnonzero(x), width)
    start = A.indptr[node]
    deg = A.indptr[node + 1] - start
    ends = np.cumsum(deg)
    entries = np.arange(int(ends[-1]) if len(ends) else 0)
    entries += np.repeat(start - (ends - deg), deg)
    # each entry's (neighbour, column), as a flat index into out
    targets = A.indices.take(entries).astype(np.intp)
    targets *= width
    targets += np.repeat(col, deg)
    out.fill(0)
    np.add.at(out.reshape(-1), targets, out.dtype.type(1))
    return out


class SearchBuffers:
    """The arrays one :func:`hop_distances` works in, reusable search after search.

    Allocated in the widest ``shape`` a caller will search, (n,) or (n, B).
    A narrower search takes the first entries of each array, reshaped, so
    every view is C-contiguous and needs no buffers of its own.  After a
    search, ``dist`` (of ``dist_dtype``, which must hold the deepest hop
    distance) and ``sigma`` hold its result, and ``masks`` (the unreached
    and the newly found nodes) and the float64 ``products`` (one hop's
    frontier and the next; an int16 search works in int16 views of them)
    are free for the caller.
    """

    # Kept for speed, not structure: the closeness and betweenness sweep of 8
    # paper ER graphs (n = 1000, p = 0.04) on one CPU of a 2-vCPU Xeon took a
    # median 0.44-0.46 s with these buffers reused and 0.50-0.55 s with its
    # arrays allocated per block of sources (two runs of 15 repetitions).
    __slots__ = ("dist", "sigma", "masks", "products")

    def __init__(self, shape, dist_dtype=np.int64) -> None:
        shape = tuple(shape)
        self.dist = np.empty(shape, dtype=dist_dtype)
        self.sigma = np.empty(shape)
        self.masks = (np.empty(shape, dtype=bool), np.empty(shape, dtype=bool))
        self.products = (np.empty(shape), np.empty(shape))

    def shaped(self, shape):
        """``(dist, sigma, masks, products)`` as arrays of ``shape``: the buffers
        themselves in their own shape, prefix views of them otherwise."""
        if shape == self.dist.shape:
            return self.dist, self.sigma, self.masks, self.products
        size = math.prod(shape)

        def view(a):
            return a.reshape(-1)[:size].reshape(shape)

        return (
            view(self.dist),
            view(self.sigma),
            tuple(map(view, self.masks)),
            tuple(map(view, self.products)),
        )


#: Path counts are exact in int16 below this; a hop whose every count
#: provably stays below it takes its product in int16.
_NARROW_LIMIT = 2**15


def _narrow(a, shape, at=0):
    """An int16 array of ``shape`` in the memory of the float64 array ``a``,
    starting at its ``at``-th ``shape``-sized int16 slot (four fit)."""
    size = math.prod(shape)
    return a.reshape(-1).view(np.int16)[at * size : (at + 1) * size].reshape(shape)


def _layer_dtype(n: int):
    """int16 when it holds every node id and hop distance of an n-node graph,
    -1 included, else int64: numpy sorts int16 stably by radix, and gathers
    and compares it in a quarter of the memory."""
    return np.int16 if n <= _NARROW_LIMIT else np.int64


def hop_distances(A, frontier, buffers=None):
    """Breadth-first search on CSR adjacency ``A``, one product with ``A`` per hop.

    ``A`` holds 1 at each edge, as ``Graph.to_csr`` does in either dtype.
    ``frontier`` is an (n,) vector or an (n, B) block of independent
    searches, 1 at the sources and 0 elsewhere; any other value raises
    :class:`ContractError`.  Returns ``(dist, sigma)`` of its shape: the hop
    distance to the nearest source (-1 when unreached) and the float64
    shortest-path counts.  A search that reaches every node stops without
    the product that would find nothing new, so it takes one product per
    hop of its depth: :func:`product_into`, but for a block's first hop
    :func:`_frontier_product`, which counts the 0/1 frontier's CSR rows.

    The products are taken in ``A``'s dtype, float64 or int16.  A hop's
    counts are at most the frontier's largest times the largest degree, so
    an int16 hop is exact while that bound is below ``_NARROW_LIMIT``; at the
    first hop where it is not, the frontier is widened to float64 and the
    rest of the search runs in float64.  The counts before are exact
    integers either way, so both dtypes give the same bytes.

    It works in ``buffers`` (:class:`SearchBuffers`), fresh ones unless
    given, and allocates no array of the frontier's shape (but the float64
    adjacency, if an int16 search widens); the two it returns are views of
    ``buffers``.  ``frontier`` may be their ``sigma`` view of its shape: it
    is read before that is written.
    """
    if not isinstance(frontier, np.ndarray):
        raise ContractError(f"a search's frontier must be a numpy array, got {type(frontier).__name__}")
    shape = frontier.shape
    if buffers is None:
        buffers = SearchBuffers(shape)
    dist, sigma, (unreached, new), products = buffers.shaped(shape)
    np.equal(frontier, 0, out=unreached)
    np.equal(frontier, 1, out=new)
    remaining = np.count_nonzero(unreached)
    if remaining + np.count_nonzero(new) != unreached.size:
        raise ContractError("a search's frontier must be 0 or 1 at every node")
    steps, counts = products, sigma  # one hop's frontier and the next; the path counts
    if A.dtype == np.int16:
        # int16 at the head of the two product buffers, the counts behind the first
        steps, counts = tuple(_narrow(p, shape) for p in products), _narrow(products[0], shape, 1)
        degree = int(np.diff(A.indptr).max(initial=0))
        largest = int(remaining < unreached.size)  # the frontier's: 1 unless empty
    np.copyto(steps[0], new)
    np.copyto(counts, new)
    at = 0  # the step buffer holding the frontier
    dist.fill(0)  # dist counts the hops each node stayed unreached
    # a block's first hop counts the rows of its few sources, where a product
    # would take every column; for a vector the one product call is cheaper
    first = frontier.ndim == 2
    while remaining:
        if counts is not sigma and largest * degree >= _NARROW_LIMIT:
            # widen: the counts so far are exact in float64 too
            np.copyto(sigma, counts)
            np.copyto(products[1 - at], steps[at])
            steps, counts, at = products, sigma, 1 - at
            A = A.astype(np.float64)
        # path counts arriving one hop out, beside the frontier they came from
        if first:  # the frontier is still the 0/1 mask new
            contrib = _frontier_product(A, new, steps[1 - at])
            first = False
        else:
            contrib = product_into(A, steps[at], steps[1 - at])
        # exact: counts are >= 0, so a reached node's becomes 0
        np.multiply(contrib, unreached, out=contrib)
        np.greater(contrib, 0, out=new)
        found = np.count_nonzero(new)
        if not found:
            break
        dist += unreached
        unreached ^= new
        counts += contrib  # exact: an unreached node's count is still 0
        remaining -= found
        at = 1 - at
        if counts is not sigma:
            largest = int(contrib.max())
    if counts is not sigma:
        np.copyto(sigma, counts)
    if remaining:
        np.copyto(dist, -1, where=unreached)
    return dist, sigma


def _checked_nodes(g: Graph, nodes, what: str) -> np.ndarray:
    """The distinct node ids of ``nodes``, ascending, as int64.

    An ndarray is used as it is; a list, set or other iterable is listed
    first.  ``nodes`` must be non-empty and its ids integers in ``[0,
    node_count)``: a float, string or bool raises :class:`InputError`
    naming it, rather than being cast to a node.
    """
    if not isinstance(nodes, np.ndarray):
        nodes = list(nodes)
    arr = np.asarray(nodes)
    if arr.size and arr.dtype.kind not in "iu":
        items = nodes if isinstance(nodes, list) else arr.ravel().tolist()
        bad = next(
            (v for v in items if isinstance(v, bool) or not isinstance(v, numbers.Integral)),
            items[0],
        )
        raise InputError(f"node ids must be integers, got {bad!r}")
    src = np.unique(arr.astype(np.int64, copy=False))
    if src.size == 0:
        raise InputError(f"{what} must be non-empty")
    if src[0] < 0 or src[-1] >= g.node_count:
        raise InputError(f"source index out of range [0, {g.node_count})")
    return src


def layer_from_sources(g: Graph, sources) -> LayeredView:
    """Multi-source BFS: layer = hop distance to the nearest source.

    One vector search on the float64 adjacency: on a vector, the int16
    search's bound check costs more than its narrower products save.
    """
    src = _checked_nodes(g, sources, "source set")
    frontier = np.zeros(g.node_count)
    frontier[src] = 1.0
    return LayeredView(hop_distances(g.to_csr(), frontier)[0])


def prefix_layerings(g: Graph, order):
    """Every prefix's layering at once: a read-only (len(order), n) array whose
    row k - 1 is ``layer_from_sources(g, order[:k]).layer_of``.

    A multi-source hop distance is the minimum of the sources' own, so row
    k - 1 is the running minimum of the first k nodes' distances: one
    :func:`hop_distances`, one one-hot column per node on the int16
    adjacency, with the distances in ``_layer_dtype(n)``.
    """
    order = np.asarray(order)
    _checked_nodes(g, order, "node order")
    n = g.node_count
    buffers = SearchBuffers((n, len(order)), _layer_dtype(n))
    frontier = buffers.sigma  # read before the search writes it
    frontier.fill(0.0)
    frontier[order, np.arange(len(order))] = 1.0
    layers = hop_distances(g.to_csr(np.int16), frontier, buffers)[0].T.copy()
    # as unsigned an unreached -1 is the largest value, so the minimum
    # keeps a node unreached only while every source leaves it so
    u = layers.view(f"u{layers.itemsize}")
    np.minimum.accumulate(u, axis=0, out=u)
    layers.setflags(write=False)
    return layers


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


#: Forward paths tested per step while indexing triangles, and the most
#: triangles kept from the counting pass.  It bounds the index build's working
#: memory whatever the graph's path count (on ER, 1/p times its triangle count).
_CHUNK = 1 << 14

#: Entries of the closure table :func:`triangle_index` reads: whole rows of
#: n entries, ``_TABLE // n`` of them (one if a row is longer).  As int32 it
#: is at most 1 MiB.
_TABLE = 1 << 18


def _closed_paths(g: Graph, rows, fwd, idx):
    """Per chunk of about ``_CHUNK`` forward paths, the entry ids of their triangles.

    ``fwd`` lists the forward entries (a, b), a < b, in CSR order.  A forward
    path a -> b -> c is one of them followed by a forward entry (b, c) of b's
    row; it closes when (a, c) is an entry too.  That is one gather from a
    table of ``idx`` entry ids, -1 where there is no entry, holding the
    forward entries of the rows ``[a0, a0 + _TABLE // n)`` at ``(a - a0) *
    n + c``; a chunk ends where the table's rows do, so it may split a row.
    Yields ``(ab, ac, bc)`` in ascending (a, b, c) order; a single entry
    with more paths than ``_CHUNK`` is one chunk.
    """
    n, cols, indptr = g.node_count, g._indices.astype(idx), g._indptr
    fwd_rows, b = rows[fwd].astype(idx), cols[fwd]
    fdeg = np.bincount(fwd_rows, minlength=n).astype(idx)
    first = indptr[1:].astype(idx) - fdeg  # each row's first forward entry
    after = fdeg[b]  # paths out of each forward entry
    ends = np.cumsum(after, dtype=np.int64)
    span = max(1, _TABLE // max(n, 1))
    table = np.full(min(span, n) * n, -1, dtype=idx)
    fwd = fwd.astype(idx)
    lo, stop, held = 0, 0, np.empty(0, dtype=idx)
    while lo < len(fwd):
        if lo == stop:  # past the table's rows: hold the next ones
            table[held] = -1
            a0 = fwd_rows[lo]
            stop = int(np.searchsorted(fwd_rows, a0 + span))
            held = (fwd_rows[lo:stop] - a0) * n + b[lo:stop]
            table[held] = fwd[lo:stop]
        hi = max(int(np.searchsorted(ends, ends[lo] - after[lo] + _CHUNK, "right")), lo + 1)
        hi = min(hi, stop)
        w = after[lo:hi]
        starts = np.cumsum(w, dtype=idx) - w
        bc = np.arange(starts[-1] + w[-1], dtype=idx)
        bc += np.repeat(first[b[lo:hi]] - starts, w)
        ac = table.take(np.repeat((fwd_rows[lo:hi] - a0) * n, w) + cols.take(bc))
        closed = np.flatnonzero(ac >= 0)
        # each closed path's forward entry (a, b), by where it starts
        ab = fwd[lo + np.searchsorted(starts, closed, "right") - 1]
        yield ab, ac[closed], bc[closed]
        lo = hi


def triangle_index(g: Graph):
    """Every triangle of ``g`` by CSR entry id, built once per graph.

    Returns read-only integer arrays ``(rows, mirror, tri)``: ``rows[e]`` is
    the row of CSR entry e (its column is ``g._indices[e]``), ``mirror[e]``
    the entry of the reverse edge, and column k of the (3, t) array ``tri``
    holds the entries (a, b), (a, c) and (b, c) of the k-th triangle
    a < b < c, in ascending (a, b, c) order.  It keeps 8 bytes per CSR entry
    and 12 per triangle.  The triangles are counted in one pass over the
    forward paths a -> b -> c (the compact-forward listing of Schank and
    Wagner 2005 and Latapy 2008); beyond ``_CHUNK`` of them they are written
    in a second pass, so the build holds one chunk of paths and the closure
    table beside the index, never a second copy of it.
    """
    if g._triangles is None:
        n, cols = g.node_count, g._indices
        idx = np.int32 if len(cols) < 2**31 else np.int64
        rows = np.repeat(np.arange(n, dtype=idx), g.degrees)
        # entries by (col, row): by symmetry, the k-th is the reverse of entry
        # k; rows ascend in CSR order, so a stable sort by column gives it
        mirror = np.argsort(cols.astype(_layer_dtype(n)), kind="stable").astype(idx)
        fwd = np.flatnonzero(rows < cols)
        count, head = 0, [np.empty((3, 0), dtype=idx)]
        for found in _closed_paths(g, rows, fwd, idx):
            count += len(found[0])
            if count <= _CHUNK:
                head.append(np.array(found, dtype=idx))
        if count <= _CHUNK:  # few triangles: keep them from the counting pass
            tri = np.concatenate(head, axis=1)
        else:
            tri = np.empty((3, count), dtype=idx)
            at = 0
            for found in _closed_paths(g, rows, fwd, idx):
                tri[:, at : at + len(found[0])] = found
                at += len(found[0])
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
    # int16 up to 2**15 nodes: a layer difference wraps only at
    # (n - 1) - (-1) = 2**15, none of the -1, 0 and 1 tested below
    layer_of = lv.layer_of.astype(_layer_dtype(g.node_count), copy=False)
    # take: fancy indexing by the index's int32 arrays is about twice as slow
    row_layer = layer_of.take(rows)
    col_layer = layer_of.take(cols)
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
    return parse_edge_list(read_text(path, "edge-list"))
