"""The one breadth-first primitive, ``graph.hop_distances``, and the three
traversals built on it, each bitwise equal to the loop it replaced."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from layercast import (
    ErParams,
    betweenness_centrality,
    build_graph,
    closeness_centrality,
    gen_er,
    layer_from_sources,
)
from layercast import centrality
from layercast import graph as graph_module
from layercast.centrality import _BLOCK, _path_scores
from layercast.graph import SearchBuffers, hop_distances, product_into

from oracles import dense_closeness, frontier_layering, per_source_betweenness


def random_graph(n, p, seed, offset=0):
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    keep = rng.random(len(i)) < p
    return np.stack([i[keep], j[keep]], axis=1) + offset


def path_edges(n, offset=0):
    return [(offset + v, offset + v + 1) for v in range(n - 1)]


CASES = {
    "random-40": lambda: build_graph(40, random_graph(40, 0.1, 1)),
    "random-60-dense": lambda: build_graph(60, random_graph(60, 0.3, 2)),
    "random-300": lambda: build_graph(300, random_graph(300, 0.02, 3)),
    # two components, a deep path and isolated nodes
    "disconnected": lambda: build_graph(
        100,
        np.concatenate(
            [random_graph(50, 0.1, 4), random_graph(30, 0.2, 5, offset=50),
             np.array(path_edges(15, offset=80))]
        ),
    ),
    "path-deep": lambda: build_graph(_BLOCK + 1, path_edges(_BLOCK + 1)),
    "edgeless": lambda: build_graph(_BLOCK + 1, []),
    "n-1": lambda: build_graph(1, []),
    "n-block-minus-1": lambda: build_graph(_BLOCK - 1, random_graph(_BLOCK - 1, 0.03, 6)),
    "n-block": lambda: build_graph(_BLOCK, random_graph(_BLOCK, 0.03, 7)),
    "n-block-plus-1": lambda: build_graph(_BLOCK + 1, random_graph(_BLOCK + 1, 0.03, 8)),
    "n-2-blocks-plus-1": lambda: build_graph(
        2 * _BLOCK + 1, random_graph(2 * _BLOCK + 1, 0.01, 9)
    ),
}


@pytest.fixture(params=list(CASES), scope="module")
def graph(request):
    return CASES[request.param]()


class TestHopDistances:
    def test_counts_shortest_paths(self):
        # the 4-cycle 0-1-2-3: two shortest paths from 0 to 2
        A = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]).to_csr()
        dist, sigma = hop_distances(A, np.eye(5)[0])
        assert dist.tolist() == [0, 1, 2, 1, -1]
        assert sigma.tolist() == [1.0, 1.0, 2.0, 1.0, 0.0]

    def test_block_columns_are_independent_searches(self, graph):
        n = graph.node_count
        A = graph.to_csr()
        dist, sigma = hop_distances(A, np.eye(n))
        assert dist.shape == sigma.shape == (n, n)
        for s in range(0, n, max(1, n // 7)):
            d, c = hop_distances(A, np.eye(n)[s])
            assert dist[:, s].tobytes() == d.tobytes()
            assert sigma[:, s].tobytes() == c.tobytes()


@pytest.fixture
def products(monkeypatch):
    """The output buffer of every product the searches take with the adjacency."""
    outs = []

    def counting(A, x, out):
        outs.append(out)
        return product_into(A, x, out)

    monkeypatch.setattr(graph_module, "product_into", counting)
    monkeypatch.setattr(centrality, "product_into", counting)
    return outs


class TestProductCount:
    def test_fully_reached_search_takes_one_product_per_hop(self, products):
        A = build_graph(4, path_edges(4)).to_csr()
        dist, _ = hop_distances(A, np.eye(4)[0])
        assert dist.max() == 3 and len(products) == 3

    def test_unreached_node_costs_one_more_product(self, products):
        A = build_graph(5, path_edges(4)).to_csr()
        dist, _ = hop_distances(A, np.eye(5)[0])
        assert dist.tolist() == [0, 1, 2, 3, -1] and len(products) == 4

    def test_block_takes_its_deepest_search(self, products):
        n = 30
        A = build_graph(n, path_edges(n)).to_csr()
        dist, _ = hop_distances(A, np.eye(n, 10))
        assert dist.max() == n - 1 and len(products) == n - 1

    def test_all_sources_take_no_product(self, products):
        A = build_graph(3, path_edges(3)).to_csr()
        dist, _ = hop_distances(A, np.ones(3))
        assert dist.tolist() == [0, 0, 0] and len(products) == 0


class TestProductInto:
    """The in-place product is ``A @ x``, byte for byte, whatever ``out`` held."""

    @pytest.mark.parametrize("width", [None, 1, 63, 64, 127, 128])
    def test_same_bytes_as_matmul(self, width):
        rng = np.random.default_rng(width or 0)
        n = 150
        A = build_graph(n, random_graph(n, 0.1, 21)).to_csr().copy()
        A.data = rng.random(A.nnz) * 3.0  # non-integer entries
        shape = (n,) if width is None else (n, width)
        x = rng.standard_normal(shape) / 7.0
        out = np.full(shape, np.nan)  # garbage before the call
        assert product_into(A, x, out) is out
        want = A @ x
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    def test_sparse_block_is_densified_in_place(self):
        from scipy.sparse import identity

        n = 90
        A = build_graph(n, random_graph(n, 0.1, 22)).to_csr()
        x = identity(n, format="csr")[:, 10:73]
        out = np.full((n, 63), 7.5)
        assert product_into(A, x, out) is out
        assert out.tobytes() == (A @ x).toarray().tobytes()

    def test_search_buffers_are_reused(self):
        A = CASES["random-300"]().to_csr()
        buffers = SearchBuffers((300, 16))
        for width in (16, 5):
            frontier = np.eye(300, width, -40)
            dist, sigma = hop_distances(A, frontier, buffers)
            want = hop_distances(A, frontier)
            assert np.shares_memory(dist, buffers.dist) and np.shares_memory(sigma, buffers.sigma)
            assert dist.tobytes() == want[0].tobytes() and sigma.tobytes() == want[1].tobytes()


def recorded_buffers(monkeypatch, products):
    """Every SearchBuffers the sweep allocates; ``products`` then holds the
    output buffer of each product it takes."""
    spaces = []

    class Recording(SearchBuffers):
        def __init__(self, size):
            super().__init__(size)
            spaces.append(self)

    monkeypatch.setattr(centrality, "SearchBuffers", Recording)
    return spaces


def rows_of(spaces):
    return [p for space in spaces for p in space.products]


class TestWorkspace:
    """The sweep allocates its buffers once per graph and every product of
    every block writes into them."""

    def check(self, spaces, products, blocks):
        rows = {p.ctypes.data for p in rows_of(spaces)}
        assert len(rows) == 2 * len(spaces)
        assert {out.ctypes.data for out in products} == rows
        assert all(any(np.shares_memory(out, p) for p in rows_of(spaces)) for out in products)
        assert len(products) > len(rows) and blocks > len(spaces)

    def test_serial_sweep_reuses_one_workspace(self, monkeypatch, products):
        spaces = recorded_buffers(monkeypatch, products)
        g = CASES["n-2-blocks-plus-1"]()
        _path_scores(g)
        assert len(spaces) == 1
        self.check(spaces, products, math.ceil(g.node_count / _BLOCK))

    def test_two_workers_alternate_two_workspaces(self, monkeypatch, products):
        spaces = recorded_buffers(monkeypatch, products)
        searches = forced_two_workers(monkeypatch)
        g = CASES["n-2-blocks-plus-1"]()
        _path_scores(g)
        assert len(spaces) == 2
        self.check(spaces, products, len(searches))


class TestSharedSweep:
    """Closeness and betweenness come from one blocked search per graph."""

    def test_one_search_per_block_for_both_measures(self, monkeypatch):
        calls = []

        def counting(A, frontier, buffers=None):
            calls.append(frontier.shape)
            return hop_distances(A, frontier, buffers)

        monkeypatch.setattr(centrality, "hop_distances", counting)
        n = 2 * _BLOCK + 1
        g = build_graph(n, random_graph(n, 0.02, 10))
        closeness_centrality(g)
        betweenness_centrality(g)
        closeness_centrality(g)
        assert len(calls) == math.ceil(n / _BLOCK) == 3
        assert calls == [(n, _BLOCK), (n, _BLOCK), (n, 1)]

    @pytest.mark.parametrize("case", ["random-300", "disconnected", "n-2-blocks-plus-1"])
    def test_either_measure_first_gives_the_same_bytes(self, case):
        first, second = CASES[case](), CASES[case]()
        c1 = closeness_centrality(first).scores
        b1 = betweenness_centrality(first).scores
        b2 = betweenness_centrality(second).scores
        c2 = closeness_centrality(second).scores
        assert c1.tobytes() == c2.tobytes()
        assert b1.tobytes() == b2.tobytes()

    def test_cached_vectors_are_read_only(self):
        g = CASES["random-40"]()
        for scores in (closeness_centrality(g).scores, betweenness_centrality(g).scores,
                       *_path_scores(g)):
            with pytest.raises(ValueError):
                scores[0] = 1.0
        assert closeness_centrality(g).scores is _path_scores(g)[0]
        assert betweenness_centrality(g).scores is _path_scores(g)[1]


class TestBitwiseAgainstReplacedLoops:
    def test_layering(self, graph):
        n = graph.node_count
        rng = np.random.default_rng(n)
        source_sets = [[0], [n - 1], list(range(n))]
        source_sets += [rng.choice(n, size=rng.integers(1, n + 1), replace=False) for _ in range(10)]
        for sources in source_sets:
            got = layer_from_sources(graph, sources)
            want = frontier_layering(graph, sources)
            assert got.sources.tobytes() == want.sources.tobytes()
            assert got.layer_of.tobytes() == want.layer_of.tobytes()
            assert len(got.layers) == len(want.layers)
            for a, b in zip(got.layers, want.layers):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_closeness(self, graph):
        got = closeness_centrality(graph).scores
        assert got.tobytes() == dense_closeness(graph).scores.tobytes()

    def test_betweenness(self, graph):
        got = betweenness_centrality(graph).scores
        assert got.tobytes() == per_source_betweenness(graph).scores.tobytes()


def forced_two_workers(monkeypatch):
    """Make every sweep run on two workers; returns, per block search in the
    order the searches started, its first source, its width and its thread."""
    monkeypatch.setattr(centrality, "_THREADED_MIN_NODES", 1)
    monkeypatch.setattr(centrality, "_usable_cpus", lambda: 2)
    searches = []

    def recording(A, frontier, buffers=None):
        first = int(frontier.nonzero()[0].min())
        searches.append((first, frontier.shape[1], threading.current_thread()))
        return hop_distances(A, frontier, buffers)

    monkeypatch.setattr(centrality, "hop_distances", recording)
    return searches


class TestTwoWorkerSweep:
    """Above the size rule two workers search half-width blocks; the scores
    are the serial sweep's bytes and the replaced loops' bytes."""

    def test_same_bytes_as_serial_and_oracles(self, monkeypatch, graph):
        n = graph.node_count
        serial = _path_scores(graph)  # every case is below the size rule
        searches = forced_two_workers(monkeypatch)
        fresh = build_graph(n, graph.edges)
        closeness, betweenness = _path_scores(fresh)
        half = _BLOCK // 2
        # two blocks in flight may start in either order
        assert sorted((first, width) for first, width, _ in searches) == [
            (first, min(half, n - first)) for first in range(0, n, half)
        ]
        assert all(t is not threading.main_thread() for _, _, t in searches)
        assert closeness.tobytes() == serial[0].tobytes()
        assert betweenness.tobytes() == serial[1].tobytes()
        assert closeness.tobytes() == dense_closeness(fresh).scores.tobytes()
        assert betweenness.tobytes() == per_source_betweenness(fresh).scores.tobytes()

    def test_same_bytes_under_fast_thread_switching(self, monkeypatch):
        g = CASES["n-2-blocks-plus-1"]()
        serial = _path_scores(g)
        forced_two_workers(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                closeness, betweenness = _path_scores(build_graph(g.node_count, g.edges))
                assert closeness.tobytes() == serial[0].tobytes()
                assert betweenness.tobytes() == serial[1].tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_no_worker_below_the_rule_off_the_main_thread_or_on_one_cpu(self, monkeypatch):
        pools = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(threading.current_thread())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(centrality, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(centrality, "_usable_cpus", lambda: 2)
        rule = centrality._THREADED_MIN_NODES

        def fresh(n, seed):
            return build_graph(n, random_graph(n, 4 / n, seed))

        _path_scores(fresh(rule - 1, 11))
        assert pools == []
        g = fresh(rule, 12)
        off_main = threading.Thread(target=_path_scores, args=(g,))
        off_main.start()
        off_main.join(timeout=60)
        assert not off_main.is_alive() and g._paths is not None and pools == []
        monkeypatch.setattr(centrality, "_usable_cpus", lambda: 1)
        _path_scores(fresh(rule, 13))
        assert pools == []
        monkeypatch.setattr(centrality, "_usable_cpus", lambda: 2)
        _path_scores(fresh(rule, 14))
        assert pools == [threading.main_thread()]


@pytest.mark.paper
def test_two_workers_on_a_paper_graph(monkeypatch):
    n = 1000
    g = gen_er(ErParams(n=n, edge_exist_prob=0.04), 2718)
    assert n >= centrality._THREADED_MIN_NODES
    monkeypatch.setattr(centrality, "_THREADED_MIN_NODES", n + 1)
    serial = _path_scores(g)
    searches = forced_two_workers(monkeypatch)
    fresh = gen_er(ErParams(n=n, edge_exist_prob=0.04), 2718)
    closeness, betweenness = _path_scores(fresh)
    assert len(searches) == math.ceil(n / (_BLOCK // 2))
    assert closeness.tobytes() == serial[0].tobytes()
    assert betweenness.tobytes() == serial[1].tobytes()
    assert closeness.tobytes() == dense_closeness(fresh).scores.tobytes()
    assert betweenness.tobytes() == per_source_betweenness(fresh).scores.tobytes()


@pytest.mark.parametrize("centrality", [closeness_centrality, betweenness_centrality])
def test_peak_memory_grows_linearly_in_n(centrality):
    # sparse ER of mean degree 8: doubling n at most about doubles the peak,
    # where an n x n search would quadruple it
    peaks = []
    for n in (2000, 4000):
        # a fresh graph, so the sweep runs under the tracer: a graph that
        # already holds its scores would measure a cache read
        g = gen_er(ErParams(n=n, edge_exist_prob=8 / n), 7)
        assert g._paths is None
        tracemalloc.start()
        try:
            centrality(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


def test_two_workers_peak_at_most_the_serial_peak(monkeypatch):
    # two half-width blocks in flight hold no more than one full-width block
    monkeypatch.setattr(centrality, "_usable_cpus", lambda: 2)
    n = 1000
    assert n >= centrality._THREADED_MIN_NODES
    _path_scores(build_graph(40, random_graph(40, 0.1, 1)))  # lazy imports first
    peaks = {}
    for mode, rule in (("serial", n + 1), ("two workers", centrality._THREADED_MIN_NODES)):
        monkeypatch.setattr(centrality, "_THREADED_MIN_NODES", rule)
        g = gen_er(ErParams(n=n, edge_exist_prob=0.04), 7)  # fresh: no cached scores
        tracemalloc.start()
        try:
            _path_scores(g)
            peaks[mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["two workers"] <= peaks["serial"]


def test_serial_sweep_allocates_no_block_array_beyond_its_buffers(monkeypatch):
    # the buffers are allocated once; what the blocks allocate on top (the
    # sparse first hop, numpy's cast buffers, per-source vectors) stays
    # below a quarter of one (n, _BLOCK) float array
    monkeypatch.setattr(centrality, "_usable_cpus", lambda: 1)
    n = 1000
    _path_scores(build_graph(40, random_graph(40, 0.1, 1)))  # lazy imports first
    g = gen_er(ErParams(n=n, edge_exist_prob=0.04), 7)
    g.to_csr()  # the adjacency is the graph's, not the sweep's
    tracemalloc.start()
    try:
        _path_scores(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = SearchBuffers((n, _BLOCK))
    held = buffers.dist.nbytes + buffers.sigma.nbytes + n * _BLOCK * 8  # and delta
    held += sum(a.nbytes for a in (*buffers.masks, *buffers.products))
    assert held <= peak < held + n * _BLOCK * 2


@pytest.mark.parametrize(
    "x_shape, out_shape, fortran",
    [((40, 3), (40, 4), False), ((39, 3), (40, 3), False), ((40,), (40, 1), False),
     ((40, 3), (40, 3), True)],
    ids=["narrow-out", "short-x", "vector-into-block", "fortran-out"],
)
def test_product_into_rejects_a_mismatched_output(x_shape, out_shape, fortran):
    from layercast import ContractError

    A = build_graph(40, random_graph(40, 0.1, 23)).to_csr()
    out = np.zeros(out_shape, order="F" if fortran else "C")
    with pytest.raises(ContractError):
        product_into(A, np.ones(x_shape), out)
