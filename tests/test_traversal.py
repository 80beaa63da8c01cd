"""The one breadth-first primitive, ``graph.hop_distances``, and the three
traversals built on it, each bitwise equal to the loop it replaced."""

import dataclasses
import math
import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest

from layercast import (
    InputError,
    ErParams,
    betweenness_centrality,
    build_graph,
    closeness_centrality,
    gen_er,
    layer_from_sources,
    prefix_layerings,
)
from layercast import PRESETS, CentralityKind, centrality, forking, harness, preset
from layercast import graph as graph_module
from layercast.centrality import _BLOCK, _path_scores
from layercast.harness import build_ensemble
from layercast.graph import SearchBuffers, hop_distances, product_into

from oracles import (
    dense_closeness,
    float64_path_scores,
    frontier_layering,
    per_source_betweenness,
    scatter_hop_distances,
)


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


def grid_graph(side):
    """The side x side grid: a corner's path counts are binomial coefficients,
    past 2**15 from 18 hops out."""
    v = np.arange(side * side).reshape(side, side)
    right = np.stack([v[:, :-1].ravel(), v[:, 1:].ravel()], axis=1)
    down = np.stack([v[:-1].ravel(), v[1:].ravel()], axis=1)
    return build_graph(side * side, np.concatenate([right, down]))


def hub_graph(leaves=2**15, joiners=100):
    """A hub (node 0) of degree ``leaves``; node ``leaves + 1 + j`` joins
    leaves j * 300 + 1 ... (j + 1) * 300, and a tail hangs off the last."""
    hub = [(0, leaf) for leaf in range(1, leaves + 1)]
    joins = [(leaves + 1 + j, j * 300 + 1 + i) for j in range(joiners) for i in range(300)]
    n = leaves + 1 + joiners
    tail = [(n - 1, n), (n, n + 1)]
    return build_graph(n + 2, hub + joins + tail)


#: The adjacency dtypes a search takes its products in.
DTYPES = (np.float64, np.int16)

NARROW_CASES = {
    "grid": lambda: grid_graph(30),
    "hub": hub_graph,
    "two-components": CASES["disconnected"],
    "edgeless": CASES["edgeless"],
    "n-1": CASES["n-1"],
}


class TestNarrowSearch:
    """An int16 search gives the bytes of the float64 loop it replaced
    (``oracles.scatter_hop_distances``), widening to float64 at the first hop
    whose counts could pass 2**15."""

    def check(self, g, frontier):
        got = hop_distances(g.to_csr(np.int16), frontier)
        want = scatter_hop_distances(g.to_csr(), frontier)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        return want

    @pytest.mark.parametrize("case", list(NARROW_CASES))
    def test_bitwise_equal_to_float64_loop(self, case):
        g = NARROW_CASES[case]()
        n = g.node_count
        self.check(g, np.eye(1, n)[0])
        width = min(n, 9)
        self.check(g, np.eye(n, width, -(n // 3)))
        self.check(g, np.eye(n, width).sum(axis=1))  # several sources at once
        if n <= 300:
            self.check(g, np.eye(n))

    def test_grid_widens_partway(self, products):
        g = grid_graph(30)
        _, sigma = self.check(g, np.eye(1, 900)[0])
        assert sigma.max() >= 2**15
        kinds = [out.dtype for out in products]
        assert kinds[0] == np.int16 and kinds[-1] == np.float64
        # once widened, the search stays in float64
        first_wide = kinds.index(np.float64)
        assert 0 < first_wide and set(kinds[first_wide:]) == {np.dtype(np.float64)}

    def test_hub_widens_at_the_first_hop(self, products):
        g = hub_graph()
        dist, sigma = self.check(g, np.eye(1, g.node_count)[0])
        assert g.degrees[0] >= 2**15 and dist.max() == 4 and sigma.max() == 300
        assert [out.dtype for out in products] == [np.float64] * 4

    def test_narrow_counts_below_the_bound(self, products):
        g = CASES["random-300"]()
        self.check(g, np.eye(300, 16))
        assert {out.dtype for out in products} == {np.dtype(np.int16)}

    @pytest.mark.parametrize(
        "frontier",
        [np.full(5, 2.0), np.array([1.0, 0.5, 0, 0, 0]), np.array([1, -1, 0, 0, 0]),
         np.array([np.nan, 1, 0, 0, 0]), [1, 0, 0, 0, 0]],
        ids=["two", "half", "negative", "nan", "list"],
    )
    def test_frontier_other_than_0_1_rejected(self, frontier):
        from layercast import ContractError

        g = build_graph(5, path_edges(5))
        for dtype in DTYPES:
            with pytest.raises(ContractError):
                hop_distances(g.to_csr(dtype), frontier)

    def test_bool_and_integer_frontiers_accepted(self):
        g = CASES["random-40"]()
        want = hop_distances(g.to_csr(), np.eye(40, 4))
        for frontier in (np.eye(40, 4, dtype=bool), np.eye(40, 4, dtype=np.int16)):
            for got in (hop_distances(g.to_csr(), frontier), hop_distances(g.to_csr(np.int16), frontier)):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.fixture
def products(monkeypatch):
    """The output buffer of every product the searches take with the
    adjacency, the first hop's from the 0/1 frontier included."""
    outs = []

    def counting(product):
        def counted(A, x, out):
            outs.append(out)
            return product(A, x, out)

        return counted

    monkeypatch.setattr(graph_module, "_frontier_product", counting(graph_module._frontier_product))
    monkeypatch.setattr(graph_module, "product_into", counting(product_into))
    monkeypatch.setattr(centrality, "product_into", counting(product_into))
    return outs


class TestProductCount:
    """One product per hop, whether the search counts paths in float64 or int16."""

    def test_fully_reached_search_takes_one_product_per_hop(self, products):
        g = build_graph(4, path_edges(4))
        for dtype in DTYPES:
            products.clear()
            dist, _ = hop_distances(g.to_csr(dtype), np.eye(4)[0])
            assert dist.max() == 3 and len(products) == 3

    def test_unreached_node_costs_one_more_product(self, products):
        g = build_graph(5, path_edges(4))
        for dtype in DTYPES:
            products.clear()
            dist, _ = hop_distances(g.to_csr(dtype), np.eye(5)[0])
            assert dist.tolist() == [0, 1, 2, 3, -1] and len(products) == 4

    def test_block_takes_its_deepest_search(self, products):
        n = 30
        g = build_graph(n, path_edges(n))
        for dtype in DTYPES:
            products.clear()
            dist, _ = hop_distances(g.to_csr(dtype), np.eye(n, 10))
            assert dist.max() == n - 1 and len(products) == n - 1

    def test_all_sources_take_no_product(self, products):
        g = build_graph(3, path_edges(3))
        for dtype in DTYPES:
            dist, _ = hop_distances(g.to_csr(dtype), np.ones(3))
            assert dist.tolist() == [0, 0, 0] and len(products) == 0


class TestFrontierProduct:
    """The first hop's count over the frontier's CSR rows is ``product_into``'s
    bytes, in float64 and int16, from a bool or a numeric frontier."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", ["vector", "one-hot", "several", "isolated", "zero", "zero-vector"])
    def test_same_bytes_as_product(self, dtype, case):
        n = 60
        A = build_graph(n, random_graph(50, 0.15, 5)).to_csr(dtype)  # 50 .. 59 isolated
        x = {
            "vector": np.isin(np.arange(n), [3, 17, 40]),
            "one-hot": np.eye(n, 16, -20, dtype=bool),
            "several": np.random.default_rng(2).random((n, 16)) < 0.2,
            "isolated": np.eye(n, 8, -52, dtype=bool),
            "zero": np.zeros((n, 8), dtype=bool),
            "zero-vector": np.zeros(n, dtype=bool),
        }[case]
        want = product_into(A, x.astype(dtype), np.empty(x.shape, dtype=dtype))
        for given in (x, x.astype(dtype)):
            out = np.full(x.shape, 7, dtype=dtype)  # garbage before the call
            assert graph_module._frontier_product(A, given, out) is out
            assert out.tobytes() == want.tobytes()


class TestProductInto:
    """The in-place product is ``A @ x``, byte for byte, whatever ``out`` held,
    in float64 and in the int16 the searches count paths in."""

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

    @pytest.mark.parametrize("width", [None, 1, 63, 64, 127, 128])
    def test_int16_same_bytes_as_matmul(self, width):
        rng = np.random.default_rng(width or 0)
        n = 150
        A = build_graph(n, random_graph(n, 0.1, 21)).to_csr().copy()
        A.data = rng.integers(1, 4, A.nnz).astype(np.float64)
        A = A.astype(np.int16)
        shape = (n,) if width is None else (n, width)
        x = rng.integers(-40, 41, shape, dtype=np.int16)
        out = np.full(shape, -7, dtype=np.int16)  # garbage before the call
        assert product_into(A, x, out) is out
        want = A @ x
        assert out.dtype == want.dtype == np.int16 and out.tobytes() == want.tobytes()

    def test_mixed_dtypes_rejected(self):
        from layercast import ContractError

        g = build_graph(40, random_graph(40, 0.1, 24))
        for A, x, out in [
            (g.to_csr(np.int16), np.ones(40), np.zeros(40)),
            (g.to_csr(), np.ones(40, np.int16), np.zeros(40, np.int16)),
            (g.to_csr(np.int16), np.ones(40, np.int16), np.zeros(40)),
        ]:
            with pytest.raises(ContractError):
                product_into(A, x, out)

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
        def __init__(self, *args):
            super().__init__(*args)
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


def assert_same_view(got, want):
    for a, b in [(got.layer_of, want.layer_of), (got.sources, want.sources)]:
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, b.flags.writeable)
        assert a.tobytes() == b.tobytes()
    assert got.depth == want.depth


def assert_each_row_is_a_fresh_layering(g, order, layers):
    assert layers.shape == (len(order), g.node_count)
    assert layers.dtype == graph_module._layer_dtype(g.node_count)
    assert layers.flags.c_contiguous and not layers.flags.writeable
    for k, row in enumerate(layers, 1):
        # as the minimum-seed search wraps it for a combat run
        view = graph_module.LayeredView(row.astype(np.int64))
        assert_same_view(view, layer_from_sources(g, order[:k]))


class TestPrefixLayerings:
    """Row k - 1 of a node order's prefix layerings is the layering of one
    fresh multi-source search from its first k nodes."""

    @pytest.mark.parametrize("case", list(CASES))
    def test_each_prefix_equals_a_fresh_layering(self, case):
        g = CASES[case]()
        n = g.node_count
        rng = np.random.default_rng(len(case))
        # every node, then a prefix of them
        for order in (rng.permutation(n), rng.permutation(n)[: n // 2 + 1]):
            assert_each_row_is_a_fresh_layering(g, order, prefix_layerings(g, order))

    def test_isolated_and_second_component_stay_unreached(self):
        g = build_graph(7, [(0, 1), (1, 2), (4, 5)])
        layers = prefix_layerings(g, [2, 5, 6])
        assert layers.tolist() == [
            [2, 1, 0, -1, -1, -1, -1],
            [2, 1, 0, -1, 1, 0, -1],
            [2, 1, 0, -1, 1, 0, 0],
        ]

    def test_int64_above_2_to_the_15_nodes(self):
        # a star of 2**15 + 10 nodes and one isolated node; once the hub is
        # a source, leaf 5 changes no layer but its own
        n = 2**15 + 11
        g = build_graph(n, [(0, v) for v in range(1, n - 1)])
        order = np.array([7, n - 1, 0, 5, n - 2])
        layers = prefix_layerings(g, order)
        assert layers.dtype == np.int64
        assert_each_row_is_a_fresh_layering(g, order, layers)
        assert np.flatnonzero(layers[3] != layers[2]).tolist() == [5]
        with pytest.raises(ValueError):
            layers[0, 0] = 0

    def test_one_search_per_call(self, monkeypatch):
        calls = []

        def counting(A, frontier, buffers=None):
            calls.append(frontier.shape)
            return hop_distances(A, frontier, buffers)

        monkeypatch.setattr(graph_module, "hop_distances", counting)
        n = 48
        g = build_graph(n, random_graph(n, 0.1, 14))
        prefix_layerings(g, np.arange(35))
        assert calls == [(n, 35)]

    @pytest.mark.parametrize("order", [[], [4], [-1], [1.5]])
    def test_bad_order_rejected(self, chain4, order):
        with pytest.raises(InputError):
            prefix_layerings(chain4, order)


class TestBitwiseAgainstReplacedLoops:
    def test_layering(self, graph):
        n = graph.node_count
        rng = np.random.default_rng(n)
        source_sets = [[0], [n - 1], list(range(n))]
        source_sets += [rng.choice(n, size=rng.integers(1, n + 1), replace=False) for _ in range(10)]
        for sources in source_sets:
            got = layer_from_sources(graph, sources)
            want = frontier_layering(graph, sources)
            assert_same_view(got, want)

    def test_closeness(self, graph):
        got = closeness_centrality(graph).scores
        assert got.tobytes() == dense_closeness(graph).scores.tobytes()

    def test_betweenness(self, graph):
        got = betweenness_centrality(graph).scores
        assert got.tobytes() == per_source_betweenness(graph).scores.tobytes()


def preset_graphs(name, scale):
    """The first graphs of a preset battery's ensemble."""
    config = dataclasses.replace(preset(name, scale), ensemble_size=4 if scale == "desk" else 2)
    return [g for g, _ in build_ensemble(config)]


class TestSweepEqualsFloat64Sweep:
    """The sweep that counts paths in int16 gives the bytes of the float64
    sweep it replaced (``oracles.float64_path_scores``)."""

    def check(self, g):
        for got, want in zip(_path_scores(g), float64_path_scores(g, _BLOCK)):
            assert got.tobytes() == want.tobytes()

    def test_graph_that_widens(self):
        g = grid_graph(30)
        assert scatter_hop_distances(g.to_csr(), np.eye(1, 900)[0])[1].max() >= 2**15
        self.check(g)

    @pytest.mark.parametrize(
        "name, scale",
        [pytest.param(name, scale, marks=[pytest.mark.paper] if scale == "paper" else [])
         for scale in ("desk", "paper") for name in sorted(PRESETS)],
    )
    def test_preset_graphs(self, name, scale):
        for g in preset_graphs(name, scale):
            self.check(g)


class TestTwoWorkerSweep:
    """A graph ranked on a worker that a battery forks (``forking.ahead``,
    as many as ``harness._ranking_workers`` gives) gets the serial sweep's
    bytes and the replaced loops' bytes, and the worker starts no thread of
    its own."""

    COSTLY = [CentralityKind.CLOSENESS]

    def test_same_bytes_as_serial_and_oracles(self, graph):
        serial = _path_scores(graph)
        fresh = build_graph(graph.node_count, graph.edges)
        tasks = [lambda: _path_scores(fresh), threading.active_count]
        with forking.ahead(lambda task: task(), tasks, 2) as results:
            (closeness, betweenness), threads = results
            assert threads == 1
        assert not fresh._scores  # the sweep ran on the worker's copy
        assert closeness.tobytes() == serial[0].tobytes()
        assert betweenness.tobytes() == serial[1].tobytes()
        assert closeness.tobytes() == dense_closeness(fresh).scores.tobytes()
        assert betweenness.tobytes() == per_source_betweenness(fresh).scores.tobytes()

    def test_no_worker_below_the_rule_off_the_main_thread_or_on_one_cpu(self, monkeypatch):
        # one process, one graph or no costly strategy: ranking stays here,
        # the one ranking process
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        for workers, strategies, graphs in [
            (1, self.COSTLY, 8),
            (2, self.COSTLY, 1),
            (2, [CentralityKind.DEGREE, CentralityKind.RANDOM], 8),
        ]:
            assert harness._ranking_workers(workers, strategies, graphs) == 1
        # off the main thread another thread is live, and a fork would copy
        # the locks it holds
        results = []

        def fork_two_workers():
            with forking.ahead(lambda task: task, range(8), 2) as ranked:
                results.extend(ranked)

        off_main = threading.Thread(target=fork_two_workers)
        off_main.start()
        off_main.join(timeout=60)
        assert not off_main.is_alive() and results == [None] * 8
        # the default process count is the usable CPUs, this process one of
        # them: 2 usable CPUs fork 1 worker
        monkeypatch.setattr(forking, "usable_cpus", lambda: 1)
        assert harness._ranking_workers(None, self.COSTLY, 8) == 1
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        assert harness._ranking_workers(None, self.COSTLY, 8) == 2
        with forking.ahead(lambda task: task, range(8), 2 - 1) as ranked:
            assert list(ranked) == list(range(8))
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("centrality", [closeness_centrality, betweenness_centrality])
def test_peak_memory_grows_linearly_in_n(centrality):
    # sparse ER of mean degree 8: doubling n at most about doubles the peak,
    # where an n x n search would quadruple it
    peaks = []
    for n in (2000, 4000):
        # a fresh graph, so the sweep runs under the tracer: a graph that
        # already holds its scores would measure a cache read
        g = gen_er(ErParams(n=n, edge_exist_prob=8 / n), 7)
        assert not g._scores
        tracemalloc.start()
        try:
            centrality(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


def test_serial_sweep_allocates_no_block_array_beyond_its_buffers(monkeypatch):
    # the buffers are allocated once; what the blocks allocate on top
    # (numpy's cast buffers, per-source vectors) stays below a quarter of
    # one (n, _BLOCK) float array
    n = 1000
    _path_scores(build_graph(40, random_graph(40, 0.1, 1)))  # lazy imports first
    g = gen_er(ErParams(n=n, edge_exist_prob=0.04), 7)
    g.to_csr(), g.to_csr(np.int16)  # the adjacency is the graph's, not the sweep's
    spaces = recorded_buffers(monkeypatch, None)
    tracemalloc.start()
    try:
        _path_scores(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (buffers,) = spaces
    assert buffers.dist.shape == (n, _BLOCK)
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
