"""The per-graph triangle index behind ``graph.layer_edges``: bitwise equal to
the sparse-product count and the wedge build it replaced, built once and
read-only, bounded in build memory, and leaving no sparse matrix to build per
diffusion run."""

import dataclasses
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from layercast import (
    CombatParams,
    DiffusionParams,
    ErParams,
    build_graph,
    dense_er_single_preset,
    gen_er,
    LayeredView,
    layer_from_sources,
    preset,
    run_intervention,
    run_single_diffusion,
)
from layercast import graph as graph_module
from layercast.graph import layer_edges, triangle_index
from layercast.harness import build_ensemble, generate_graph

from oracles import adjacency_dict, frontier_layering, product_layer_edges, wedge_triangle_index


def er_edges(n, p, seed, offset=0):
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    keep = rng.random(len(i)) < p
    return np.stack([i[keep], j[keep]], axis=1) + offset


def bipartite_edges(left, right, p, seed):
    rng = np.random.default_rng(seed)
    return [(a, left + b) for a in range(left) for b in range(right) if rng.random() < p]


CASES = {
    "er-30-dense": lambda: build_graph(30, er_edges(30, 0.5, 1)),
    "er-80": lambda: build_graph(80, er_edges(80, 0.1, 2)),
    "er-150": lambda: build_graph(150, er_edges(150, 0.05, 3)),
    "lfr-desk": lambda: generate_graph(preset("lfr_intervention").generator, 0)[0],
    # two components, a path and isolated nodes
    "disconnected": lambda: build_graph(
        90,
        np.concatenate(
            [er_edges(40, 0.2, 4), er_edges(30, 0.3, 5, offset=40),
             np.array([(70 + v, 71 + v) for v in range(12)])]
        ),
    ),
    "bipartite": lambda: build_graph(30, bipartite_edges(12, 18, 0.4, 6)),
    "sparse-er": lambda: build_graph(300, er_edges(300, 0.004, 7)),
    "complete-12": lambda: build_graph(12, list(combinations(range(12), 2))),
    "edgeless": lambda: build_graph(10, []),
    "n-1": lambda: build_graph(1, []),
}

TRIANGLE_FREE = ("bipartite", "sparse-er", "edgeless", "n-1")


@pytest.fixture(params=list(CASES), scope="module")
def case(request):
    return request.param, CASES[request.param]()


def assert_same_as_product(g, lv):
    got = layer_edges(g, lv)
    want = product_layer_edges(g, lv)
    for a, b in zip(got, want):
        assert a.dtype == np.int64
        if b.dtype == object:
            # no edge crosses layers: scipy answers the empty fancy index with
            # a sparse matrix, so the product path's counts are an empty
            # object array
            assert len(a) == len(b) == 0
            continue
        assert b.dtype == np.int64
        assert a.tobytes() == b.tobytes()


def brute_triangles(g):
    adj = adjacency_dict(g.node_count, g.edges.tolist())
    return [
        (a, b, c)
        for a, b, c in combinations(range(g.node_count), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    ]


class TestAgainstProductPath:
    def test_random_layerings(self, case):
        name, g = case
        n = g.node_count
        rng = np.random.default_rng(n + len(name))
        for _ in range(20):
            sources = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False)
            assert_same_as_product(g, layer_from_sources(g, sources))

    def test_depth_zero_layering(self, case):
        _, g = case
        lv = layer_from_sources(g, range(g.node_count))
        assert lv.depth == 0
        assert_same_as_product(g, lv)
        assert all(len(a) == 0 for a in layer_edges(g, lv))

    def test_triangle_free_cases(self, case):
        name, g = case
        _, _, tri = triangle_index(g)
        assert (tri.shape[1] == 0) == (name in TRIANGLE_FREE)


class TestIndex:
    @pytest.mark.parametrize("chunk", [1, 5, None])
    @pytest.mark.parametrize("name", ["er-30-dense", "er-80", "disconnected", "complete-12", "lfr-desk"])
    def test_matches_brute_force_enumeration(self, monkeypatch, name, chunk):
        if chunk is not None:  # chunks smaller than one entry's wedges
            monkeypatch.setattr(graph_module, "_CHUNK", chunk)
        g = CASES[name]()
        rows, mirror, (ab, ac, bc) = triangle_index(g)
        cols = g._indices
        assert rows.tolist() == np.repeat(np.arange(g.node_count), g.degrees).tolist()
        assert rows[mirror].tolist() == cols.tolist()
        assert cols[mirror].tolist() == rows.tolist()
        # each triangle once, ascending, through the entries (a, b), (a, c), (b, c)
        listed = list(zip(rows[ab].tolist(), cols[ab].tolist(), cols[ac].tolist()))
        assert listed == brute_triangles(g)
        assert (rows[ac] == rows[ab]).all()
        assert (rows[bc] == cols[ab]).all()
        assert (cols[bc] == cols[ac]).all()

    def test_complete_graph_count(self):
        g = CASES["complete-12"]()
        assert triangle_index(g)[2].shape == (3, 220)  # C(12, 3)

    def test_built_once(self):
        g = CASES["er-80"]()
        assert triangle_index(g) is triangle_index(g)
        assert g.to_csr() is g.to_csr()


class TestCachesReadOnly:
    def test_csr_arrays(self):
        A = CASES["er-80"]().to_csr()
        for arr in (A.data, A.indices, A.indptr):
            with pytest.raises(ValueError):
                arr[0] = 2

    def test_index_arrays(self):
        rows, mirror, tri = triangle_index(CASES["er-80"]())
        for arr in (rows, mirror, tri):
            with pytest.raises(ValueError):
                arr[0] = 1


ORACLE_CASES = {
    **CASES,
    "n-0": lambda: build_graph(0, []),
    "n-2": lambda: build_graph(2, [(0, 1)]),
    "complete-40": lambda: build_graph(40, list(combinations(range(40), 2))),
    "star": lambda: build_graph(25, [(0, v) for v in range(1, 25)]),
    "two-components": lambda: build_graph(
        70, np.concatenate([er_edges(40, 0.3, 8), er_edges(30, 0.5, 9, offset=40)])
    ),
}


def assert_same_index(g):
    for a, b in zip(triangle_index(g), wedge_triangle_index(g)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAgainstWedgeBuild:
    """The forward-path build gives the bytes of the wedge build it replaced
    (``oracles.wedge_triangle_index``), whatever its table and chunk sizes."""

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_same_bytes(self, name):
        assert_same_index(ORACLE_CASES[name]())

    @pytest.mark.parametrize("rows, chunk", [(1, 1), (1, 5), (3, 5), (3, 1 << 14)])
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_small_table_and_chunks(self, monkeypatch, name, rows, chunk):
        # a table of one or three rows, and chunks of 1 or 5 paths, which end
        # inside a row and take the two-pass build past 5 triangles
        g = ORACLE_CASES[name]()
        monkeypatch.setattr(graph_module, "_TABLE", rows * max(g.node_count, 1))
        monkeypatch.setattr(graph_module, "_CHUNK", chunk)
        assert_same_index(g)


def triangle_strip(n):
    """Nodes 0 .. n-1, each joined to the next two: a triangle at every step."""
    v = np.arange(n)
    return build_graph(n, np.concatenate([np.stack([v[:-1], v[1:]], 1), np.stack([v[:-2], v[2:]], 1)]))


@pytest.mark.parametrize("n", [2**15, 2**15 + 1])
class TestLayerDtypeBranches:
    """Layers are gathered and sorted as int16 up to 2**15 nodes, as int64
    beyond; both give the bytes of the references."""

    def test_branch_taken(self, n):
        assert graph_module._layer_dtype(n) == (np.int16 if n <= 2**15 else np.int64)

    def check(self, g, sources):
        lv = layer_from_sources(g, sources)
        ref = frontier_layering(g, sources)
        assert lv.layer_of.tobytes() == ref.layer_of.tobytes()
        assert lv.sources.tobytes() == ref.sources.tobytes() and lv.depth == ref.depth
        assert_same_as_product(g, lv)
        return lv

    def test_path_from_one_end(self, n):
        # the deepest layering there is: node v in layer v, up to n - 1,
        # int16's largest value at 2**15 (taken as given: a search is n hops)
        g = build_graph(n, [(v, v + 1) for v in range(n - 1)])
        lv = LayeredView(np.arange(n))
        assert lv.sources.tolist() == [0] and lv.depth == n - 1
        assert_same_as_product(g, lv)

    def test_triangle_strip(self, n):
        g = triangle_strip(n)
        assert_same_index(g)
        self.check(g, np.arange(0, n, 4096))


@pytest.mark.paper
def test_paper_dense_er_index_matches_wedge_build():
    config = dataclasses.replace(dense_er_single_preset("paper"), ensemble_size=8)
    for g, _ in build_ensemble(config):
        assert_same_index(g)


def test_build_memory_is_index_plus_one_chunk():
    # dense ER: about 1.1 million forward wedges, 80 MiB if held at once,
    # closing about 550 000 triangles (6.7 MiB of index)
    g = gen_er(ErParams(n=300, edge_exist_prob=0.5), 3)
    tracemalloc.start()
    try:
        rows, mirror, tri = triangle_index(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = rows.nbytes + mirror.nbytes + tri.nbytes
    assert kept == 8 * len(rows) + 12 * tri.shape[1]
    # allowance: one chunk of _CHUNK wedges, under 80 bytes each (1.3 MiB),
    # up to _CHUNK triangles kept from the counting pass (0.2 MiB) and the
    # build's int64 scratch, four words per CSR entry (1.4 MiB here); a
    # second copy of the triangles would add 6.7 MiB
    assert peak <= kept + 4 * 2**20


def test_no_sparse_matrix_per_run(monkeypatch):
    g = gen_er(ErParams(n=120, edge_exist_prob=0.08), 11)
    combat = CombatParams(0.5, 0.4, 0.6, 0.1)
    single = DiffusionParams(0.5, 0.5)

    def runs():
        run_intervention(g, [0, 1], [5, 6, 7], combat)
        run_single_diffusion(g, [3], single)

    runs()  # fills the graph's caches
    built = []
    init = csr_matrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(csr_matrix, "__init__", counting_init)
    build_graph(3, [(0, 1)]).to_csr()
    assert len(built) == 1  # the count sees a build
    built.clear()
    runs()
    assert built == []
