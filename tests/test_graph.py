import tracemalloc

import numpy as np
import pytest

from layercast import (
    ContractError,
    InputError,
    build_graph,
    effective_edge_count,
    format_edge_list,
    layer_from_sources,
    load_edge_list,
    parse_edge_list,
    save_edge_list,
)
from layercast import generators
from layercast import graph as graph_module

from oracles import adjacency_dict, bfs_layers, effective_edges_brute, row_unique_graph_arrays


def messy_edges(n, m, seed):
    """m random pairs with duplicates, reversed pairs and self-loops."""
    rng = np.random.default_rng(seed)
    e = rng.integers(0, n, size=(m, 2))
    return np.concatenate([e, e[: m // 3, ::-1], e[: m // 5]])


class TestBuildGraph:
    def test_chain(self, chain4):
        assert chain4.node_count == 4
        assert chain4.edge_count == 3
        assert chain4.neighbors(1).tolist() == [0, 2]

    def test_empty(self):
        g = build_graph(3, [])
        assert g.edge_count == 0
        assert g.degrees.tolist() == [0, 0, 0]

    def test_dedup_and_self_loop_removal(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 1)])
        assert g.edge_count == 1
        assert g.edges.tolist() == [[0, 1]]

    def test_endpoint_out_of_range(self):
        with pytest.raises(InputError):
            build_graph(3, [(0, 3)])
        with pytest.raises(InputError):
            build_graph(3, [(-1, 2)])

    def test_adjacency_symmetric(self, random_graph_factory):
        g, _ = random_graph_factory(seed=3, n=40, p=0.15)
        for u in range(g.node_count):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    @pytest.mark.parametrize(
        "n, edges",
        [
            (1, []),
            (5, []),
            (7, lambda: ((u, (u * 3) % 7) for u in range(7))),  # a generator, self-loop at 0
            (12, lambda: messy_edges(12, 40, 1).tolist()),
            (12, lambda: [tuple(r) for r in messy_edges(12, 40, 2)]),
            (30, lambda: messy_edges(30, 200, 3)),
            (200, lambda: messy_edges(200, 3000, 4)),
            (50, lambda: messy_edges(50, 300, 5).astype(np.int32)),
            (0, []),
            (0, np.empty((0, 2), dtype=np.int64)),
            (1, [(0, 0), (0, 0)]),
            (4, [(1, 1), (3, 3), (0, 0)]),
            (6, [(4, 2), (2, 4), (4, 2), (0, 5), (5, 0), (2, 4)]),
            (5, [(4, 3), (3, 2), (2, 1), (1, 0), (4, 0)]),
        ],
        ids=["n1-empty", "empty", "generator", "lists", "tuples", "array", "array-200", "int32",
             "n0", "n0-array", "n1-self-loops", "self-loops-only", "duplicates", "reversed"],
    )
    def test_construction_matches_row_unique(self, n, edges):
        g = build_graph(n, edges() if callable(edges) else edges)
        want = row_unique_graph_arrays(n, edges() if callable(edges) else edges)
        for got, ref in zip((g.edges, g._indptr, g._indices), want):
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [2.5, True, "3", None, -1, 2**31, 3_000_000_000],
                             ids=["float", "bool", "str", "none", "negative", "past-bound", "3e9"])
    def test_node_count_must_be_an_integer_in_bounds(self, n):
        # checked before any per-node array: 3e9 nodes would ask for 24 GB
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"^node_count must be "):
                build_graph(n, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_numpy_integer_node_count_becomes_int(self):
        g = build_graph(np.int32(3), [(0, 2)])
        assert type(g.node_count) is int and g.node_count == 3
        assert graph_module.MAX_NODES == generators.MAX_NODES == 2**31 - 1

    def test_immutable_arrays(self, chain4):
        with pytest.raises(ValueError):
            chain4.edges[0, 0] = 5
        with pytest.raises(ValueError):
            chain4.neighbors(1)[0] = 3


class TestLayering:
    def test_chain_single_source(self, chain4):
        lv = layer_from_sources(chain4, [0])
        assert lv.layer_of.tolist() == [0, 1, 2, 3]
        assert lv.sources.tolist() == [0]
        assert lv.depth == 3

    def test_chain_both_ends(self, chain4):
        lv = layer_from_sources(chain4, [0, 3])
        assert lv.layer_of.tolist() == [0, 1, 1, 0]
        assert lv.sources.tolist() == [0, 3]
        assert lv.depth == 1

    def test_star_from_leaf(self, star5):
        lv = layer_from_sources(star5, [1])
        assert lv.depth == 2
        assert lv.layer(0) == 1
        assert lv.layer(2) == 2

    @pytest.mark.parametrize(
        "sources",
        [[3, 0, 3], (3, 0), {0, 3}, np.array([3, 0, 3]), np.array([3, 0], dtype=np.int32)],
        ids=["list", "tuple", "set", "ndarray", "int32-ndarray"],
    )
    def test_any_collection_of_sources(self, chain4, sources):
        lv = layer_from_sources(chain4, sources)
        assert lv.sources.dtype == np.int64 and lv.sources.tolist() == [0, 3]

    def test_empty_sources(self, chain4):
        with pytest.raises(InputError):
            layer_from_sources(chain4, [])

    def test_invalid_source(self, chain4):
        with pytest.raises(InputError):
            layer_from_sources(chain4, [9])

    @pytest.mark.parametrize(
        "sources, named",
        [
            ([1.5], "1.5"),
            (np.array([2.7]), "2.7"),
            (["1"], "'1'"),
            ([True], "True"),
            ([0, 2.5], "2.5"),
            (np.array([True, False]), "True"),
        ],
        ids=["float", "float-ndarray", "string", "bool", "mixed", "bool-ndarray"],
    )
    def test_non_integer_source_rejected(self, chain4, sources, named):
        with pytest.raises(InputError, match=f"node ids must be integers, got {named}"):
            layer_from_sources(chain4, sources)

    @pytest.mark.parametrize("empty", [[], (), set(), np.array([]), np.array([], dtype=np.int64)])
    def test_empty_sources_message(self, chain4, empty):
        with pytest.raises(InputError, match="^source set must be non-empty$"):
            layer_from_sources(chain4, empty)

    def test_unreachable_nodes_have_no_layer(self):
        g = build_graph(4, [(0, 1)])
        lv = layer_from_sources(g, [0])
        assert lv.layer(2) is None
        assert lv.layer(3) is None
        assert lv.layer_of.tolist() == [0, 1, -1, -1]

    @pytest.mark.parametrize("seed", range(8))
    def test_bfs_layer_property(self, random_graph_factory, seed):
        # every edge between reachable nodes spans at most one layer
        g, edges = random_graph_factory(seed=seed, n=35, p=0.08)
        lv = layer_from_sources(g, [0, 1])
        for u, v in edges:
            lu, lv_ = lv.layer(u), lv.layer(v)
            if lu is not None and lv_ is not None:
                assert abs(lu - lv_) <= 1
        # the reached nodes are exactly the reachable set, at its distances
        dist = bfs_layers(adjacency_dict(g.node_count, edges), [0, 1])
        assert {v: L for v, L in enumerate(lv.layer_of.tolist()) if L >= 0} == dist


class TestEffectiveEdges:
    def test_chain_has_no_triangles(self, chain4):
        lv = layer_from_sources(chain4, [0])
        assert effective_edge_count(chain4, lv, 1, 0) == 0

    def test_triangle(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        lv = layer_from_sources(g, [0])
        assert effective_edge_count(g, lv, 1, 0) == 1
        assert effective_edge_count(g, lv, 2, 0) == 1

    def test_k4_from_one_source(self, k4):
        lv = layer_from_sources(k4, [0])
        # layer-1 target has two co-layer neighbors, both adjacent to the source
        assert effective_edge_count(k4, lv, 1, 0) == 2

    def test_precondition_violations(self, chain4):
        lv = layer_from_sources(chain4, [0])
        with pytest.raises(ContractError):
            effective_edge_count(chain4, lv, 0, 1)  # wrong direction
        with pytest.raises(ContractError):
            effective_edge_count(chain4, lv, 2, 0)  # not adjacent layers
        with pytest.raises(ContractError):
            effective_edge_count(chain4, lv, 3, 1)  # no such edge

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, random_graph_factory, seed):
        g, edges = random_graph_factory(seed=100 + seed, n=50, p=0.12)
        lv = layer_from_sources(g, [0])
        dist = bfs_layers(adjacency_dict(g.node_count, edges), [0])
        degrees = g.degrees
        for u, v in edges:
            lu, lv_ = lv.layer(u), lv.layer(v)
            if lu is None or lv_ is None or abs(lu - lv_) != 1:
                continue
            target, source = (u, v) if lu == lv_ + 1 else (v, u)
            got = effective_edge_count(g, lv, target, source)
            assert got == effective_edges_brute(g.node_count, edges, dist, target, source)
            assert got <= min(degrees[target], degrees[source]) - 1


class TestEdgeListFormat:
    def test_round_trip_bytes(self, tmp_path, random_graph_factory):
        g, _ = random_graph_factory(seed=5, n=25, p=0.2)
        path = tmp_path / "g.edges"
        save_edge_list(g, path)
        first = path.read_bytes()
        g2 = load_edge_list(path)
        save_edge_list(g2, path)
        assert path.read_bytes() == first
        assert g2.node_count == g.node_count
        assert np.array_equal(g2.edges, g.edges)

    def test_format_header(self, chain4):
        text = format_edge_list(chain4)
        assert text.splitlines()[0] == "4 3"

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_edge_list("not numbers\n")
        with pytest.raises(InputError):
            parse_edge_list("3 2\n0 1\n")  # fewer edges than declared
        with pytest.raises(InputError):
            parse_edge_list("")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_edge_list(tmp_path / "missing.edges")

    def test_load_undecodable_file(self, tmp_path):
        path = tmp_path / "caf\u00e9.edges"
        path.write_bytes("2 1\n0 1 # caf\u00e9\n".encode("utf-8"))
        with pytest.raises(InputError, match="edge-list file .* is not ascii text") as info:
            load_edge_list(path)
        assert str(path) in str(info.value)
