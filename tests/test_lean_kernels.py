"""The kernels every combat run goes through, after their array passes were
cut: breadth-first search, the consecutive-layer edges, the path sweep, the
minimum-seed search and pair sampling, each bitwise equal to the code it
replaced (kept in ``oracles.py``)."""

import numpy as np
import pytest

from layercast import (
    CombatParams, ContractError, build_graph, layer_from_sources, preset, run_false_process,
)
from layercast import generators
from layercast.centrality import _BLOCK, CentralityKind, _path_scores
from layercast.graph import hop_distances
from layercast.harness import build_ensemble
from layercast.intervention import minimum_true_seeds

from oracles import (
    dense_block_path_scores,
    frontier_layering,
    per_k_minimum_true_seeds,
    row_pair_edges,
    scatter_hop_distances,
)
from test_triangle_index import assert_same_as_product

GRAPHS = 300
BATCHES = 10


def random_case(seed):
    """A random graph with duplicate and reversed pairs, self-loops, a second
    component, isolated nodes, and a source set that may leave nodes unreached."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 160))
    p = float(rng.choice([0.01, 0.04, 0.1, 0.3]))
    split = int(rng.integers(0, n + 1))  # nodes >= split form their own component
    i, j = np.triu_indices(n, 1)
    keep = (rng.random(len(i)) < p) & ((i < split) == (j < split))
    e = np.stack([i[keep], j[keep]], axis=1)
    loops = rng.integers(0, n, size=int(rng.integers(0, 4)))
    e = np.concatenate([e, e[: len(e) // 4, ::-1], e[: len(e) // 7], np.stack([loops, loops], axis=1)])
    g = build_graph(n, e)
    sources = rng.choice(n, size=int(rng.integers(1, max(2, n // 5))), replace=False)
    return g, sources


def path_graph(n=400):
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def check_kernels(g, sources):
    n = g.node_count
    A = g.to_csr()
    lv = layer_from_sources(g, sources)
    ref = frontier_layering(g, sources)
    assert lv.layer_of.tobytes() == ref.layer_of.tobytes()
    assert lv.sources.tobytes() == ref.sources.tobytes() and lv.depth == ref.depth

    frontier = np.zeros(n)
    frontier[sources] = 1.0
    block = np.eye(n, min(n, 9), -(n // 3))
    for start in (frontier, block):
        want = scatter_hop_distances(A, start)
        for counts in (A, g.to_csr(np.int16)):  # float64 and int16 path counts
            for a, b in zip(hop_distances(counts, start), want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    assert_same_as_product(g, lv)

    want = dense_block_path_scores(g, _BLOCK)
    for a, b in zip(_path_scores(g), want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("batch", range(BATCHES))
def test_random_graphs_bitwise(batch):
    for seed in range(batch, GRAPHS, BATCHES):
        check_kernels(*random_case(seed))


def test_deep_path_bitwise():
    g = path_graph()
    check_kernels(g, [0])
    assert layer_from_sources(g, [0]).depth == 399


def test_every_source_reached_at_zero_hops():
    g, _ = random_case(5)
    dist, sigma = hop_distances(g.to_csr(), np.ones(g.node_count))
    assert not dist.any() and (sigma == 1.0).all()


PARAMS = CombatParams(0.5, 0.4, 0.4, 0.1)


@pytest.mark.parametrize("strategy", [CentralityKind.DEGREE, CentralityKind.RANDOM])
def test_minimum_seed_curve_matches_per_k_loop(strategy):
    config = preset("er_intervention")
    graphs = [g for g, _ in build_ensemble(config)[:6]]
    rng = np.random.default_rng(7)
    false_processes = [
        run_false_process(g, rng.choice(g.node_count, 3, replace=False), PARAMS) for g in graphs
    ]
    args = (graphs, strategy, false_processes, PARAMS, 40)
    curve, want_curve = [], []
    got = minimum_true_seeds(*args, rng_seed=11, curve_out=curve)
    want = per_k_minimum_true_seeds(*args, rng_seed=11, curve_out=want_curve)
    assert got == want
    assert curve == want_curve
    assert len(curve) > 1


class TestPairSampling:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 57, 200, 1000])
    def test_er_draws_match_row_by_row(self, n):
        got = generators._sample_pair_edges(np.random.default_rng(n), n, lambda i, j: 0.04, 0.04)
        want = row_pair_edges(np.random.default_rng(n), n, lambda i: 0.04)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chunk", [1, 5, 64, 1 << 16])
    def test_community_draws_match_across_chunk_sizes(self, monkeypatch, chunk):
        # chunks end on whole rows; one row longer than a chunk is a chunk
        monkeypatch.setattr(generators, "_PAIR_CHUNK", chunk)
        n = 90
        comm = np.repeat(np.arange(n), 13)[:n] % 5
        got = generators._sample_pair_edges(
            np.random.default_rng(4), n, lambda i, j: np.where(comm[i] == comm[j], 0.3, 0.02), 0.3
        )
        want = row_pair_edges(
            np.random.default_rng(4), n, lambda i: np.where(comm[i + 1 :] == comm[i], 0.3, 0.02)
        )
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_community_draws_with_p_in_below_p_out(self):
        n = 150
        comm = np.arange(n) // 12
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        got = generators._sample_pair_edges(
            rng_a, n, lambda i, j: np.where(comm[i] == comm[j], 0.01, 0.2), 0.2
        )
        want = row_pair_edges(rng_b, n, lambda i: np.where(comm[i + 1 :] == comm[i], 0.01, 0.2))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng_a.random() == rng_b.random()  # the same draws consumed

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 57, 400])
    def test_draws_at_probability_0_and_1(self, n, p):
        rng_a, rng_b = np.random.default_rng(n), np.random.default_rng(n)
        got = generators._sample_pair_edges(rng_a, n, lambda i, j: p, p)
        want = row_pair_edges(rng_b, n, lambda i: p)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert len(got) == p * n * (n - 1) // 2
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize(
        "pair_prob",
        [lambda i, j: 0.3, lambda i, j: np.where(j == i + 1, 0.5, 0.1)],
        ids=["scalar", "some-pairs"],
    )
    def test_probability_above_the_bound_rejected(self, pair_prob):
        # above pmax, a pair's draws in [pmax, p) would be skipped as misses
        with pytest.raises(ContractError):
            generators._sample_pair_edges(np.random.default_rng(0), 60, pair_prob, 0.2)


def test_degree_floor_solved_once_per_parameters(monkeypatch):
    calls = []
    mean = generators._rounded_power_law_mean
    monkeypatch.setattr(
        generators, "_rounded_power_law_mean", lambda *a: calls.append(a) or mean(*a)
    )
    generators._solve_degree_floor.cache_clear()
    params = preset("lfr_intervention").generator
    for seed in range(3):
        generators.gen_lfr(params, seed)
    assert len(calls) == 80  # one bisection for three graphs
