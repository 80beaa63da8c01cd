import numpy as np
import pytest

from layercast import (
    CentralityKind,
    InputError,
    betweenness_centrality,
    build_graph,
    closeness_centrality,
    compute_centrality,
    degree_centrality,
    eigenvector_centrality,
    pagerank,
    select_seeds,
)

from oracles import betweenness_brute, closeness_brute, eigenvector_brute, pagerank_brute


class TestDegree:
    def test_star(self, star5):
        assert degree_centrality(star5).scores.tolist() == [4, 1, 1, 1, 1]

    def test_empty(self):
        g = build_graph(3, [])
        assert degree_centrality(g).scores.tolist() == [0, 0, 0]

    def test_chain(self, chain4):
        assert degree_centrality(chain4).scores.tolist() == [1, 2, 2, 1]


class TestEigenvector:
    def test_k4_symmetric(self, k4):
        assert np.allclose(eigenvector_centrality(k4).scores, 0.5, atol=1e-7)

    def test_star_center_leaf_ratio(self, star5):
        s = eigenvector_centrality(star5).scores
        assert s[0] / s[1] == pytest.approx(2.0, abs=1e-6)  # sqrt(n - 1)

    def test_edgeless_rejected(self):
        with pytest.raises(InputError):
            eigenvector_centrality(build_graph(3, []))

    def test_unit_norm(self, random_graph_factory):
        g, _ = random_graph_factory(seed=1, n=40, p=0.15)
        assert np.linalg.norm(eigenvector_centrality(g).scores) == pytest.approx(1.0, abs=1e-9)


class TestCloseness:
    def test_chain_inner(self, chain4):
        s = closeness_centrality(chain4).scores
        assert s[1] == pytest.approx(0.75)
        assert s[0] == pytest.approx((3 / 3) * (3 / 6))

    def test_k4(self, k4):
        assert np.allclose(closeness_centrality(k4).scores, 1.0)

    def test_isolated_zero(self):
        g = build_graph(3, [(0, 1)])
        assert closeness_centrality(g).scores[2] == 0.0


class TestBetweenness:
    def test_chain(self, chain4):
        assert betweenness_centrality(chain4).scores.tolist() == [0, 2, 2, 0]

    def test_star_center(self, star5):
        s = betweenness_centrality(star5).scores
        assert s[0] == pytest.approx(6.0)  # C(4, 2) leaf pairs
        assert np.allclose(s[1:], 0.0)

    def test_k4_all_zero(self, k4):
        assert np.allclose(betweenness_centrality(k4).scores, 0.0)


class TestPagerank:
    def test_k3_uniform(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert np.allclose(pagerank(g).scores, 1 / 3, atol=1e-9)

    def test_chain_inner_exceed_outer(self, chain4):
        s = pagerank(chain4).scores
        assert s.sum() == pytest.approx(1.0, abs=1e-9)
        assert s[1] > s[0] and s[2] > s[3]

    def test_single_node(self):
        g = build_graph(1, [])
        assert pagerank(g).scores.tolist() == [1.0]

    def test_sums_to_one(self, random_graph_factory):
        g, _ = random_graph_factory(seed=2, n=50, p=0.1)
        assert pagerank(g).scores.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed,n,p", [(11, 30, 0.15), (12, 45, 0.1), (13, 60, 0.08), (14, 60, 0.25)])
class TestBruteForceAgreement:
    def test_closeness(self, random_graph_factory, seed, n, p):
        g, edges = random_graph_factory(seed=seed, n=n, p=p)
        assert np.allclose(closeness_centrality(g).scores, closeness_brute(n, edges), atol=1e-6)

    def test_betweenness(self, random_graph_factory, seed, n, p):
        g, edges = random_graph_factory(seed=seed, n=n, p=p)
        assert np.allclose(betweenness_centrality(g).scores, betweenness_brute(n, edges), atol=1e-6)

    def test_eigenvector(self, random_graph_factory, seed, n, p):
        g, edges = random_graph_factory(seed=seed, n=n, p=p)
        assert np.allclose(eigenvector_centrality(g).scores, eigenvector_brute(n, edges), atol=1e-6)

    def test_pagerank(self, random_graph_factory, seed, n, p):
        g, edges = random_graph_factory(seed=seed, n=n, p=p)
        assert np.allclose(pagerank(g).scores, pagerank_brute(n, edges), atol=1e-6)


class TestSelectSeeds:
    def test_star_degree_top1(self, star5):
        assert select_seeds(star5, CentralityKind.DEGREE, 1).tolist() == [0]

    def test_k_zero(self, chain4):
        assert select_seeds(chain4, CentralityKind.DEGREE, 0).tolist() == []

    def test_chain_degree_tie_break(self, chain4):
        assert select_seeds(chain4, CentralityKind.DEGREE, 2).tolist() == [1, 2]

    def test_k_too_large(self, chain4):
        with pytest.raises(InputError):
            select_seeds(chain4, CentralityKind.DEGREE, 5)

    @pytest.mark.parametrize("kind", [CentralityKind.DEGREE, CentralityKind.RANDOM])
    @pytest.mark.parametrize("k", [2.5, 2.0, "2", None, True])
    def test_non_integer_k_rejected(self, chain4, kind, k):
        with pytest.raises(InputError, match="k must be an integer"):
            select_seeds(chain4, kind, k, rng_seed=1)

    def test_random_requires_seed(self, chain4):
        with pytest.raises(InputError):
            select_seeds(chain4, CentralityKind.RANDOM, 2)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_random_rejects_a_bad_seed(self, chain4, seed):
        with pytest.raises(InputError, match=r"^rng_seed must be a nonnegative integer"):
            select_seeds(chain4, CentralityKind.RANDOM, 2, rng_seed=seed)

    def test_random_deterministic_and_distinct(self, random_graph_factory):
        g, _ = random_graph_factory(seed=4, n=30, p=0.1)
        a = select_seeds(g, CentralityKind.RANDOM, 10, rng_seed=99)
        b = select_seeds(g, CentralityKind.RANDOM, 10, rng_seed=99)
        assert a.tolist() == b.tolist()
        assert len(set(a.tolist())) == 10

    @pytest.mark.parametrize("kind", [k for k in CentralityKind if k is not CentralityKind.RANDOM])
    def test_prefix_stability(self, random_graph_factory, kind):
        g, _ = random_graph_factory(seed=6, n=40, p=0.12)
        full = select_seeds(g, kind, 12).tolist()
        for k in range(12):
            assert select_seeds(g, kind, k).tolist() == full[:k]

    def test_unknown_strategy_names_it(self, chain4):
        with pytest.raises(InputError, match="'bogus'"):
            select_seeds(chain4, "bogus", 2, rng_seed=1)

    def test_compute_rejects_random(self, chain4):
        with pytest.raises(InputError):
            compute_centrality(chain4, CentralityKind.RANDOM)
