import math

import numpy as np
import pytest

from layercast import (
    ErParams,
    GaussianPartitionParams,
    GenerationError,
    InputError,
    LfrParams,
    format_edge_list,
    gen_er,
    gen_gaussian_partition,
    gen_lfr,
)
from layercast.generators import _sample_pair_edges


class TestParams:
    def test_er_validation(self):
        with pytest.raises(InputError):
            ErParams(n=0, edge_exist_prob=0.5)
        with pytest.raises(InputError):
            ErParams(n=10, edge_exist_prob=1.5)

    def test_gaussian_validation(self):
        with pytest.raises(InputError):
            GaussianPartitionParams(n=10, mean_size=0, shape=1, p_in=0.1, p_out=0.1)
        with pytest.raises(InputError):
            GaussianPartitionParams(n=10, mean_size=5, shape=0, p_in=0.1, p_out=0.1)
        with pytest.raises(InputError):
            GaussianPartitionParams(n=10, mean_size=5, shape=1, p_in=2, p_out=0.1)

    def test_lfr_validation(self):
        with pytest.raises(InputError):
            LfrParams(n=10, tau1=1.0, tau2=1.5, mu=0.1, average_degree=3, min_community=2)
        with pytest.raises(InputError):
            LfrParams(n=10, tau1=3, tau2=1.5, mu=0.0, average_degree=3, min_community=2)
        with pytest.raises(InputError):
            LfrParams(n=10, tau1=3, tau2=1.5, mu=0.1, average_degree=0, min_community=2)


_GAUSSIAN_FIELDS = {"n": 10, "mean_size": 5.0, "shape": 1.0, "p_in": 0.1, "p_out": 0.1}
_LFR_FIELDS = {"n": 10, "tau1": 3.0, "tau2": 1.5, "mu": 0.1, "average_degree": 3.0, "min_community": 2}


@pytest.mark.parametrize(
    "cls, fields, name",
    [
        pytest.param(GaussianPartitionParams, _GAUSSIAN_FIELDS, "mean_size", id="gaussian-mean_size"),
        pytest.param(GaussianPartitionParams, _GAUSSIAN_FIELDS, "shape", id="gaussian-shape"),
        pytest.param(GaussianPartitionParams, _GAUSSIAN_FIELDS, "p_in", id="gaussian-p_in"),
        pytest.param(LfrParams, _LFR_FIELDS, "tau1", id="lfr-tau1"),
        pytest.param(LfrParams, _LFR_FIELDS, "tau2", id="lfr-tau2"),
        pytest.param(LfrParams, _LFR_FIELDS, "mu", id="lfr-mu"),
        pytest.param(LfrParams, _LFR_FIELDS, "average_degree", id="lfr-average_degree"),
    ],
)
def test_nan_parameter_rejected(cls, fields, name):
    with pytest.raises(InputError):
        cls(**{**fields, name: float("nan")})


class TestEr:
    def test_complete_graph(self):
        g = gen_er(ErParams(n=10, edge_exist_prob=1.0), 0)
        assert g.edge_count == 45

    def test_empty_graph(self):
        g = gen_er(ErParams(n=10, edge_exist_prob=0.0), 0)
        assert g.edge_count == 0

    def test_mean_edge_count_50_seeds(self):
        params = ErParams(n=1000, edge_exist_prob=0.04)
        counts = [gen_er(params, seed).edge_count for seed in range(50)]
        sigma = math.sqrt(499500 * 0.04 * 0.96)  # ~138.5
        assert abs(np.mean(counts) - 19980) < 3 * sigma

    def test_determinism(self):
        params = ErParams(n=60, edge_exist_prob=0.1)
        a = format_edge_list(gen_er(params, 42))
        b = format_edge_list(gen_er(params, 42))
        c = format_edge_list(gen_er(params, 43))
        assert a == b
        assert a != c

    def test_mean_and_variance_sanity_200_seeds(self):
        # binomial pair count: mean and variance within 4 sigma of theory
        n, p, seeds = 200, 0.1, 200
        pairs = n * (n - 1) // 2
        counts = np.array([gen_er(ErParams(n=n, edge_exist_prob=p), s).edge_count for s in range(seeds)])
        mu = pairs * p
        var = pairs * p * (1 - p)
        assert abs(counts.mean() - mu) < 4 * math.sqrt(var / seeds)
        var_of_var = 2 * var**2 / (seeds - 1)  # normal-approx sampling variance
        assert abs(counts.var(ddof=1) - var) < 4 * math.sqrt(var_of_var)


class TestGaussianPartition:
    def test_sizes_partition_nodes(self):
        params = GaussianPartitionParams(n=500, mean_size=40, shape=40, p_in=0.1, p_out=0.001)
        g, comm = gen_gaussian_partition(params, 11)
        assert len(comm) == 500
        assert np.bincount(comm).sum() == 500
        assert (np.bincount(comm) >= 1).all()

    @pytest.mark.parametrize(
        "shape,lo,hi", [(40, 0.6, 1.6), (1, 28.0, 52.0)]
    )
    def test_size_variance(self, shape, lo, hi):
        # variance of drawn sizes is mean_size/shape: ~1 for shape 40, ~40 for shape 1
        sizes = []
        for seed in range(40):
            params = GaussianPartitionParams(n=1000, mean_size=40, shape=shape, p_in=0, p_out=0)
            _, comm = gen_gaussian_partition(params, seed)
            sizes.extend(np.bincount(comm)[:-1].tolist())  # last community is truncated
        var = np.array(sizes, float).var(ddof=1)
        assert lo < var < hi

    def test_cliques_when_p_in_one(self):
        params = GaussianPartitionParams(n=80, mean_size=40, shape=40, p_in=1.0, p_out=0.0)
        g, comm = gen_gaussian_partition(params, 3)
        n_comm = comm.max() + 1
        # p_out=0: connected components are exactly the communities
        seen = np.zeros(80, bool)
        components = 0
        for start in range(80):
            if seen[start]:
                continue
            components += 1
            stack = [start]
            seen[start] = True
            while stack:
                v = stack.pop()
                for w in g.neighbors(v):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        assert components == n_comm
        # and every community is a clique
        for c in range(n_comm):
            members = np.nonzero(comm == c)[0]
            for v in members:
                assert len(g.neighbors(v)) == len(members) - 1

    def test_single_community_construction_matches_er(self):
        # identical pair probabilities consume identical draws
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        uniform = _sample_pair_edges(rng_a, 50, lambda i: 0.1)
        community = _sample_pair_edges(rng_b, 50, lambda i: np.full(50 - 1 - i, 0.1))
        assert np.array_equal(uniform, community)

    def test_single_community_edge_count_distribution(self):
        # one giant community degenerates to G(n, p_in) in distribution
        n, p = 120, 0.1
        params = GaussianPartitionParams(n=n, mean_size=n, shape=1e9, p_in=p, p_out=0.0)
        counts = [gen_gaussian_partition(params, s)[0].edge_count for s in range(30)]
        pairs = n * (n - 1) / 2
        sigma = math.sqrt(pairs * p * (1 - p))
        assert abs(np.mean(counts) - pairs * p) < 4 * sigma / math.sqrt(30)

    def test_determinism(self):
        params = GaussianPartitionParams(n=200, mean_size=40, shape=40, p_in=0.1, p_out=0.001)
        a, ca = gen_gaussian_partition(params, 5)
        b, cb = gen_gaussian_partition(params, 5)
        assert format_edge_list(a) == format_edge_list(b)
        assert np.array_equal(ca, cb)


PAPER_LFR = LfrParams(n=1000, tau1=3.0, tau2=1.5, mu=0.1, average_degree=5.0, min_community=50)


class TestLfr:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paper_params_realized_properties(self, seed):
        g, comm = gen_lfr(PAPER_LFR, seed)
        mean_deg = 2 * g.edge_count / g.node_count
        assert 4.0 <= mean_deg <= 6.0
        inter = int((comm[g.edges[:, 0]] != comm[g.edges[:, 1]]).sum())
        mixing = inter / g.edge_count
        assert 0.05 <= mixing <= 0.15
        # simple graph, full community cover, community-size floor
        assert len(np.unique(g.edges, axis=0)) == g.edge_count
        assert (g.edges[:, 0] != g.edges[:, 1]).all()
        counts = np.bincount(comm)
        assert counts.sum() == 1000
        assert (counts >= 50).all()

    def test_single_community_all_internal(self):
        params = LfrParams(n=60, tau1=3.0, tau2=1.5, mu=0.01, average_degree=4.0, min_community=60)
        g, comm = gen_lfr(params, 1)
        assert comm.max() == 0
        inter = int((comm[g.edges[:, 0]] != comm[g.edges[:, 1]]).sum())
        assert inter == 0

    def test_determinism(self):
        a, ca = gen_lfr(PAPER_LFR, 7)
        b, cb = gen_lfr(PAPER_LFR, 7)
        assert format_edge_list(a) == format_edge_list(b)
        assert np.array_equal(ca, cb)

    def test_infeasible_min_community(self):
        params = LfrParams(n=40, tau1=3.0, tau2=1.5, mu=0.1, average_degree=4.0, min_community=60)
        with pytest.raises(GenerationError, match="min_community"):
            gen_lfr(params, 0)

    def test_infeasible_average_degree(self):
        params = LfrParams(n=9, tau1=3.0, tau2=1.5, mu=0.1, average_degree=8.9, min_community=2)
        with pytest.raises(GenerationError, match="average_degree"):
            gen_lfr(params, 0)
