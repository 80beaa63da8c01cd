import math
from collections import Counter

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
from layercast import generators
from layercast.harness import generate_graph
from layercast.generators import (
    _CHUNK,
    _SWAP_ATTEMPTS,
    _BoundedDraws,
    _match_stubs,
    _power_law_cdf,
    _power_law_inverse,
    _sample_community_sizes,
    _sample_pair_edges,
)

from oracles import scalar_lfr, scalar_match_stubs


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
_ER_FIELDS = {"n": 10, "edge_exist_prob": 0.1}


@pytest.mark.parametrize(
    "cls, fields",
    [(ErParams, _ER_FIELDS), (GaussianPartitionParams, _GAUSSIAN_FIELDS), (LfrParams, _LFR_FIELDS)],
    ids=["er", "gaussian", "lfr"],
)
def test_node_count_bound(cls, fields):
    assert generators.MAX_NODES == 2**31 - 1
    assert cls(**{**fields, "n": generators.MAX_NODES}).n == generators.MAX_NODES
    for n in (generators.MAX_NODES + 1, 2**63, 0):
        with pytest.raises(InputError, match=rf"^n must be in \[1, 2147483647\], got {n}$"):
            cls(**{**fields, "n": n})


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


@pytest.mark.parametrize(
    "cls, fields, name",
    [
        pytest.param(GaussianPartitionParams, _GAUSSIAN_FIELDS, "mean_size", id="gaussian-mean_size"),
        pytest.param(LfrParams, _LFR_FIELDS, "tau1", id="lfr-tau1"),
        pytest.param(LfrParams, _LFR_FIELDS, "tau2", id="lfr-tau2"),
        pytest.param(LfrParams, _LFR_FIELDS, "average_degree", id="lfr-average_degree"),
    ],
)
def test_infinite_parameter_rejected(cls, fields, name):
    with pytest.raises(InputError, match=f"{name} must be finite"):
        cls(**{**fields, name: math.inf})


def test_infinite_shape_means_equal_sizes():
    params = GaussianPartitionParams(n=100, mean_size=10.0, shape=math.inf, p_in=0.1, p_out=0.01)
    _, comm = gen_gaussian_partition(params, 3)
    assert np.bincount(comm).tolist() == [10] * 10


_ER_FIELDS = {"n": 10, "edge_exist_prob": 0.1}


@pytest.mark.parametrize(
    "cls, fields, name",
    [
        pytest.param(ErParams, _ER_FIELDS, "edge_exist_prob", id="er-edge_exist_prob"),
        *(
            pytest.param(GaussianPartitionParams, _GAUSSIAN_FIELDS, name, id=f"gaussian-{name}")
            for name in ("mean_size", "shape", "p_in", "p_out")
        ),
        *(
            pytest.param(LfrParams, _LFR_FIELDS, name, id=f"lfr-{name}")
            for name in ("tau1", "tau2", "mu", "average_degree")
        ),
    ],
)
@pytest.mark.parametrize("value", [True, False, "3", None], ids=["true", "false", "string", "none"])
def test_non_real_parameter_rejected(cls, fields, name, value):
    with pytest.raises(InputError, match=f"{name} must be a real number"):
        cls(**{**fields, name: value})


@pytest.mark.parametrize("value", [np.float32(0.25), np.int64(1), 0, 1, 0.5])
def test_real_probability_of_any_number_type_accepted(value):
    assert ErParams(n=10, edge_exist_prob=value).edge_exist_prob == value


_INTEGER_FIELDS = [
    pytest.param(ErParams, _ER_FIELDS, "n", id="er-n"),
    pytest.param(GaussianPartitionParams, _GAUSSIAN_FIELDS, "n", id="gaussian-n"),
    pytest.param(LfrParams, _LFR_FIELDS, "n", id="lfr-n"),
    pytest.param(LfrParams, _LFR_FIELDS, "min_community", id="lfr-min_community"),
]


@pytest.mark.parametrize("cls, fields, name", _INTEGER_FIELDS)
@pytest.mark.parametrize(
    "value", [200.5, 1e3, float("nan"), "200"], ids=["fraction", "exponent", "nan", "string"]
)
def test_non_integer_count_rejected(cls, fields, name, value):
    with pytest.raises(InputError, match=f"{name} must be an integer"):
        cls(**{**fields, name: value})


@pytest.mark.parametrize("cls, fields, name", _INTEGER_FIELDS)
def test_numpy_integer_count_becomes_int(cls, fields, name):
    params = cls(**{**fields, name: np.int64(fields[name])})
    assert type(getattr(params, name)) is int
    assert params == cls(**fields)


@pytest.mark.parametrize(
    "generate, params",
    [
        (gen_er, ErParams(**_ER_FIELDS)),
        (gen_gaussian_partition, GaussianPartitionParams(**_GAUSSIAN_FIELDS)),
        (gen_lfr, LfrParams(**_LFR_FIELDS)),
        (generate_graph, ErParams(**_ER_FIELDS)),
    ],
    ids=["er", "gaussian", "lfr", "generate_graph"],
)
@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "7"])
def test_bad_seed_rejected(generate, params, seed):
    # None would draw fresh entropy: the output would not be a function of the seed
    with pytest.raises(InputError, match=r"^rng_seed must be a nonnegative integer"):
        generate(params, seed)


def test_every_seed_kind_gives_the_integer_seeds_graph():
    params = ErParams(n=30, edge_exist_prob=0.2)
    want = format_edge_list(gen_er(params, 7))
    for seed in (np.uint8(7), np.random.SeedSequence(7), np.random.default_rng(7)):
        assert format_edge_list(gen_er(params, seed)) == want


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
        uniform = _sample_pair_edges(rng_a, 50, lambda i, j: 0.1, 0.1)
        community = _sample_pair_edges(rng_b, 50, lambda i, j: np.full(len(i), 0.1), 0.1)
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


class TestPowerLawHelpers:
    """The truncated power law's CDF and inverse: a point mass when the bounds
    meet, a GenerationError naming the exponent when float64 cannot hold its
    normaliser, and the same bytes as before everywhere else."""

    def test_equal_bounds_are_a_point_mass(self):
        u = np.random.default_rng(0).random(50)
        assert (_power_law_inverse(u, 25.0, 25.0, 400.0) == 25.0).all()
        assert _power_law_inverse(0.3, 7.0, 7.0, 3.0) == 7.0
        assert (_power_law_cdf(np.array([0.5, 1.0, 1.5]), 1.0, 1.0, 3.0) == 1.0).all()

    @pytest.mark.parametrize("helper", [_power_law_inverse, _power_law_cdf])
    @pytest.mark.parametrize("xmin, xmax, tau", [(25.0, 27.0, 400.0), (22.5, 44.0, 1e6)])
    def test_underflow_names_the_exponent(self, helper, xmin, xmax, tau):
        with pytest.raises(GenerationError, match=f"exponent {tau}"):
            helper(np.array([0.2, 0.7]), xmin, xmax, tau)

    def test_finite_case_unchanged(self):
        u = np.random.default_rng(1).random(200)
        for xmin, xmax, tau in [(1.0, 44.0, 3.0), (2.7, 200.0, 1.5), (50.0, 1000.0, 1.01)]:
            a = 1.0 - tau
            want = (xmin**a - u * (xmin**a - xmax**a)) ** (1.0 / a)
            assert _power_law_inverse(u, xmin, xmax, tau).tobytes() == want.tobytes()
            x = np.clip(u * xmax, xmin, xmax)
            want = (xmin**a - x**a) / (xmin**a - xmax**a)
            assert _power_law_cdf(u * xmax, xmin, xmax, tau).tobytes() == want.tobytes()


def check_community_sizes(sizes, n, min_community, max_community):
    """Sizes sum to n and are at least min_community; each is at most
    max_community but the last, which may have taken in a cut remainder
    below min_community."""
    assert sum(sizes) == n and min(sizes) >= min_community
    assert max(sizes[:-1], default=0) <= max_community
    assert sizes[-1] < max_community + min_community


class TestCommunitySizes:
    @pytest.mark.parametrize("size", [2, 5, 25])
    def test_last_size_reaches_max_plus_min_minus_one(self, size):
        # min = max: every draw is that size, and a remainder of size - 1
        # joins the last community
        n = 3 * size + size - 1
        sizes = _sample_community_sizes(np.random.default_rng(0), n, 1.5, size, size)
        assert sizes == [size, size, 2 * size - 1]

    def test_sweep_of_valid_arguments(self):
        rng = np.random.default_rng(2)
        above = 0
        for seed in range(600):
            n = int(rng.integers(1, 400))
            min_community = int(rng.integers(1, n + 1))
            max_community = int(rng.integers(min_community, n + 1))
            tau2 = float(rng.choice([1.01, 1.5, 2.0, 3.0, 10.0, 100.0]))
            sizes = _sample_community_sizes(
                np.random.default_rng(seed), n, tau2, min_community, max_community
            )
            check_community_sizes(sizes, n, min_community, max_community)
            above += sizes[-1] > max_community
        assert above > 0  # the last size's own bound is reached, not only stated

    def test_sweep_of_lfr_params(self, monkeypatch):
        # the arguments gen_lfr passes, over valid LfrParams
        calls = []
        sample = generators._sample_community_sizes

        def checking(rng, n, tau2, min_community, max_community):
            sizes = sample(rng, n, tau2, min_community, max_community)
            check_community_sizes(sizes, n, min_community, max_community)
            calls.append(sizes)
            return sizes

        monkeypatch.setattr(generators, "_sample_community_sizes", checking)
        rng = np.random.default_rng(3)
        for seed in range(60):
            n = int(rng.integers(20, 150))
            params = LfrParams(
                n=n, tau1=float(rng.choice([2.0, 3.0])), tau2=float(rng.choice([1.1, 1.5, 2.0])),
                mu=0.1, average_degree=float(rng.integers(2, 6)),
                min_community=int(rng.integers(1, n // 2)),
            )
            try:
                gen_lfr(params, seed)
            except GenerationError:
                pass
        assert len(calls) >= 60


def _scalar_then_bulk(seed, bounds, lead):
    """Draw ``bounds`` from two generators of one seed, by scalar calls and by
    :class:`_BoundedDraws`, after ``lead`` scalar draws that leave PCG64's
    half-word buffered when odd; returns both generators and both results."""
    scalar, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (scalar, bulk):
        for _ in range(lead):
            rng.integers(5)
    want = [int(scalar.integers(b)) for b in bounds]
    draws = _BoundedDraws(bulk)
    got = [draws.draw(b) for b in bounds]
    draws.close()
    return scalar, bulk, want, got


def _same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert np.array_equal(a.random(5), b.random(5))
    assert a.integers(7) == b.integers(7)


class TestBoundedDraws:
    @pytest.mark.parametrize("bound", [2, 3, 4, 37, 1 << 16, 1 << 31, (1 << 31) + 1, 1 << 32])
    @pytest.mark.parametrize("count", [1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("lead", [0, 1])
    def test_equals_scalar_calls(self, bound, count, lead):
        scalar, bulk, want, got = _scalar_then_bulk(count * 31 + bound % 1000, [bound] * count, lead)
        assert got == want
        _same_stream(scalar, bulk)

    def test_threshold_loop_rejects(self):
        # 2**31 + 1 rejects about half its outputs, so more raw outputs are
        # taken than draws made
        count = 300
        scalar, _, want, got = _scalar_then_bulk(5, [(1 << 31) + 1] * count, 0)
        assert got == want
        raw = np.random.default_rng(5)
        raw.integers(0, 1 << 32, size=count, dtype=np.uint32)
        assert raw.bit_generator.state != scalar.bit_generator.state

    @pytest.mark.parametrize("lead", [0, 1])
    def test_bound_one_draws_nothing(self, lead):
        scalar, bulk, want, got = _scalar_then_bulk(8, [1] * 50, lead)
        assert got == want == [0] * 50
        fresh = np.random.default_rng(8)
        for _ in range(lead):
            fresh.integers(5)
        assert bulk.bit_generator.state == fresh.bit_generator.state
        _same_stream(scalar, bulk)

    @pytest.mark.parametrize("length", [7, 8, 2 * _CHUNK + 1, 2 * _CHUNK + 2])
    @pytest.mark.parametrize("lead", [0, 1])
    def test_mixed_bounds(self, length, lead):
        choices = [1, 2, 3, 5, 64, 1000, (1 << 31) + 1, (1 << 32) - 1]
        bounds = np.random.default_rng(length).choice(choices, size=length).tolist()
        scalar, bulk, want, got = _scalar_then_bulk(length + 100, bounds, lead)
        assert got == want
        _same_stream(scalar, bulk)

    def test_close_without_draws_leaves_the_generator(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        _BoundedDraws(rng).close()
        assert rng.bit_generator.state == before


def _tuple_keys(occupied, n):
    return {lo * n + hi for lo, hi in occupied}


class TestMatchStubs:
    """The bulk-drawing matcher equals the scalar one on every repair path:
    the edges it adds to ``occupied`` are those the scalar one returns, and
    the generator state after is the same."""

    N = 12

    def _both(self, seed, stubs, occupied_pairs=(), communities=None, budget=1000):
        n = self.N
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ref_occupied = set(occupied_pairs)
        occupied = _tuple_keys(ref_occupied, n)
        paths = Counter()
        want = scalar_match_stubs(ref_rng, stubs, ref_occupied, communities, budget, paths)
        assert _match_stubs(rng, stubs, occupied, n, communities, budget) is None
        assert occupied == _tuple_keys(ref_occupied, n)
        added = occupied - _tuple_keys(occupied_pairs, n)
        assert added == _tuple_keys((sorted(pair) for pair in want), n)
        assert len(added) == len(want)
        _same_stream(ref_rng, rng)
        return paths

    @pytest.mark.parametrize("seed", range(20))
    def test_internal_with_duplicates_and_loops(self, seed):
        stubs = np.random.default_rng(seed).integers(0, 5, size=40)
        self._both(seed, stubs, occupied_pairs=[(0, 1), (2, 3)])

    @pytest.mark.parametrize("seed", range(20))
    def test_external_with_communities(self, seed):
        communities = np.arange(self.N) % 3
        stubs = np.random.default_rng(seed).integers(0, self.N, size=61)
        self._both(seed, stubs, occupied_pairs=[(0, 1), (4, 5)], communities=communities)

    def test_pair_dropped_after_the_swap_attempts(self):
        # two nodes only: every pair is the one edge or a self-loop, so each
        # repair fails and the pair is dropped after _SWAP_ATTEMPTS tries
        paths = self._both(1, np.array([0, 1] * 6 + [0, 0]), budget=10 * _SWAP_ATTEMPTS)
        assert paths["dropped"] > 0 and paths["budget"] == 0

    @pytest.mark.parametrize("budget", [0, 1, 2, 59, 61, 130])
    def test_budget_runs_out(self, budget):
        paths = self._both(2, np.array([0, 1] * 6 + [0, 0, 1, 1] * 3), budget=budget)
        assert paths["budget"] == (budget > 0)

    def test_no_pairs(self):
        self._both(4, np.array([3], dtype=np.int64))
        self._both(4, np.array([], dtype=np.int64))


DESK_LFR = LfrParams(n=200, tau1=3.0, tau2=1.5, mu=0.1, average_degree=5.0, min_community=50)


def _assert_lfr_equals_oracle(params, seeds):
    """``gen_lfr`` equals :func:`oracles.scalar_lfr` at every seed, errors
    included; returns the oracle's path counts over the seeds."""
    paths = Counter()
    for seed in seeds:
        try:
            want = scalar_lfr(params, seed, paths)
        except GenerationError as exc:
            with pytest.raises(GenerationError) as got:
                gen_lfr(params, seed)
            assert str(got.value) == str(exc)
            paths["error"] += 1
            continue
        g, comm = gen_lfr(params, seed)
        assert np.array_equal(g.edges, want[0].edges)
        assert np.array_equal(comm, want[1]) and comm.dtype == want[1].dtype
        assert not comm.flags.writeable
    return paths


class TestLfrEqualsScalarOracle:
    """Bulk draws move no output: every graph and every error is bitwise the
    scalar generator's (``tests/oracles.py::scalar_lfr``)."""

    @pytest.mark.parametrize("params", [DESK_LFR, PAPER_LFR], ids=["desk", "paper"])
    def test_presets(self, params):
        paths = _assert_lfr_equals_oracle(params, range(100))
        assert paths["parity"] > 0 and paths["dropped"] > 0

    def test_single_community(self):
        params = LfrParams(n=60, tau1=3.0, tau2=1.5, mu=0.01, average_degree=4.0, min_community=60)
        _assert_lfr_equals_oracle(params, range(20))

    def test_pairs_dropped_after_failed_swaps(self):
        params = LfrParams(n=30, tau1=3.0, tau2=1.5, mu=0.9, average_degree=6.0, min_community=15)
        paths = _assert_lfr_equals_oracle(params, range(50))
        assert paths["dropped"] >= 20 and paths["parity"] > 0

    def test_budget_runs_out(self):
        params = LfrParams(n=60, tau1=3.0, tau2=1.5, mu=0.95, average_degree=12.0, min_community=30)
        assert _assert_lfr_equals_oracle(params, range(20))["budget"] > 0

    @pytest.mark.parametrize(
        "params, match",
        [
            (LfrParams(n=40, tau1=3.0, tau2=1.5, mu=0.1, average_degree=4.0, min_community=60),
             "min_community"),
            (LfrParams(n=9, tau1=3.0, tau2=1.5, mu=0.1, average_degree=8.9, min_community=2),
             "average_degree"),
            (LfrParams(n=20, tau1=3.0, tau2=1.5, mu=0.01, average_degree=10.0, min_community=2),
             "no community large enough"),
        ],
        ids=["min_community", "average_degree", "no_community"],
    )
    def test_generation_errors(self, params, match):
        assert _assert_lfr_equals_oracle(params, range(20))["error"] > 0
        with pytest.raises(GenerationError, match=match):
            for seed in range(20):
                gen_lfr(params, seed)
