import math
from fractions import Fraction

import numpy as np
import pytest

from layercast import (
    ContractError,
    DiffusionParams,
    InputError,
    Label,
    build_graph,
    diffusion_metrics,
    label_nodes,
    layer_from_sources,
    run_single_diffusion,
    transmission_factor,
)

from layercast.diffusion import _spread
from layercast.intervention import FalseProcess, _halt_from
from oracles import rational_single_diffusion, scalar_spread


class TestUpdateFromSource:
    def test_full_belief_no_boost(self):
        assert 1.0 * transmission_factor(0.5, 0) == pytest.approx(0.5)

    def test_half_belief_no_boost(self):
        assert 0.5 * transmission_factor(0.5, 0) == pytest.approx(0.25)

    def test_one_effective_edge(self):
        # 0.5 + 0.5 * 0.5 * 1 * 0.5 = 0.625
        assert 1.0 * transmission_factor(0.5, 1) == pytest.approx(0.625)

    def test_zero_source_belief(self):
        assert 0.0 * transmission_factor(0.7, 3) == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n_eff", [0, 1, 2, 5, 12])
    def test_bounded_and_at_least_base(self, p, n_eff):
        value = 1.0 * transmission_factor(p, n_eff)
        assert 0.0 <= value <= 1.0
        assert value >= 1.0 * p - 1e-15

    def test_past_float_binomials(self):
        # C(1030, 515) no longer fits a float; the closed form takes over
        assert transmission_factor(0.5, 1030) == 1.0
        for p in (0.01, 0.5, 0.99):
            assert math.isfinite(transmission_factor(p, 1030))
            assert math.isfinite(transmission_factor(p, 5000))

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.99])
    def test_closed_form_continues_the_sum(self, p):
        # the last N that still uses the binomial sum
        assert transmission_factor(p, 1029) == pytest.approx(
            1.0 - (1.0 - p) * (1.0 - p * p) ** 1029, rel=1e-12, abs=1e-12
        )
        assert transmission_factor(p, 1030) == 1.0 - (1.0 - p) * (1.0 - p * p) ** 1030


@pytest.mark.parametrize("name", ["transmission_prob", "threshold"])
@pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "string", "none"])
def test_params_reject_non_real(name, value):
    fields = {"transmission_prob": 0.5, "threshold": 0.5}
    with pytest.raises(InputError, match=f"{name} must be a real number"):
        DiffusionParams(**{**fields, name: value})


class TestRunSingleDiffusion:
    def test_chain_half_prob(self, chain4):
        state = run_single_diffusion(chain4, [0], DiffusionParams(0.5, 0.5))
        assert np.allclose(state.p_i, [1, 0.5, 0.25, 0.125], atol=1e-15)
        assert state.iterations_run == 3

    def test_all_creators(self, k4):
        state = run_single_diffusion(k4, [0, 1, 2, 3], DiffusionParams(0.3, 0.5))
        assert np.all(state.p_i == 1.0)
        assert state.iterations_run == 0

    def test_triangle_boost(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        state = run_single_diffusion(g, [0], DiffusionParams(0.5, 0.5))
        assert state.p_i[1] == pytest.approx(0.625)
        assert state.p_i[2] == pytest.approx(0.625)

    def test_empty_creator_set(self, chain4):
        with pytest.raises(InputError):
            run_single_diffusion(chain4, [], DiffusionParams(0.5, 0.5))

    def test_unreachable_stay_zero_and_susceptible(self):
        g = build_graph(5, [(0, 1)])
        state = run_single_diffusion(g, [0], DiffusionParams(0.9, 0.5))
        assert state.p_i[2] == 0.0
        assert state.labels[2] == Label.SUSCEPTIBLE

    def test_complement_consistency(self, random_graph_factory):
        g, _ = random_graph_factory(seed=8, n=40, p=0.1)
        state = run_single_diffusion(g, [0, 1], DiffusionParams(0.6, 0.5))
        assert np.all(np.abs(state.p_i + state.p_i_bar - 1.0) <= 1e-12)
        assert np.all((state.p_i >= 0) & (state.p_i <= 1))

    def test_given_layering_is_bitwise_equal(self, random_graph_factory):
        params = DiffusionParams(0.6, 0.5)
        for seed in range(3):
            g, _ = random_graph_factory(seed=640 + seed, n=45, p=0.09)
            creators = np.random.default_rng(seed).choice(45, 4, replace=False)
            view = layer_from_sources(g, creators)
            fresh = run_single_diffusion(g, creators, params)
            given = run_single_diffusion(g, view, params)
            assert given.layers is view
            assert given.iterations_run == fresh.iterations_run
            for name in ("p_i", "p_i_bar", "labels"):
                a, b = getattr(fresh, name), getattr(given, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()

    def test_layering_of_another_graph_is_a_contract_error(self, chain4):
        view = layer_from_sources(build_graph(5, [(0, 1)]), [0])
        with pytest.raises(ContractError, match="covers 5 nodes, the graph 4"):
            run_single_diffusion(chain4, view, DiffusionParams(0.5, 0.5))


class TestLabels:
    def test_boundary_inclusive(self, chain4):
        state = run_single_diffusion(chain4, [0], DiffusionParams(0.5, 0.5))
        labels = label_nodes(state, 0.5)
        assert labels[1] == Label.INFECTED  # p_i exactly 0.5

    def test_just_below(self, chain4):
        state = run_single_diffusion(chain4, [0], DiffusionParams(0.5, 0.5))
        assert label_nodes(state, 0.50001)[1] == Label.SUSCEPTIBLE

    def test_threshold_zero_infects_all(self, chain4):
        state = run_single_diffusion(chain4, [0], DiffusionParams(0.5, 0.0))
        assert np.all(state.labels == Label.INFECTED)


class TestMetrics:
    def test_chain(self, chain4):
        state = run_single_diffusion(chain4, [0], DiffusionParams(0.5, 0.5))
        assert diffusion_metrics(state) == (3, pytest.approx(1.875), 2, 2)

    def test_all_creators(self, k4):
        state = run_single_diffusion(k4, [0, 1, 2, 3], DiffusionParams(0.5, 0.5))
        assert diffusion_metrics(state) == (0, pytest.approx(4.0), 4, 0)

    def test_isolated_creator(self):
        g = build_graph(5, [])
        state = run_single_diffusion(g, [2], DiffusionParams(0.5, 0.5))
        assert diffusion_metrics(state) == (0, pytest.approx(1.0), 1, 4)


class TestProperties:
    def test_monotone_in_transmission_prob(self, random_graph_factory):
        g, _ = random_graph_factory(seed=21, n=60, p=0.08)
        sums = []
        for p in np.arange(0.1, 0.95, 0.1):
            state = run_single_diffusion(g, [0, 1, 2], DiffusionParams(float(p), 0.5))
            sums.append(state.p_i.sum())
        assert all(b >= a - 1e-9 for a, b in zip(sums, sums[1:]))

    def test_extreme_probs(self, random_graph_factory):
        g, _ = random_graph_factory(seed=22, n=40, p=0.1)
        zero = run_single_diffusion(g, [0], DiffusionParams(0.0, 0.5))
        outside = np.ones(40, bool)
        outside[0] = False
        assert np.all(zero.p_i[outside] == 0.0)
        # P = 1 on a triangle-free graph saturates every reachable node
        tree = build_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        one = run_single_diffusion(tree, [0], DiffusionParams(1.0, 0.5))
        assert np.all(one.p_i == 1.0)

    def test_order_independence_under_relabeling(self, random_graph_factory):
        g, edges = random_graph_factory(seed=23, n=30, p=0.15)
        params = DiffusionParams(0.55, 0.5)
        base = run_single_diffusion(g, [0, 5], params)
        rng = np.random.default_rng(0)
        perm = rng.permutation(30)
        relabeled = build_graph(30, [(perm[u], perm[v]) for u, v in edges])
        other = run_single_diffusion(relabeled, [perm[0], perm[5]], params)
        assert np.all(np.abs(other.p_i[perm] - base.p_i) <= 1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_rational_oracle(self, random_graph_factory, seed):
        g, edges = random_graph_factory(seed=200 + seed, n=18, p=0.18)
        state = run_single_diffusion(g, [0, 1], DiffusionParams(0.5, 0.5))
        expected, iters = rational_single_diffusion(18, edges, [0, 1], Fraction(1, 2))
        assert state.iterations_run == iters
        assert np.all(np.abs(state.p_i - [float(x) for x in expected]) <= 1e-12)


def _halting_by_false_belief(g, false_creators, pf, td):
    """``(halt_from, stop)``: the halting layers ``run_intervention`` hands the
    kernel, and the per-layer ``stop(L)`` mask they replaced, which the
    scalar loop reads; the two agree on every layer."""
    flv = layer_from_sources(g, false_creators)
    p_if, _, _ = scalar_spread(g, flv, pf)
    f_layer = flv.layer_of
    halt_from = _halt_from(FalseProcess(layers=flv, p_if=p_if, transmission_prob=pf), td)

    def stop(L):
        return np.where((f_layer >= 0) & (f_layer <= L), p_if, 0.0) >= td

    for L in range(g.node_count):
        assert np.array_equal(halt_from <= L, stop(L))
    return halt_from, stop


def _assert_kernel_bitwise(g, sources, P, halting=(None, None)):
    lv = layer_from_sources(g, sources)
    halt_from, stop = halting
    got = _spread(g, lv, P, halt_from)
    want = scalar_spread(g, lv, P, stop)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestKernelBitwise:
    """The vectorised layer kernel against the scalar node-by-node loop."""

    @pytest.mark.parametrize("halting", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, random_graph_factory, seed, halting):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(2, 90))
        g, _ = random_graph_factory(seed=900 + seed, n=n, p=float(rng.choice([0.02, 0.06, 0.15, 0.4])))
        sources = rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)), replace=False)
        stops = (None, None)
        if halting:
            false_creators = rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)), replace=False)
            td = float(rng.choice([0.0, 0.3, 0.5, 1.01]))
            stops = _halting_by_false_belief(g, false_creators, float(rng.random()), td)
        _assert_kernel_bitwise(g, sources, float(rng.random()), stops)

    @pytest.mark.parametrize("P", [0.0, 1.0])
    @pytest.mark.parametrize("td", [0.0, 1.5])
    def test_extreme_probabilities_and_thresholds(self, random_graph_factory, P, td):
        g, _ = random_graph_factory(seed=950, n=50, p=0.1)
        _assert_kernel_bitwise(g, [0, 7], P)
        _assert_kernel_bitwise(g, [0, 7], P, _halting_by_false_belief(g, [3], 0.6, td))

    @pytest.mark.parametrize(
        "n, edges, sources",
        [
            (1, [], [0]),
            (6, [], [1, 4]),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [0, 1, 2, 3, 4]),
            # two components: the one without a source stays unreached
            (8, [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5), (5, 6), (4, 6), (6, 7)], [0]),
        ],
        ids=["n=1", "edgeless", "all-sources", "unreachable-component"],
    )
    @pytest.mark.parametrize("halting", [False, True])
    def test_edge_cases(self, n, edges, sources, halting):
        g = build_graph(n, edges)
        stops = _halting_by_false_belief(g, [n - 1], 0.7, 0.5) if halting else (None, None)
        _assert_kernel_bitwise(g, sources, 0.6, stops)
