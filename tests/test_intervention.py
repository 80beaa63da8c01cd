import dataclasses
import math
import multiprocessing
import os
import signal
import threading
from fractions import Fraction

import numpy as np
import pytest

from layercast import (
    CentralityKind,
    CombatParams,
    ContractError,
    DiffusionParams,
    InputError,
    Label,
    NumericError,
    build_graph,
    compute_centrality,
    determine_combat_label,
    intervention_metrics,
    layer_from_sources,
    layered_view,
    minimum_true_seeds,
    prefix_layerings,
    run_false_process,
    run_intervention,
    run_single_diffusion,
    top_k_by_score,
)

from layercast import graph as graph_module
from layercast.graph import _PREFIX_WIDTH

from layercast import forking, intervention
from layercast.harness import _false_process, build_ensemble, preset

from conftest import random_edges
from oracles import (
    bounded_search_runs,
    interleaved_intervention,
    optimal_minimum_true_seeds,
    per_k_minimum_true_seeds,
    rational_intervention,
    surely_infected_nodes,
)

FIG45 = CombatParams(
    false_transmission_prob=0.5,
    true_transmission_prob=0.4,
    decisive_threshold=0.5,
    comparative_threshold=0.1,
)


@pytest.mark.parametrize(
    "override",
    [
        {"decisive_threshold": -0.1},
        {"decisive_threshold": float("nan")},
        {"false_transmission_prob": 1.5},
        {"true_transmission_prob": True},
        {"comparative_threshold": "0.1"},
        {"decisive_threshold": True},
    ],
    ids=["negative-td", "nan-td", "pf-above-1", "pt-bool", "tc-string", "td-bool"],
)
def test_combat_params_rejects_invalid(override):
    fields = {
        "false_transmission_prob": 0.5,
        "true_transmission_prob": 0.4,
        "decisive_threshold": 0.5,
        "comparative_threshold": 0.1,
    }
    with pytest.raises(InputError):
        CombatParams(**{**fields, **override})


class TestDetermineCombatLabel:
    def test_clear_false_believer(self):
        assert determine_combat_label(0.5, 0.0, 0.1) == Label.INFECTED

    def test_true_believer(self):
        assert determine_combat_label(0.25, 0.4, 0.1) == Label.PROTECTED

    def test_tie_is_susceptible(self):
        assert determine_combat_label(0.3, 0.3, 0.1) == Label.SUSCEPTIBLE


class TestChainWalkthrough:
    def test_full_regression(self, chain4):
        state = run_intervention(chain4, [0], [3], FIG45)
        assert np.all(np.abs(state.p_if - [1, 0.5, 0.25, 0.125]) <= 1e-12)
        assert np.all(np.abs(state.p_it - [0, 0, 0.4, 1]) <= 1e-12)
        assert state.labels.tolist() == [Label.INFECTED, Label.INFECTED, Label.PROTECTED, Label.PROTECTED]
        assert state.blocked[1]  # crossed the decisive threshold before its true update
        assert not state.blocked[2]

    def test_metrics(self, chain4):
        state = run_intervention(chain4, [0], [3], FIG45)
        sum_p_it, infected, susceptible, protected = intervention_metrics(state)
        assert sum_p_it == pytest.approx(1.4, abs=1e-12)
        assert (infected, susceptible, protected) == (2, 0, 2)


class TestSeedCases:
    def test_overlapping_single_seed_is_susceptible(self, chain4):
        state = run_intervention(chain4, [1], [1], FIG45)
        assert state.p_if[1] == 1.0
        assert state.p_it[1] == 1.0
        assert state.labels[1] == Label.SUSCEPTIBLE

    def test_zero_false_transmission(self, chain4):
        params = CombatParams(0.0, 0.4, 0.5, 0.1)
        state = run_intervention(chain4, [0], [3], params)
        # false news never leaves its creator
        assert state.p_if.tolist() == [1, 0, 0, 0]
        # every true-reachable node with p_it > p_if is protected
        reached = state.p_it > state.p_if
        assert np.all(state.labels[reached] == Label.PROTECTED)

    def test_isolated_false_creator(self):
        g = build_graph(5, [(2, 3), (3, 4)])
        state = run_intervention(g, [0], [4], FIG45)
        _, infected, _, _ = intervention_metrics(state)
        assert infected == 1  # only the isolated creator believes the false news

    def test_empty_seed_sets_rejected(self, chain4):
        with pytest.raises(InputError):
            run_intervention(chain4, [], [3], FIG45)
        with pytest.raises(InputError):
            run_intervention(chain4, [0], [], FIG45)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_label_partition_and_blocking_soundness(self, random_graph_factory, seed):
        g, _ = random_graph_factory(seed=300 + seed, n=40, p=0.12)
        rng = np.random.default_rng(seed)
        ic_f = rng.choice(40, 3, replace=False)
        ic_t = rng.choice(40, 4, replace=False)
        params = CombatParams(0.5, 0.4, 0.4, 0.1)
        state = run_intervention(g, ic_f, ic_t, params)
        counts = np.bincount(state.labels, minlength=3)
        assert counts.sum() == 40
        assert np.all(state.p_it[state.blocked] == 0.0)
        assert np.all((state.p_if >= 0) & (state.p_if <= 1))
        assert np.all((state.p_it >= 0) & (state.p_it <= 1))

    def test_late_crossing_relay_keeps_value_but_stops_transmitting(self):
        # Topology: true creator 0 - relay 1 - leaf 2, with the false creator 3
        # reaching the relay through node 4.  The relay receives its true
        # update at step 2 just before the false wave paints it in the same
        # step; from then on it may not relay, so the leaf gets nothing even
        # though the leaf itself never crosses the threshold.
        g = build_graph(5, [(0, 1), (1, 2), (3, 4), (4, 1)])
        params = CombatParams(0.9, 0.4, 0.3, 0.1)
        state = run_intervention(g, [3], [0], params)
        assert state.p_it[1] == pytest.approx(0.4)   # received before crossing
        assert not state.blocked[1]                  # never receive-blocked
        assert state.p_if[1] >= params.decisive_threshold
        assert state.p_it[2] == 0.0                  # relay transmitted nothing
        # the leaf was below the threshold at its receive step (no blocked
        # flag); its false belief only arrived afterwards
        assert not state.blocked[2]

    @pytest.mark.parametrize("seed", range(6))
    def test_blocking_disabled_equals_independent_runs(self, random_graph_factory, seed):
        # decisive threshold above 1 never blocks: both processes run free
        g, _ = random_graph_factory(seed=400 + seed, n=35, p=0.12)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(35, 7, replace=False)
        ic_f, ic_t = nodes[:3], nodes[3:]
        params = CombatParams(0.5, 0.4, 1.01, 0.1)
        state = run_intervention(g, ic_f, ic_t, params)
        false_solo = run_single_diffusion(g, ic_f, DiffusionParams(0.5, 0.5))
        true_solo = run_single_diffusion(g, ic_t, DiffusionParams(0.4, 0.5))
        assert np.array_equal(state.p_if, false_solo.p_i)
        assert np.array_equal(state.p_it, true_solo.p_i)
        assert not state.blocked.any()

    @pytest.mark.parametrize("creators", ["disjoint", "overlapping", "isolated"])
    @pytest.mark.parametrize("td", [0.0, 0.3, 0.5, 1.01])
    def test_bitwise_equal_to_interleaved_steps(self, random_graph_factory, td, creators):
        # the false-then-true decomposition reproduces the interleaved step
        # loop exactly, and the false process is a plain single diffusion
        params = CombatParams(0.5, 0.4, td, 0.1)
        for seed in range(5):
            g, edges = random_graph_factory(seed=700 + seed, n=40, p=0.08)
            rng = np.random.default_rng(seed)
            nodes = rng.choice(40, 7, replace=False)
            ic_f, ic_t = list(nodes[:3]), list(nodes[3:])
            if creators == "overlapping":
                ic_t.append(ic_f[0])
            elif creators == "isolated":
                # two extra nodes with no edges, one creator on each side
                g = build_graph(42, edges)
                ic_f.append(40)
                ic_t.append(41)
            state = run_intervention(g, ic_f, ic_t, params)
            p_if, p_it, blocked, labels = interleaved_intervention(g, ic_f, ic_t, params)
            assert np.array_equal(state.p_if, p_if)
            assert np.array_equal(state.p_it, p_it)
            assert np.array_equal(state.blocked, blocked)
            assert np.array_equal(state.labels, labels)
            solo = run_single_diffusion(g, ic_f, DiffusionParams(0.5, 0.5))
            assert np.array_equal(solo.p_i, p_if)

    @pytest.mark.parametrize("td", [0.0, 0.4, 1.01])
    def test_precomputed_false_process_is_bitwise_equal(self, random_graph_factory, td):
        params = CombatParams(0.6, 0.4, td, 0.1)
        for seed in range(4):
            g, _ = random_graph_factory(seed=760 + seed, n=45, p=0.09)
            rng = np.random.default_rng(seed)
            ic_f = rng.choice(45, 3, replace=False)
            false_process = run_false_process(g, ic_f, params)
            for _ in range(3):
                ic_t = rng.choice(45, 4, replace=False)
                fresh = run_intervention(g, ic_f, ic_t, params)
                reused = run_intervention(g, false_process, ic_t, params)
                assert reused.p_if is false_process.p_if
                for name in ("p_if", "p_it", "blocked", "labels"):
                    a, b = getattr(fresh, name), getattr(reused, name)
                    assert a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes()

    def test_false_process_with_other_pf_rejected(self, chain4):
        false_process = run_false_process(chain4, [0], FIG45)
        other_pf = CombatParams(0.3, 0.4, 0.5, 0.1)
        with pytest.raises(ContractError, match="false transmission probability"):
            run_intervention(chain4, false_process, [1], other_pf)
        # the other three parameters are the true process's and may differ
        run_intervention(chain4, false_process, [1], CombatParams(0.5, 0.1, 0.9, 0.3))

    @pytest.mark.parametrize("n", [3, 5])
    def test_objects_from_a_graph_of_another_size_rejected(self, chain4, n):
        other = build_graph(n, [(v, v + 1) for v in range(n - 1)])
        false_process = run_false_process(other, [0], FIG45)
        with pytest.raises(ContractError, match=f"false process covers {n} nodes, the graph 4"):
            run_intervention(chain4, false_process, [3], FIG45)
        view = layer_from_sources(other, [2])
        with pytest.raises(ContractError, match=f"true layering covers {n} nodes, the graph 4"):
            run_intervention(chain4, [0], view, FIG45)

    @pytest.mark.parametrize("td", [0.0, 0.4, 1.01])
    def test_given_true_layers_are_bitwise_equal(self, random_graph_factory, td):
        params = CombatParams(0.6, 0.4, td, 0.1)
        for seed in range(3):
            g, _ = random_graph_factory(seed=780 + seed, n=45, p=0.09)
            rng = np.random.default_rng(seed)
            ic_f = rng.choice(45, 3, replace=False)
            order = rng.permutation(45)[: _PREFIX_WIDTH + 5]
            for k, dist in enumerate(prefix_layerings(g, order), 1):
                view = layered_view(dist)
                fresh = run_intervention(g, ic_f, order[:k], params)
                given = run_intervention(g, ic_f, view, params)
                assert given.true_layers is view
                for name in ("p_if", "p_it", "blocked", "labels"):
                    a, b = getattr(fresh, name), getattr(given, name)
                    assert (a.dtype, a.shape) == (b.dtype, b.shape)
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_rational_oracle(self, random_graph_factory, seed):
        g, edges = random_graph_factory(seed=500 + seed, n=16, p=0.2)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(16, 5, replace=False)
        ic_f, ic_t = nodes[:2], nodes[2:]
        params = CombatParams(0.5, 0.4, 0.4, 0.1)
        state = run_intervention(g, ic_f, ic_t, params)
        p_if, p_it, labels = rational_intervention(
            16, edges, ic_f.tolist(), ic_t.tolist(),
            Fraction(1, 2), Fraction(2, 5), Fraction(2, 5), Fraction(1, 10),
        )
        assert np.all(np.abs(state.p_if - [float(x) for x in p_if]) <= 1e-12)
        assert np.all(np.abs(state.p_it - [float(x) for x in p_it]) <= 1e-12)
        assert state.labels.tolist() == labels


def search_from_node_0(g, params, strategy=CentralityKind.DEGREE, **kwargs):
    """minimum_true_seeds on one graph whose false creator is node 0."""
    return minimum_true_seeds([g], strategy, [run_false_process(g, [0], params)], params, **kwargs)


class TestMinimumTrueSeeds:
    def test_chain_matches_exhaustive_oracle(self, chain4):
        # the exhaustive oracle fixes the chain's optimal-placement minimum
        k_opt, seeds_opt = optimal_minimum_true_seeds(
            4, [(0, 1), (1, 2), (2, 3)], [0],
            Fraction(1, 2), Fraction(2, 5), Fraction(1, 2), Fraction(1, 10), 4,
        )
        assert k_opt == 2
        assert seeds_opt == (0, 2)
        # the degree strategy reaches completeness at the same k on the chain
        got = search_from_node_0(chain4, FIG45, k_max=4)
        assert got == 2

    def test_single_seed_insufficient_on_chain(self, chain4):
        curve = []
        search_from_node_0(chain4, FIG45, k_max=4, curve_out=curve)
        k1 = curve[0]
        assert k1[0] == 1 and not k1[1] > k1[2]

    def test_degenerate_false_process(self, chain4):
        params = CombatParams(0.0, 0.4, 0.5, 0.1)
        got = search_from_node_0(chain4, params, k_max=4)
        assert got == 1

    def test_none_when_never_complete(self, chain4):
        # a true process that cannot transmit never overtakes the false one
        params = CombatParams(0.5, 0.0, 0.5, 0.1)
        got = search_from_node_0(chain4, params, k_max=2)
        assert got is None

    def test_empty_ensemble_rejected(self):
        with pytest.raises(InputError):
            minimum_true_seeds([], CentralityKind.DEGREE, [], FIG45, k_max=2)

    def test_random_strategy_needs_seed(self, chain4):
        with pytest.raises(InputError):
            search_from_node_0(chain4, FIG45, CentralityKind.RANDOM, k_max=2)

    @pytest.mark.parametrize("k_max", [2.5, 2.0, "2", None, True])
    def test_non_integer_k_max_rejected(self, chain4, k_max):
        with pytest.raises(InputError, match="k_max must be an integer"):
            search_from_node_0(chain4, FIG45, k_max=k_max)

    @pytest.mark.parametrize(
        "strategy, params",
        [
            # the searches stop at k 3 (one block) and k 21 (two blocks)
            (CentralityKind.DEGREE, CombatParams(0.5, 0.4, 0.4, 0.1)),
            (CentralityKind.DEGREE, CombatParams(0.5, 0.0, 0.5, 0.1)),
            (CentralityKind.CLOSENESS, CombatParams(0.5, 0.0, 0.5, 0.1)),
            (CentralityKind.RANDOM, CombatParams(0.5, 0.0, 0.5, 0.1)),
        ],
    )
    def test_searches_per_graph(self, monkeypatch, random_graph_factory, strategy, params):
        # a ranked strategy searches its growing creator sets one block of
        # _PREFIX_WIDTH at a time; random draws fresh creators for every k
        # one usable CPU: the searches counted are the serial search's
        monkeypatch.setattr(forking, "usable_cpus", lambda: 1)
        graphs = [random_graph_factory(seed=830 + i, n=40, p=0.12)[0] for i in range(3)]
        false_processes = [run_false_process(g, [0, 1], params) for g in graphs]
        searches = []
        hop_distances = graph_module.hop_distances

        def counting(A, frontier, buffers=None):
            searches.append(frontier.shape)
            return hop_distances(A, frontier, buffers)

        monkeypatch.setattr(graph_module, "hop_distances", counting)
        curve = []
        minimum_true_seeds(
            graphs, strategy, false_processes, params, 2 * _PREFIX_WIDTH + 3, rng_seed=3,
            curve_out=curve,
        )
        k = len(curve)
        assert k == (3 if params.true_transmission_prob else 21)
        if strategy is CentralityKind.RANDOM:
            assert len(searches) == len(graphs) * k
        else:
            assert len(searches) == len(graphs) * math.ceil(k / _PREFIX_WIDTH)

    def test_ranked_search_checks_creators_once_per_graph(self, monkeypatch, random_graph_factory):
        # the creator sets are checked (one np.unique each) where they are
        # built, once per graph in prefix_layerings, and never again per run
        params = CombatParams(0.5, 0.0, 0.5, 0.1)
        graphs = [random_graph_factory(seed=840 + i, n=40, p=0.12)[0] for i in range(3)]
        false_processes = [run_false_process(g, [0, 1], params) for g in graphs]
        unique = np.unique
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        curve = []
        minimum_true_seeds(
            graphs, CentralityKind.DEGREE, false_processes, params, 2 * _PREFIX_WIDTH + 3,
            curve_out=curve,
        )
        assert len(curve) == 21
        assert calls == [2 * _PREFIX_WIDTH + 3] * len(graphs)

    @pytest.mark.parametrize(
        "strategy, n, p, params",
        [
            (CentralityKind.DEGREE, 30, 0.12, CombatParams(0.5, 0.4, 0.4, 0.1)),
            (CentralityKind.RANDOM, 25, 0.2, CombatParams(0.6, 0.5, 0.5, 0.05)),
            (CentralityKind.CLOSENESS, 35, 0.08, CombatParams(0.6, 0.4, 1.01, 0.2)),
            (CentralityKind.CLOSENESS, 35, 0.08, CombatParams(0.7, 0.3, 1.01, 0.1)),
        ],
    )
    def test_equals_fresh_run_per_graph_and_k(self, random_graph_factory, strategy, n, p, params):
        # reusing each graph's false process changes no k and no curve point;
        # the rows stop at k 8, 11, 4 and never (None)
        graphs = [random_graph_factory(seed=810 + i, n=n, p=p)[0] for i in range(4)]
        false_sets = [np.random.default_rng(i).choice(n, 3, replace=False) for i in range(4)]
        k_max = 12
        curve = []
        false_processes = [run_false_process(g, s, params) for g, s in zip(graphs, false_sets)]
        got = minimum_true_seeds(
            graphs, strategy, false_processes, params, k_max, rng_seed=11, curve_out=curve
        )

        expected_k, expected_curve = None, []
        for k in range(1, k_max + 1):
            protected, infected = [], []
            for i, g in enumerate(graphs):
                if strategy is CentralityKind.RANDOM:
                    rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(i, k)))
                    ic_t = rng.choice(n, size=k, replace=False)
                else:
                    ic_t = top_k_by_score(compute_centrality(g, strategy).scores, k)
                _, inf, _, prot = intervention_metrics(run_intervention(g, false_sets[i], ic_t, params))
                protected.append(prot)
                infected.append(inf)
            mean_prot, mean_inf = float(np.mean(protected)), float(np.mean(infected))
            expected_curve.append((k, mean_prot, mean_inf))
            if mean_prot > mean_inf:
                expected_k = k
                break
        assert got == expected_k
        assert curve == expected_curve

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda g, fp: run_false_process(g, [0, 1], CombatParams(0.6, 0.4, 0.4, 0.1)),
             "graph 1: degree: the false process was spread with another false transmission probability"),
            (lambda g, fp: run_false_process(build_graph(5, [(0, 1)]), [0], FIG45),
             "graph 1: degree: the false process covers 5 nodes, the graph 40"),
            (lambda g, fp: [0, 1], "graph 1: degree: expected a FalseProcess, got list"),
        ],
        ids=["other-pf", "other-graph", "node-ids"],
    )
    def test_false_processes_checked_before_any_run(
        self, monkeypatch, random_graph_factory, spoil, message
    ):
        # a graph whose runs the bound would skip cannot hide a mismatch
        graphs = [random_graph_factory(seed=850 + i, n=40, p=0.12)[0] for i in range(3)]
        false_processes = [run_false_process(g, [0, 1], FIG45) for g in graphs]
        false_processes[1] = spoil(graphs[1], false_processes[1])
        runs = []
        monkeypatch.setattr(intervention, "run_intervention", lambda *args: runs.append(args))
        with pytest.raises(ContractError) as info:
            minimum_true_seeds(graphs, CentralityKind.DEGREE, false_processes, FIG45, k_max=5)
        assert str(info.value) == message
        assert runs == []

    def test_random_strategy_deterministic(self, random_graph_factory):
        g, _ = random_graph_factory(seed=31, n=30, p=0.15)
        params = CombatParams(0.5, 0.4, 0.4, 0.1)
        args = ([g], CentralityKind.RANDOM, [run_false_process(g, [0, 1, 2], params)], params)
        a = minimum_true_seeds(*args, k_max=30, rng_seed=5)
        b = minimum_true_seeds(*args, k_max=30, rng_seed=5)
        assert a == b


def two_components_and_isolated(seed):
    """Two random components of 14 nodes each, then 4 isolated nodes."""
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, 14, 0.3)
    edges += [(u + 14, v + 14) for u, v in random_edges(rng, 14, 0.3)]
    return build_graph(32, edges)


def adversarial_ensemble(case):
    """(graphs, false processes, params) of one small ensemble for the bound."""
    params = {
        "no-blocking": CombatParams(0.5, 0.4, 1.5, 0.1),
        "td-zero": CombatParams(0.5, 0.4, 0.0, 0.1),
        "tc-zero": CombatParams(0.5, 0.4, 0.4, 0.0),
        # a halted node whose false belief lies in [T_D, T_C) is susceptible
        "tc-above-td": CombatParams(0.5, 0.4, 0.3, 0.55),
        "overlap": CombatParams(0.5, 0.4, 0.4, 0.1),
        "components": CombatParams(0.6, 0.4, 0.4, 0.1),
        "never": CombatParams(0.5, 0.0, 0.4, 0.1),
    }[case]
    if case == "components":
        graphs = [two_components_and_isolated(870 + i) for i in range(4)]
    else:
        graphs = [build_graph(30, random_edges(np.random.default_rng(860 + i), 30, 0.15)) for i in range(4)]
    false_processes = []
    for i, g in enumerate(graphs):
        if case == "overlap":
            # the top-degree nodes, so the degree strategy's creators start with them
            creators = top_k_by_score(compute_centrality(g, CentralityKind.DEGREE).scores, 3)
        else:
            creators = np.random.default_rng(i).choice(g.node_count, 3, replace=False)
        false_processes.append(run_false_process(g, creators, params))
    return graphs, false_processes, params


ADVERSARIAL = ["no-blocking", "td-zero", "tc-zero", "tc-above-td", "overlap", "components", "never"]


def assert_bound_holds(g, fp, params, creator_sets):
    """protected - infected <= n - 2 max(0, S - k) for each true-creator set,
    since every surely infected node outside it is infected."""
    surely = surely_infected_nodes(fp, params)
    assert intervention._surely_infected(fp, params) == len(surely)
    for ic_t in creator_sets:
        lv = ic_t if isinstance(ic_t, graph_module.LayeredView) else layer_from_sources(g, ic_t)
        labels = run_intervention(g, fp, lv, params).labels
        outside = np.setdiff1d(np.array(surely, dtype=np.int64), lv.sources)
        assert (labels[outside] == Label.INFECTED).all()
        k = len(lv.sources)
        tally = np.bincount(labels, minlength=3)
        assert tally[Label.PROTECTED] - tally[Label.INFECTED] <= g.node_count - 2 * max(0, len(surely) - k)


class TestSkipBound:
    def test_holds_on_the_desk_ensemble(self):
        config = preset("er_intervention")
        graphs = [g for g, _ in build_ensemble(config)]
        for i, g in enumerate(graphs):
            fp = _false_process(config, g, 0, i)
            order = top_k_by_score(compute_centrality(g, CentralityKind.DEGREE).scores, 80)
            assert_bound_holds(g, fp, config.model, map(layered_view, prefix_layerings(g, order)))

    @pytest.mark.parametrize("case", ADVERSARIAL)
    def test_holds_on_adversarial_ensembles(self, case):
        graphs, false_processes, params = adversarial_ensemble(case)
        rng = np.random.default_rng(3)
        for g, fp in zip(graphs, false_processes):
            n = g.node_count
            ranked = top_k_by_score(compute_centrality(g, CentralityKind.DEGREE).scores, n)
            # the false creators among the true ones, then random sets
            overlapping = [np.union1d(fp.layers.sources, [int(ranked[-1])])]
            drawn = [rng.choice(n, k, replace=False) for k in range(1, n + 1)]
            views = list(map(layered_view, prefix_layerings(g, ranked)))
            assert_bound_holds(g, fp, params, views + overlapping + drawn)

    @pytest.mark.parametrize("strategy", ["degree", "closeness", "random"])
    @pytest.mark.parametrize("case", ADVERSARIAL)
    def test_search_equals_per_k_oracle(self, case, strategy):
        graphs, false_processes, params = adversarial_ensemble(case)
        # by k = 16 the true creators alone outnumber the infected
        args = (graphs, strategy, false_processes, params, 12 if case == "never" else 20)
        got = minimum_true_seeds(*args, rng_seed=11)
        assert got == per_k_minimum_true_seeds(*args, rng_seed=11)
        assert got == bounded_search_runs(*args, rng_seed=11)[1]
        if case == "never":
            assert got is None

    def test_desk_search_skips_runs_and_curve_keeps_them(self, monkeypatch):
        # one usable CPU: the runs counted are the serial search's
        monkeypatch.setattr(forking, "usable_cpus", lambda: 1)
        config = preset("er_intervention")
        graphs = [g for g, _ in build_ensemble(config)]
        false_processes = [_false_process(config, g, 0, i) for i, g in enumerate(graphs)]
        args = (graphs, CentralityKind.DEGREE, false_processes, config.model, 80)
        original = intervention.run_intervention
        runs = []

        def counting(g, *rest):
            runs.append(g)
            return original(g, *rest)

        monkeypatch.setattr(intervention, "run_intervention", counting)
        assert minimum_true_seeds(*args) == 55
        assert len(runs) <= 1100
        made = len(runs)
        runs.clear()
        curve = []
        assert minimum_true_seeds(*args, curve_out=curve) == 55
        assert len(runs) == 55 * len(graphs)
        monkeypatch.setattr(intervention, "run_intervention", original)
        want_curve = []
        assert per_k_minimum_true_seeds(*args, curve_out=want_curve) == 55
        assert curve == want_curve
        assert len(bounded_search_runs(*args)[0]) == made

    def test_desk_search_builds_views_for_its_runs_only(self, monkeypatch):
        # 1 010 runs at seed 1729; the 640 skipped ones build no view
        monkeypatch.setattr(forking, "usable_cpus", lambda: 1)
        views = []

        def counting(layer_of):
            views.append(len(layer_of))
            return layered_view(layer_of)

        monkeypatch.setattr(intervention, "layered_view", counting)
        graphs, false_processes, params = desk_ensemble(1729)
        assert minimum_true_seeds(graphs, "degree", false_processes, params, 80) == 55
        assert len(views) == 1010


def chain4_search():
    """The degree search of :func:`search_from_node_0` on the 4-node chain."""
    return search_from_node_0(build_graph(4, [(0, 1), (1, 2), (2, 3)]), FIG45, k_max=4)


def desk_ensemble(seed):
    """(graphs, false processes, params) of the desk ``er_intervention`` battery at ``seed``."""
    config = dataclasses.replace(preset("er_intervention"), master_rng_seed=seed)
    graphs = [g for g, _ in build_ensemble(config)]
    return graphs, [_false_process(config, g, 0, i) for i, g in enumerate(graphs)], config.model


class TestTwoProcessSearch:
    """On two usable CPUs a forked worker examines the even k and the calling
    process the odd k; the answer, the curve, the error and the calling
    process's runs are those of the serial search."""

    @staticmethod
    def forking_search(monkeypatch, cpus, *args, **kwargs):
        """minimum_true_seeds on ``cpus`` usable CPUs, checking that two forked."""
        contexts = []
        fork_context = forking.fork_context

        def recording(processes):
            contexts.append(fork_context(processes))
            return contexts[-1]

        monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(forking, "fork_context", recording)
        got = minimum_true_seeds(*args, **kwargs)
        assert [c is not None for c in contexts] == [cpus > 1]
        assert multiprocessing.active_children() == []
        return got

    def assert_equals_serial(self, monkeypatch, graphs, false_processes, params, strategy, k_max):
        args = (graphs, strategy, false_processes, params, k_max)
        answers = []
        for cpus in (1, 2):
            curve = []
            answers.append((
                self.forking_search(monkeypatch, cpus, *args, rng_seed=11),
                self.forking_search(monkeypatch, cpus, *args, rng_seed=11, curve_out=curve),
                curve,
            ))
        assert answers[0] == answers[1]
        assert answers[0][0] == answers[0][1]
        return answers[0][0]

    @pytest.mark.parametrize("strategy", ["degree", "closeness", "random"])
    @pytest.mark.parametrize("seed", [1729, 2718])
    def test_desk_ensemble_equals_serial(self, monkeypatch, seed, strategy):
        k = self.assert_equals_serial(monkeypatch, *desk_ensemble(seed), strategy, 80)
        assert k is not None and k > 2

    @pytest.mark.parametrize("strategy", ["degree", "closeness", "random"])
    @pytest.mark.parametrize("case", ADVERSARIAL)
    def test_adversarial_ensembles_equal_serial(self, monkeypatch, case, strategy):
        graphs, false_processes, params = adversarial_ensemble(case)
        k_max = 12 if case == "never" else 20
        self.assert_equals_serial(monkeypatch, graphs, false_processes, params, strategy, k_max)

    @pytest.mark.parametrize("k_fail", [2, 3], ids=["worker-k", "caller-k"])
    def test_failure_is_the_serial_error(self, monkeypatch, k_fail):
        # the never case examines every k; the curve makes every graph run
        graphs, false_processes, params = adversarial_ensemble("never")
        original = intervention.run_intervention
        errors = []

        def failing(g, false_creators, true_creators, params):
            if g is graphs[1] and len(true_creators.sources) == k_fail:
                errors.append(NumericError("boom", last_iterate=np.arange(4.0)))
                raise errors[-1]
            return original(g, false_creators, true_creators, params)

        monkeypatch.setattr(intervention, "run_intervention", failing)
        for cpus in (1, 2):
            errors.clear()
            with pytest.raises(NumericError) as info:
                self.forking_search(
                    monkeypatch, cpus, graphs, "degree", false_processes, params, 12, curve_out=[]
                )
            # raised here, by this process's own run
            assert errors == [info.value]
            assert str(info.value) == f"k={k_fail}: graph 1: degree: boom"
            assert info.value.last_iterate.tolist() == [0.0, 1.0, 2.0, 3.0]
            assert multiprocessing.active_children() == []

    def test_killed_worker_gives_the_serial_answer(self, monkeypatch):
        graphs, false_processes, params = desk_ensemble(1729)
        caller = os.getpid()
        original = intervention.run_intervention

        def dying_on_the_worker_at_k_4(g, false_creators, true_creators, params):
            if os.getpid() != caller and len(true_creators.sources) == 4:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(g, false_creators, true_creators, params)

        monkeypatch.setattr(intervention, "run_intervention", dying_on_the_worker_at_k_4)
        args = (graphs, "degree", false_processes, params, 80)
        serial, killed = [], []
        assert self.forking_search(monkeypatch, 1, *args, curve_out=serial) == 55
        assert self.forking_search(monkeypatch, 2, *args, curve_out=killed) == 55
        assert killed == serial

    def test_caller_exception_stops_the_worker(self, monkeypatch):
        graphs, false_processes, params = desk_ensemble(1729)
        caller = os.getpid()
        original = intervention.run_intervention

        def interrupted_on_the_caller_at_k_5(g, false_creators, true_creators, params):
            if os.getpid() == caller and len(true_creators.sources) == 5:
                raise KeyboardInterrupt
            return original(g, false_creators, true_creators, params)

        monkeypatch.setattr(intervention, "run_intervention", interrupted_on_the_caller_at_k_5)
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        with pytest.raises(KeyboardInterrupt):
            minimum_true_seeds(graphs, "degree", false_processes, params, 80)
        assert multiprocessing.active_children() == []

    def test_search_in_a_daemonic_worker_is_serial(self, monkeypatch):
        # a multiprocessing.Pool's workers are daemonic and may start no child
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(chain4_search) == 2
        assert multiprocessing.active_children() == []

    def counted_runs(self, monkeypatch, graphs, *args):
        """The (k, graph index) runs this process makes in one search, and its answer."""
        index = {id(g): i for i, g in enumerate(graphs)}
        original = intervention.run_intervention
        runs = []

        def counting(g, false_creators, true_creators, params):
            runs.append((len(true_creators.sources), index[id(g)]))
            return original(g, false_creators, true_creators, params)

        monkeypatch.setattr(intervention, "run_intervention", counting)
        k = minimum_true_seeds(graphs, *args)
        monkeypatch.setattr(intervention, "run_intervention", original)
        return runs, k

    def test_caller_makes_the_odd_k_runs_every_time(self, monkeypatch):
        # the tracer compares the runs of repeated searches
        graphs, false_processes, params = desk_ensemble(1729)
        args = ("degree", false_processes, params, 80)
        serial = bounded_search_runs(graphs, *args)
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        first = self.counted_runs(monkeypatch, graphs, *args)
        assert first == ([(k, i) for k, i in serial[0] if k % 2], serial[1])
        assert self.counted_runs(monkeypatch, graphs, *args) == first

    def test_caller_with_a_live_thread_searches_serially(self, monkeypatch):
        graphs, false_processes, params = desk_ensemble(1729)
        args = ("degree", false_processes, params, 80)
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            got = self.counted_runs(monkeypatch, graphs, *args)
        finally:
            release.set()
            helper.join()
        assert got == bounded_search_runs(graphs, *args)
        assert multiprocessing.active_children() == []
