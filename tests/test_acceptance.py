"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 3 and 5 run their batteries at desk scale by default; the paper-scale
versions are marked ``paper`` and deselected unless requested explicitly
(``pytest -m paper``).  The paper-scale criterion 5 pins every strategy's k.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from layercast import (
    CentralityKind,
    CombatParams,
    DiffusionParams,
    Label,
    PairedSample,
    build_graph,
    engagement_sample,
    format_edge_list,
    gen_er,
    layer_from_sources,
    load_engagement,
    run_intervention,
    run_single_diffusion,
    summarize,
    wilcoxon_one_tailed,
)
from layercast.centrality import (
    betweenness_centrality,
    closeness_centrality,
    eigenvector_centrality,
    pagerank,
)
from layercast.generators import ErParams
from layercast.harness import (
    dense_er_single_preset,
    er_intervention_preset,
    minimum_seed_battery,
    run_experiment,
)

from conftest import random_edges
from oracles import (
    closeness_brute,
    betweenness_brute,
    eigenvector_brute,
    pagerank_brute,
    rational_single_diffusion,
)


def report(criterion: str, body, capfd=None):
    def emit(verdict):
        line = f"[acceptance] {criterion}: {verdict}"
        if capfd is not None:
            with capfd.disabled():
                print(line, flush=True)
        else:
            print(line, file=sys.__stdout__, flush=True)

    try:
        body()
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def test_criterion_1_chain_walkthrough_regression(chain4, capfd):
    def body():
        state = run_intervention(
            chain4, [0], [3],
            CombatParams(
                false_transmission_prob=0.5,
                true_transmission_prob=0.4,
                decisive_threshold=0.5,
                comparative_threshold=0.1,
            ),
        )
        assert np.all(np.abs(state.p_if - np.array([1.0, 0.5, 0.25, 0.125])) <= 1e-12)
        assert np.all(np.abs(state.p_it - np.array([0.0, 0.0, 0.4, 1.0])) <= 1e-12)
        assert state.labels.tolist() == [
            Label.INFECTED, Label.INFECTED, Label.PROTECTED, Label.PROTECTED,
        ]

    report("1 chain-walkthrough regression", body, capfd)


def test_criterion_2_engagement_statistics(capfd):
    def body():
        records = load_engagement()
        assert len(records) == 134
        true_mean, true_median = summarize([r.true_engagement for r in records])
        false_mean, false_median = summarize([r.false_engagement for r in records])
        assert true_median == 1587.5
        assert false_median == 4461.0
        assert round(true_mean) == 2729
        assert round(false_mean) == 191316
        res = wilcoxon_one_tailed(engagement_sample(records), "x_less")
        assert abs(math.log10(res.p_one_tailed / 4.62e-12)) <= 1.0

    report("2 engagement statistics", body, capfd)


def _assert_strategy_dominance(config):
    result = run_experiment(config)
    for strategy in config.strategies:
        if strategy is CentralityKind.RANDOM:
            continue
        entry = result.p_value(strategy, "sum_p_i")
        assert not entry.degenerate, f"{strategy.value}: degenerate comparison"
        assert entry.p < 0.01, f"{strategy.value}: p={entry.p}"


def test_criterion_3_single_diffusion_dominance_desk(capfd):
    report(
        "3 single-diffusion strategy dominance (desk)",
        lambda: _assert_strategy_dominance(dense_er_single_preset("desk")),
        capfd,
    )


@pytest.mark.paper
def test_criterion_3_single_diffusion_dominance_paper(capfd):
    report(
        "3 single-diffusion strategy dominance (paper)",
        lambda: _assert_strategy_dominance(dense_er_single_preset("paper")),
        capfd,
    )


def test_criterion_4_saturated_p_floor(capfd):
    def body():
        diffs = np.arange(1, 51, dtype=float)
        res = wilcoxon_one_tailed(PairedSample(x=diffs, y=np.zeros(50)), "x_greater")
        assert res.method == "normal-approximation"
        assert f"{res.p_one_tailed:.3g}" == f"{3.778465e-10:.3g}"
        # regression lock on the full constant
        assert res.p_one_tailed == pytest.approx(3.778465e-10, rel=1e-6)

    report("4 saturated-p sanity", body, capfd)


def test_criterion_5_intervention_efficiency_ordering(capfd):
    def body():
        config = er_intervention_preset("desk")
        minimums = minimum_seed_battery(config, k_max=80)
        assert minimums["random"] is not None
        for name in ("degree", "closeness", "betweenness", "pagerank"):
            assert minimums[name] is not None, f"{name}: no complete intervention <= 80"
            assert minimums[name] <= minimums["random"], f"{name}: {minimums[name]} > random {minimums['random']}"

    report("5 intervention efficiency ordering (desk)", body, capfd)


#: The paper six-strategy search's k values, pinned so a change to the
#: search cannot move them unnoticed.
PAPER_MINIMUM_SEEDS = {
    "degree": 48,
    "eigenvector": 49,
    "closeness": 49,
    "betweenness": 48,
    "pagerank": 48,
    "random": 65,
}


@pytest.mark.paper
def test_criterion_5_intervention_efficiency_ordering_paper(capfd):
    def body():
        minimums = minimum_seed_battery(er_intervention_preset("paper"), k_max=80)
        assert minimums == PAPER_MINIMUM_SEEDS

    report("5 intervention efficiency ordering (paper)", body, capfd)


def test_criterion_6_oracle_equivalence(capfd):
    def body():
        rng = np.random.default_rng(606)
        for trial in range(100):
            n = int(rng.integers(6, 21))
            edges = random_edges(rng, n, float(rng.uniform(0.12, 0.3)))
            g = build_graph(n, edges)
            nodes = rng.permutation(n)
            ic = nodes[: int(rng.integers(1, 4))].tolist()
            state = run_single_diffusion(g, ic, DiffusionParams(0.5, 0.5))
            expected, iters = rational_single_diffusion(n, edges, ic, Fraction(1, 2))
            assert state.iterations_run == iters
            assert np.all(np.abs(state.p_i - [float(x) for x in expected]) <= 1e-12)

            # blocking disabled: the two processes are fully independent
            ic_t = nodes[4 : 4 + int(rng.integers(1, 4))].tolist()
            combat = run_intervention(
                g, ic, ic_t,
                CombatParams(0.5, 0.4, 1.5, 0.1),
            )
            assert np.array_equal(combat.p_if, state.p_i)
            true_solo = run_single_diffusion(g, ic_t, DiffusionParams(0.4, 0.5))
            assert np.array_equal(combat.p_it, true_solo.p_i)

    report("6 oracle equivalence", body, capfd)


def test_criterion_7_invariant_suite(capfd):
    def body():
        rng = np.random.default_rng(707)

        # probability bounds, complement consistency, label partition
        for trial in range(25):
            n = int(rng.integers(10, 50))
            g = build_graph(n, random_edges(rng, n, 0.1))
            ic = rng.choice(n, 2, replace=False)
            state = run_single_diffusion(g, ic, DiffusionParams(float(rng.uniform(0.1, 0.9)), 0.5))
            assert np.all((state.p_i >= 0) & (state.p_i <= 1))
            assert np.all(np.abs(state.p_i + state.p_i_bar - 1.0) <= 1e-12)
            assert np.isin(state.labels, [Label.INFECTED, Label.SUSCEPTIBLE]).all()

            combat = run_intervention(
                g, ic, rng.choice(n, 3, replace=False),
                CombatParams(0.5, 0.4, 0.4, 0.1),
            )
            assert np.bincount(combat.labels, minlength=3).sum() == n
            assert np.all(combat.p_it[combat.blocked] == 0.0)

        # BFS layer property
        for trial in range(10):
            n = 40
            edges = random_edges(rng, n, 0.07)
            g = build_graph(n, edges)
            lv = layer_from_sources(g, rng.choice(n, 2, replace=False))
            for u, v in edges:
                lu, lw = lv.layer(u), lv.layer(v)
                if lu is not None and lw is not None:
                    assert abs(lu - lw) <= 1

        # centrality brute-force agreement at 60 nodes
        for seed in (1, 2):
            edges = random_edges(np.random.default_rng(seed), 60, 0.1)
            g = build_graph(60, edges)
            assert np.allclose(closeness_centrality(g).scores, closeness_brute(60, edges), atol=1e-6)
            assert np.allclose(betweenness_centrality(g).scores, betweenness_brute(60, edges), atol=1e-6)
            assert np.allclose(eigenvector_centrality(g).scores, eigenvector_brute(60, edges), atol=1e-6)
            assert np.allclose(pagerank(g).scores, pagerank_brute(60, edges), atol=1e-6)

        # determinism, byte equality
        params = ErParams(n=300, edge_exist_prob=0.05)
        assert format_edge_list(gen_er(params, 99)) == format_edge_list(gen_er(params, 99))

    report("7 invariant suite", body, capfd)
