import dataclasses
import json
import math
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

from layercast import (
    CentralityKind,
    CombatParams,
    ContractError,
    DiffusionParams,
    ErParams,
    GaussianPartitionParams,
    InputError,
    LfrParams,
    NumericError,
    forking,
    harness,
)
from layercast.harness import (
    PRESETS,
    ExperimentConfig,
    SweepSpec,
    apply_scale,
    build_ensemble,
    config_from_dict,
    config_hash,
    config_to_dict,
    dense_er_single_preset,
    derive_seed,
    er_intervention_preset,
    export_results,
    generate_graph,
    load_config,
    minimum_seed_battery,
    preset,
    read_records,
    records_to_csv_text,
    run_experiment,
)

from oracles import bounded_search_runs

TWO_STRATEGIES = (CentralityKind.DEGREE, CentralityKind.RANDOM)
CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def tiny_single_config(**overrides):
    base = dict(
        generator=ErParams(n=60, edge_exist_prob=0.1),
        ensemble_size=8,
        mode="single",
        strategies=TWO_STRATEGIES,
        model=DiffusionParams(0.5, 0.5),
        info_starter=3,
        master_rng_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_intervention_config(**overrides):
    base = dict(
        generator=ErParams(n=60, edge_exist_prob=0.1),
        ensemble_size=6,
        mode="intervention",
        strategies=TWO_STRATEGIES,
        model=CombatParams(0.5, 0.4, 0.4, 0.1),
        false_info_starter=2,
        true_info_starter=4,
        master_rng_seed=13,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_mode_model_mismatch(self):
        with pytest.raises(InputError):
            tiny_single_config(model=CombatParams(0.5, 0.4, 0.4, 0.1))
        with pytest.raises(InputError):
            tiny_intervention_config(model=DiffusionParams(0.5, 0.5))

    def test_starter_requirements(self):
        with pytest.raises(InputError):
            tiny_single_config(info_starter=0)
        with pytest.raises(InputError):
            tiny_intervention_config(true_info_starter=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("master_rng_seed", -1),
            ("master_rng_seed", 1.5),
            ("master_rng_seed", "7"),
            ("master_rng_seed", None),
            ("ensemble_size", 1.5),
            ("info_starter", 2.5),
        ],
    )
    def test_counts_and_seed_must_be_nonnegative_ints(self, field, value):
        with pytest.raises(InputError):
            tiny_single_config(**{field: value})

    @pytest.mark.parametrize(
        "make, field",
        [
            (tiny_single_config, "info_starter"),
            (tiny_intervention_config, "false_info_starter"),
            (tiny_intervention_config, "true_info_starter"),
        ],
    )
    def test_starter_above_node_count(self, make, field):
        make(**{field: 60})
        with pytest.raises(InputError):
            make(**{field: 61})
        # a sweep or a desk mapping that shrinks n below a starter is caught too
        cfg = make(generator=ErParams(n=1000, edge_exist_prob=0.01), **{field: 300})
        with pytest.raises(InputError):
            apply_scale(cfg, "desk")

    def test_duplicate_strategies(self):
        with pytest.raises(InputError):
            tiny_single_config(strategies=(CentralityKind.DEGREE, CentralityKind.DEGREE))

    def test_unknown_strategy_names_it(self):
        with pytest.raises(InputError, match="'bogus'"):
            tiny_single_config(strategies=("degree", "bogus"))

    def test_empty_sweep_grid(self):
        with pytest.raises(InputError):
            SweepSpec(parameter="edge_exist_prob", values=())

    @pytest.mark.parametrize("parameter", ["edge_exist_prob", "threshold"])
    def test_repeated_sweep_value_named(self, parameter):
        # two points of one value would give records no one can tell apart
        message = "sweep values must be distinct; 0.2 repeats in (0.2, 0.3, 0.2)"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            SweepSpec(parameter, (0.2, 0.3, 0.2))
        # equal values of two types, or a NumPy scalar, repeat too
        with pytest.raises(InputError, match="; 1 repeats in"):
            SweepSpec(parameter, (1, 1.0))
        with pytest.raises(InputError, match="; 0.2 repeats in"):
            SweepSpec(parameter, (np.float64(0.2), 0.2))

    @pytest.mark.parametrize("parameter", ["n", "threshold"])
    def test_unhashable_sweep_value_is_an_input_error(self, parameter):
        with pytest.raises(InputError, match=r"^sweep values must be numbers, got \(\[0\.5\],\)$"):
            SweepSpec(parameter, ([0.5],))

    def test_unknown_sweep_parameter(self):
        cfg = tiny_single_config(sweep=SweepSpec(parameter="nonsense", values=(1.0,)))
        with pytest.raises(InputError):
            run_experiment(cfg)

    @pytest.mark.parametrize("value, shown", [(float("nan"), "nan"), (-0.1, "-0.1"), (1.5, "1.5")])
    @pytest.mark.parametrize(
        "valid, name",
        [
            (ErParams(n=10, edge_exist_prob=0.5), "edge_exist_prob"),
            (GaussianPartitionParams(n=10, mean_size=5, shape=1, p_in=0.5, p_out=0.5), "p_in"),
            (GaussianPartitionParams(n=10, mean_size=5, shape=1, p_in=0.5, p_out=0.5), "p_out"),
            (DiffusionParams(0.5, 0.5), "transmission_prob"),
            (DiffusionParams(0.5, 0.5), "threshold"),
            (CombatParams(0.5, 0.5, 0.5, 0.5), "false_transmission_prob"),
            (CombatParams(0.5, 0.5, 0.5, 0.5), "true_transmission_prob"),
            (CombatParams(0.5, 0.5, 0.5, 0.5), "comparative_threshold"),
        ],
    )
    def test_unit_interval_fields(self, valid, name, value, shown):
        with pytest.raises(InputError) as info:
            dataclasses.replace(valid, **{name: value})
        assert str(info.value) == f"{name} must be in [0, 1], got {shown}"


class TestRunExperiment:
    def test_record_cardinality(self):
        cfg = tiny_single_config()
        res = run_experiment(cfg)
        assert len(res.records) == 2 * 8  # strategies x graphs

    def test_five_by_fifty_cardinality(self):
        cfg = tiny_single_config(
            generator=ErParams(n=25, edge_exist_prob=0.08),
            strategies=(
                CentralityKind.DEGREE,
                CentralityKind.EIGENVECTOR,
                CentralityKind.CLOSENESS,
                CentralityKind.BETWEENNESS,
                CentralityKind.PAGERANK,
            ),
            ensemble_size=50,
        )
        res = run_experiment(cfg)
        assert len(res.records) == 250

    def test_csv_byte_determinism(self, tmp_path):
        cfg = tiny_single_config()
        a = records_to_csv_text(run_experiment(cfg))
        b = records_to_csv_text(run_experiment(cfg))
        assert a == b

    @pytest.mark.parametrize("case", ["single", "intervention", "model-sweep"])
    def test_workers_do_not_change_output(self, case):
        costly = (
            CentralityKind.EIGENVECTOR,
            CentralityKind.CLOSENESS,
            CentralityKind.BETWEENNESS,
            CentralityKind.PAGERANK,
            CentralityKind.RANDOM,
        )
        if case == "single":
            cfg = tiny_single_config(strategies=costly, ensemble_size=5)
        else:
            cfg = tiny_intervention_config(strategies=costly, ensemble_size=5)
        if case == "model-sweep":
            cfg = dataclasses.replace(cfg, sweep=SweepSpec("decisive_threshold", (0.3, 0.5)))
        outputs = set()
        for workers in (1, 2, 3, None):
            outputs.add(records_to_csv_text(run_experiment(cfg, workers=workers)))
            assert multiprocessing.active_children() == []
        assert len(outputs) == 1

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", True])
    def test_bad_worker_count_rejected(self, workers):
        with pytest.raises(InputError, match="workers"):
            run_experiment(tiny_single_config(), workers=workers)

    def test_worker_scores_of_another_graph_rejected(self):
        from layercast.centrality import keep_scores

        g, _ = generate_graph(ErParams(n=20, edge_exist_prob=0.2), 1)
        scores = {CentralityKind.PAGERANK: np.full(20, 0.05)}
        with pytest.raises(ContractError, match=r"\(nodes, edges\) = \(20, 0\)"):
            keep_scores(g, scores, (20, 0))
        assert g._scores == {}

    def test_pairing_independent_of_strategy_order(self):
        cfg = tiny_single_config(
            strategies=(CentralityKind.DEGREE, CentralityKind.BETWEENNESS, CentralityKind.RANDOM)
        )
        flipped = dataclasses.replace(
            cfg, strategies=(CentralityKind.RANDOM, CentralityKind.DEGREE, CentralityKind.BETWEENNESS)
        )
        a = run_experiment(cfg)
        b = run_experiment(flipped)
        for strategy in cfg.strategies:
            assert np.array_equal(
                a.metric_column(strategy, "sum_p_i"), b.metric_column(strategy, "sum_p_i")
            )

    def test_intervention_pairing_independent_of_strategy_order(self):
        # the per-graph false creators are drawn once, on their own stream
        cfg = tiny_intervention_config()
        flipped = dataclasses.replace(
            cfg, strategies=(CentralityKind.RANDOM, CentralityKind.DEGREE)
        )
        a = run_experiment(cfg)
        b = run_experiment(flipped)
        for strategy in cfg.strategies:
            assert np.array_equal(
                a.metric_column(strategy, "sum_p_it"), b.metric_column(strategy, "sum_p_it")
            )

    def test_p_values_for_every_non_random_strategy(self):
        cfg = tiny_intervention_config(
            strategies=(CentralityKind.DEGREE, CentralityKind.PAGERANK, CentralityKind.RANDOM)
        )
        res = run_experiment(cfg)
        combos = {(p.strategy, p.metric) for p in res.p_values}
        for strategy in ("degree", "pagerank"):
            for metric in ("sum_p_it", "infected", "susceptible", "protected"):
                assert (strategy, metric) in combos
        assert not any(p.strategy == "random" for p in res.p_values)

    def test_degenerate_comparison_recorded_not_raised(self):
        # complete graph: every strategy ties, differences are all zero
        cfg = tiny_single_config(
            generator=ErParams(n=20, edge_exist_prob=1.0), ensemble_size=2
        )
        res = run_experiment(cfg)
        entry = res.p_value(CentralityKind.DEGREE, "sum_p_i")
        assert entry.degenerate
        assert entry.p == 1.0

    def test_path_centralities_search_each_graph_once(self, monkeypatch):
        from layercast import centrality
        from layercast.graph import hop_distances

        calls = []

        def counting(A, frontier, buffers=None):
            calls.append(frontier.shape[1])
            return hop_distances(A, frontier, buffers)

        monkeypatch.setattr(centrality, "hop_distances", counting)
        cfg = tiny_single_config(
            strategies=(CentralityKind.CLOSENESS, CentralityKind.BETWEENNESS, CentralityKind.RANDOM)
        )
        run_experiment(cfg, workers=1)  # the searches counted are this process's
        # n = 60 is one block of sources per graph
        assert calls == [60] * cfg.ensemble_size

    @pytest.mark.parametrize("workers", [1, 2])
    def test_model_sweep_ranks_each_graph_once(self, monkeypatch, tmp_path, workers):
        from layercast import centrality
        from layercast.graph import hop_distances

        log = tmp_path / "searches"

        def counting(A, frontier, buffers=None):
            # one line per search, from this process or a worker
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            return hop_distances(A, frontier, buffers)

        monkeypatch.setattr(centrality, "hop_distances", counting)
        cfg = tiny_intervention_config(
            strategies=(CentralityKind.CLOSENESS, CentralityKind.BETWEENNESS, CentralityKind.RANDOM),
            sweep=SweepSpec("decisive_threshold", (0.2, 0.4, 0.6, 0.8)),
        )
        result = run_experiment(cfg, workers=workers)
        assert len(result.records) == 4 * 3 * cfg.ensemble_size
        # n = 60 is one block of sources per graph: one path sweep each, in
        # this process or a worker, and this process is one of `workers`
        pids = log.read_text(encoding="ascii").split()
        assert len(pids) == cfg.ensemble_size
        assert len(set(pids) - {str(os.getpid())}) <= min(workers, forking.usable_cpus()) - 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3, None])
    def test_this_process_generates_each_graph_once(self, monkeypatch, workers):
        # whichever process ranks a graph, this one generates it exactly once
        # per battery, so the calls it makes do not depend on the timing
        generated = []  # a worker appends to its own copy
        gen_er = harness.gen_er

        def counting(params, seed):
            generated.append(seed.spawn_key)
            return gen_er(params, seed)

        monkeypatch.setattr(harness, "gen_er", counting)
        costly = (CentralityKind.CLOSENESS, CentralityKind.EIGENVECTOR, CentralityKind.RANDOM)
        plain = tiny_intervention_config(strategies=costly)
        for cfg, groups in [
            (plain, 1),
            (dataclasses.replace(plain, sweep=SweepSpec("decisive_threshold", (0.3, 0.5))), 1),
            (dataclasses.replace(plain, sweep=SweepSpec("edge_exist_prob", (0.1, 0.2))), 2),
            (tiny_single_config(strategies=costly), 1),
        ]:
            generated.clear()
            run_experiment(cfg, workers=workers)
            # the calling process may generate a graph it ranks ahead of order
            assert sorted(generated) == [(0, s, i) for s in range(groups) for i in range(cfg.ensemble_size)]
            assert multiprocessing.active_children() == []

    def test_processes_capped_at_the_usable_cpus(self, monkeypatch, tmp_path):
        # workers counts the processes, this one included, and no more run
        # than the usable CPUs
        log = tmp_path / "rankings"
        ranked = harness._ranked

        def logging(task):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            return ranked(task)

        forked = []
        ahead = forking.ahead

        def recording_ahead(fn, tasks, workers, here=None):
            forked.append(workers)
            return ahead(fn, tasks, workers, here)

        monkeypatch.setattr(harness, "_ranked", logging)
        monkeypatch.setattr(forking, "ahead", recording_ahead)
        cfg = tiny_intervention_config(strategies=(CentralityKind.BETWEENNESS, CentralityKind.RANDOM))
        for cpus in (1, 2):
            monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
            assert harness._ranking_workers(8, cfg.strategies, 30) == cpus
            log.unlink(missing_ok=True)
            forked.clear()
            run_experiment(cfg, workers=8)
            # the calling process ranks in _ranked, a worker through _costly_scores
            assert forked == [cpus - 1]
            # each graph is ranked ahead once, by one of the processes; on one
            # CPU nothing is ranked ahead, but in the run that first needs it
            pids = log.read_text(encoding="ascii").split() if log.exists() else []
            assert len(set(pids)) <= cpus and len(pids) == (cfg.ensemble_size if cpus > 1 else 0)
            assert multiprocessing.active_children() == []

    def test_single_mode_metric_columns(self):
        res = run_experiment(tiny_single_config())
        col = res.metric_column(CentralityKind.DEGREE, "sum_p_i")
        assert len(col) == 8
        infected = res.metric_column(CentralityKind.DEGREE, "infected")
        susceptible = res.metric_column(CentralityKind.DEGREE, "susceptible")
        assert np.all(infected + susceptible == 60)

    def test_generation_failure_is_the_original_error(self, monkeypatch):
        from layercast import GenerationError

        error = GenerationError("boom")

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(harness, "gen_er", fail)
        with pytest.raises(GenerationError) as info:
            run_experiment(tiny_single_config())
        assert info.value is error
        assert str(error) == "graph 0: boom"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_failure_names_the_point(self, workers):
        # the second point's graph 16 defeats the eigenvector iteration
        cfg = dataclasses.replace(
            preset("sparse_er_single"), sweep=SweepSpec("edge_exist_prob", (0.02, 0.0025))
        )
        with pytest.raises(NumericError) as info:
            run_experiment(cfg, workers=workers)
        assert str(info.value) == (
            "edge_exist_prob=0.0025: graph 16: eigenvector: "
            "eigenvector centrality did not converge in 1000 iterations"
        )
        assert info.value.last_iterate.shape == (200,)
        assert multiprocessing.active_children() == []

    def test_generation_failure_names_graph_index(self):
        from layercast import GenerationError

        cfg = tiny_single_config(
            generator=LfrParams(n=30, tau1=3, tau2=1.5, mu=0.1, average_degree=4, min_community=50),
            ensemble_size=2,
        )
        with pytest.raises(GenerationError, match="graph 0"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "entry",
        [build_ensemble, lambda cfg: minimum_seed_battery(cfg, k_max=5)],
        ids=["build_ensemble", "minimum_seed_battery"],
    )
    def test_ensemble_failure_names_graph_index(self, entry):
        from layercast import GenerationError

        cfg = dataclasses.replace(preset("lfr_intervention"), ensemble_size=2)
        cfg = dataclasses.replace(cfg, generator=dataclasses.replace(cfg.generator, min_community=250))
        with pytest.raises(GenerationError, match=r"^graph 0: infeasible: "):
            entry(cfg)

    def test_a_graph_ranked_ahead_here_fails_in_order(self, monkeypatch):
        # the worker fails its one task and stops, so this process ranks the
        # other graphs ahead, graph 21 among them; the battery meets graph
        # 21's failure again when it gets there, as the serial battery does
        started = multiprocessing.get_context("fork").Event()
        ranked, here = harness._ranked, []

        def failing(task):
            started.set()
            raise NumericError("the worker's")

        def logging(task):
            assert started.wait(30)  # so the worker takes task 0 or 1
            here.append(task[2])
            return ranked(task)

        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_costly_scores", failing)
        monkeypatch.setattr(harness, "_ranked", logging)
        with pytest.raises(NumericError) as info:
            run_experiment(preset("sparse_er_single"), workers=2)
        assert str(info.value) == (
            "graph 21: eigenvector: eigenvector centrality did not converge in 1000 iterations"
        )
        assert 21 in here
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ranking_failure_names_graph_and_strategy(self, workers):
        # the desk sparse-ER battery stops in eigenvector on its graph 21
        with pytest.raises(NumericError) as info:
            run_experiment(preset("sparse_er_single"), workers=workers)
        assert str(info.value) == (
            "graph 21: eigenvector: eigenvector centrality did not converge in 1000 iterations"
        )
        assert info.value.last_iterate.shape == (200,)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "name, where",
        [
            ("run_false_process", "false process"),
            ("run_intervention", "degree"),
            ("run_single_diffusion", "degree"),
        ],
    )
    def test_spreading_failure_names_graph_and_stage(self, monkeypatch, name, where):
        def fail(*args, **kwargs):
            raise ContractError("boom")

        monkeypatch.setattr(harness, name, fail)
        config = tiny_single_config() if name == "run_single_diffusion" else tiny_intervention_config()
        with pytest.raises(ContractError, match=rf"^graph 0: {where}: boom$"):
            run_experiment(config)

    def test_lfr_battery_end_to_end(self):
        # the full pipeline over LFR ensembles: generation, pairing, p-values
        cfg = tiny_single_config(
            generator=LfrParams(n=150, tau1=3, tau2=1.5, mu=0.1, average_degree=5, min_community=30),
            ensemble_size=8,
        )
        res = run_experiment(cfg)
        assert len(res.records) == 16
        entry = res.p_value(CentralityKind.DEGREE, "sum_p_i")
        assert not entry.degenerate
        assert entry.p < 0.05  # central creators dominate on community graphs

    def test_reconstruction_of_one_cell(self):
        # re-derive the exact run for one (graph, strategy) cell from the seed scheme
        from layercast import diffusion_metrics, run_single_diffusion, select_seeds

        cfg = tiny_single_config()
        res = run_experiment(cfg)
        g, _ = generate_graph(cfg.generator, derive_seed(cfg.master_rng_seed, 0, 0, 3))
        ic = select_seeds(g, CentralityKind.DEGREE, cfg.info_starter)
        assert len(ic) == cfg.info_starter
        _, sum_p_i, _, _ = diffusion_metrics(run_single_diffusion(g, ic, cfg.model))
        assert res.metric_column(CentralityKind.DEGREE, "sum_p_i")[3] == sum_p_i


def run_sweep(cfg, parameter, grid):
    return run_experiment(dataclasses.replace(cfg, sweep=SweepSpec(parameter, grid)))


class TestSweeps:
    def test_single_point_grid_matches_plain_run(self):
        cfg = tiny_single_config()
        plain = run_experiment(cfg)
        swept = run_sweep(cfg, "edge_exist_prob", [cfg.generator.edge_exist_prob])
        assert np.array_equal(
            plain.metric_column(CentralityKind.DEGREE, "sum_p_i"),
            swept.metric_column(CentralityKind.DEGREE, "sum_p_i", cfg.generator.edge_exist_prob),
        )

    def test_density_advantage_peaks_interior(self):
        cfg = tiny_single_config(
            generator=ErParams(n=150, edge_exist_prob=0.05), ensemble_size=12, master_rng_seed=42
        )
        res = run_sweep(cfg, "edge_exist_prob", [0.004, 0.05, 0.9])
        adv = {d: res.mean_advantage(CentralityKind.DEGREE, "sum_p_i", d) for d in (0.004, 0.05, 0.9)}
        assert adv[0.004] <= adv[0.05]
        assert adv[0.9] <= adv[0.05]

    def test_complete_graph_grid_has_no_advantage(self):
        cfg = tiny_single_config(generator=ErParams(n=30, edge_exist_prob=0.5), ensemble_size=4)
        res = run_sweep(cfg, "edge_exist_prob", [1.0])
        assert res.mean_advantage(CentralityKind.DEGREE, "sum_p_i", 1.0) == pytest.approx(0.0)

    def test_transmission_prob_sweep_monotone_means(self):
        cfg = tiny_single_config(
            generator=ErParams(n=120, edge_exist_prob=0.04), ensemble_size=8, master_rng_seed=7
        )
        grid = tuple(round(p, 1) for p in np.arange(0.1, 1.0, 0.1))
        res = run_sweep(cfg, "transmission_prob", grid)
        for strategy in cfg.strategies:
            means = [res.metric_column(strategy, "sum_p_i", p).mean() for p in grid]
            assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))

    def test_variance_sweep_emits_per_point_distributions(self):
        cfg = tiny_single_config(
            generator=GaussianPartitionParams(n=120, mean_size=20, shape=20, p_in=0.15, p_out=0.002),
            ensemble_size=4,
        )
        res = run_sweep(cfg, "shape", [20.0, 1.0])
        for v in (20.0, 1.0):
            assert len(res.metric_column(CentralityKind.DEGREE, "sum_p_i", v)) == 4
        assert {p.sweep_value for p in res.p_values} == {20.0, 1.0}

    def test_variance_sweep_requires_gaussian(self):
        with pytest.raises(InputError):
            run_sweep(tiny_single_config(), "shape", [1.0])

    def test_density_sweep_requires_er(self):
        cfg = tiny_single_config(
            generator=GaussianPartitionParams(n=60, mean_size=20, shape=20, p_in=0.1, p_out=0.01)
        )
        with pytest.raises(InputError):
            run_sweep(cfg, "edge_exist_prob", [0.1])

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            run_sweep(tiny_single_config(), "edge_exist_prob", [])


def point_rows(result, sweep_value):
    """(strategy, graph, metrics) of each record at ``sweep_value``, as exact text."""
    return [
        repr((r.strategy, r.graph_index, r.metrics)) for r in result.records if r.sweep_value == sweep_value
    ]


class TestModelSweepSharing:
    """The points of a model sweep share each member's false process and its
    strategies' true layerings, and each gives the unswept battery's records."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "name, parameter, grid",
        [
            ("er_intervention", "decisive_threshold", (0.2, 0.4, 0.8)),
            # two false processes per graph
            ("lfr_intervention", "false_transmission_prob", (0.3, 0.5)),
            ("dense_er_single", "threshold", (0.3, 0.5, 0.7)),
        ],
    )
    def test_each_point_is_its_unswept_battery(self, name, parameter, grid, workers):
        cfg = preset(name)
        swept = run_experiment(dataclasses.replace(cfg, sweep=SweepSpec(parameter, grid)), workers=workers)
        for value in grid:
            point = harness._apply_sweep_value(cfg, parameter, value)
            assert point_rows(swept, value) == point_rows(run_experiment(point, workers=workers), None)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_false_process_and_true_layering_per_graph(self, monkeypatch, workers):
        from layercast import intervention

        calls = {"false": 0, "layerings": 0}

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(harness, "run_false_process", counting(harness.run_false_process, "false"))
        monkeypatch.setattr(
            intervention, "layer_from_sources", counting(intervention.layer_from_sources, "layerings")
        )
        cfg = preset("er_intervention")
        graphs, strategies = cfg.ensemble_size, len(cfg.strategies)
        swept = dataclasses.replace(cfg, sweep=SweepSpec("decisive_threshold", (0.2, 0.4, 0.6, 0.8)))
        for battery in (cfg, swept):
            calls.update(false=0, layerings=0)
            run_experiment(battery, workers=workers)
            # each false process layers its creators too
            assert calls == {"false": graphs, "layerings": graphs * (1 + strategies)}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_layering_per_strategy_and_graph_in_single_mode(self, monkeypatch, workers):
        from layercast import diffusion

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return layer_from_sources(*args, **kwargs)

        layer_from_sources = diffusion.layer_from_sources
        monkeypatch.setattr(diffusion, "layer_from_sources", counting)
        cfg = preset("dense_er_single")
        swept = dataclasses.replace(cfg, sweep=SweepSpec("threshold", (0.2, 0.4, 0.6, 0.8)))
        for battery in (cfg, swept):
            calls.clear()
            run_experiment(battery, workers=workers)
            assert len(calls) == cfg.ensemble_size * len(cfg.strategies)

    def test_single_mode_sweep_output_does_not_depend_on_workers(self):
        cfg = preset("dense_er_single")
        swept = dataclasses.replace(cfg, sweep=SweepSpec("threshold", (0.2, 0.4, 0.6, 0.8)))
        csv = {records_to_csv_text(run_experiment(swept, workers=workers)) for workers in (1, 2)}
        assert len(csv) == 1


class TestExportImport:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_identical_records(self, tmp_path, fmt):
        swept = tiny_single_config(ensemble_size=3, sweep=SweepSpec("transmission_prob", (0.3, 0.6)))
        for cfg in (tiny_intervention_config(), swept):
            res = run_experiment(cfg)
            path = tmp_path / f"out.{fmt}"
            export_results(res, path, fmt)
            assert read_records(path, fmt) == res.records

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unreadable_records_file(self, tmp_path, fmt):
        missing = tmp_path / f"missing.{fmt}"
        with pytest.raises(InputError, match=f"no such records file: {missing}"):
            read_records(missing, fmt)
        path = tmp_path / f"out.{fmt}"
        export_results(run_experiment(tiny_single_config()), path, fmt)
        path.write_bytes(path.read_bytes() + b"\x80")
        with pytest.raises(InputError, match="records file .* is not ascii text") as info:
            read_records(path, fmt)
        assert str(path) in str(info.value)

    def test_csv_schema(self, tmp_path):
        res = run_experiment(tiny_single_config())
        path = tmp_path / "out.csv"
        export_results(res, path, "csv")
        header = path.read_text().splitlines()[0]
        assert header == "strategy,graph_index,sweep_value,iterations,sum_p_i,infected,susceptible"
        res2 = run_experiment(tiny_intervention_config())
        export_results(res2, path, "csv")
        header2 = path.read_text().splitlines()[0]
        assert header2 == "strategy,graph_index,sweep_value,sum_p_it,infected,susceptible,protected"

    def test_json_carries_provenance_and_p_values(self, tmp_path):
        res = run_experiment(tiny_single_config())
        path = tmp_path / "out.json"
        export_results(res, path, "json")
        data = json.loads(path.read_text())
        assert data["provenance"]["config_hash"] == res.provenance.config_hash
        assert data["config"]["generator"]["type"] == "er"
        assert len(data["p_values"]) == len(res.p_values)

    def test_unknown_format(self, tmp_path):
        res = run_experiment(tiny_single_config())
        with pytest.raises(InputError):
            export_results(res, tmp_path / "x", "yaml")


class TestConfigSerialization:
    @pytest.mark.parametrize(
        "cfg",
        [
            tiny_single_config(),
            tiny_intervention_config(),
            tiny_single_config(sweep=SweepSpec("transmission_prob", (0.1, 0.2))),
            tiny_single_config(
                generator=LfrParams(n=100, tau1=3, tau2=1.5, mu=0.1, average_degree=4, min_community=20)
            ),
        ],
    )
    def test_round_trip(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_load_config_file(self, tmp_path):
        cfg = tiny_intervention_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert load_config(path) == cfg

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(InputError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError):
            load_config(bad)
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text(json.dumps({"mode": "single"}))
        with pytest.raises(InputError):
            load_config(incomplete)

    def test_undecodable_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"mode": "single\xff"}')
        with pytest.raises(InputError, match="config file .* is not utf-8 text") as info:
            load_config(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "field", ["generator", "ensemble_size", "mode", "strategies", "model", "master_rng_seed"]
    )
    def test_missing_field_is_named(self, field):
        data = config_to_dict(tiny_single_config())
        del data[field]
        with pytest.raises(InputError, match=field):
            config_from_dict(data)

    def test_unknown_key_rejected(self):
        data = config_to_dict(tiny_single_config())
        data["sweeps"] = {"parameter": "transmission_prob", "values": [0.3]}
        with pytest.raises(InputError, match="sweeps"):
            config_from_dict(data)

    def test_unknown_strategy_rejected(self):
        data = config_to_dict(tiny_single_config())
        data["strategies"] = ["degree", "bogus"]
        with pytest.raises(InputError, match="bogus"):
            config_from_dict(data)

    @pytest.mark.parametrize("mode", ["both", ["single"]])
    def test_unknown_mode_named_before_the_model(self, mode):
        # the model block fits single mode; the mode, not the model, is blamed
        data = config_to_dict(tiny_single_config())
        data["mode"] = mode
        with pytest.raises(InputError, match=r"^mode must be 'single' or 'intervention', got "):
            config_from_dict(data)


class TestNumpyConfig:
    """A config built from NumPy scalars hashes and exports like its Python twin."""

    def assert_same_output(self, numpy_cfg, python_cfg):
        assert numpy_cfg == python_cfg
        assert config_hash(numpy_cfg) == config_hash(python_cfg)
        assert records_to_csv_text(run_experiment(numpy_cfg)) == records_to_csv_text(
            run_experiment(python_cfg)
        )

    def test_bool_count_rejected(self):
        # a JSON true is a Python bool, which is an Integral
        with pytest.raises(InputError, match="^ensemble_size must be an integer, got True$"):
            dataclasses.replace(preset("er_intervention"), ensemble_size=True)

    def test_integer_counts(self):
        self.assert_same_output(
            tiny_single_config(
                ensemble_size=np.int64(3), info_starter=np.int32(3), master_rng_seed=np.uint16(11)
            ),
            tiny_single_config(ensemble_size=3, info_starter=3, master_rng_seed=11),
        )

    def test_node_count_sweep_over_arange(self):
        cfg = tiny_single_config(ensemble_size=3)
        self.assert_same_output(
            dataclasses.replace(cfg, sweep=SweepSpec("n", np.arange(40, 61, 20))),
            dataclasses.replace(cfg, sweep=SweepSpec("n", (40, 60))),
        )

    def test_probability_sweep_over_linspace(self, tmp_path):
        cfg = tiny_single_config(ensemble_size=3)
        grid = np.linspace(0.2, 0.6, 3)
        numpy_cfg = dataclasses.replace(cfg, sweep=SweepSpec("transmission_prob", grid))
        self.assert_same_output(
            numpy_cfg,
            dataclasses.replace(cfg, sweep=SweepSpec("transmission_prob", [v.item() for v in grid])),
        )
        res = run_experiment(numpy_cfg)
        export_results(res, tmp_path / "out.csv", "csv")
        assert read_records(tmp_path / "out.csv", "csv") == res.records


# row: (generator type, distinguishing field, paper value, desk value)
PRESET_ROWS = {
    "dense_er_single": (ErParams, "generator.edge_exist_prob", 0.04, 0.2),
    "sparse_er_single": (ErParams, "generator.edge_exist_prob", 0.0005, 0.0025),
    "gaussian_similar_single": (GaussianPartitionParams, "generator.shape", 40, 40),
    "gaussian_varying_single": (GaussianPartitionParams, "generator.shape", 1, 1),
    "lfr_single": (LfrParams, "generator.min_community", 50, 50),
    "er_intervention": (ErParams, "generator.edge_exist_prob", 0.03, 0.15),
    "gaussian_similar_intervention": (GaussianPartitionParams, "generator.shape", 40, 40),
    "gaussian_varying_intervention": (GaussianPartitionParams, "generator.shape", 1, 1),
    "lfr_intervention": (LfrParams, "model.decisive_threshold", 0.5, 0.5),
}


# config_hash of every preset row, pinned so a schema refactor cannot move it
PRESET_HASHES = {
    ("dense_er_single", "desk"):
        "4690ce8cab92e864c680daf8b0347de24d8486e6d37a02a1a8b7b36ff5dacc01",
    ("dense_er_single", "paper"):
        "2ba07714e3d66751111b65d04d3fc3b2457c379fd04a950f4e292e90859f91c1",
    ("er_intervention", "desk"):
        "afb51fa0997e06b79376e93a203d749c700e24a1618b71196cc30aaa17052cf9",
    ("er_intervention", "paper"):
        "91205867fb11439ad7e712f83c574347b32bfce84e94d48228784cda21530cc7",
    ("gaussian_similar_intervention", "desk"):
        "e2189046c771e084b31929ad15ac0ceb3fff5469ce0734627c5a33cec3cedcc2",
    ("gaussian_similar_intervention", "paper"):
        "3fff5f4b67fa8a00884c3d3ea35a92f2b65e3a00de25683a73afdf5862b76afc",
    ("gaussian_similar_single", "desk"):
        "b8a00511424104d2ff0e4af2c2f830d01fec6d411ce869c407975e6b04e30ecf",
    ("gaussian_similar_single", "paper"):
        "0e2ebb6c25e2e1e486f39b9d7773dc558bd6d1795f7089877ab3cc3bb5a3aa29",
    ("gaussian_varying_intervention", "desk"):
        "90fe56a1e8e62bc82fd0558a6d32128e4d91a01e938f1939a864254cf5f181b9",
    ("gaussian_varying_intervention", "paper"):
        "1d53c0e6441294242fd10b66b78b407cbc71c5c0474bd9faf4ce1935ec18ed24",
    ("gaussian_varying_single", "desk"):
        "26f432fb147e0406bc3017cbc63e61554ea63a26670b922e3cc1df31c5e14ded",
    ("gaussian_varying_single", "paper"):
        "10726086d791a75b0473303cc2d695a7f1f0c690ddf56a4ba8ba14026e44b62e",
    ("lfr_intervention", "desk"):
        "0df1ef84e661643e241af15ccf7f620a15db0d670a6b64279ce768e16aed8a13",
    ("lfr_intervention", "paper"):
        "83827dfb0e18a9d9d85f9dc9790ea85b1c60c0bf4396c191d4fed3ceffbde25f",
    ("lfr_single", "desk"):
        "445a0dc3ce6e6183e7103a95bc495e11ec890dce85e4f45bbe35e537091b2cb8",
    ("lfr_single", "paper"):
        "31520c4d8c73747c3e34cf172f2859b85e1a65c6e8eb7288a2962ee079c58d35",
    ("sparse_er_single", "desk"):
        "43b05d0abfc75ab0d40fa5585e6e008a036622c17f84a49068b7fd3ccda6d381",
    ("sparse_er_single", "paper"):
        "906f8dd5b2be6101b97e517926f3577376a9e8b6c003605e2a323d6fee80932c",
}


#: Preset batteries that stop in the eigenvector iteration today.
EIGENVECTOR_STOPS = {
    ("sparse_er_single", "desk"),
    ("sparse_er_single", "paper"),
    ("lfr_single", "paper"),
    ("lfr_intervention", "paper"),
}


def preset_case(name, scale):
    """One preset battery: ``paper``-marked at paper scale, a strict xfail where it stops."""
    marks = [pytest.mark.paper] if scale == "paper" else []
    if (name, scale) in EIGENVECTOR_STOPS:
        marks.append(
            pytest.mark.xfail(
                raises=NumericError,
                strict=True,
                reason="eigenvector power iteration does not converge (ROADMAP item 1)",
            )
        )
    return pytest.param(name, scale, marks=marks)


class TestScaleAndPresets:
    def test_desk_mapping_preserves_mean_degree(self):
        paper = dense_er_single_preset("paper")
        desk = dense_er_single_preset("desk")
        assert paper.generator == ErParams(n=1000, edge_exist_prob=0.04)
        assert desk.generator == ErParams(n=200, edge_exist_prob=0.2)
        assert desk.ensemble_size == 30
        paper_degree = paper.generator.edge_exist_prob * (paper.generator.n - 1)
        desk_degree = desk.generator.edge_exist_prob * (desk.generator.n - 1)
        assert desk_degree == pytest.approx(paper_degree, rel=0.01)

    def test_paper_scale_is_identity(self):
        cfg = tiny_single_config()
        assert apply_scale(cfg, "paper") == cfg

    def test_bad_scale(self):
        with pytest.raises(InputError):
            apply_scale(tiny_single_config(), "galactic")

    @pytest.mark.parametrize(
        "name, parameter, paper, desk",
        [
            ("dense_er_single", "edge_exist_prob", (0.01, 0.04), (0.05, 0.2)),
            ("er_intervention", "n", (500, 1000), (100, 200)),
            ("gaussian_similar_single", "p_out", (0.001, 0.002), (0.005, 0.01)),
            ("lfr_intervention", "min_community", (20, 300), (20, 200)),
        ],
    )
    def test_desk_maps_a_swept_generator_field(self, name, parameter, paper, desk):
        cfg = dataclasses.replace(preset(name, "paper"), sweep=SweepSpec(parameter, paper))
        scaled = apply_scale(cfg, "desk")
        assert scaled.sweep.values == pytest.approx(desk)
        assert scaled.generator == preset(name, "desk").generator
        # each value is the field of its point mapped on its own
        for value, mapped in zip(paper, scaled.sweep.values):
            point = harness._apply_sweep_value(cfg, parameter, value)
            assert getattr(apply_scale(point, "desk").generator, parameter) == mapped

    def test_desk_keeps_a_model_sweep_and_paper_keeps_any(self):
        cfg = preset("er_intervention", "paper")
        model = dataclasses.replace(cfg, sweep=SweepSpec("decisive_threshold", (0.1, 0.9)))
        assert apply_scale(model, "desk").sweep == model.sweep
        density = dataclasses.replace(cfg, sweep=SweepSpec("edge_exist_prob", (0.01, 0.04)))
        assert apply_scale(density, "paper") == density

    @pytest.mark.parametrize("value", [True, math.nan, None, math.inf, 0.5, -5])
    def test_desk_checks_a_swept_value_at_paper_scale(self, value):
        cfg = dataclasses.replace(preset("er_intervention", "paper"), sweep=SweepSpec("n", (value,)))
        with pytest.raises(InputError, match="^n must be"):
            apply_scale(cfg, "desk")

    def test_desk_refuses_to_merge_swept_points(self):
        # p = 0.3 and 0.5 both reach 1 at five times the density
        cfg = preset("er_intervention", "paper")
        cfg = dataclasses.replace(cfg, sweep=SweepSpec("edge_exist_prob", (0.3, 0.5)))
        with pytest.raises(InputError, match=r"onto repeated points \(1\.0, 1\.0\)$"):
            apply_scale(cfg, "desk")

    def test_intervention_preset_desk(self):
        desk = er_intervention_preset("desk")
        assert desk.generator == ErParams(n=200, edge_exist_prob=0.15)
        assert desk.model.decisive_threshold == 0.4
        assert desk.false_info_starter == 3

    @pytest.mark.parametrize("scale", ["paper", "desk"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_row(self, name, scale):
        gen_type, field, paper_value, desk_value = PRESET_ROWS[name]
        cfg = preset(name, scale)
        assert cfg.mode == ("single" if name.endswith("_single") else "intervention")
        assert type(cfg.generator) is gen_type
        assert cfg.generator.n == (1000 if scale == "paper" else 200)
        assert cfg.ensemble_size == (50 if scale == "paper" else 30)
        assert cfg.master_rng_seed == 1729
        part, attr = field.split(".")
        expected = paper_value if scale == "paper" else desk_value
        assert getattr(getattr(cfg, part), attr) == pytest.approx(expected)

    def test_every_preset_row_is_pinned(self):
        assert set(PRESET_ROWS) == set(PRESETS)

    @pytest.mark.parametrize("scale", ["paper", "desk"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_config_hash(self, name, scale):
        assert config_hash(preset(name, scale)) == PRESET_HASHES[name, scale]

    def test_unknown_preset(self):
        with pytest.raises(InputError):
            preset("dense_er")

    @pytest.mark.parametrize("name", ["dense_er_single", "er_intervention"])
    def test_demo_config_is_the_paper_preset(self, name):
        assert load_config(CONFIGS / f"{name}.json") == preset(name, "paper")

    @pytest.mark.parametrize(
        "name, scale",
        [preset_case(name, scale) for scale in ("desk", "paper") for name in sorted(PRESETS)],
    )
    def test_preset_runs_to_completion(self, name, scale):
        cfg = preset(name, scale)
        res = run_experiment(cfg)
        assert len(res.records) == cfg.ensemble_size * len(cfg.strategies)
        tested = 2 if cfg.mode == "single" else 4
        assert len(res.p_values) == tested * (len(cfg.strategies) - 1)


class TestMinimumSeedBattery:
    def test_requires_intervention_mode(self):
        with pytest.raises(InputError):
            minimum_seed_battery(tiny_single_config(), k_max=5)

    @pytest.mark.parametrize(
        "strategies, message",
        [((), "at least one strategy is required"), (("degree", "degree"), "strategies must be unique")],
        ids=["empty", "repeated"],
    )
    def test_strategies_follow_the_config_rule(self, strategies, message):
        # an empty list is not the config's strategies, and a repeat is not searched twice
        with pytest.raises(InputError, match=f"^{message}$"):
            minimum_seed_battery(tiny_intervention_config(), k_max=5, strategies=strategies)

    def test_small_battery_orders_strategies(self):
        cfg = tiny_intervention_config(
            generator=ErParams(n=80, edge_exist_prob=0.1), ensemble_size=5
        )
        out = minimum_seed_battery(cfg, k_max=60)
        assert set(out) == {"degree", "random"}
        assert out["degree"] is not None
        assert out["degree"] <= out["random"]

    def test_false_process_spread_once_per_graph(self, monkeypatch):
        from layercast import harness, intervention

        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(args[0])
                return original(*args, **kwargs)

            return wrapper

        for module in (harness, intervention):
            monkeypatch.setattr(
                module, "run_false_process", counting(module.run_false_process)
            )
        cfg = tiny_intervention_config(
            generator=ErParams(n=80, edge_exist_prob=0.1),
            ensemble_size=5,
            strategies=(CentralityKind.DEGREE, CentralityKind.CLOSENESS, CentralityKind.RANDOM),
        )
        out = minimum_seed_battery(cfg, k_max=60)
        assert len(calls) == cfg.ensemble_size
        assert out == {"degree": 11, "closeness": 11, "random": 12}

    def test_costly_rankings_on_workers_only(self, monkeypatch):
        # the searches give the same k either way; ranking by degree or
        # random alone forks no worker, and a costly ranking shares its
        # graphs between the workers and this process.  Each forking.ahead
        # asks fork_context once, so calls holds each ahead's fn, then
        # whether it forked
        calls = []
        ahead, fork_context = forking.ahead, forking.fork_context

        def recording_ahead(fn, tasks, workers, here=None):
            calls.append(fn)
            if fn is harness._costly_scores:
                assert here is harness._ranked
            return ahead(fn, tasks, workers, here)

        def recording_fork_context(processes):
            calls.append(fork_context(processes))
            return calls[-1]

        monkeypatch.setattr(forking, "ahead", recording_ahead)
        monkeypatch.setattr(forking, "fork_context", recording_fork_context)
        cfg = tiny_intervention_config(
            generator=ErParams(n=80, edge_exist_prob=0.1),
            ensemble_size=4,
            strategies=(CentralityKind.EIGENVECTOR, CentralityKind.BETWEENNESS, CentralityKind.RANDOM),
        )
        out = []
        for cpus in (1, 2):
            monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
            out.append(minimum_seed_battery(cfg, k_max=60))
        assert out[0] == out[1] and out[0]["betweenness"] is not None
        minimum_seed_battery(cfg, k_max=60, strategies=["degree", "random"])
        pools = [calls[i + 1] for i, fn in enumerate(calls) if fn is harness._costly_scores]
        assert pools[0] is None and pools[1] is not None and pools[2] is None
        assert multiprocessing.active_children() == []

    def test_ranking_failure_names_graph_and_strategy(self):
        # the desk sparse-ER ensemble defeats the eigenvector iteration on graph 21
        cfg = dataclasses.replace(
            preset("er_intervention"), generator=preset("sparse_er_single").generator
        )
        with pytest.raises(NumericError) as info:
            minimum_seed_battery(cfg, k_max=5, strategies=["eigenvector"])
        assert str(info.value) == (
            "graph 21: eigenvector: eigenvector centrality did not converge in 1000 iterations"
        )
        assert info.value.last_iterate.shape == (200,)
        assert multiprocessing.active_children() == []

    def test_false_process_failure_names_the_graph(self, monkeypatch):
        error = NumericError("boom", last_iterate=np.arange(3.0))
        graphs = [g for g, _ in build_ensemble(tiny_intervention_config())]
        original = harness.run_false_process

        def fail_on_graph_2(g, *args, **kwargs):
            if g.edges.tobytes() == graphs[2].edges.tobytes():
                raise error
            return original(g, *args, **kwargs)

        monkeypatch.setattr(harness, "run_false_process", fail_on_graph_2)
        with pytest.raises(NumericError) as info:
            minimum_seed_battery(tiny_intervention_config(), k_max=5)
        assert info.value is error
        assert str(error) == "graph 2: false process: boom"
        assert error.last_iterate.tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("strategy", ["degree", "random"])
    def test_combat_failure_names_k_graph_and_strategy(self, monkeypatch, strategy):
        from layercast import intervention

        # one usable CPU: the runs counted are the serial search's, in order
        monkeypatch.setattr(forking, "usable_cpus", lambda: 1)
        error = NumericError("boom", last_iterate=np.arange(4.0))
        cfg = tiny_intervention_config()
        graphs = [g for g, _ in build_ensemble(cfg)]
        index = {g.edges.tobytes(): i for i, g in enumerate(graphs)}
        false_processes = [harness._false_process(cfg, g, 0, i) for i, g in enumerate(graphs)]
        original = intervention.run_intervention
        runs = []

        def fail_at_graph_1_k_3(g, false_creators, true_creators, params):
            # a ranked search hands over a LayeredView, random the drawn nodes
            k = len(getattr(true_creators, "sources", true_creators))
            runs.append((k, index[g.edges.tobytes()]))
            if runs[-1] == (3, 1):
                raise error
            return original(g, false_creators, true_creators, params)

        monkeypatch.setattr(intervention, "run_intervention", fail_at_graph_1_k_3)
        with pytest.raises(NumericError) as info:
            minimum_seed_battery(cfg, k_max=cfg.ensemble_size * 10, strategies=[strategy])
        assert info.value is error
        assert str(error) == f"k=3: graph 1: {strategy}: boom"
        assert error.last_iterate.tolist() == [0.0, 1.0, 2.0, 3.0]
        # the runs the skip rule keeps, up to graph 1 at k = 3
        monkeypatch.setattr(intervention, "run_intervention", original)
        expected, _ = bounded_search_runs(
            graphs, strategy, false_processes, cfg.model, 3, rng_seed=cfg.master_rng_seed
        )
        assert runs == expected[: expected.index((3, 1)) + 1]

    def test_swept_config_rejected(self):
        cfg = tiny_intervention_config(sweep=SweepSpec("true_transmission_prob", (0.3, 0.4)))
        with pytest.raises(InputError, match="sweep"):
            minimum_seed_battery(cfg, k_max=5)

    def test_build_ensemble_matches_config(self):
        cfg = tiny_intervention_config()
        graphs = build_ensemble(cfg)
        assert len(graphs) == cfg.ensemble_size
        assert all(g.node_count == 60 for g, _ in graphs)
