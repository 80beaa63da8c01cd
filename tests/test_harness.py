import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from layercast import (
    CentralityKind,
    CombatParams,
    DiffusionParams,
    ErParams,
    GaussianPartitionParams,
    InputError,
    LfrParams,
)
from layercast.harness import (
    PRESETS,
    ExperimentConfig,
    SweepSpec,
    apply_scale,
    build_ensemble,
    config_from_dict,
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

    def test_duplicate_strategies(self):
        with pytest.raises(InputError):
            tiny_single_config(strategies=(CentralityKind.DEGREE, CentralityKind.DEGREE))

    def test_empty_sweep_grid(self):
        with pytest.raises(InputError):
            SweepSpec(parameter="edge_exist_prob", values=())

    def test_unknown_sweep_parameter(self):
        cfg = tiny_single_config(sweep=SweepSpec(parameter="nonsense", values=(1.0,)))
        with pytest.raises(InputError):
            run_experiment(cfg)


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

    def test_threads_do_not_change_output(self):
        cfg = tiny_single_config()
        assert records_to_csv_text(run_experiment(cfg)) == records_to_csv_text(
            run_experiment(cfg, threads=4)
        )

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

    def test_single_mode_metric_columns(self):
        res = run_experiment(tiny_single_config())
        col = res.metric_column(CentralityKind.DEGREE, "sum_p_i")
        assert len(col) == 8
        infected = res.metric_column(CentralityKind.DEGREE, "infected")
        susceptible = res.metric_column(CentralityKind.DEGREE, "susceptible")
        assert np.all(infected + susceptible == 60)

    def test_generation_failure_names_graph_index(self):
        from layercast import GenerationError

        cfg = tiny_single_config(
            generator=LfrParams(n=30, tau1=3, tau2=1.5, mu=0.1, average_degree=4, min_community=50),
            ensemble_size=2,
        )
        with pytest.raises(GenerationError, match="graph 0"):
            run_experiment(cfg)

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
        _, sum_p_i = diffusion_metrics(run_single_diffusion(g, ic, cfg.model))
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


class TestExportImport:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_identical_records(self, tmp_path, fmt):
        res = run_experiment(tiny_intervention_config())
        path = tmp_path / f"out.{fmt}"
        export_results(res, path, fmt)
        assert read_records(path, fmt) == res.records

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

    def test_unknown_preset(self):
        with pytest.raises(InputError):
            preset("dense_er")

    @pytest.mark.parametrize("name", ["dense_er_single", "er_intervention"])
    def test_demo_config_is_the_paper_preset(self, name):
        assert load_config(CONFIGS / f"{name}.json") == preset(name, "paper")


class TestMinimumSeedBattery:
    def test_requires_intervention_mode(self):
        with pytest.raises(InputError):
            minimum_seed_battery(tiny_single_config(), k_max=5)

    def test_small_battery_orders_strategies(self):
        cfg = tiny_intervention_config(
            generator=ErParams(n=80, edge_exist_prob=0.1), ensemble_size=5
        )
        out = minimum_seed_battery(cfg, k_max=60)
        assert set(out) == {"degree", "random"}
        assert out["degree"] is not None
        assert out["degree"] <= out["random"]

    def test_build_ensemble_matches_config(self):
        cfg = tiny_intervention_config()
        graphs = build_ensemble(cfg)
        assert len(graphs) == cfg.ensemble_size
        assert all(g.node_count == 60 for g, _ in graphs)
