import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from layercast import (
    CentralityKind,
    CombatParams,
    ContractError,
    DiffusionParams,
    ErParams,
    GaussianPartitionParams,
    LayercastError,
    LfrParams,
    NumericError,
    build_graph,
    format_edge_list,
    gen_er,
    gen_gaussian_partition,
    gen_lfr,
    save_edge_list,
)
from layercast import cli
from layercast.cli import main
from layercast.harness import PRESETS, ExperimentConfig, config_to_dict

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "fig45.edges"
    save_edge_list(build_graph(4, [(0, 1), (1, 2), (2, 3)]), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_er_empty(self, capsys):
        code, out, err = run_cli(capsys, "generate", "er", "--n", "10", "--p", "0", "--seed", "1")
        assert code == 0
        assert out == "10 0\n"

    def test_er_deterministic(self, capsys):
        args = ("generate", "er", "--n", "30", "--p", "0.2", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_er_seed_required(self, capsys):
        code, _, err = run_cli(capsys, "generate", "er", "--n", "10", "--p", "0.5")
        assert code == 1
        assert err.startswith("error: usage:")

    def test_gaussian_with_communities(self, capsys, tmp_path):
        comm = tmp_path / "comm.txt"
        code, out, _ = run_cli(
            capsys, "generate", "gaussian", "--n", "40", "--mean-size", "20",
            "--shape", "20", "--p-in", "0.3", "--p-out", "0.01", "--seed", "4",
            "--community-out", str(comm),
        )
        assert code == 0
        lines = comm.read_text().splitlines()
        assert len(lines) == 40
        assert lines[0].split()[0] == "0"

    def test_lfr(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "lfr", "--n", "120", "--tau1", "3", "--tau2", "1.5",
            "--mu", "0.1", "--average-degree", "4", "--min-community", "25", "--seed", "2",
        )
        assert code == 0
        n, m = out.splitlines()[0].split()
        assert n == "120" and int(m) > 0

    def test_invalid_param_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "er", "--n", "10", "--p", "1.5", "--seed", "1")
        assert code == 1
        assert err.startswith("error: input:")


    @pytest.mark.parametrize(
        "argv",
        [
            ("gaussian", "--n", "100", "--mean-size", "10", "--shape", "nan",
             "--p-in", "0.1", "--p-out", "0.01"),
            ("lfr", "--n", "120", "--tau1", "nan", "--tau2", "1.5", "--mu", "0.1",
             "--average-degree", "4", "--min-community", "25"),
        ],
        ids=["gaussian-shape", "lfr-tau1"],
    )
    def test_nan_param_is_input_error(self, capsys, argv):
        code, _, err = run_cli(capsys, "generate", *argv, "--seed", "1")
        assert code == 1
        assert err.startswith("error: input:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("gaussian", "--n", "100", "--mean-size", "inf", "--shape", "1",
             "--p-in", "0.1", "--p-out", "0.01"),
            ("lfr", "--n", "120", "--tau1", "inf", "--tau2", "1.5", "--mu", "0.1",
             "--average-degree", "4", "--min-community", "25"),
            ("lfr", "--n", "120", "--tau1", "3", "--tau2", "inf", "--mu", "0.1",
             "--average-degree", "4", "--min-community", "25"),
            ("lfr", "--n", "120", "--tau1", "3", "--tau2", "1.5", "--mu", "0.1",
             "--average-degree", "inf", "--min-community", "25"),
        ],
        ids=["gaussian-mean_size", "lfr-tau1", "lfr-tau2", "lfr-average_degree"],
    )
    def test_infinite_param_is_one_line_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "generate", *argv, "--seed", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: input:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, params, generate",
        [
            (("er", "--n", "30", "--edge-exist-prob", "0.2"),
             ErParams(n=30, edge_exist_prob=0.2), lambda p, s: (gen_er(p, s), None)),
            (("gaussian", "--n", "40", "--s", "20", "--v", "20", "--p-in", "0.3", "--p-out", "0.01"),
             GaussianPartitionParams(n=40, mean_size=20, shape=20, p_in=0.3, p_out=0.01),
             gen_gaussian_partition),
            (("lfr", "--n", "120", "--tau1", "3", "--tau2", "1.5", "--mu", "0.1",
              "--average-degree", "4", "--min-community", "25"),
             LfrParams(n=120, tau1=3, tau2=1.5, mu=0.1, average_degree=4, min_community=25),
             gen_lfr),
        ],
        ids=["er", "gaussian", "lfr"],
    )
    def test_output_is_the_library_generator(self, capsys, tmp_path, argv, params, generate):
        comm = tmp_path / "comm.txt"
        extra = () if argv[0] == "er" else ("--community-out", str(comm))
        code, out, err = run_cli(capsys, "generate", *argv, "--seed", "7", *extra)
        g, communities = generate(params, 7)
        assert (code, err) == (0, "")
        assert out == format_edge_list(g)
        if communities is not None:
            assert comm.read_text() == cli._community_text(communities)


class TestCentrality:
    def test_degree_csv(self, capsys, chain_file):
        code, out, _ = run_cli(capsys, "centrality", "--graph", chain_file, "--measure", "degree")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["score"] for r in rows] == ["1.0", "2.0", "2.0", "1.0"]

    def test_missing_graph_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "centrality", "--graph", str(tmp_path / "nope.edges"), "--measure", "degree"
        )
        assert code == 1
        assert err.startswith("error: input:")

    def test_undecodable_graph_file(self, capsys, tmp_path):
        path = tmp_path / "net.edges"
        path.write_bytes("2 1\n0 1\n\u00e9\n".encode("utf-8"))
        code, out, err = run_cli(capsys, "centrality", "--graph", str(path), "--measure", "degree")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: input: edge-list file {path} is not ascii text")
        assert err.count("\n") == 1


class TestDiffuse:
    def test_explicit_creators(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "diffuse", "--graph", chain_file, "--transmission-prob", "0.5",
            "--threshold", "0.5", "--ic", "0",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["p_i"] for r in rows] == ["1.0", "0.5", "0.25", "0.125"]
        assert [r["label"] for r in rows] == ["Infected", "Infected", "Susceptible", "Susceptible"]

    def test_metrics_to_stdout_when_csv_goes_to_file(self, capsys, chain_file, tmp_path):
        out_file = tmp_path / "nodes.csv"
        code, out, _ = run_cli(
            capsys, "diffuse", "--graph", chain_file, "--p", "0.5", "--threshold", "0.5",
            "--ic", "0", "--out", str(out_file),
        )
        assert code == 0
        metrics = json.loads(out)
        assert metrics == {"iterations": 3, "sum_p_i": 1.875, "infected_count": 2}
        assert out_file.read_text().startswith("node,layer,p_i,label")

    def test_random_strategy_requires_seed(self, capsys, chain_file):
        code, _, err = run_cli(
            capsys, "diffuse", "--graph", chain_file, "--p", "0.5", "--threshold", "0.5",
            "--strategy", "random", "--count", "2",
        )
        assert code == 1
        assert err.startswith("error: input:")

    def test_missing_creator_spec_names_its_flags(self, capsys, chain_file):
        code, _, err = run_cli(
            capsys, "diffuse", "--graph", chain_file, "--p", "0.5", "--threshold", "0.5",
            "--strategy", "degree",
        )
        assert code == 1
        assert err.startswith("error: input:")
        assert all(flag in err for flag in ("--ic", "--strategy", "--count"))

    def test_strategy_selection(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "diffuse", "--graph", chain_file, "--p", "0.5", "--threshold", "0.5",
            "--strategy", "degree", "--count", "1",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[1]["p_i"] == "1.0"  # node 1 is the top-degree creator


class TestIntervene:
    def test_chain_walkthrough_labels(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "intervene", "--graph", chain_file, "--ic-f", "0", "--ic-t", "3",
            "--pf", "0.5", "--pt", "0.4", "--td", "0.5", "--tc", "0.1",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["label"] for r in rows] == ["Infected", "Infected", "Protected", "Protected"]
        assert [r["p_if"] for r in rows] == ["1.0", "0.5", "0.25", "0.125"]
        assert [r["p_it"] for r in rows] == ["0.0", "0.0", "0.4", "1.0"]
        # A crossed the threshold (it is the false creator) before its own
        # true-update step, so it carries the blocked flag too
        assert [r["blocked"] for r in rows] == ["True", "True", "False", "False"]

    def test_long_flag_aliases(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "intervene", "--graph", chain_file, "--ic-f", "0", "--ic-t", "3",
            "--false-transmission-prob", "0.5", "--true-transmission-prob", "0.4",
            "--decisive-threshold", "0.5", "--comparative-threshold", "0.1",
        )
        assert code == 0

    def test_metrics_json(self, capsys, chain_file, tmp_path):
        metrics_file = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "intervene", "--graph", chain_file, "--ic-f", "0", "--ic-t", "3",
            "--pf", "0.5", "--pt", "0.4", "--td", "0.5", "--tc", "0.1",
            "--metrics-out", str(metrics_file),
        )
        assert code == 0
        metrics = json.loads(metrics_file.read_text())
        assert metrics == {"sum_p_it": 1.4, "infected": 2, "susceptible": 0, "protected": 2}

    def test_nan_decisive_threshold_rejected(self, capsys, chain_file):
        code, _, err = run_cli(
            capsys, "intervene", "--graph", chain_file, "--ic-f", "0", "--ic-t", "3",
            "--pf", "0.5", "--pt", "0.4", "--td", "nan", "--tc", "0.1",
        )
        assert code == 1
        assert err.startswith("error: input:")

    def test_strategy_sides(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "intervene", "--graph", chain_file,
            "--false-strategy", "random", "--false-count", "1",
            "--true-strategy", "degree", "--true-count", "1",
            "--pf", "0.5", "--pt", "0.4", "--td", "0.5", "--tc", "0.1", "--seed", "3",
        )
        assert code == 0

    def test_missing_seed_for_random_side(self, capsys, chain_file):
        code, _, err = run_cli(
            capsys, "intervene", "--graph", chain_file,
            "--false-strategy", "random", "--false-count", "1", "--ic-t", "3",
            "--pf", "0.5", "--pt", "0.4", "--td", "0.5", "--tc", "0.1",
        )
        assert code == 1
        assert err.startswith("error: input:")

    def test_missing_seed_spec_entirely(self, capsys, chain_file):
        code, _, err = run_cli(
            capsys, "intervene", "--graph", chain_file, "--ic-f", "0",
            "--pf", "0.5", "--pt", "0.4", "--td", "0.5", "--tc", "0.1",
        )
        assert code == 1


class TestStats:
    def test_wilcoxon_bundled_dataset(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "wilcoxon", "--alt", "x_less")
        assert code == 0
        result = json.loads(out)
        assert result["n_effective"] == 134
        assert result["p_one_tailed"] == pytest.approx(4.62e-12, rel=0.01)
        assert result["method"] == "normal-approximation"

    def test_wilcoxon_explicit_input(self, capsys, tmp_path):
        path = tmp_path / "eng.csv"
        path.write_text("news_id,true,false\n1,1,2\n2,2,4\n3,3,6\n4,4,8\n5,5,10\n")
        code, out, _ = run_cli(capsys, "stats", "wilcoxon", "--input", str(path), "--alt", "x_less")
        assert code == 0
        assert json.loads(out)["p_one_tailed"] == pytest.approx(1 / 32)

    def test_summarize(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "summarize", "--column", "true")
        assert code == 0
        result = json.loads(out)
        assert result["median"] == 1587.5
        assert round(result["mean"]) == 2729

    def test_undecodable_input_file(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"news_id,true,false\n1,5,\xc3\xa96\n")
        code, out, err = run_cli(capsys, "stats", "summarize", "--input", str(path), "--column", "true")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: input: engagement file {path} is not ascii text")
        assert err.count("\n") == 1

    def test_degenerate_sample_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("news_id,true,false\n1,5,5\n2,7,7\n")
        code, _, err = run_cli(capsys, "stats", "wilcoxon", "--input", str(path), "--alt", "x_less")
        assert code == 1
        assert err.startswith("error: input:")


class TestExperiment:
    @pytest.fixture
    def config_file(self, tmp_path):
        cfg = ExperimentConfig(
            generator=ErParams(n=40, edge_exist_prob=0.12),
            ensemble_size=4,
            mode="single",
            strategies=(CentralityKind.DEGREE, CentralityKind.RANDOM),
            model=DiffusionParams(0.5, 0.5),
            info_starter=2,
            master_rng_seed=21,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        return str(path)

    def test_run_writes_outputs(self, capsys, config_file, tmp_path):
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys, "experiment", "run", "--config", config_file, "--out", str(out_dir)
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["records"] == 8
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "results.json").exists()

    def test_undecodable_config_file(self, capsys, config_file, tmp_path):
        Path(config_file).write_bytes(Path(config_file).read_bytes() + b"\xff")
        out_dir = tmp_path / "results"
        code, out, err = run_cli(
            capsys, "experiment", "run", "--config", config_file, "--out", str(out_dir)
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: input: config file {config_file} is not utf-8 text")
        assert err.count("\n") == 1
        assert not out_dir.exists()

    def test_deterministic_csv_across_runs(self, capsys, config_file, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "experiment", "run", "--config", config_file, "--out", str(a_dir))
        run_cli(capsys, "experiment", "run", "--config", config_file, "--out", str(b_dir))
        assert (a_dir / "results.csv").read_bytes() == (b_dir / "results.csv").read_bytes()

    def test_desk_scale_applied(self, capsys, tmp_path):
        cfg = ExperimentConfig(
            generator=ErParams(n=1000, edge_exist_prob=0.04),
            ensemble_size=50,
            mode="single",
            strategies=(CentralityKind.DEGREE, CentralityKind.RANDOM),
            model=DiffusionParams(0.5, 0.5),
            info_starter=3,
            master_rng_seed=21,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "experiment", "run", "--config", str(path), "--out", str(out_dir),
            "--scale", "desk",
        )
        assert code == 0
        written = json.loads((out_dir / "results.json").read_text())
        assert written["config"]["generator"]["n"] == 200
        assert written["config"]["generator"]["edge_exist_prob"] == pytest.approx(0.2)
        assert written["config"]["ensemble_size"] == 30

    @pytest.mark.parametrize(
        "field, value",
        [
            ("master_rng_seed", -1),
            ("master_rng_seed", 1.5),
            ("false_info_starter", 5000),
            ("true_info_starter", 2.5),
            ("ensemble_size", 1.5),
            ("generator", {"type": "er", "n": 40.5, "edge_exist_prob": 0.12}),
            ("generator", {"type": "er", "n": 1e3, "edge_exist_prob": 0.12}),
            ("generator", {"type": "lfr", "n": 100, "tau1": 3.0, "tau2": 1.5, "mu": 0.1,
                           "average_degree": 5.0, "min_community": 20.5}),
            ("ensemble_size", True),
            ("generator", {"type": "er", "n": 40, "edge_exist_prob": True}),
            ("generator", {"type": "lfr", "n": 100, "tau1": "3", "tau2": 1.5, "mu": 0.1,
                           "average_degree": 5.0, "min_community": 20}),
        ],
    )
    def test_bad_battery_config_is_input_error(self, capsys, tmp_path, field, value):
        cfg = ExperimentConfig(
            generator=ErParams(n=40, edge_exist_prob=0.12),
            ensemble_size=2,
            mode="intervention",
            strategies=(CentralityKind.DEGREE,),
            model=CombatParams(0.5, 0.4, 0.4, 0.1),
            false_info_starter=2,
            true_info_starter=3,
            master_rng_seed=21,
        )
        data = config_to_dict(cfg)
        data[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(
            capsys, "experiment", "run", "--config", str(path), "--out", str(tmp_path / "out")
        )
        assert code == 1
        assert err.startswith("error: input:")

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("dense_er_single", "eca57b4de77b709764b0bb18d026bc21a70b0e8ea04c1d7ac38b06d57e0b2a90"),
            ("er_intervention", "400063af28607f053941424473cd47b6034dcc1fa04cd262e2daaf200466857d"),
        ],
    )
    def test_demo_config_results_are_pinned(self, capsys, tmp_path, name, digest):
        # results.csv is the fixed point: any byte that moves must be declared
        code, _, _ = run_cli(
            capsys, "experiment", "run", "--config", str(CONFIGS / f"{name}.json"),
            "--out", str(tmp_path), "--scale", "desk",
        )
        assert code == 0
        assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == digest

    def test_workers_flag(self, capsys, config_file, tmp_path):
        # closeness is ranked on the workers when there are two
        data = json.loads(Path(config_file).read_text())
        data["strategies"] = ["closeness", "random"]
        Path(config_file).write_text(json.dumps(data))
        outputs = set()
        for workers in ("1", "2"):
            out_dir = tmp_path / workers
            code, _, _ = run_cli(
                capsys, "experiment", "run", "--config", config_file, "--out", str(out_dir),
                "--workers", workers,
            )
            assert code == 0
            outputs.add((out_dir / "results.csv").read_bytes())
        assert len(outputs) == 1
        code, out, err = run_cli(
            capsys, "experiment", "run", "--config", config_file, "--out", str(tmp_path / "0"),
            "--workers", "0",
        )
        assert (code, out, err) == (1, "", "error: input: workers must be >= 1, got 0\n")


class TestErrorContract:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error: usage:")
        assert err.count("\n") == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "generate", "er", "--n", "5", "--p", "0.1", "--seed", "1", "--bogus")
        assert code == 1
        assert err.startswith("error: usage:")

    def test_no_arguments(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "generate" in out

    def test_intervene_help_names_the_short_flags(self, capsys):
        code, out, _ = run_cli(capsys, "intervene", "--help")
        assert code == 0
        for short, long_ in [("pf", "false-transmission-prob"), ("pt", "true-transmission-prob"),
                             ("td", "decisive-threshold"), ("tc", "comparative-threshold")]:
            assert f"--{short} {short.upper()}, --{long_} {short.upper()}" in out

    def test_identical_invocations_identical_stdout(self, capsys, chain_file):
        args = (
            "intervene", "--graph", chain_file, "--ic-f", "0", "--ic-t", "3",
            "--pf", "0.5", "--pt", "0.4", "--td", "0.5", "--tc", "0.1",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_generation_error_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "lfr", "--n", "10", "--tau1", "3", "--tau2", "1.5", "--mu", "0.1",
            "--average-degree", "4", "--min-community", "20", "--seed", "2",
        )
        assert code == 2
        assert err.startswith("error: generation: ")
        assert err.count("\n") == 1

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "generate", "er", "--n", "10", "--p", "0.5", "--seed", "1",
            "--out", str(tmp_path / "missing" / "x.edges"),
        )
        assert code == 2
        assert err.startswith("error: io: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "error, label",
        [(NumericError, "numeric"), (ContractError, "contract"), (LayercastError, "runtime")],
    )
    @pytest.mark.parametrize(
        "call, argv",
        [
            ("compute_centrality", ("centrality", "--measure", "degree")),
            ("run_intervention", ("intervene", "--ic-f", "0", "--ic-t", "3",
                                  "--pf", "0.5", "--pt", "0.4", "--td", "0.5", "--tc", "0.1")),
        ],
        ids=["centrality", "intervene"],
    )
    def test_library_error_exits_2(self, capsys, monkeypatch, chain_file, error, label, call, argv):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, call, fail)
        code, out, err = run_cli(capsys, *argv, "--graph", chain_file)
        assert (code, out, err) == (2, "", f"error: {label}: boom\n")


    def test_battery_failure_names_graph_and_strategy(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(PRESETS["sparse_er_single"])))
        code, out, err = run_cli(
            capsys, "experiment", "run", "--config", str(path), "--out", str(tmp_path / "out"),
            "--scale", "desk",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: numeric: graph 21: eigenvector: "
            "eigenvector centrality did not converge in 1000 iterations\n"
        )


    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_failure_names_the_point(self, capsys, tmp_path, workers):
        data = config_to_dict(PRESETS["sparse_er_single"])
        data["sweep"] = {"parameter": "edge_exist_prob", "values": [0.02, 0.0025]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "experiment", "run", "--config", str(path), "--out", str(tmp_path / "out"),
            "--scale", "desk", "--workers", workers,
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: numeric: edge_exist_prob=0.0025: graph 16: eigenvector: "
            "eigenvector centrality did not converge in 1000 iterations\n"
        )


STARTUP_CODE = pytest.mark.parametrize(
    "code",
    [
        "import layercast",
        "from layercast.cli import main; main(['generate', 'er', '--n', '10', '--p', '0.5',"
        " '--seed', '1'])",
    ],
    ids=["import", "generate"],
)


def loaded_after(code: str, module: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


class TestStartup:
    """The CLI does not pay for scipy.stats unless a Wilcoxon test runs, nor
    for scipy.sparse until a graph needs its adjacency matrix, nor for
    multiprocessing until a battery ranks on worker processes or a
    minimum-seed search forks its worker."""

    @STARTUP_CODE
    def test_scipy_stats_not_imported(self, code):
        assert not loaded_after(code, "scipy.stats")

    @STARTUP_CODE
    def test_scipy_sparse_not_imported(self, code):
        assert not loaded_after(code, "scipy.sparse")

    @STARTUP_CODE
    def test_multiprocessing_not_imported(self, code):
        assert not loaded_after(code, "multiprocessing")
