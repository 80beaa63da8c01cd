import csv
import io
import json

import pytest

from layercast import (
    CentralityKind,
    DiffusionParams,
    ErParams,
    build_graph,
    save_edge_list,
)
from layercast.cli import main
from layercast.harness import ExperimentConfig, config_to_dict


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

    def test_threads_flag(self, capsys, config_file, tmp_path):
        out_dir = tmp_path / "t"
        code, _, _ = run_cli(
            capsys, "experiment", "run", "--config", config_file, "--out", str(out_dir),
            "--threads", "3",
        )
        assert code == 0


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

    def test_identical_invocations_identical_stdout(self, capsys, chain_file):
        args = (
            "intervene", "--graph", chain_file, "--ic-f", "0", "--ic-t", "3",
            "--pf", "0.5", "--pt", "0.4", "--td", "0.5", "--tc", "0.1",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
