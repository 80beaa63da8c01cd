"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Every workload runs once per mode (one battery per measurement) and must
emit every metric BENCHMARK.json names, with its unit.  That takes a few
minutes.  The other tests cover the output check and the tracer on tiny
inputs.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

assert run.use_checkout_src(), f"no layercast package under {run.SRC}"

import layercast as lc  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from layercast import harness, intervention  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric(name, trace):
    proc = _run_cli(run.ROOT, "--workload", name, "--seed", "1729", "--seconds", "1",
                    "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace  # the traced run adds one untraced battery
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    assert report["provenance"]["input_seed"] == 1729
    assert report["sample_count"] == result["attempted"]


def test_corrupted_reference_is_a_failure():
    refs = copy.deepcopy(workloads.load_references())
    refs["results"]["lfr_intervention"]["1729"] = "0" * 64
    _, result = run.run_workload("lfr_intervention", 1729, 1, False, refs=refs)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["passed_share"]["value"] == 0.0


def test_raising_call_is_a_failure():
    def boom(config):
        raise lc.NumericError("did not converge")

    workload = dataclasses.replace(workloads.WORKLOADS["lfr_intervention"], call=boom)
    sample = run.timed_call(workload, None, 1729, workloads.load_references())
    assert not sample.ok and sample.digest is None


def test_traced_run_stops_when_digests_differ():
    calls = itertools.count()
    workload = workloads.Workload(
        name="lfr_intervention", config=lambda seed: None, call=lambda config: next(calls),
        digest=lambda result: result,
    )
    with pytest.raises(RuntimeError, match="traced digest"):
        run.measure_layers(workload, 1729, 1, workloads.load_references())


def test_traced_run_stops_when_a_span_is_never_entered():
    workload = workloads.Workload(
        name="lfr_intervention", config=lambda seed: None, call=lambda config: 1,
        digest=lambda result: result, spans=("generators.lfr_s",),
    )
    with pytest.raises(RuntimeError, match="no longer calls"):
        run.measure_layers(workload, 1729, 1, workloads.load_references())


def test_tracer_stops_when_a_call_site_is_gone(monkeypatch):
    original = harness.gen_er
    monkeypatch.delattr(harness, "gen_lfr")
    with pytest.raises(AttributeError, match="gen_lfr"):
        with tracer.Tracer().installed():
            pass
    assert harness.gen_er is original


def test_seed_without_reference_fails():
    refs = workloads.load_references()
    w = workloads.WORKLOADS["er_min_seeds"]
    assert workloads.check(w, 1729, refs["results"][w.name]["1729"], refs)
    assert not workloads.check(w, 987654321, refs["results"][w.name]["1729"], refs)


def test_every_seed_maps_to_a_reference():
    refs = workloads.load_references()
    assert refs["default_seed"] in refs["pool"]
    assert refs["held_out_seed"] not in refs["pool"]
    for w in workloads.WORKLOADS:
        assert set(refs["results"][w]) == {str(s) for s in refs["pool"] + [refs["held_out_seed"]]}
    assert workloads.input_seed(1729, refs) == 1729
    assert workloads.input_seed(refs["held_out_seed"], refs) == refs["held_out_seed"]
    mapped = {workloads.input_seed(s, refs) for s in range(100, 110)}
    assert mapped == set(refs["pool"])


def test_layer_counts_match_library():
    rng = np.random.default_rng(5)
    g = lc.gen_er(lc.ErParams(n=40, edge_exist_prob=0.15), rng)
    lv = lc.layer_from_sources(g, [0, 7])
    cross = effective = 0
    for u, v in g.edges:
        lu, lv_ = lv.layer_of[u], lv.layer_of[v]
        if min(lu, lv_) >= 0 and abs(lu - lv_) == 1:
            target, source = (u, v) if lu > lv_ else (v, u)
            cross += 1
            effective += lc.effective_edge_count(g, lv, target, source)
    assert tracer.layer_counts(g, lv) == (lv.depth, cross, effective)
    assert effective > 0


def _tiny(mode):
    kinds = ("degree", "closeness", "betweenness", "random")
    if mode == "single":
        return harness.ExperimentConfig(
            generator=lc.ErParams(n=40, edge_exist_prob=0.15), ensemble_size=3, mode="single",
            strategies=kinds, model=lc.DiffusionParams(0.5, 0.5), info_starter=2,
            master_rng_seed=3,
        )
    return harness.ExperimentConfig(
        generator=lc.ErParams(n=40, edge_exist_prob=0.15), ensemble_size=3, mode="intervention",
        strategies=kinds, model=lc.CombatParams(0.5, 0.4, 0.4, 0.1), false_info_starter=2,
        true_info_starter=3, master_rng_seed=3,
    )


@pytest.mark.parametrize("mode", ["single", "intervention"])
def test_tracer_delegates_unchanged_and_restores(mode):
    config = _tiny(mode)
    originals = (harness.run_intervention, intervention.run_intervention, harness.select_seeds)
    expected = harness.records_to_csv_text(lc.run_experiment(config))
    t = tracer.Tracer()
    with t.installed():
        traced = harness.records_to_csv_text(lc.run_experiment(config))
    assert traced == expected
    assert (harness.run_intervention, intervention.run_intervention, harness.select_seeds) == originals
    runs = 3 * 4  # graphs x strategies
    assert t.counts["diffusion.runs" if mode == "single" else "intervention.runs"] == runs
    # one test per (scoring strategy, tested metric)
    assert t.counts["stats.tests"] == 3 * (2 if mode == "single" else 4)
    assert t.busy["centrality.betweenness_s"] > 0 and t.busy["centrality.eigenvector_s"] == 0
    assert len(t.peak_graphs["betweenness"]) == 3
    assert 0 < t.top_level_s < sum(t.busy.values())
    if mode == "intervention":
        assert t.false_distinct_share() == 3 / runs


def test_tracer_sees_the_minimum_seed_search():
    config = dataclasses.replace(_tiny("intervention"), ensemble_size=2)
    expected = lc.minimum_seed_battery(config, k_max=10, strategies=("degree",))
    t = tracer.Tracer()
    with t.installed():
        assert lc.minimum_seed_battery(config, k_max=10, strategies=("degree",)) == expected
    k = expected["degree"] or 10
    assert t.counts["intervention.runs"] == 2 * k
    assert t.false_distinct_share() == 2 / (2 * k)
    assert t.busy["centrality.degree_s"] > 0 and t.busy["graph.layering_s"] > 0


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "lfr_intervention", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
