"""The benchmark's hooks into the library still exist and still read it.

``perfbench/tracer.py`` times library stages by swapping named functions in
the module namespaces the battery code calls them from, and counts layers,
runs and blocked nodes from the objects they return;
``perfbench/workloads.py`` calls the package's public names.  A refactor that
drops one of those names or fields stops the benchmark, which otherwise only
the slow ``python3 -m pytest perfbench`` run would show.  These tests read
both files and never change them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import layercast
from layercast import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracer):
    patches = tracer.Tracer()._patches()
    assert patches
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _ in patches
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_every_name_the_workloads_use_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "layercast"
    }
    assert aliases
    used = [
        (layercast, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]
    used += [
        (importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("layercast")
        for alias in node.names
    ]
    assert used
    missing = [f"{module.__name__}.{name}" for module, name in used if not hasattr(module, name)]
    assert missing == []


def brute_layer_counts(g, lv):
    """(depth, consecutive-layer edges, their closed triplets), edge by edge."""
    cross = effective = 0
    for u, v in g.edges.tolist():
        lu, lw = lv.layer_of[u], lv.layer_of[v]
        if min(lu, lw) >= 0 and abs(lu - lw) == 1:
            target, source = (u, v) if lu > lw else (v, u)
            cross += 1
            effective += layercast.effective_edge_count(g, lv, target, source)
    return lv.depth, cross, effective


def test_layer_counts_read_both_kinds_of_view(tracer):
    g = layercast.gen_er(layercast.ErParams(40, 0.15), 5)
    order = [0, 7, 12, 30]
    rows = layercast.prefix_layerings(g, order)
    prefixes = [layercast.LayeredView(row.astype(np.int64)) for row in rows]
    views = [layercast.layer_from_sources(g, [0, 7]), *prefixes]
    for lv in views:
        counts = tracer.layer_counts(g, lv)
        assert counts == brute_layer_counts(g, lv)
        assert counts[2] > 0
    assert tracer.layer_counts(g, views[2]) == tracer.layer_counts(g, views[0])


def test_traced_intervention_battery_counts_what_it_ran(tracer, monkeypatch):
    # degree and random rank on no worker, so every run is in this process
    config = harness.ExperimentConfig(
        generator=layercast.ErParams(40, 0.15), ensemble_size=3, mode="intervention",
        strategies=("degree", "random"), model=layercast.CombatParams(0.5, 0.4, 0.3, 0.1),
        false_info_starter=2, true_info_starter=3, master_rng_seed=3,
    )
    states = []

    def recording(*args):
        states.append(layercast.run_intervention(*args))
        return states[-1]

    with monkeypatch.context() as m:
        m.setattr(harness, "run_intervention", recording)
        expected = harness.records_to_csv_text(layercast.run_experiment(config))
    t = tracer.Tracer()
    with t.installed():
        traced = harness.records_to_csv_text(layercast.run_experiment(config))
    assert traced == expected
    assert len(states) == t.counts["intervention.runs"] == 3 * 2
    blocked = sum(int(np.count_nonzero(s.blocked)) for s in states)
    assert t.counts["intervention.blocked"] == blocked > 0
    depths = sum(s.false_layers.depth + s.true_layers.depth for s in states)
    assert t.counts["graph.layers"] == depths > 0
    assert t.busy["intervention.run_s"] > 0 and t.busy["centrality.degree_s"] > 0
