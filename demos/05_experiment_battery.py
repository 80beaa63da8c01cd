"""A full desk-scale battery: 30 dense random graphs, six strategies,
paired Wilcoxon comparison of every centrality strategy against the
random baseline.

Run: python demos/05_experiment_battery.py [out.csv]
"""

import sys

from layercast import CentralityKind, export_results, preset, run_experiment

config = preset("dense_er_single")
print(
    f"battery: {config.ensemble_size} graphs of {config.generator.n} nodes "
    f"(edge probability {config.generator.edge_exist_prob}), "
    f"{config.info_starter} creators per run"
)

result = run_experiment(config)

print(f"\n{'strategy':<14}{'mean iterations':>16}{'mean sum of beliefs':>20}")
for strategy in config.strategies:
    iters = result.metric_column(strategy, "iterations").mean()
    total = result.metric_column(strategy, "sum_p_i").mean()
    print(f"{strategy.value:<14}{iters:>16.2f}{total:>20.2f}")

print(f"\n{'strategy':<14}{'p (sum of beliefs)':>20}{'p (iterations)':>18}")
for strategy in config.strategies:
    if strategy is CentralityKind.RANDOM:
        continue
    p_sum = result.p_value(strategy, "sum_p_i")
    p_it = result.p_value(strategy, "iterations")
    note = " (degenerate)" if p_it.degenerate else ""
    print(f"{strategy.value:<14}{p_sum.p:>20.3e}{p_it.p:>18.3e}{note}")

if len(sys.argv) > 1:
    export_results(result, sys.argv[1], "csv")
    print(f"\nwrote plot-ready records to {sys.argv[1]}")
