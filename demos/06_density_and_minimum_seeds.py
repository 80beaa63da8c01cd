"""Two structural studies.

First, the density sweep: the centrality advantage for single diffusion is
small on near-empty and near-complete graphs and peaks at moderate density.
Second, the complete-intervention search: the smallest number of true-news
creators whose expected protected count beats the infected count, per
strategy.

Run: python demos/06_density_and_minimum_seeds.py   (about two minutes)
"""

import dataclasses

from layercast import CentralityKind, SweepSpec, minimum_seed_battery, preset, run_experiment

# Degree vs random only: at the sparsest grid points the graph shatters into
# near-tied components and eigenvector power iteration rightly refuses to
# pick a winner.
base = preset("dense_er_single")
grid = (0.005, 0.02, 0.05, 0.2, 0.6)
result = run_experiment(
    dataclasses.replace(
        base,
        generator=dataclasses.replace(base.generator, n=150),
        ensemble_size=15,
        strategies=(CentralityKind.DEGREE, CentralityKind.RANDOM),
        sweep=SweepSpec("edge_exist_prob", grid),
    )
)

print("degree-strategy advantage over random (mean sum of beliefs):")
for density in grid:
    advantage = result.mean_advantage(CentralityKind.DEGREE, "sum_p_i", density)
    bar = "#" * max(0, int(advantage))
    print(f"  density {density:<6}: {advantage:+7.2f}  {bar}")

print("\nminimum true creators for a complete intervention (30 graphs, 200 nodes):")
config = preset("er_intervention")
minimums = minimum_seed_battery(config, k_max=80)
for name, k in minimums.items():
    print(f"  {name:<12} {k}")
print("\nevery centrality strategy reaches completeness with no more creators")
print("than the random baseline needs.")
