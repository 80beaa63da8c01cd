"""Walk through the layered diffusion model on tiny graphs.

Run: python demos/01_single_diffusion.py
"""

import numpy as np

from layercast import (
    DiffusionParams,
    Label,
    build_graph,
    diffusion_metrics,
    effective_edge_count,
    layer_from_sources,
    run_single_diffusion,
    transmission_factor,
)

# A believer passes information one hop per iteration.  On a 4-node path with
# transmission probability 0.5, belief halves at each hop from the creator.
chain = build_graph(4, [(0, 1), (1, 2), (2, 3)])
state = run_single_diffusion(chain, [0], DiffusionParams(transmission_prob=0.5, threshold=0.5))
print("path graph, creator at node 0, P = 0.5")
for v in range(4):
    print(
        f"  node {v}: layer {state.layers.layer_of[v]}, "
        f"belief {state.p_i[v]:.3f}, {Label(state.labels[v]).name.lower()}"
    )
iterations, total = diffusion_metrics(state)
print(f"  iterations: {iterations}, total belief: {total:.3f}")

# Closed triplets boost a transmission.  In a triangle, the two non-creator
# nodes reinforce each other: one effective edge each raises the per-edge
# update from 0.5 to 0.625.
triangle = build_graph(3, [(0, 1), (0, 2), (1, 2)])
lv = layer_from_sources(triangle, [0])
n_eff = effective_edge_count(triangle, lv, target=1, source=0)
print("\ntriangle, creator at node 0")
print(f"  effective edges for node 1 from node 0: {n_eff}")
print(f"  plain update:   {transmission_factor(0.5, 0):.4f}")
print(f"  boosted update: {transmission_factor(0.5, n_eff):.4f}")
state = run_single_diffusion(triangle, [0], DiffusionParams(0.5, 0.5))
print(f"  final beliefs: {np.round(state.p_i, 4).tolist()}")

# Belief grows monotonically with the transmission probability.
print("\ntotal belief on the path as P rises:")
for p in (0.1, 0.3, 0.5, 0.7, 0.9):
    state = run_single_diffusion(chain, [0], DiffusionParams(p, 0.5))
    print(f"  P = {p:.1f}: sum of beliefs = {diffusion_metrics(state)[1]:.4f}")
