"""The true-vs-false competing diffusion on the 4-node path.

False news starts at one end, fact-checked news at the other; the false
process keeps a one-iteration head start, and any node whose false belief
reaches the decisive threshold drops out of the true process.

Run: python demos/02_intervention.py
"""

from layercast import (
    CombatParams,
    Label,
    build_graph,
    intervention_metrics,
    minimum_true_seeds,
    run_false_process,
    run_intervention,
)
from layercast.centrality import CentralityKind

chain = build_graph(4, [(0, 1), (1, 2), (2, 3)])
params = CombatParams(
    false_transmission_prob=0.5,
    true_transmission_prob=0.4,
    decisive_threshold=0.5,
    comparative_threshold=0.1,
)

state = run_intervention(chain, false_creators=[0], true_creators=[3], params=params)


# Step t updates true layer t - 1, then false layer t: the false process
# never waits for the true one, so each of its layers lands a step earlier.
def update_step(layer, delay):
    if layer is None:
        return "never"
    return "creator" if layer == 0 else f"step {layer + delay}"


print("false creator at node 0, true creator at node 3")
print("when each node updates (false process, true process):")
for v in range(4):
    false_at = update_step(state.false_layers.layer(v), 0)
    true_at = update_step(state.true_layers.layer(v), 1)
    print(f"  node {v}: false {false_at}, true {true_at}")
print("\nfinal state:")
for v in range(4):
    print(
        f"  node {v}: p_if={state.p_if[v]:.3f}  p_it={state.p_it[v]:.3f}  "
        f"blocked={bool(state.blocked[v])}  {Label(state.labels[v]).name.lower()}"
    )
sum_p_it, infected, susceptible, protected = intervention_metrics(state)
print(f"\nmetrics: sum_p_it={sum_p_it}, infected={infected}, susceptible={susceptible}, protected={protected}")

# Node 1 crossed the decisive threshold at step 1, so when the true wave
# arrives at step 3 it is blocked, which also strands node 0.

# How many true creators does the chain need for a complete intervention
# (more protected than infected on average)?  One is not enough; two are.
curve = []
false_process = run_false_process(chain, [0], params)
k = minimum_true_seeds(
    [chain], CentralityKind.DEGREE, [false_process], params, k_max=4, curve_out=curve
)
print("\nminimum true creators for a complete intervention (degree strategy):", k)
for k_i, protected_mean, infected_mean in curve:
    print(f"  k={k_i}: protected {protected_mean:.0f} vs infected {infected_mean:.0f}")
