"""Competing true-vs-false diffusion with decisive-threshold blocking.

Two layered diffusion processes share one timeline: the false process runs
one global step ahead of the true process.  A node whose false-belief
probability has reached the decisive threshold becomes unavailable to the
true process, both for receiving and for transmitting.  The false process
never reads the true one, so a run is a false spread followed by a true
spread halted by it.  Final three-way labels compare the two accumulated
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centrality import CentralityKind, compute_centrality, top_k_by_score
from .diffusion import Label, _spread
from .errors import ContractError, InputError, check_unit_interval, failing_at
from .graph import Graph, LayeredView, layer_from_sources, unique_nodes


@dataclass(frozen=True)
class CombatParams:
    """Transmission probabilities and thresholds for the competing processes.

    ``decisive_threshold`` is the false-belief level at which a node stops
    participating in the true process; values above 1 disable blocking
    entirely.  ``comparative_threshold`` is the minimum belief gap that labels
    a node infected.
    """

    false_transmission_prob: float
    true_transmission_prob: float
    decisive_threshold: float
    comparative_threshold: float

    def __post_init__(self):
        check_unit_interval(
            self, "false_transmission_prob", "true_transmission_prob", "comparative_threshold"
        )
        if not self.decisive_threshold >= 0.0:  # also rejects NaN
            raise InputError(
                f"decisive_threshold must be >= 0, got {self.decisive_threshold}"
            )


@dataclass
class CombatState:
    """Final state of one intervention run.

    ``blocked[v]`` records that v crossed the decisive threshold before its
    true update, so its true-belief probability stayed 0.
    """

    p_if: np.ndarray
    p_it: np.ndarray
    false_layers: LayeredView
    true_layers: LayeredView
    blocked: np.ndarray
    labels: np.ndarray


def determine_combat_label(p_if, p_it, comparative_threshold: float) -> np.ndarray:
    """Three-way status per node: infected / susceptible / protected.

    Infected when the false belief leads by at least the comparative
    threshold, susceptible when it otherwise leads or ties, else protected.
    """
    p_if = np.asarray(p_if)
    p_it = np.asarray(p_it)
    return np.where(
        p_if - p_it >= comparative_threshold,
        Label.INFECTED,
        np.where(p_if >= p_it, Label.SUSCEPTIBLE, Label.PROTECTED),
    ).astype(np.int8)


@dataclass(frozen=True)
class FalseProcess:
    """The false spread of a combat run, computed once per graph and creator set.

    The false process never reads the true one, so every true-creator set on
    the same graph can reuse it.  ``p_if`` is read-only because it is shared.
    """

    layers: LayeredView
    p_if: np.ndarray
    transmission_prob: float


def run_false_process(g: Graph, false_creators, params: CombatParams) -> FalseProcess:
    """Layer the false creators and spread false belief without interference."""
    lv = layer_from_sources(g, false_creators)
    p_if, _, _ = _spread(g, lv, params.false_transmission_prob)
    p_if.setflags(write=False)
    return FalseProcess(layers=lv, p_if=p_if, transmission_prob=params.false_transmission_prob)


def run_intervention(
    g: Graph, false_creators, true_creators, params: CombatParams, *, false_process=None
) -> CombatState:
    """Run the competing diffusion of false and true information.

    On the shared timeline, step t updates true layer t - 1 and then false
    layer t, so the false front keeps a one-step head start.  A true-layer
    target whose false belief has reached the decisive threshold is blocked
    and receives nothing; a source in the same condition transmits nothing.
    Creator sets may overlap (both beliefs start at 1).

    The false process never reads the true one, so it runs alone first.  When
    true layer L updates, false layers 0..L are done and every deeper or
    unreached node still holds false belief 0; the true process therefore
    halts, while layer L updates, exactly the nodes in
    ``np.where((f_layer >= 0) & (f_layer <= L), p_if, 0.0) >= td``.

    ``false_process``, when given, is :func:`run_false_process` for the same
    graph, false creators and false transmission probability, and is used
    instead of spreading the false belief again; a mismatched one raises
    :class:`ContractError`.
    """
    if false_process is None:
        false_process = run_false_process(g, false_creators, params)
    else:
        if not np.array_equal(false_process.layers.sources, unique_nodes(false_creators)):
            raise ContractError("false_process was spread from other false creators")
        if false_process.transmission_prob != params.false_transmission_prob:
            raise ContractError(
                "false_process was spread with another false transmission probability"
            )
    true_lv = layer_from_sources(g, true_creators)
    false_lv, p_if = false_process.layers, false_process.p_if

    f_layer = false_lv.layer_of
    td = params.decisive_threshold

    def stop(L):
        return np.where((f_layer >= 0) & (f_layer <= L), p_if, 0.0) >= td

    p_it, _, blocked = _spread(g, true_lv, params.true_transmission_prob, stop)
    return CombatState(
        p_if=p_if,
        p_it=p_it,
        false_layers=false_lv,
        true_layers=true_lv,
        blocked=blocked,
        labels=determine_combat_label(p_if, p_it, params.comparative_threshold),
    )


#: The names of the values :func:`intervention_metrics` returns, in its order.
COMBAT_METRICS = ("sum_p_it", "infected", "susceptible", "protected")


def intervention_metrics(state: CombatState):
    """(sum of p_it, infected count, susceptible count, protected count)."""
    labels = state.labels
    return (
        math.fsum(state.p_it),
        int(np.count_nonzero(labels == Label.INFECTED)),
        int(np.count_nonzero(labels == Label.SUSCEPTIBLE)),
        int(np.count_nonzero(labels == Label.PROTECTED)),
    )


def minimum_true_seeds(
    graphs,
    strategy: CentralityKind,
    false_processes,
    params: CombatParams,
    k_max: int,
    rng_seed=None,
    curve_out=None,
):
    """Smallest true-creator count achieving a complete intervention.

    A complete intervention means the ensemble-mean protected count strictly
    exceeds the ensemble-mean infected count.  The search runs k = 1..k_max in
    order and returns the first qualifying k (completeness is not guaranteed
    monotone in k), or None when no k qualifies.  ``false_processes`` gives
    each graph its :func:`run_false_process`, spread once from its fixed false
    creators; the random strategy draws its true creators from seeds derived
    per (graph, k) and requires ``rng_seed``.

    ``curve_out``, if given, receives ``(k, mean_protected, mean_infected)``
    for every k examined.  A :class:`LayercastError` is re-raised with its
    graph and the strategy in front (``graph <i>: <strategy>: `` from a
    ranking, ``k=<k>: graph <i>: <strategy>: `` from a combat run).
    """
    graphs = list(graphs)
    false_processes = list(false_processes)
    if not graphs:
        raise InputError("graph ensemble must be non-empty")
    if len(false_processes) != len(graphs):
        raise InputError("one false process is required per graph")
    strategy = CentralityKind(strategy)
    if not 1 <= k_max <= min(g.node_count for g in graphs):
        raise InputError(f"k_max must be in [1, min node count], got {k_max}")
    if strategy is CentralityKind.RANDOM and rng_seed is None:
        raise InputError("the random strategy requires an explicit rng_seed")

    orders = None
    if strategy is not CentralityKind.RANDOM:
        # each graph's ranking once; its first k entries are top_k_by_score(scores, k)
        orders = []
        for i, g in enumerate(graphs):
            with failing_at(f"graph {i}: {strategy.value}"):
                orders.append(top_k_by_score(compute_centrality(g, strategy).scores, g.node_count))

    for k in range(1, k_max + 1):
        protected = np.empty(len(graphs))
        infected = np.empty(len(graphs))
        for i, (g, fp) in enumerate(zip(graphs, false_processes)):
            if orders is not None:
                ic_t = orders[i][:k]
            else:
                rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(i, k)))
                ic_t = rng.choice(g.node_count, size=k, replace=False)
            with failing_at(f"k={k}: graph {i}: {strategy.value}"):
                state = run_intervention(g, fp.layers.sources, ic_t, params, false_process=fp)
            tally = np.bincount(state.labels, minlength=len(Label))
            protected[i] = tally[Label.PROTECTED]
            infected[i] = tally[Label.INFECTED]
        mean_prot = float(protected.mean())
        mean_inf = float(infected.mean())
        if curve_out is not None:
            curve_out.append((k, mean_prot, mean_inf))
        if mean_prot > mean_inf:
            return k
    return None
