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

from . import forking
from .centrality import CentralityKind, compute_centrality, top_k_by_score
from .diffusion import Label, _given_layering, _spread, label_counts
from .errors import (
    ContractError, InputError, as_integer, as_real, as_seed, check_unit_interval, failing_at,
)
from .graph import Graph, LayeredView, layer_from_sources, prefix_layerings


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
        if not as_real("decisive_threshold", self.decisive_threshold) >= 0.0:  # also rejects NaN
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
    the same graph can reuse it: :func:`run_intervention` takes it in place of
    the false creators.  ``p_if`` is read-only because it is shared.
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


def _check_false_process(g: Graph, false_process: FalseProcess, params: CombatParams) -> None:
    """Raise :class:`ContractError` unless ``false_process`` fits ``g`` and ``params``."""
    if false_process.transmission_prob != params.false_transmission_prob:
        raise ContractError(
            "the false process was spread with another false transmission probability"
        )
    _given_layering(g, "false process", false_process.layers)


def _halt_from(false_process: FalseProcess, decisive_threshold: float) -> np.ndarray:
    """The true layer from which each node is halted, ``node_count`` for never:
    its false layer once its false belief reaches ``decisive_threshold``, but
    layer 0 for every node at a threshold of 0, which a node's false belief
    of 0 reaches before the false process gets to it."""
    f_layer = false_process.layers.layer_of
    if decisive_threshold == 0:
        return np.zeros_like(f_layer)
    # p_if >= decisive_threshold > 0 only at nodes the false process reached
    return np.where(false_process.p_if >= decisive_threshold, f_layer, len(f_layer))


def run_intervention(g: Graph, false_creators, true_creators, params: CombatParams) -> CombatState:
    """Run the competing diffusion of false and true information.

    On the shared timeline, step t updates true layer t - 1 and then false
    layer t, so the false front keeps a one-step head start.  A true-layer
    target whose false belief has reached the decisive threshold is blocked
    and receives nothing; a source in the same condition transmits nothing.
    Creator sets may overlap (both beliefs start at 1).

    The false process never reads the true one, so it runs alone first.  When
    true layer L updates, false layers 0..L are done and every deeper or
    unreached node still holds false belief 0; the true process therefore
    halts, while layer L updates, exactly the nodes with ``halt_from <= L``
    (:func:`_halt_from`).

    ``false_creators`` is node ids or their :func:`run_false_process` on this
    graph, ``true_creators`` node ids or their :class:`LayeredView` on this
    graph (such as a row of :func:`prefix_layerings`, wrapped);
    a given object is used as it is, not spread or searched again.  It is
    checked only for its size and, a false process, for its false
    transmission probability: one from a graph of another node count, or
    spread with another P_F, raises :class:`ContractError`.
    """
    false_process = false_creators
    if isinstance(false_process, FalseProcess):
        _check_false_process(g, false_process, params)
    else:
        false_process = run_false_process(g, false_creators, params)
    true_layers = _given_layering(g, "true layering", true_creators)
    if true_layers is None:
        true_layers = layer_from_sources(g, true_creators)
    p_if = false_process.p_if
    halt_from = _halt_from(false_process, params.decisive_threshold)
    p_it, _, blocked = _spread(g, true_layers, params.true_transmission_prob, halt_from)
    return CombatState(
        p_if=p_if,
        p_it=p_it,
        false_layers=false_process.layers,
        true_layers=true_layers,
        blocked=blocked,
        labels=determine_combat_label(p_if, p_it, params.comparative_threshold),
    )


#: The names of the values :func:`intervention_metrics` returns, in its order.
COMBAT_METRICS = ("sum_p_it", "infected", "susceptible", "protected")


def intervention_metrics(state: CombatState):
    """(sum of p_it, infected count, susceptible count, protected count)."""
    tally = label_counts(state.labels)
    return (
        math.fsum(state.p_it),
        tally[Label.INFECTED],
        tally[Label.SUSCEPTIBLE],
        tally[Label.PROTECTED],
    )


def _surely_infected(false_process: FalseProcess, params: CombatParams) -> int:
    """How many nodes are infected at every true-creator set that leaves them out.

    These are the nodes of false layer 0 or 1 whose false belief reaches both
    thresholds.  Such a node that is not a true creator is either never
    reached by the true process or halted at its true layer L >= 1, which is
    at least its false layer; so its ``p_it`` stays 0 and it is infected.
    """
    f = false_process.layers.layer_of
    level = max(params.decisive_threshold, params.comparative_threshold)
    return int(np.count_nonzero((f >= 0) & (f <= 1) & (false_process.p_if >= level)))


def _search_sums(graphs, strategy, false_processes, params, k_max, rng_seed, skip: bool):
    """One process's ``sums(k)``: ``(protected sum, infected sum, qualified)`` at k.

    A ranked strategy ranks each graph here, once, and takes the
    :func:`prefix_layerings` of its first ``k_max`` nodes, so a process
    forked after this searches no prefix again.  With ``skip``, graph i's
    run is skipped once the runs before it plus U(k) of it and every later
    graph sum to at most 0 (see :func:`minimum_true_seeds`).
    """
    surely_infected = [_surely_infected(fp, params) for fp in false_processes]
    layerings = None
    if strategy is not CentralityKind.RANDOM:
        layerings = []
        for i, g in enumerate(graphs):
            with failing_at(f"graph {i}: {strategy.value}"):
                order = top_k_by_score(compute_centrality(g, strategy).scores, k_max)
                layerings.append(prefix_layerings(g, order))

    def sums(k):
        bounds = [g.node_count - 2 * max(0, s - k) for g, s in zip(graphs, surely_infected)]
        # prot, inf: summed over the graphs run; rest: the bounds of the
        # graphs not run
        prot, inf, rest = 0, 0, sum(bounds)
        for i, (g, fp) in enumerate(zip(graphs, false_processes)):
            if skip and prot - inf + rest <= 0:
                break  # and so for every later graph: the sum stays put
            with failing_at(f"k={k}: graph {i}: {strategy.value}"):
                if layerings is None:
                    rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(i, k)))
                    ic_t = rng.choice(g.node_count, size=k, replace=False)
                else:
                    ic_t = LayeredView(layerings[i][k - 1].astype(np.int64))
                tally = label_counts(run_intervention(g, fp, ic_t, params).labels)
            prot += tally[Label.PROTECTED]
            inf += tally[Label.INFECTED]
            rest -= bounds[i]
        # with every graph run, prot - inf + rest is the sum of protected - infected
        return prot, inf, prot - inf + rest > 0

    return sums


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
    exceeds the ensemble-mean infected count.  The search examines k =
    1..k_max in order and returns the first qualifying k (completeness is not
    guaranteed monotone in k), or None when no k qualifies.
    ``false_processes`` gives each graph its :func:`run_false_process`, spread
    once from its fixed false creators; each is checked against its graph and
    ``params`` before any combat run.  The random strategy draws its true
    creators from seeds derived per (graph, k) from ``rng_seed``.  A
    ranked strategy's creators at k are its first k ranked nodes, so one
    :func:`prefix_layerings` per graph, taken before any run or fork,
    layers them for every k.

    The counts are integers, so the means compare as the sums do.  At k, a
    graph of n nodes with S surely infected nodes (:func:`_surely_infected`)
    has protected - infected <= U(k) = n - 2 max(0, S - k).  Graph i's run
    is skipped once the runs before it plus U(k) of it and every later graph
    sum to at most 0: k cannot qualify then.  A search with ``curve_out``
    skips nothing, and the list receives ``(k, mean_protected,
    mean_infected)`` for every k examined.

    Each k's verdict depends on its own runs only.  So where
    :func:`forking.fork_context` allows two processes, one worker forked by
    :func:`forking.ahead` examines the even k, in order and never held back,
    and this process the odd k; this process takes the verdicts in k order,
    so the answer, the curve and the runs this process makes do not depend
    on the timing.  An even k whose runs failed on the worker, or that a gone
    worker did not report, is run here.  ``rng_seed`` is checked before any
    run or fork: the random strategy requires a nonnegative integer, and any
    other strategy ignores a valid seed.

    A :class:`LayercastError` is re-raised with its graph and the strategy in
    front (``graph <i>: <strategy>: `` from a false-process check or a
    ranking, ``k=<k>: graph <i>: <strategy>: `` from a combat run); it is the
    error object the serial search raises.
    """
    graphs = list(graphs)
    false_processes = list(false_processes)
    if not graphs:
        raise InputError("graph ensemble must be non-empty")
    if len(false_processes) != len(graphs):
        raise InputError("one false process is required per graph")
    strategy = CentralityKind(strategy)
    k_max = as_integer("k_max", k_max)
    if not 1 <= k_max <= min(g.node_count for g in graphs):
        raise InputError(f"k_max must be in [1, min node count], got {k_max}")
    if rng_seed is not None:
        rng_seed = as_seed("rng_seed", rng_seed)
    if strategy is CentralityKind.RANDOM and not isinstance(rng_seed, int):
        # its creators at k come from SeedSequence(rng_seed, spawn_key=(graph, k))
        raise InputError(f"the random strategy requires an integer rng_seed, got {rng_seed!r}")

    # a skipped run would defer or hide the mismatch run_intervention reports
    for i, (g, fp) in enumerate(zip(graphs, false_processes)):
        with failing_at(f"graph {i}: {strategy.value}"):
            if not isinstance(fp, FalseProcess):
                raise ContractError(f"expected a FalseProcess, got {type(fp).__name__}")
            _check_false_process(g, fp, params)

    sums = _search_sums(
        graphs, strategy, false_processes, params, k_max, rng_seed, skip=curve_out is None
    )
    # one worker beside this process, which takes the odd k; more were never measured
    worker = int(min(forking.usable_cpus(), k_max) > 1)
    with forking.ahead(sums, range(2, k_max + 1, 2), worker) as even:
        for k in range(1, k_max + 1):
            verdict = next(even) if k % 2 == 0 else None
            if verdict is None:
                verdict = sums(k)
            prot, inf, qualified = verdict
            if curve_out is not None:
                curve_out.append((k, prot / len(graphs), inf / len(graphs)))
            if qualified:
                return k
    return None
