"""Single-information layered diffusion.

Belief spreads outward through BFS layers radiating from the information
creators.  A node's belief probability is accumulated from all of its
previous-layer neighbors via a complement product, with each edge's
contribution boosted by the number of closed triplets (effective edges) the
transmission participates in.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_unit_interval
from .graph import Graph, LayeredView, layer_edges, layer_from_sources


class Label(enum.IntEnum):
    SUSCEPTIBLE = 0
    INFECTED = 1
    PROTECTED = 2


def label_counts(labels) -> list:
    """How many nodes carry each :class:`Label`, as Python ints indexed by it."""
    return np.bincount(labels, minlength=len(Label)).tolist()


@dataclass(frozen=True)
class DiffusionParams:
    """Transmission probability P and believer threshold T."""

    transmission_prob: float
    threshold: float

    def __post_init__(self):
        check_unit_interval(self, "transmission_prob", "threshold")


@dataclass
class DiffusionState:
    """Final state of one diffusion run.

    ``p_i[v]`` is the probability node v believes the information;
    ``p_i_bar`` its complement (the accumulation domain).  Unreachable nodes
    keep ``p_i = 0``.
    """

    p_i: np.ndarray
    p_i_bar: np.ndarray
    layers: LayeredView
    iterations_run: int
    labels: np.ndarray


@functools.lru_cache(maxsize=1 << 12)
def transmission_factor(transmission_prob: float, effective_edges: int) -> float:
    """Per-edge belief multiplier for a transmission with N effective edges.

    F(N, P) = P + sum_{j=1..N} P^j (1-P)^(N+1-j) C(N, j) (1 - (1-P)^j).
    Bounded by 1 for every N, and equals P when N = 0.  Once C(N, j) no
    longer fits a float (N >= 1030) it returns the binomial theorem's closed
    form of the same sum, 1 - (1-P)(1-P^2)^N.  A pure function, memoized:
    every run on a graph asks for the same few (P, N).
    """
    P = transmission_prob
    q = 1.0 - P
    total = P
    try:
        for j in range(1, effective_edges + 1):
            total += P**j * q ** (effective_edges + 1 - j) * math.comb(effective_edges, j) * (1.0 - q**j)
    except OverflowError:
        return 1.0 - q * (1.0 - P * P) ** effective_edges
    return total


def _spread(g: Graph, lv: LayeredView, P: float, halt_from=None):
    """Accumulate belief layer by layer from ``lv``'s sources.

    Every node of layer L is updated once, from its layer L - 1 neighbors,
    through the complement product.  ``halt_from``, when given, holds each
    node's first layer from which it neither receives nor transmits: a
    layer-L node with ``halt_from <= L`` keeps belief 0 and is flagged in
    ``blocked``.  Returns ``(p, p_bar, blocked)``.

    Each layer is one vectorised step.  A node's terms ``1 - p[v] * F`` are
    multiplied left to right in ascending source order, the order of a
    node-by-node loop, so the result is bitwise that loop's.  A source of
    belief 0 contributes exactly 1.0, and so does an edge halted at either
    end, whose F is set to 0.
    """
    layer_of = lv.layer_of
    p = (layer_of == 0).astype(np.float64)
    p_bar = 1.0 - p
    blocked = np.zeros(g.node_count, dtype=bool)
    if lv.depth == 0:
        return p, p_bar, blocked

    targets, sources, counts = layer_edges(g, lv)
    table = np.zeros(counts.max() + 1)
    for k in np.flatnonzero(np.bincount(counts)):
        table[k] = transmission_factor(P, int(k))
    factor = table[counts]
    if halt_from is not None:
        at = layer_of[targets]
        halted = halt_from[targets] <= at
        blocked[targets[halted]] = True
        factor[halted | (halt_from[sources] <= at)] = 0.0
    # one segment per updated node: every layer-L node is a target, in
    # (layer, node) order, beside its layer L - 1 neighbors
    seg = np.concatenate(([0], np.flatnonzero(targets[1:] != targets[:-1]) + 1, [len(targets)]))
    nodes = targets[seg[:-1]]
    ends = np.cumsum(np.bincount(layer_of[nodes])).tolist()  # ends[L]: the nodes of layers <= L
    for lo, hi in zip(ends[:-1], ends[1:]):
        starts = seg[lo : hi + 1]
        e0, e1 = starts[0], starts[-1]
        terms = 1.0 - p[sources[e0:e1]] * factor[e0:e1]
        acc = np.multiply.reduceat(terms, starts[:-1] - e0)
        u = nodes[lo:hi]
        p_bar[u] = acc
        p[u] = 1.0 - acc
    return p, p_bar, blocked


def _check_covers(g: Graph, what: str, lv: LayeredView) -> None:
    if len(lv.layer_of) != g.node_count:
        raise ContractError(f"the {what} covers {len(lv.layer_of)} nodes, the graph {g.node_count}")


def run_single_diffusion(g: Graph, creators, params: DiffusionParams) -> DiffusionState:
    """Propagate one piece of information from the creator set.

    Layers are built by multi-source BFS from the creators; every node is
    updated exactly once, when its layer is processed, accumulating over all
    previous-layer neighbors through the complement product.  The number of
    iterations equals the layering depth (further sweeps would be no-ops).

    ``creators`` is node ids or their :class:`LayeredView` on this graph,
    which is used as it is, not searched again; one from a graph of another
    node count raises :class:`ContractError`.
    """
    lv = creators
    if isinstance(lv, LayeredView):
        _check_covers(g, "layering", lv)
    else:
        lv = layer_from_sources(g, creators)
    p_i, p_bar, _ = _spread(g, lv, params.transmission_prob)
    state = DiffusionState(
        p_i=p_i, p_i_bar=p_bar, layers=lv, iterations_run=lv.depth, labels=None
    )
    state.labels = label_nodes(state, params.threshold)
    return state


def label_nodes(state: DiffusionState, threshold: float) -> np.ndarray:
    """Infected where p_i >= threshold (boundary inclusive), else susceptible."""
    return np.where(state.p_i >= threshold, Label.INFECTED, Label.SUSCEPTIBLE).astype(np.int8)


def diffusion_metrics(state: DiffusionState):
    """(iterations, sum of p_i) — diffusion speed and accumulated belief.

    The sum is correctly rounded (order-invariant), so symmetric runs that
    differ only in node labeling report identical totals.
    """
    return state.iterations_run, math.fsum(state.p_i)
