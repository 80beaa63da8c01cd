"""Single-information layered diffusion.

Belief spreads outward through BFS layers radiating from the information
creators.  A node's belief probability is accumulated from all of its
previous-layer neighbors via a complement product, with each edge's
contribution boosted by the number of closed triplets (effective edges) the
transmission participates in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import Graph, LayeredView, _closed_triplets, layer_from_sources


class Label(enum.IntEnum):
    SUSCEPTIBLE = 0
    INFECTED = 1
    PROTECTED = 2


@dataclass(frozen=True)
class DiffusionParams:
    """Transmission probability P and believer threshold T."""

    transmission_prob: float
    threshold: float

    def __post_init__(self):
        for name in ("transmission_prob", "threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {v}")


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


def transmission_factor(transmission_prob: float, effective_edges: int) -> float:
    """Per-edge belief multiplier for a transmission with N effective edges.

    F(N, P) = P + sum_{j=1..N} P^j (1-P)^(N+1-j) C(N, j) (1 - (1-P)^j).
    Bounded by 1 for every N, and equals P when N = 0.
    """
    P = transmission_prob
    q = 1.0 - P
    total = P
    for j in range(1, effective_edges + 1):
        total += P**j * q ** (effective_edges + 1 - j) * math.comb(effective_edges, j) * (1.0 - q**j)
    return total


def update_from_source(source_belief: float, transmission_prob: float, effective_edges: int) -> float:
    """Belief contribution one source node passes to a next-layer neighbor."""
    return source_belief * transmission_factor(transmission_prob, effective_edges)


def _spread(g: Graph, lv: LayeredView, P: float, stop=None):
    """Accumulate belief layer by layer from ``lv``'s sources.

    Every node of layer L is updated once, from its layer L - 1 neighbors,
    through the complement product.  ``stop(L)``, when given, returns a bool
    mask of nodes that neither receive nor transmit while layer L updates;
    a halted layer-L node keeps belief 0 and is flagged in ``blocked``.
    Returns ``(p, p_bar, blocked)``.
    """
    n = g.node_count
    p_bar = np.ones(n)
    p_bar[lv.sources] = 0.0
    p = np.zeros(n)
    p[lv.sources] = 1.0
    blocked = np.zeros(n, dtype=bool)

    factors = {0: P}
    layer_of = lv.layer_of
    for L in range(1, lv.depth + 1):
        prev = L - 1
        halted = None if stop is None else stop(L)
        for u in lv.layers[L]:
            if halted is not None and halted[u]:
                blocked[u] = True
                continue
            acc = p_bar[u]
            for v in g.neighbors(u):
                if layer_of[v] != prev or p[v] == 0.0:
                    continue
                if halted is not None and halted[v]:
                    continue
                n_eff = _closed_triplets(g, layer_of, u, v, L)
                f = factors.get(n_eff)
                if f is None:
                    f = transmission_factor(P, n_eff)
                    factors[n_eff] = f
                acc *= 1.0 - p[v] * f
            p_bar[u] = acc
            p[u] = 1.0 - acc
    return p, p_bar, blocked


def run_single_diffusion(g: Graph, creators, params: DiffusionParams) -> DiffusionState:
    """Propagate one piece of information from the creator set.

    Layers are built by multi-source BFS from the creators; every node is
    updated exactly once, when its layer is processed, accumulating over all
    previous-layer neighbors through the complement product.  The number of
    iterations equals the layering depth (further sweeps would be no-ops).
    """
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
