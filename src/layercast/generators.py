"""Random-network generators: Erdős–Rényi, Gaussian random partition, LFR benchmark.

All generators are pure functions of ``(params, rng_seed)``: the same inputs
always produce a byte-identical edge list.  Seeds may be plain integers or
``numpy.random.SeedSequence`` instances (the experiment harness derives the
latter from a master seed).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, InputError
from .graph import Graph

# Shared retry/rewiring budget factor: a generator may spend at most
# 100 * n low-level attempts before giving up with a GenerationError.
_BUDGET_FACTOR = 100
_MAX_STRUCTURE_ATTEMPTS = 200


def _rng(rng_seed) -> np.random.Generator:
    return np.random.default_rng(rng_seed)


@dataclass(frozen=True)
class ErParams:
    """G(n, p): every unordered pair is an edge independently with probability p."""

    n: int
    edge_exist_prob: float

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.edge_exist_prob <= 1.0:
            raise InputError(f"edge_exist_prob must be in [0, 1], got {self.edge_exist_prob}")


@dataclass(frozen=True)
class GaussianPartitionParams:
    """Communities with sizes drawn from Normal(mean_size, mean_size/shape).

    ``p_in`` applies to node pairs inside a community, ``p_out`` across
    communities.  The community-size variance is ``mean_size / shape``, so a
    large ``shape`` yields near-equal communities and ``shape = 1`` yields a
    variance equal to the mean size.
    """

    n: int
    mean_size: float
    shape: float
    p_in: float
    p_out: float

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if not self.mean_size >= 1:  # also rejects NaN
            raise InputError(f"mean_size must be >= 1, got {self.mean_size}")
        if not self.shape > 0:
            raise InputError(f"shape must be > 0, got {self.shape}")
        for name in ("p_in", "p_out"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InputError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class LfrParams:
    """LFR benchmark: power-law degrees and community sizes, mixing fraction mu."""

    n: int
    tau1: float
    tau2: float
    mu: float
    average_degree: float
    min_community: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if not (self.tau1 > 1 and self.tau2 > 1):  # also rejects NaN
            raise InputError("tau1 and tau2 must both be > 1")
        if not 0.0 < self.mu < 1.0:
            raise InputError(f"mu must be in (0, 1), got {self.mu}")
        if not self.average_degree > 0:
            raise InputError(f"average_degree must be > 0, got {self.average_degree}")
        if self.min_community < 1:
            raise InputError(f"min_community must be >= 1, got {self.min_community}")


def _sample_pair_edges(rng: np.random.Generator, n: int, pair_prob) -> np.ndarray:
    """Draw each pair (i, j), i < j, with its own inclusion probability.

    ``pair_prob(i)`` returns the probability vector for pairs
    (i, i+1), ..., (i, n-1).  One uniform draw per pair, row by row, so two
    parameterizations with identical probabilities consume identical draws.
    """
    rows = []
    for i in range(n - 1):
        probs = pair_prob(i)
        hits = np.nonzero(rng.random(n - 1 - i) < probs)[0]
        if hits.size:
            js = hits + i + 1
            rows.append(np.stack([np.full(js.size, i, dtype=np.int64), js], axis=1))
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(rows)


def gen_er(params: ErParams, rng_seed) -> Graph:
    """Erdős–Rényi G(n, p) graph, deterministic given the seed."""
    rng = _rng(rng_seed)
    p = params.edge_exist_prob
    edges = _sample_pair_edges(rng, params.n, lambda i: p)
    return Graph(params.n, edges)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def gen_gaussian_partition(params: GaussianPartitionParams, rng_seed):
    """Gaussian random partition graph.

    Community sizes are drawn sequentially from
    Normal(mean_size, mean_size/shape), rounded half-up, clamped to >= 1, and
    the last community is truncated so the sizes sum to n.  Returns
    ``(graph, communities)`` where ``communities[v]`` is the community id of
    node ``v``.
    """
    rng = _rng(rng_seed)
    n = params.n
    sd = math.sqrt(params.mean_size / params.shape)

    sizes = []
    remaining = n
    while remaining > 0:
        size = max(1, _round_half_up(rng.normal(params.mean_size, sd)))
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    communities = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)

    p_in, p_out = params.p_in, params.p_out

    def pair_prob(i):
        return np.where(communities[i + 1 :] == communities[i], p_in, p_out)

    edges = _sample_pair_edges(rng, n, pair_prob)
    communities.setflags(write=False)
    return Graph(n, edges), communities


# -- LFR benchmark ------------------------------------------------------------


def _power_law_cdf(x, xmin: float, xmax: float, tau: float):
    a = 1.0 - tau
    x = np.clip(x, xmin, xmax)
    return (xmin**a - x**a) / (xmin**a - xmax**a)


def _power_law_inverse(u, xmin: float, xmax: float, tau: float):
    a = 1.0 - tau
    return (xmin**a - u * (xmin**a - xmax**a)) ** (1.0 / a)


def _rounded_power_law_mean(xmin: float, xmax: float, tau: float) -> float:
    """Mean of round(X) where X follows the truncated power law."""
    ks = np.arange(1, int(round(xmax)) + 1, dtype=np.float64)
    lo = np.maximum(ks - 0.5, xmin)
    hi = np.minimum(ks + 0.5, xmax)
    probs = np.where(hi > lo, _power_law_cdf(hi, xmin, xmax, tau) - _power_law_cdf(lo, xmin, xmax, tau), 0.0)
    total = probs.sum()
    if total <= 0:
        return float(xmax)
    return float((ks * probs).sum() / total)


def _solve_degree_floor(tau: float, target_mean: float, xmax: float) -> float:
    """Lower cutoff of the degree power law whose rounded mean hits the target."""
    lo, hi = 1.0, float(xmax)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _rounded_power_law_mean(mid, xmax, tau) < target_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _match_stubs(rng, stubs, occupied, communities=None, budget=0):
    """Configuration-model matching with swap repair.

    Pairs the stubs into simple edges; invalid pairs (self-loop, duplicate, or
    same-community when ``communities`` is given) are repaired by partner
    swaps with randomly chosen valid pairs.  Pairs still invalid once the
    budget runs out are dropped.  ``occupied`` (a set of canonical (u, v)
    keys) is extended in place with the edges produced.
    """
    stubs = rng.permutation(stubs)
    if len(stubs) % 2:
        stubs = stubs[:-1]
    pairs = stubs.reshape(-1, 2).tolist()
    if not pairs:
        return []

    def ok(u, v):
        if u == v:
            return False
        if communities is not None and communities[u] == communities[v]:
            return False
        return (min(u, v), max(u, v)) not in occupied

    good = [False] * len(pairs)
    bad = deque()
    for i, (u, v) in enumerate(pairs):
        if ok(u, v):
            occupied.add((min(u, v), max(u, v)))
            good[i] = True
        else:
            bad.append(i)

    spent = 0
    while bad and spent < budget:
        i = bad.popleft()
        u, v = pairs[i]
        for _ in range(60):
            spent += 1
            if spent >= budget:
                break
            j = int(rng.integers(len(pairs)))
            if j == i or not good[j]:
                continue
            x, y = pairs[j]
            if rng.integers(2):
                (a, b), (c, d) = (u, y), (x, v)
            else:
                (a, b), (c, d) = (u, x), (v, y)
            key_j = (min(x, y), max(x, y))
            occupied.discard(key_j)
            if ok(a, b) and ok(c, d) and {min(a, b), max(a, b)} != {min(c, d), max(c, d)}:
                occupied.add((min(a, b), max(a, b)))
                occupied.add((min(c, d), max(c, d)))
                pairs[i] = [a, b]
                pairs[j] = [c, d]
                good[i] = True
                break
            occupied.add(key_j)
    return [pairs[i] for i in range(len(pairs)) if good[i]]


def _sample_community_sizes(rng, n, tau2, min_community, max_community):
    """Power-law community sizes >= min_community summing exactly to n, or None."""
    sizes = []
    total = 0
    while total < n:
        x = _power_law_inverse(rng.random(), float(min_community), float(max_community), tau2)
        size = int(round(x))
        sizes.append(size)
        total += size
    sizes[-1] -= total - n
    if sizes[-1] < min_community:
        if len(sizes) < 2:
            return None
        sizes[-2] += sizes[-1]
        sizes.pop()
    return sizes


def gen_lfr(params: LfrParams, rng_seed):
    """LFR benchmark graph with planted communities.

    Degrees follow a truncated power law with exponent ``tau1`` whose lower
    cutoff is solved so the rounded mean hits ``average_degree`` (upper cutoff
    ``sqrt(n) * average_degree``).  Community sizes follow a power law with
    exponent ``tau2`` on ``[min_community, max(degrees)]``.  Each node splits
    its stubs into ``(1 - mu) * degree`` internal (stochastically rounded so
    the expected mixing fraction equals ``mu``) and the rest external; both
    stub pools are wired by configuration-model matching with swap repair.

    Returns ``(graph, communities)``.  Raises :class:`GenerationError` once
    the retry budget is exhausted, naming the constraint that failed.
    """
    rng = _rng(rng_seed)
    n = params.n
    if params.min_community > n:
        raise GenerationError(
            f"infeasible: min_community ({params.min_community}) exceeds node count ({n})"
        )
    budget = _BUDGET_FACTOR * n
    max_degree = min(n - 1, max(1, round(math.sqrt(n) * params.average_degree)))
    if params.average_degree > max_degree:
        raise GenerationError(
            f"infeasible: average_degree ({params.average_degree}) exceeds the "
            f"degree cap ({max_degree})"
        )
    degree_floor = _solve_degree_floor(params.tau1, params.average_degree, max_degree)

    last_failure = "community assignment never attempted"
    for _ in range(_MAX_STRUCTURE_ATTEMPTS):
        u = rng.random(n)
        degrees = np.clip(
            np.rint(_power_law_inverse(u, degree_floor, float(max_degree), params.tau1)).astype(np.int64),
            1,
            max_degree,
        )
        max_community = min(n, max(params.min_community, int(degrees.max())))
        sizes = _sample_community_sizes(rng, n, params.tau2, params.min_community, max_community)
        if sizes is None:
            last_failure = f"community sizes >= {params.min_community} cannot sum to {n}"
            continue

        frac = (1.0 - params.mu) * degrees
        internal = np.floor(frac).astype(np.int64)
        internal += (rng.random(n) < frac - internal).astype(np.int64)
        internal = np.minimum(internal, degrees)

        # Place high-internal-degree nodes first; a node fits a community only
        # if the community is strictly larger than its internal degree.
        capacity = list(sizes)
        assignment = np.full(n, -1, dtype=np.int64)
        placed = True
        for node in np.argsort(-internal, kind="stable"):
            eligible = [
                c for c in range(len(sizes))
                if capacity[c] > 0 and sizes[c] > internal[node]
            ]
            if not eligible:
                placed = False
                last_failure = (
                    f"no community large enough for a node with internal degree "
                    f"{int(internal[node])} (sizes max {max(sizes)})"
                )
                break
            c = eligible[int(rng.integers(len(eligible)))]
            assignment[node] = c
            capacity[c] -= 1
        if not placed:
            continue

        external = degrees - internal
        occupied: set = set()
        edges: list = []
        for c in range(len(sizes)):
            members = np.nonzero(assignment == c)[0]
            if members.size == 0:
                continue
            if internal[members].sum() % 2:
                # parity fix: demote one internal stub to external
                cand = members[internal[members] > 0]
                if cand.size:
                    pick = int(cand[int(rng.integers(cand.size))])
                    internal[pick] -= 1
                    external[pick] += 1
            stubs = np.repeat(members, internal[members])
            edges.extend(_match_stubs(rng, stubs, occupied, budget=budget))
        if len(sizes) > 1:
            stubs = np.repeat(np.arange(n, dtype=np.int64), external)
            edges.extend(
                _match_stubs(rng, stubs, occupied, communities=assignment, budget=budget)
            )
        assignment.setflags(write=False)
        return Graph(n, edges), assignment

    raise GenerationError(f"LFR generation failed: {last_failure}")
