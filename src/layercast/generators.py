"""Random-network generators: Erdős–Rényi, Gaussian random partition, LFR benchmark.

All generators are pure functions of ``(params, rng_seed)``: the same inputs
always produce a byte-identical edge list.  Seeds may be nonnegative
integers, ``numpy.random.SeedSequence`` instances (the experiment harness
derives these from a master seed) or ``numpy.random.Generator`` instances;
anything else, ``None`` included, is an ``InputError`` (``errors.as_seed``).
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError, GenerationError, InputError, as_real, as_seed, check_int_fields,
    check_unit_interval,
)
from .graph import MAX_NODES, Graph

# Shared retry/rewiring budget factor: a generator may spend at most
# 100 * n low-level attempts before giving up with a GenerationError.
_BUDGET_FACTOR = 100
_MAX_STRUCTURE_ATTEMPTS = 200


def _check_counts(params) -> None:
    """Check the int fields of a generator's params, and that 1 <= n <= MAX_NODES."""
    check_int_fields(params)
    if not 1 <= params.n <= MAX_NODES:
        raise InputError(f"n must be in [1, {MAX_NODES}], got {params.n}")


@dataclass(frozen=True)
class ErParams:
    """G(n, p): every unordered pair is an edge independently with probability p."""

    n: int
    edge_exist_prob: float

    def __post_init__(self):
        _check_counts(self)
        check_unit_interval(self, "edge_exist_prob")


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
        _check_counts(self)
        if not 1 <= as_real("mean_size", self.mean_size) < math.inf:  # also rejects NaN
            raise InputError(f"mean_size must be finite and >= 1, got {self.mean_size}")
        # shape = inf: equal sizes; a tiny shape must leave the variance finite
        if not (as_real("shape", self.shape) > 0 and self.mean_size / self.shape < math.inf):
            raise InputError(f"shape must be > 0 and leave mean_size / shape finite, got {self.shape}")
        check_unit_interval(self, "p_in", "p_out")


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
        _check_counts(self)
        for name in ("tau1", "tau2"):
            if not 1 < as_real(name, getattr(self, name)) < math.inf:  # also rejects NaN
                raise InputError(f"{name} must be finite and > 1, got {getattr(self, name)}")
        if not 0.0 < as_real("mu", self.mu) < 1.0:
            raise InputError(f"mu must be in (0, 1), got {self.mu}")
        if not 0 < as_real("average_degree", self.average_degree) < math.inf:
            raise InputError(f"average_degree must be finite and > 0, got {self.average_degree}")
        if self.min_community < 1:
            raise InputError(f"min_community must be >= 1, got {self.min_community}")


#: Most pairs whose uniforms :func:`_sample_pair_edges` draws in one call.
_PAIR_CHUNK = 1 << 16


def _sample_pair_edges(rng: np.random.Generator, n: int, pair_prob, pmax: float) -> np.ndarray:
    """Draw each pair (i, j), i < j, with its own inclusion probability.

    ``pair_prob(i, j)`` returns the probabilities of the pairs given by the
    equal-length index arrays ``i`` and ``j`` (a scalar means the same for
    all), none above ``pmax``.  One uniform draw per pair, in row-major order
    (i, then j), so two parameterizations with identical probabilities
    consume identical draws.  The draws come in chunks of whole rows, at most
    ``_PAIR_CHUNK`` pairs unless one row is longer; a float draw takes one
    generator output, so the stream is the same as one call per row.  Only a
    draw below ``pmax`` can be an edge, so only those draws are mapped to
    their pairs and passed to ``pair_prob``; a probability above ``pmax``
    among them raises :class:`ContractError`, as the draws skipped would
    have been wrong.
    """
    lengths = np.arange(n - 1, 0, -1)  # pairs of rows 0 .. n-2
    ends = np.cumsum(lengths)
    starts = ends - lengths
    chunks = []
    i0 = 0
    while i0 < n - 1:
        i1 = max(int(np.searchsorted(ends, starts[i0] + _PAIR_CHUNK, "right")), i0 + 1)
        u = rng.random(int(ends[i1 - 1] - starts[i0]))
        at = np.flatnonzero(u < pmax)  # the candidates, by position in the chunk
        u = u[at]
        at += starts[i0]
        i = np.searchsorted(ends[i0:i1], at, "right") + i0
        j = at - starts[i] + i + 1
        prob = pair_prob(i, j)
        if np.any(prob > pmax):
            raise ContractError(f"a pair probability exceeds the bound {pmax}")
        hits = np.flatnonzero(u < prob)
        chunks.append(np.stack([i[hits], j[hits]], axis=1))
        i0 = i1
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks)


def gen_er(params: ErParams, rng_seed) -> Graph:
    """Erdős–Rényi G(n, p) graph, deterministic given the seed."""
    rng = np.random.default_rng(as_seed("rng_seed", rng_seed))
    p = params.edge_exist_prob
    edges = _sample_pair_edges(rng, params.n, lambda i, j: p, p)
    return Graph(params.n, edges)


def gen_gaussian_partition(params: GaussianPartitionParams, rng_seed):
    """Gaussian random partition graph.

    Community sizes are drawn sequentially from
    Normal(mean_size, mean_size/shape), rounded half-up, clamped to >= 1, and
    the last community is truncated so the sizes sum to n.  Returns
    ``(graph, communities)`` where ``communities[v]`` is the community id of
    node ``v``.
    """
    rng = np.random.default_rng(as_seed("rng_seed", rng_seed))
    n = params.n
    sd = math.sqrt(params.mean_size / params.shape)

    sizes = []
    remaining = n
    while remaining > 0:
        size = max(1, math.floor(rng.normal(params.mean_size, sd) + 0.5))  # rounded half-up
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    communities = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)

    p_in, p_out = params.p_in, params.p_out

    def pair_prob(i, j):
        return np.where(communities[i] == communities[j], p_in, p_out)

    edges = _sample_pair_edges(rng, n, pair_prob, max(p_in, p_out))
    communities.setflags(write=False)
    return Graph(n, edges), communities


# -- LFR benchmark ------------------------------------------------------------


def _power_law_span(xmin: float, xmax: float, tau: float) -> float:
    """``xmin**a - xmax**a`` with ``a = 1 - tau``: the truncated power law's
    normaliser, for ``xmin < xmax``.  Raises :class:`GenerationError`
    naming the exponent when it underflows to 0 or is not finite."""
    a = 1.0 - tau
    span = xmin**a - xmax**a
    if span == 0 or not math.isfinite(span):
        raise GenerationError(
            f"power-law exponent {tau} is too steep to sample on [{xmin}, {xmax}] "
            f"in float64: {xmin}**{a} - {xmax}**{a} is {span}"
        )
    return span


def _power_law_cdf(x, xmin: float, xmax: float, tau: float):
    x = np.clip(x, xmin, xmax)
    if xmin == xmax:  # a point mass
        return np.ones_like(x)
    a = 1.0 - tau
    return (xmin**a - x**a) / _power_law_span(xmin, xmax, tau)


def _power_law_inverse(u, xmin: float, xmax: float, tau: float):
    if xmin == xmax:  # a point mass
        return np.zeros_like(u) + xmin
    a = 1.0 - tau
    return (xmin**a - u * _power_law_span(xmin, xmax, tau)) ** (1.0 / a)


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


@functools.lru_cache(maxsize=64)
def _solve_degree_floor(tau: float, target_mean: float, xmax: float) -> float:
    """Lower cutoff of the degree power law whose rounded mean hits the target.

    A pure function of its arguments, memoized: every graph of an ensemble
    solves the same bisection.
    """
    lo, hi = 1.0, float(xmax)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _rounded_power_law_mean(mid, xmax, tau) < target_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: Swap attempts one invalid pair gets before :func:`_match_stubs` drops it.
_SWAP_ATTEMPTS = 60

_UINT32_SPAN = 1 << 32
#: Raw outputs :class:`_BoundedDraws` reads from the generator at a time.
_CHUNK = 256


class _BoundedDraws:
    """Stands in for a run of scalar ``rng.integers(bound)`` calls, ``1 <= bound <= 2**32``.

    ``draw(bound)`` returns what the next such call would return.  The raw
    32-bit outputs come from ``rng`` in chunks, and each is reduced by
    Lemire's multiply-and-reject method (Lemire 2019) as numpy 2.4.6 reduces
    them for a range of at most 2**32: the result is the high word of
    ``u * bound``, and an output whose low word falls below
    ``(2**32 - bound) % bound`` is rejected for the next one.  ``bound == 1``
    returns 0 and takes no output, as numpy does.

    Stream contract: the chunks read ``rng`` ahead of the draws, so nothing
    else may draw from ``rng`` until :meth:`close`.  Closing restores the
    state before the first chunk and draws exactly the outputs used, which
    leaves ``rng``, PCG64's buffered half-word included, where the scalar
    calls would have left it.
    """

    def __init__(self, rng):
        self._rng = rng
        self._state = None
        self._chunk = []
        self._pos = 0
        self._before = 0  # outputs used from the earlier chunks

    def draw(self, bound: int) -> int:
        if bound == 1:
            return 0
        while True:
            if self._pos == len(self._chunk):
                self._refill()
            m = self._chunk[self._pos] * bound
            self._pos += 1
            low = m & 0xFFFFFFFF
            # numpy's order: the threshold is computed only when low < bound
            if low >= bound or low >= (_UINT32_SPAN - bound) % bound:
                return m >> 32

    def _refill(self):
        if self._state is None:
            self._state = self._rng.bit_generator.state
        self._before += self._pos
        self._chunk = self._rng.integers(0, _UINT32_SPAN, size=_CHUNK, dtype=np.uint32).tolist()
        self._pos = 0

    def close(self):
        """Leave ``rng`` exactly where the scalar calls would have left it."""
        if self._state is not None:
            self._rng.bit_generator.state = self._state
            self._rng.integers(0, _UINT32_SPAN, size=self._before + self._pos, dtype=np.uint32)
            self._state = None
        self._chunk = []
        self._pos = self._before = 0


def _match_stubs(rng, stubs, occupied, n, communities=None, budget=0):
    """Configuration-model matching with swap repair.

    Pairs the stubs into simple edges between nodes ``0 .. n-1``.  An invalid
    pair (self-loop, duplicate, or same-community when ``communities`` is
    given) is repaired by partner swaps with randomly chosen valid pairs.  It
    is dropped after ``_SWAP_ATTEMPTS`` failed attempts, and every pair still
    invalid once ``budget`` attempts are spent in this call is dropped too.
    The edges produced go into ``occupied``, a set of keys ``lo * n + hi``
    of the edges ``(lo, hi)``, ``lo < hi``, so it holds exactly the edges
    matched so far.
    """
    stubs = rng.permutation(stubs)
    if len(stubs) % 2:
        stubs = stubs[:-1]
    pairs = stubs.reshape(-1, 2).tolist()
    if not pairs:
        return
    comm = None if communities is None else communities.tolist()

    good = [False] * len(pairs)
    bad = deque()
    for i, (u, v) in enumerate(pairs):
        if u != v and (comm is None or comm[u] != comm[v]):
            key = u * n + v if u < v else v * n + u
            if key not in occupied:
                occupied.add(key)
                good[i] = True
                continue
        bad.append(i)

    count = len(pairs)
    spent = 0
    draws = _BoundedDraws(rng)
    while bad and spent < budget:
        i = bad.popleft()
        u, v = pairs[i]
        for _ in range(_SWAP_ATTEMPTS):
            spent += 1
            if spent >= budget:
                break
            j = draws.draw(count)
            if j == i or not good[j]:
                continue
            x, y = pairs[j]
            if draws.draw(2):
                a, b, c, d = u, y, x, v
            else:
                a, b, c, d = u, x, v, y
            if a == b or c == d:
                continue
            if comm is not None and (comm[a] == comm[b] or comm[c] == comm[d]):
                continue
            key_ab = a * n + b if a < b else b * n + a
            key_cd = c * n + d if c < d else d * n + c
            key_j = x * n + y if x < y else y * n + x
            # pair j's own edge is free for the swap: the two new edges may reuse it
            if key_ab == key_cd or (key_ab in occupied and key_ab != key_j) or (
                key_cd in occupied and key_cd != key_j
            ):
                continue
            occupied.discard(key_j)
            occupied.add(key_ab)
            occupied.add(key_cd)
            pairs[i] = [a, b]
            pairs[j] = [c, d]
            good[i] = True
            break
    draws.close()


def _sample_community_sizes(rng, n, tau2, min_community, max_community):
    """Power-law community sizes >= min_community summing exactly to n.

    Needs ``min_community <= max_community <= n``.  Each size is drawn in
    [min_community, max_community]; the last is cut to make the sum n, and
    when that leaves it below min_community it joins the one before.  A
    lone size is cut to n >= min_community, so there always is one before.
    So every size but the last lies in [min_community, max_community], and
    the last may reach ``max_community + min_community - 1``.
    """
    sizes = []
    total = 0
    while total < n:
        x = _power_law_inverse(rng.random(), float(min_community), float(max_community), tau2)
        size = int(round(x))
        sizes.append(size)
        total += size
    sizes[-1] -= total - n
    if sizes[-1] < min_community:
        sizes[-2] += sizes[-1]
        sizes.pop()
    return sizes


def gen_lfr(params: LfrParams, rng_seed):
    """LFR benchmark graph with planted communities.

    Degrees follow a truncated power law with exponent ``tau1`` whose lower
    cutoff is solved so the rounded mean hits ``average_degree`` (upper cutoff
    ``sqrt(n) * average_degree``).  Community sizes follow a power law with
    exponent ``tau2`` on ``[min_community, max(degrees)]``, but for the last
    (see :func:`_sample_community_sizes`).  Each node splits
    its stubs into ``(1 - mu) * degree`` internal (stochastically rounded so
    the expected mixing fraction equals ``mu``) and the rest external; both
    stub pools are wired by configuration-model matching with swap repair.

    Returns ``(graph, communities)``.  Raises :class:`GenerationError` once
    the retry budget is exhausted, naming the constraint that failed.
    """
    rng = np.random.default_rng(as_seed("rng_seed", rng_seed))
    n = params.n
    if params.min_community > n:
        raise GenerationError(
            f"infeasible: min_community ({params.min_community}) exceeds node count ({n})"
        )
    budget = _BUDGET_FACTOR * n
    # capped at n before rounding: a huge average_degree makes the product inf
    max_degree = min(n - 1, max(1, round(min(math.sqrt(n) * params.average_degree, n))))
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

        frac = (1.0 - params.mu) * degrees
        internal = np.floor(frac).astype(np.int64)
        internal += (rng.random(n) < frac - internal).astype(np.int64)
        internal = np.minimum(internal, degrees)

        # Place high-internal-degree nodes first; a node fits a community only
        # if the community is strictly larger than its internal degree.
        capacity = list(sizes)
        wanted = internal.tolist()
        assignment = [-1] * n
        placed = True
        draws = _BoundedDraws(rng)
        degree = None
        for node in np.argsort(-internal, kind="stable").tolist():
            # the communities open to this node, in index order; between two
            # nodes of one internal degree only a community that fills up leaves
            if wanted[node] != degree:
                degree = wanted[node]
                eligible = [
                    c for c in range(len(sizes)) if capacity[c] > 0 and sizes[c] > degree
                ]
            if not eligible:
                placed = False
                last_failure = (
                    f"no community large enough for a node with internal degree "
                    f"{degree} (sizes max {max(sizes)})"
                )
                break
            c = eligible[draws.draw(len(eligible))]
            assignment[node] = c
            capacity[c] -= 1
            if not capacity[c]:
                eligible.remove(c)
        draws.close()
        if not placed:
            continue
        assignment = np.array(assignment, dtype=np.int64)

        external = degrees - internal
        occupied: set = set()
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
            _match_stubs(rng, stubs, occupied, n, budget=budget)
        if len(sizes) > 1:
            stubs = np.repeat(np.arange(n, dtype=np.int64), external)
            _match_stubs(rng, stubs, occupied, n, communities=assignment, budget=budget)
        keys = np.fromiter(occupied, dtype=np.int64, count=len(occupied))
        assignment.setflags(write=False)
        return Graph(n, np.stack([keys // n, keys % n], axis=1)), assignment

    raise GenerationError(f"LFR generation failed: {last_failure}")
