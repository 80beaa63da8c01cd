"""Centrality measures and seed-selection strategies for information creators.

Five measures (degree, eigenvector, closeness, betweenness, PageRank) plus a
uniform-random baseline.  Ranking ties always break by ascending node index so
seed selection is reproducible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError, NumericError, as_integer, as_seed
from .graph import Graph, SearchBuffers, _layer_dtype, hop_distances, product_into


class CentralityKind(str, enum.Enum):
    DEGREE = "degree"
    EIGENVECTOR = "eigenvector"
    CLOSENESS = "closeness"
    BETWEENNESS = "betweenness"
    PAGERANK = "pagerank"
    RANDOM = "random"

    @classmethod
    def _missing_(cls, value):
        # an unknown name is the caller's error, not a bare ValueError
        raise InputError(
            f"strategy must be one of {[kind.value for kind in cls]}, got {value!r}"
        )


@dataclass(frozen=True)
class CentralityScores:
    kind: CentralityKind
    scores: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.scores)):
            raise InputError(f"{self.kind.value} produced non-finite scores")
        self.scores.setflags(write=False)


def degree_centrality(g: Graph) -> CentralityScores:
    """score(v) = deg(v)."""
    return CentralityScores(CentralityKind.DEGREE, g.degrees.astype(np.float64))


#: The power iterations' settings: each one's convergence tolerance (the
#: largest change of one entry in one step) and iteration cap, and PageRank's
#: damping factor.
EIGENVECTOR_TOL = 1e-8
EIGENVECTOR_MAX_ITER = 1000
PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-10
PAGERANK_MAX_ITER = 10_000


def eigenvector_centrality(g: Graph) -> CentralityScores:
    """Dominant eigenvector of the adjacency matrix, Euclidean-normalized.

    Power iteration with an identity shift (A + I), which leaves the
    eigenvector unchanged but prevents the period-2 oscillation a bipartite
    graph induces on the bare adjacency operator.  On a disconnected graph the
    iteration concentrates on the component with the largest eigenvalue.
    Tolerance ``EIGENVECTOR_TOL``, iteration cap ``EIGENVECTOR_MAX_ITER``.
    """
    if g.edge_count == 0:
        raise InputError("eigenvector centrality needs at least one edge")
    A = g.to_csr()
    n = g.node_count
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(EIGENVECTOR_MAX_ITER):
        y = A @ x + x
        y /= np.linalg.norm(y)
        if np.max(np.abs(y - x)) < EIGENVECTOR_TOL:
            return CentralityScores(CentralityKind.EIGENVECTOR, y)
        x = y
    raise NumericError(
        f"eigenvector centrality did not converge in {EIGENVECTOR_MAX_ITER} iterations",
        last_iterate=x,
    )


#: Sources searched together by the closeness and betweenness sweep: its
#: memory is O(n * _BLOCK) instead of O(n^2).
_BLOCK = 128


def _block_scores(A, dist, sigma, buffers, delta):
    """Distance sums, reach counts and Brandes dependencies of one searched block.

    ``dist`` and ``sigma`` are the block's :func:`hop_distances`, made in
    ``buffers``; column j searched from the block's j-th source.  The
    backward pass runs in the search's spare buffers (its masks hold the
    shells, its products the coefficients and their pull) and overwrites
    ``sigma``.  Returns ``(dist_sum, reach_count, delta)``, the last each
    source's dependencies, written into the first entries of the array
    ``delta``.
    """
    _, _, (shell, inner), (coef, pull) = buffers.shaped(dist.shape)
    np.less(dist, 0, out=shell)
    unreached = shell.sum(axis=0)
    reach_count = dist.shape[0] - unreached
    dist_sum = dist.sum(axis=0) + unreached  # each unreached node counted -1
    # safe to divide by: an unreached node's pull is 0 whatever its count
    np.copyto(sigma, 1.0, where=shell)
    delta = delta.reshape(-1)[: dist.size].reshape(dist.shape)
    delta.fill(0.0)
    top = dist.max()
    np.equal(dist, top, out=shell)
    # a shell mask scales by exactly 1.0 or 0.0, so each shell entry gets the
    # same float operations as in a search from its source alone
    for d in range(top, 1, -1):
        np.add(1.0, delta, out=coef)
        np.divide(coef, sigma, out=coef)
        np.multiply(coef, shell, out=coef)
        product_into(A, coef, pull)
        np.multiply(sigma, pull, out=pull)
        np.equal(dist, d - 1, out=inner)
        np.multiply(pull, inner, out=pull)
        delta += pull
        shell, inner = inner, shell
    return dist_sum, reach_count, delta


def _path_scores(g: Graph):
    """Closeness and betweenness scores of ``g`` from one sweep, built once.

    Sources are searched in blocks of ``_BLOCK``, each one
    :func:`hop_distances` from a one-hot block on the graph's int16
    adjacency, so the path counts are int16 while they provably fit, and
    the distances in ``graph._layer_dtype``.  Its distances give each
    source's distance sum and reach count, and Brandes' backward pass
    (Brandes 2001) over the same distances and path counts gives its
    dependencies, in float64 products, summed in source order.  Level 1 is
    skipped: it would write only each source's own dependency, which is
    excluded.  One search's buffers and one ``delta``, n * ``_BLOCK``
    entries each, are allocated per graph.  Both vectors go into the score
    cache; a measure asked for alone pays for both.
    """
    cache = g._scores
    if CentralityKind.CLOSENESS not in cache or CentralityKind.BETWEENNESS not in cache:
        n = g.node_count
        A = g.to_csr()
        counts = g.to_csr(np.int16)
        buffers = SearchBuffers((n, min(n, _BLOCK)), _layer_dtype(n))
        delta = np.empty(buffers.dist.shape)
        dist_sum, reach_count, bc = np.zeros((3, n))
        for first in range(0, n, _BLOCK):
            block = slice(first, first + _BLOCK)
            sources = np.arange(n)[block]
            # the block's sources, one-hot, seeded in the search's own sigma
            seed = buffers.shaped((n, len(sources)))[1]
            seed.fill(0.0)
            seed[sources, sources - first] = 1.0
            dist, sigma = hop_distances(counts, seed, buffers)
            dist_sum[block], reach_count[block], deltas = _block_scores(A, dist, sigma, buffers, delta)
            for column in deltas.T:
                bc += column
        closeness = np.zeros(n)
        ok = dist_sum > 0  # empty when n <= 1, so n - 1 never divides
        r1 = reach_count - 1.0
        closeness[ok] = (r1[ok] / (n - 1)) * (r1[ok] / dist_sum[ok])
        keep_scores(g, {CentralityKind.CLOSENESS: closeness, CentralityKind.BETWEENNESS: bc / 2.0})
    return cache[CentralityKind.CLOSENESS], cache[CentralityKind.BETWEENNESS]


def closeness_centrality(g: Graph) -> CentralityScores:
    """Wasserman–Faust closeness with reachable-component scaling.

    score(v) = ((r - 1) / (n - 1)) * ((r - 1) / sum of distances), where r is
    the size of v's reachable set.  Isolated nodes score 0.  Read from the
    graph's closeness and betweenness sweep (:func:`_path_scores`).
    """
    return CentralityScores(CentralityKind.CLOSENESS, _path_scores(g)[0])


def betweenness_centrality(g: Graph) -> CentralityScores:
    """Brandes pair-dependency accumulation, unnormalized, endpoints excluded.

    Undirected pairs are counted once (accumulated dependencies halved).
    Read from the graph's closeness and betweenness sweep
    (:func:`_path_scores`).
    """
    return CentralityScores(CentralityKind.BETWEENNESS, _path_scores(g)[1])


def pagerank(g: Graph) -> CentralityScores:
    """PageRank on the undirected random walk with uniform teleport.

    Isolated (dangling) nodes redistribute their mass uniformly.  Scores sum
    to 1.  Damping ``PAGERANK_DAMPING``, tolerance ``PAGERANK_TOL``, iteration
    cap ``PAGERANK_MAX_ITER``.
    """
    n = g.node_count
    if n == 0:
        raise InputError("pagerank needs at least one node")
    A = g.to_csr()
    deg = g.degrees.astype(np.float64)
    inv_deg = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    dangling = deg == 0
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - PAGERANK_DAMPING) / n
    for _ in range(PAGERANK_MAX_ITER):
        walk = A @ (x * inv_deg) + x[dangling].sum() / n
        x_new = PAGERANK_DAMPING * walk + teleport
        if np.max(np.abs(x_new - x)) < PAGERANK_TOL:
            return CentralityScores(CentralityKind.PAGERANK, x_new)
        x = x_new
    raise NumericError(
        f"pagerank did not converge in {PAGERANK_MAX_ITER} iterations", last_iterate=x
    )


_DISPATCH = {
    CentralityKind.DEGREE: degree_centrality,
    CentralityKind.EIGENVECTOR: eigenvector_centrality,
    CentralityKind.CLOSENESS: closeness_centrality,
    CentralityKind.BETWEENNESS: betweenness_centrality,
    CentralityKind.PAGERANK: pagerank,
}


def keep_scores(g: Graph, scores, counts=None) -> None:
    """Put ``scores`` ({kind: vector}) into ``g``'s score cache, read-only.  ``counts``,
    the (nodes, edges) of the graph they came from, must be ``g``'s (ContractError)."""
    if counts is not None and tuple(counts) != (g.node_count, g.edge_count):
        raise ContractError(f"scores of a graph with (nodes, edges) = {tuple(counts)} given for {g!r}")
    for kind, vector in scores.items():
        vector.setflags(write=False)
        g._scores[kind] = vector


def compute_centrality(g: Graph, kind: CentralityKind) -> CentralityScores:
    """The named measure's scores of ``g``, computed once and kept in the graph's
    score cache (:func:`keep_scores`); the random baseline carries none."""
    kind = CentralityKind(kind)
    if kind is CentralityKind.RANDOM:
        raise InputError("the random strategy has no centrality scores")
    if kind not in g._scores:
        keep_scores(g, {kind: _DISPATCH[kind](g).scores})
    return CentralityScores(kind, g._scores[kind])


def top_k_by_score(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest scores; ties break by ascending node index."""
    n = len(scores)
    order = np.lexsort((np.arange(n), -np.asarray(scores, dtype=np.float64)))
    return order[:k].astype(np.int64)


def select_seeds(g: Graph, kind: CentralityKind, k: int, rng_seed=None) -> np.ndarray:
    """Choose k information creators by strategy.

    Centrality kinds take the k top-scoring nodes (ties by ascending index);
    the random kind draws k distinct nodes uniformly from the seeded RNG and
    therefore requires ``rng_seed``.
    """
    kind = CentralityKind(kind)
    k = as_integer("k", k)
    if not 0 <= k <= g.node_count:
        raise InputError(f"k must be in [0, {g.node_count}], got {k}")
    if kind is CentralityKind.RANDOM:
        if rng_seed is None:
            raise InputError("the random strategy requires an explicit rng_seed")
        rng = np.random.default_rng(as_seed("rng_seed", rng_seed))
        return rng.choice(g.node_count, size=k, replace=False).astype(np.int64)
    return top_k_by_score(compute_centrality(g, kind).scores, k)
