"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the model
definitions (dict adjacency, deque BFS, exact rational arithmetic) rather
than reusing package internals, so agreement is meaningful.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import numpy as np


def adjacency_dict(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def bfs_layers(adj, sources):
    """Hop distances via deque BFS; unreachable nodes are absent from the map."""
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def effective_edges_brute(n, edges, dist, target, source):
    """Triple loop over all nodes: closed triplets with the co-layer condition."""
    adj = adjacency_dict(n, edges)
    count = 0
    for i in range(n):
        if i in (target, source):
            continue
        if i in adj[target] and i in adj[source] and dist.get(i) == dist.get(target):
            count += 1
    return count


def rational_update(source_belief, P, n_eff):
    p = source_belief * P
    for j in range(1, n_eff + 1):
        p += source_belief * P**j * (1 - P) ** (n_eff + 1 - j) * comb(n_eff, j) * (1 - (1 - P) ** j)
    return p


def rational_single_diffusion(n, edges, creators, P):
    """Exact-rational layered diffusion; returns (belief list, iterations)."""
    P = Fraction(P)
    adj = adjacency_dict(n, edges)
    dist = bfs_layers(adj, list(creators))
    depth = max(dist.values()) if dist else 0
    p = [Fraction(0)] * n
    p_bar = [Fraction(1)] * n
    for c in creators:
        p[c] = Fraction(1)
        p_bar[c] = Fraction(0)
    for L in range(depth):
        for u in range(n):
            if dist.get(u) != L + 1:
                continue
            for v in adj[u]:
                if dist.get(v) != L or p[v] == 0:
                    continue
                n_eff = sum(
                    1 for i in adj[u] & adj[v] if dist.get(i) == L + 1
                )
                p_hat = rational_update(p[v], P, n_eff)
                p_bar[u] = p_bar[u] * (1 - p_hat)
            p[u] = 1 - p_bar[u]
    return p, depth


def rational_intervention(n, edges, ic_f, ic_t, pf, pt, td, tc):
    """Exact-rational competing diffusion; returns (p_if, p_it, labels).

    Labels: 1 infected, 0 susceptible, 2 protected (matching the package's
    Label enum values).
    """
    pf, pt, td, tc = Fraction(pf), Fraction(pt), Fraction(td), Fraction(tc)
    adj = adjacency_dict(n, edges)
    dist_f = bfs_layers(adj, list(ic_f))
    dist_t = bfs_layers(adj, list(ic_t))
    depth_f = max(dist_f.values())
    depth_t = max(dist_t.values())
    p_if = [Fraction(0)] * n
    p_it = [Fraction(0)] * n
    bar_f = [Fraction(1)] * n
    bar_t = [Fraction(1)] * n
    for c in ic_f:
        p_if[c], bar_f[c] = Fraction(1), Fraction(0)
    for c in ic_t:
        p_it[c], bar_t[c] = Fraction(1), Fraction(0)

    for step in range(1, max(depth_f, depth_t + 1) + 1):
        true_layer = step - 1
        if 1 <= true_layer <= depth_t:
            for u in range(n):
                if dist_t.get(u) != true_layer:
                    continue
                if p_if[u] >= td:
                    continue  # blocked: receives nothing
                for v in adj[u]:
                    if dist_t.get(v) != true_layer - 1 or p_it[v] == 0:
                        continue
                    if p_if[v] >= td:
                        continue  # blocked source transmits nothing
                    n_eff = sum(1 for i in adj[u] & adj[v] if dist_t.get(i) == true_layer)
                    bar_t[u] = bar_t[u] * (1 - rational_update(p_it[v], pt, n_eff))
                p_it[u] = 1 - bar_t[u]
        if step <= depth_f:
            for u in range(n):
                if dist_f.get(u) != step:
                    continue
                for v in adj[u]:
                    if dist_f.get(v) != step - 1 or p_if[v] == 0:
                        continue
                    n_eff = sum(1 for i in adj[u] & adj[v] if dist_f.get(i) == step)
                    bar_f[u] = bar_f[u] * (1 - rational_update(p_if[v], pf, n_eff))
                p_if[u] = 1 - bar_f[u]

    labels = []
    for u in range(n):
        if p_if[u] - p_it[u] >= tc:
            labels.append(1)
        elif p_if[u] >= p_it[u]:
            labels.append(0)
        else:
            labels.append(2)
    return p_if, p_it, labels


def common_in_layer(g, layer_of, target, source, target_layer):
    """Closed triplets of an edge: common neighbors lying in the target's layer."""
    common = set(g.neighbors(target).tolist()) & set(g.neighbors(source).tolist())
    return sum(1 for i in common if layer_of[i] == target_layer)


def scalar_spread(g, lv, P, stop=None):
    """The layer kernel as a node-by-node, edge-by-edge loop, in float64.

    The package's earlier scalar ``diffusion._spread``, kept as the bitwise
    reference for the vectorised kernel.  Returns ``(p, p_bar, blocked)``.
    """
    from layercast.diffusion import transmission_factor

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
                n_eff = common_in_layer(g, layer_of, u, v, L)
                f = factors.get(n_eff)
                if f is None:
                    f = transmission_factor(P, n_eff)
                    factors[n_eff] = f
                acc *= 1.0 - p[v] * f
            p_bar[u] = acc
            p[u] = 1.0 - acc
    return p, p_bar, blocked


def interleaved_intervention(g, false_creators, true_creators, params):
    """The combat run as an interleaved step loop, in float64.

    The package's earlier scalar implementation, kept as the bitwise
    reference for the false-then-true decomposition: at step t the true
    process updates its layer t - 1, then the false process its layer t.
    Returns ``(p_if, p_it, blocked, labels)``.
    """
    from layercast.diffusion import Label, transmission_factor
    from layercast.graph import layer_from_sources

    def count_effective(layer_of, target, source, target_layer):
        return common_in_layer(g, layer_of, target, source, target_layer)

    false_lv = layer_from_sources(g, false_creators)
    true_lv = layer_from_sources(g, true_creators)
    n = g.node_count

    p_if_bar = np.ones(n)
    p_if_bar[false_lv.sources] = 0.0
    p_if = np.zeros(n)
    p_if[false_lv.sources] = 1.0
    p_it_bar = np.ones(n)
    p_it_bar[true_lv.sources] = 0.0
    p_it = np.zeros(n)
    p_it[true_lv.sources] = 1.0
    blocked = np.zeros(n, dtype=bool)

    pf, pt = params.false_transmission_prob, params.true_transmission_prob
    td = params.decisive_threshold
    f_layer = false_lv.layer_of
    t_layer = true_lv.layer_of

    last_step = max(false_lv.depth, true_lv.depth + 1)
    for step in range(1, last_step + 1):
        true_layer = step - 1
        if 1 <= true_layer <= true_lv.depth:
            for u in true_lv.layers[true_layer]:
                if p_if[u] >= td:
                    blocked[u] = True
                    continue
                acc = p_it_bar[u]
                for v in g.neighbors(u):
                    if t_layer[v] != true_layer - 1 or p_it[v] == 0.0:
                        continue
                    if p_if[v] >= td:
                        continue  # source no longer transmits true information
                    n_eff = count_effective(t_layer, u, v, true_layer)
                    acc *= 1.0 - p_it[v] * transmission_factor(pt, n_eff)
                p_it_bar[u] = acc
                p_it[u] = 1.0 - acc

        if step <= false_lv.depth:
            for u in false_lv.layers[step]:
                acc = p_if_bar[u]
                for v in g.neighbors(u):
                    if f_layer[v] != step - 1 or p_if[v] == 0.0:
                        continue
                    n_eff = count_effective(f_layer, u, v, step)
                    acc *= 1.0 - p_if[v] * transmission_factor(pf, n_eff)
                p_if_bar[u] = acc
                p_if[u] = 1.0 - acc

    labels = np.full(n, Label.PROTECTED, dtype=np.int8)
    labels[p_if >= p_it] = Label.SUSCEPTIBLE
    labels[p_if - p_it >= params.comparative_threshold] = Label.INFECTED
    return p_if, p_it, blocked, labels


def optimal_minimum_true_seeds(n, edges, ic_f, pf, pt, td, tc, k_max):
    """Exhaustive search: smallest k for which SOME true seed set completes."""
    for k in range(1, k_max + 1):
        for ic_t in combinations(range(n), k):
            _, _, labels = rational_intervention(n, edges, ic_f, list(ic_t), pf, pt, td, tc)
            protected = labels.count(2)
            infected = labels.count(1)
            if protected > infected:
                return k, ic_t
    return None, None


# -- centrality references -----------------------------------------------------


def closeness_brute(n, edges):
    adj = adjacency_dict(n, edges)
    scores = []
    for v in range(n):
        dist = bfs_layers(adj, [v])
        r = len(dist)
        total = sum(dist.values())
        if total == 0 or n == 1:
            scores.append(0.0)
        else:
            scores.append(((r - 1) / (n - 1)) * ((r - 1) / total))
    return np.array(scores)


def _sigma_and_dist(adj, n, s):
    dist = {s: 0}
    sigma = {s: 1}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                sigma[w] = 0
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def betweenness_brute(n, edges):
    """Pair-dependency definition directly: sum over pairs of the fraction of
    shortest s-t paths through each interior node."""
    adj = adjacency_dict(n, edges)
    dist = {}
    sigma = {}
    for s in range(n):
        dist[s], sigma[s] = _sigma_and_dist(adj, n, s)
    bc = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            if t not in dist[s]:
                continue
            d_st = dist[s][t]
            for v in range(n):
                if v in (s, t) or v not in dist[s] or v not in dist[t]:
                    continue
                if dist[s][v] + dist[t][v] == d_st:
                    bc[v] += sigma[s][v] * sigma[t][v] / sigma[s][t]
    return bc


def eigenvector_brute(n, edges):
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    vals, vecs = np.linalg.eigh(A)
    vec = vecs[:, np.argmax(vals)]
    if vec.sum() < 0:
        vec = -vec
    return np.abs(vec)


def pagerank_brute(n, edges, damping=0.85):
    """Dense linear fixed point with dangling mass spread uniformly."""
    adj = adjacency_dict(n, edges)
    M = np.zeros((n, n))
    for v in range(n):
        if adj[v]:
            for w in adj[v]:
                M[w, v] = 1.0 / len(adj[v])
        else:
            M[:, v] = 1.0 / n
    x = np.linalg.solve(np.eye(n) - damping * M, np.full(n, (1 - damping) / n))
    return x


def wilcoxon_exact_brute(diffs, alternative):
    """Enumerate all 2^n sign assignments of the ranked |d| (n <= ~14)."""
    from scipy.stats import rankdata

    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    ranks = rankdata(np.abs(d))
    n = len(d)
    w_obs = ranks[d > 0].sum()
    hits = 0
    for mask in range(2**n):
        w = sum(ranks[i] for i in range(n) if mask >> i & 1)
        if alternative == "x_greater":
            hits += w >= w_obs - 1e-12
        else:
            hits += w <= w_obs + 1e-12
    return hits / 2**n


# -- the traversals hop_distances replaced -------------------------------------


def frontier_layering(g, sources):
    """Multi-source BFS: layer = hop distance to the nearest source.

    The package's earlier frontier loop, kept as the bitwise reference for
    ``layer_from_sources`` on ``graph.hop_distances``.
    """
    from layercast.errors import InputError
    from layercast.graph import LayeredView

    src = np.unique(np.asarray(list(sources), dtype=np.int64))
    if src.size == 0:
        raise InputError("source set must be non-empty")
    if src.min() < 0 or src.max() >= g.node_count:
        raise InputError(f"source index out of range [0, {g.node_count})")

    layer_of = np.full(g.node_count, -1, dtype=np.int64)
    layer_of[src] = 0
    layers = [src]
    frontier = src
    ind, ptr = g._indices, g._indptr
    while frontier.size:
        nbrs = np.concatenate([ind[ptr[v] : ptr[v + 1]] for v in frontier])
        nxt = np.unique(nbrs)
        nxt = nxt[layer_of[nxt] < 0]
        if nxt.size == 0:
            break
        layer_of[nxt] = len(layers)
        layers.append(nxt)
        frontier = nxt
    layer_of.setflags(write=False)
    for arr in layers:
        arr.setflags(write=False)
    return LayeredView(sources=src, layer_of=layer_of, layers=tuple(layers))


def dense_closeness(g):
    """Wasserman–Faust closeness with reachable-component scaling.

    score(v) = ((r - 1) / (n - 1)) * ((r - 1) / sum of distances), where r is
    the size of v's reachable set.  Isolated nodes score 0.

    The package's earlier all-sources search with dense n x n matrices,
    kept as the bitwise reference for the source-blocked closeness.
    """
    from layercast.centrality import CentralityKind, CentralityScores

    n = g.node_count
    if n == 0:
        return CentralityScores(CentralityKind.CLOSENESS, np.zeros(0))
    A = g.to_csr()
    reached = np.eye(n, dtype=bool)  # reached[v, s]: v reached from source s
    frontier = np.eye(n, dtype=np.float64)
    dist_sum = np.zeros(n)
    reach_count = np.ones(n)
    d = 0
    while True:
        d += 1
        spread = A @ frontier
        new = (spread > 0) & ~reached
        if not new.any():
            break
        reached |= new
        per_source = new.sum(axis=0)
        dist_sum += d * per_source
        reach_count += per_source
        frontier = new.astype(np.float64)
    scores = np.zeros(n)
    ok = dist_sum > 0
    if n > 1:
        r1 = reach_count - 1.0
        scores[ok] = (r1[ok] / (n - 1)) * (r1[ok] / dist_sum[ok])
    return CentralityScores(CentralityKind.CLOSENESS, scores)


def per_source_betweenness(g):
    """Brandes pair-dependency accumulation, unnormalized, endpoints excluded.

    Undirected pairs are counted once (accumulated dependencies halved).
    The per-source sweep is vectorized over BFS shells with sparse matvecs.

    The package's earlier one-source-at-a-time Brandes sweep, kept as the
    bitwise reference for the source-blocked betweenness.
    """
    from layercast.centrality import CentralityKind, CentralityScores

    n = g.node_count
    A = g.to_csr()
    bc = np.zeros(n)
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        shells = [np.array([s], dtype=np.int64)]
        fvec = np.zeros(n)
        fvec[s] = 1.0
        d = 0
        while True:
            contrib = A @ fvec  # path counts arriving one hop out
            new = (contrib > 0) & (dist < 0)
            if not new.any():
                break
            d += 1
            dist[new] = d
            sigma[new] = contrib[new]
            shells.append(np.nonzero(new)[0])
            fvec = np.where(new, contrib, 0.0)
        delta = np.zeros(n)
        for d in range(len(shells) - 1, 0, -1):
            w = shells[d]
            coef = np.zeros(n)
            coef[w] = (1.0 + delta[w]) / sigma[w]
            pull = A @ coef
            prev = dist == d - 1
            delta[prev] += sigma[prev] * pull[prev]
        delta[s] = 0.0
        bc += delta
    return CentralityScores(CentralityKind.BETWEENNESS, bc / 2.0)


# -- the effective-edge count the triangle index replaced ----------------------


def product_layer_edges(g, lv):
    """Every consecutive-layer edge with its effective-edge count, in update order.

    The package's earlier sparse-product count, kept as the bitwise reference
    for ``graph.layer_edges`` on ``graph.triangle_index``.  The counts are
    read from ``S @ C`` at C's entries, where S is the same-layer adjacency
    over layers >= 1 and C the consecutive-layer adjacency directed from the
    deeper node to the shallower one.
    """
    from scipy.sparse import csr_matrix

    n = g.node_count
    rows = np.repeat(np.arange(n), g.degrees)
    cols = g._indices
    row_layer = lv.layer_of[rows]
    col_layer = lv.layer_of[cols]
    deep = row_layer >= 1
    cross = deep & (col_layer == row_layer - 1)
    same = deep & (col_layer == row_layer)

    def adjacency(mask):
        # rows and cols are in CSR order, so each masked subset is canonical CSR
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[mask], minlength=n), out=indptr[1:])
        data = np.ones(int(indptr[-1]), dtype=np.int64)
        return csr_matrix((data, cols[mask], indptr), shape=(n, n))

    targets, sources = rows[cross], cols[cross]
    counts = np.asarray((adjacency(same) @ adjacency(cross))[targets, sources]).ravel()
    # stable: inside a layer the CSR order (target, then source) is kept
    order = np.argsort(row_layer[cross], kind="stable")
    return targets[order], sources[order], counts[order]


# -- the graph construction the edge-key deduplication replaced ----------------


def row_unique_graph_arrays(n, edge_list):
    """``(edges, indptr, indices)`` as ``Graph`` built them with a list copy of
    the edges and ``np.unique(..., axis=0)`` on (lo, hi) rows."""
    e = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
    if e.size:
        lo, hi = e.min(axis=1), e.max(axis=1)
        keep = lo != hi
        e = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    else:
        e = np.empty((0, 2), dtype=np.int64)
    counts = np.bincount(e.ravel(), minlength=n) if e.size else np.zeros(n, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    return e, indptr, dst[np.lexsort((dst, src))]


# -- the kernels the leaner array passes replaced ------------------------------


def scatter_hop_distances(A, frontier):
    """Breadth-first search on CSR adjacency ``A``, one ``A @ frontier`` per hop.

    The package's earlier ``graph.hop_distances``, which wrote each hop's
    distance by a boolean scatter, kept as its bitwise reference.
    """
    sigma = np.array(frontier, dtype=np.float64)
    dist = np.where(sigma > 0, 0, -1)
    unreached = np.count_nonzero(dist < 0)
    frontier = sigma
    d = 0
    while unreached:
        contrib = A @ frontier
        new = (contrib > 0) & (dist < 0)
        found = np.count_nonzero(new)
        if not found:
            break
        d += 1
        dist[new] = d
        frontier = np.where(new, contrib, 0.0)
        sigma += frontier
        unreached -= found
    return dist, sigma


def dense_block_path_scores(g, block=128):
    """``(closeness, betweenness)`` as ``centrality._path_scores`` computed them
    with a dense identity block as each block's first frontier and two shell
    comparisons per backward level; kept as the sweep's bitwise reference."""
    n = g.node_count
    A = g.to_csr()
    dist_sum = np.zeros(n)
    reach_count = np.zeros(n)
    bc = np.zeros(n)
    for first in range(0, n, block):
        last = min(first + block, n)
        dist, sigma = scatter_hop_distances(A, np.eye(n, last - first, -first))
        dist_sum[first:last] = np.maximum(dist, 0).sum(axis=0)
        reach_count[first:last] = (dist >= 0).sum(axis=0)
        delta = np.zeros_like(sigma)
        safe_sigma = np.where(dist >= 0, sigma, 1.0)
        for d in range(dist.max(), 1, -1):
            coef = (1.0 + delta) / safe_sigma * (dist == d)
            delta += sigma * (A @ coef) * (dist == d - 1)
        for column in delta.T:
            bc += column
    closeness = np.zeros(n)
    ok = dist_sum > 0
    r1 = reach_count - 1.0
    closeness[ok] = (r1[ok] / (n - 1)) * (r1[ok] / dist_sum[ok])
    return closeness, bc / 2.0


def _search_creators(graphs, strategy, rng_seed):
    """``creators(i, k)``: graph i's true creators at k in the minimum-seed
    search, from a fresh ranking per k or a draw seeded per (graph, k)."""
    from layercast.centrality import CentralityKind, compute_centrality, top_k_by_score

    strategy = CentralityKind(strategy)
    if strategy is CentralityKind.RANDOM:
        def creators(i, k):
            rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(i, k)))
            return rng.choice(graphs[i].node_count, size=k, replace=False)
    else:
        scores = [compute_centrality(g, strategy).scores for g in graphs]

        def creators(i, k):
            return top_k_by_score(scores[i], k)
    return creators


def per_k_minimum_true_seeds(graphs, strategy, false_processes, params, k_max, rng_seed=None,
                             curve_out=None):
    """The package's earlier ``intervention.minimum_true_seeds`` loop: it ranks
    every graph afresh for each k and reads the counts from
    ``intervention_metrics``.  Kept as the reference for the search's result
    and its curve."""
    from layercast.intervention import intervention_metrics, run_intervention

    creators = _search_creators(graphs, strategy, rng_seed)
    for k in range(1, k_max + 1):
        protected = np.empty(len(graphs))
        infected = np.empty(len(graphs))
        for i, (g, fp) in enumerate(zip(graphs, false_processes)):
            state = run_intervention(g, fp, creators(i, k), params)
            _, inf, _, prot = intervention_metrics(state)
            protected[i] = prot
            infected[i] = inf
        mean_prot = float(protected.mean())
        mean_inf = float(infected.mean())
        if curve_out is not None:
            curve_out.append((k, mean_prot, mean_inf))
        if mean_prot > mean_inf:
            return k
    return None


def surely_infected_nodes(false_process, params):
    """The nodes of false layer 0 or 1 whose false belief reaches both the
    decisive and the comparative threshold, one node at a time."""
    level = max(params.decisive_threshold, params.comparative_threshold)
    return [
        v for v, layer in enumerate(false_process.layers.layer_of.tolist())
        if layer in (0, 1) and false_process.p_if[v] >= level
    ]


def bounded_search_runs(graphs, strategy, false_processes, params, k_max, rng_seed=None):
    """``(runs, k)``: the (k, graph index) combat runs the bounded minimum-seed
    search makes without a curve, in order, and the k it returns.  Every graph
    runs at every k here; the skip rule then keeps graph i's run at k only
    while the protected - infected of graphs 0..i-1 plus the bound
    n - 2 max(0, S - k) of graphs i.. sums above 0."""
    from layercast.diffusion import Label, label_counts
    from layercast.intervention import run_intervention

    creators = _search_creators(graphs, strategy, rng_seed)
    surely = [len(surely_infected_nodes(fp, params)) for fp in false_processes]
    runs = []
    for k in range(1, k_max + 1):
        diffs = []
        for i, (g, fp) in enumerate(zip(graphs, false_processes)):
            tally = label_counts(run_intervention(g, fp, creators(i, k), params).labels)
            diffs.append(tally[Label.PROTECTED] - tally[Label.INFECTED])
        bounds = [g.node_count - 2 * max(0, s - k) for g, s in zip(graphs, surely)]
        for i in range(len(graphs)):
            if sum(diffs[:i]) + sum(bounds[i:]) <= 0:
                break
            runs.append((k, i))
        if sum(diffs) > 0:
            return runs, k
    return runs, None


def row_pair_edges(rng, n, pair_prob):
    """Pair edges drawn one ``rng.random`` call per row, ``pair_prob(i)``
    giving row i's probabilities: the package's earlier
    ``generators._sample_pair_edges``, kept as the chunked sampler's
    bitwise reference."""
    rows = []
    for i in range(n - 1):
        hits = np.nonzero(rng.random(n - 1 - i) < pair_prob(i))[0]
        if hits.size:
            js = hits + i + 1
            rows.append(np.stack([np.full(js.size, i, dtype=np.int64), js], axis=1))
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(rows)


def scalar_match_stubs(rng, stubs, occupied, communities=None, budget=0, paths=None):
    """Configuration-model matching with one scalar ``rng.integers`` call per
    draw and ``(min, max)`` tuple keys in ``occupied``: the package's earlier
    ``generators._match_stubs``, kept as the bitwise reference of the
    bulk-drawing one.  ``paths`` (a ``collections.Counter``), when given,
    counts the pairs dropped after 60 failed swaps (``"dropped"``) and the
    calls that ran out of budget (``"budget"``)."""
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
                if paths is not None:
                    paths["budget"] += 1
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
        else:
            if paths is not None:
                paths["dropped"] += 1
    return [pairs[i] for i in range(len(pairs)) if good[i]]


def scalar_lfr(params, rng_seed, paths=None):
    """``(graph, communities)``: the package's earlier ``generators.gen_lfr``,
    one scalar ``rng.integers`` call per draw, kept as the bitwise reference
    of the bulk-drawing one.  The degree and community-size helpers it calls
    did not change, so they are the package's own.  ``paths`` counts as in
    :func:`scalar_match_stubs`, plus the parity fixes (``"parity"``)."""
    from layercast.errors import GenerationError
    from layercast.graph import Graph
    from layercast.generators import (
        _BUDGET_FACTOR,
        _MAX_STRUCTURE_ATTEMPTS,
        _power_law_inverse,
        _sample_community_sizes,
        _solve_degree_floor,
    )

    rng = np.random.default_rng(rng_seed)
    n = params.n
    if params.min_community > n:
        raise GenerationError(
            f"infeasible: min_community ({params.min_community}) exceeds node count ({n})"
        )
    budget = _BUDGET_FACTOR * n
    max_degree = min(n - 1, max(1, round(sqrt(n) * params.average_degree)))
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
                cand = members[internal[members] > 0]
                if cand.size:
                    pick = int(cand[int(rng.integers(cand.size))])
                    internal[pick] -= 1
                    external[pick] += 1
                    if paths is not None:
                        paths["parity"] += 1
            stubs = np.repeat(members, internal[members])
            edges.extend(scalar_match_stubs(rng, stubs, occupied, budget=budget, paths=paths))
        if len(sizes) > 1:
            stubs = np.repeat(np.arange(n, dtype=np.int64), external)
            edges.extend(scalar_match_stubs(
                rng, stubs, occupied, communities=assignment, budget=budget, paths=paths
            ))
        assignment.setflags(write=False)
        return Graph(n, edges), assignment

    raise GenerationError(f"LFR generation failed: {last_failure}")
