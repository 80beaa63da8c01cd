"""Per-layer tracing from outside the library.

The tracer swaps the public functions the battery code calls, in the module
namespaces it calls them from, for wrappers that time the call and pass the
arguments and the result through unchanged.  Counts are taken from the
returned values after the timed span closes; the time that takes is kept as
the tracer's own time, so the harness's self time can leave it out.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
import tracemalloc
from collections import defaultdict

import numpy as np
from scipy.sparse import csr_matrix

from layercast import centrality, diffusion, harness, intervention
from layercast.centrality import CentralityKind

SCORING = ("degree", "eigenvector", "closeness", "betweenness", "pagerank")
PEAK_KINDS = ("closeness", "betweenness")

#: Timed layer spans, in report order.
SPAN_NAMES = (
    "generators.er_s",
    "generators.lfr_s",
    *(f"centrality.{kind}_s" for kind in SCORING),
    "graph.layering_s",
    "diffusion.single_s",
    "intervention.run_s",
    "stats.wilcoxon_s",
)

#: Counters, in report order.
COUNT_NAMES = (
    "generators.edges",
    "graph.layers",
    "graph.cross_edges",
    "graph.effective_edges",
    "diffusion.runs",
    "intervention.runs",
    "intervention.blocked",
    "stats.tests",
)


def graph_digest(g) -> str:
    """Content key of a graph; object ids are reused once a graph is freed."""
    h = hashlib.blake2b(np.ascontiguousarray(g.edges).tobytes(), digest_size=16)
    h.update(str(g.node_count).encode("ascii"))
    return h.hexdigest()


def layer_counts(g, lv):
    """(BFS depth, consecutive-layer edges, closed triplets on those edges).

    A closed triplet of the edge from source s (layer L) to target t (layer
    L + 1) is a node of layer L + 1 adjacent to both, as in
    ``layercast.graph.effective_edge_count``.
    """
    layer_of = np.asarray(lv.layer_of)
    e = g.edges
    la, lb = layer_of[e[:, 0]], layer_of[e[:, 1]]
    reached = (la >= 0) & (lb >= 0)
    cross = reached & (np.abs(la - lb) == 1)
    same = reached & (la == lb)
    a_deeper = la > lb
    targets = np.where(a_deeper, e[:, 0], e[:, 1])[cross]
    sources = np.where(a_deeper, e[:, 1], e[:, 0])[cross]
    n = g.node_count
    s_edges = e[same]
    rows = np.concatenate([s_edges[:, 0], s_edges[:, 1]])
    cols = np.concatenate([s_edges[:, 1], s_edges[:, 0]])
    same_layer = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    triplets = (same_layer @ g.to_csr()).tocsr()
    effective = int(round(triplets[targets, sources].sum())) if len(targets) else 0
    return lv.depth, int(cross.sum()), effective


class Tracer:
    """Spans and counts for one battery call.  Use :meth:`installed`."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0
        self.own_s = 0.0
        self._depth = 0
        self._graphs = {}  # id -> (graph, digest); holding the graph pins its id
        self._layer_cache = {}
        self._false_keys = set()
        #: graphs each peak-memory kind was computed on, by content key
        self.peak_graphs = {kind: {} for kind in PEAK_KINDS}

    # -- bookkeeping ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        self._depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._depth -= 1
            self.busy[name] += dt
            if self._depth == 0:
                self.top_level_s += dt

    @contextlib.contextmanager
    def _own(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.own_s += time.perf_counter() - t0

    def _digest(self, g) -> str:
        entry = self._graphs.get(id(g))
        if entry is None:
            entry = self._graphs[id(g)] = (g, graph_digest(g))
        return entry[1]

    def _count_layers(self, g, lv):
        key = (self._digest(g), np.asarray(lv.sources).tobytes())
        counts = self._layer_cache.get(key)
        if counts is None:
            counts = self._layer_cache[key] = layer_counts(g, lv)
        depth, cross, effective = counts
        self.counts["graph.layers"] += depth
        self.counts["graph.cross_edges"] += cross
        self.counts["graph.effective_edges"] += effective

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            if after is not None:
                with self._own():
                    after(args, result)
            return result

        return wrapper

    def _by_kind(self, fn):
        """Wrap ``fn(g, kind, ...)``: time it under the kind's centrality span."""

        def wrapper(*args, **kwargs):
            kind = CentralityKind(args[1]).value
            if kind not in SCORING:
                return fn(*args, **kwargs)
            result = self._span(f"centrality.{kind}_s", fn, args, kwargs)
            if kind in PEAK_KINDS:
                with self._own():
                    self.peak_graphs[kind].setdefault(self._digest(args[0]), args[0])
            return result

        return wrapper

    def _after_generate(self, args, result):
        g = result[0] if isinstance(result, tuple) else result
        self.counts["generators.edges"] += g.edge_count

    def _after_single(self, args, state):
        self.counts["diffusion.runs"] += 1
        self._count_layers(args[0], state.layers)

    def _after_intervention(self, args, state):
        g = args[0]
        self.counts["intervention.runs"] += 1
        self.counts["intervention.blocked"] += int(np.count_nonzero(state.blocked))
        self._false_keys.add((self._digest(g), np.asarray(state.false_layers.sources).tobytes()))
        self._count_layers(g, state.false_layers)
        self._count_layers(g, state.true_layers)

    def _counting_tests(self, fn):
        """Count every test, including those that raise on a degenerate sample."""
        timed = self._timed("stats.wilcoxon_s", fn)

        def wrapper(*args, **kwargs):
            self.counts["stats.tests"] += 1
            return timed(*args, **kwargs)

        return wrapper

    def _patches(self):
        """(module, attribute, wrapper factory) for every traced call site."""
        run_intervention = self._timed(
            "intervention.run_s", intervention.run_intervention, self._after_intervention
        )
        return [
            (harness, "gen_er", lambda f: self._timed("generators.er_s", f, self._after_generate)),
            (harness, "gen_lfr", lambda f: self._timed("generators.lfr_s", f, self._after_generate)),
            (harness, "select_seeds", self._by_kind),
            (intervention, "compute_centrality", self._by_kind),
            (diffusion, "layer_from_sources", lambda f: self._timed("graph.layering_s", f)),
            (intervention, "layer_from_sources", lambda f: self._timed("graph.layering_s", f)),
            (harness, "run_single_diffusion",
             lambda f: self._timed("diffusion.single_s", f, self._after_single)),
            # the batteries call it through harness, the minimum-seed search
            # through intervention's own namespace
            (harness, "run_intervention", lambda f: run_intervention),
            (intervention, "run_intervention", lambda f: run_intervention),
            (harness, "compare_strategies", self._counting_tests),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block.

        Raises AttributeError when a call site is gone from the library: a
        span that can no longer be timed stops the benchmark, so its time
        cannot drift unnoticed into ``harness.self_s``.
        """
        saved = []
        try:
            for module, name, wrap in self._patches():
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, wrap(original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    # -- results ------------------------------------------------------------

    def false_distinct_share(self) -> float:
        """Distinct (graph, false creators) pairs per false process computed.

        1.0 when no false process ran: nothing was recomputed.
        """
        runs = self.counts["intervention.runs"]
        return len(self._false_keys) / runs if runs else 1.0


def peak_mib(graphs_by_kind) -> dict:
    """Peak traced allocation (MiB) of each kind's centrality over its graphs.

    Runs untimed, after the traced battery, on the graphs the battery computed
    that kind on.  0.0 for a kind the battery never computed.
    """
    peaks = {}
    tracemalloc.start()
    try:
        for kind, graphs in graphs_by_kind.items():
            peak = 0
            for g in graphs.values():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                centrality.compute_centrality(g, kind)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            peaks[kind] = peak / 2**20
    finally:
        tracemalloc.stop()
    return peaks
