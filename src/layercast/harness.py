"""Declarative experiment runner for ensemble studies.

A battery generates an ensemble of graphs from one generator configuration,
runs every seed-selection strategy on the same graphs (and, in intervention
mode, against the same randomly drawn false creators), and compares each
centrality strategy to the random baseline with paired one-tailed Wilcoxon
tests.  Identical configurations (including the master seed) always export
byte-identical CSV.

Seed discipline: every random stream is derived from the master seed with a
splittable spawn key ``(stream, sweep_index, graph_index)`` where stream 0
feeds graph generation, stream 1 the false-creator draws, and stream 2 the
random selection strategy.  Adding strategies never perturbs other streams.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import forking
from .centrality import CentralityKind, compute_centrality, keep_scores, select_seeds
from .diffusion import DiffusionParams, Label, diffusion_metrics, label_counts, run_single_diffusion
from .errors import (
    DegenerateSampleError, InputError, as_integer, check_int_fields, failing_at,
    read_text,
)
from .generators import (
    ErParams,
    GaussianPartitionParams,
    LfrParams,
    gen_er,
    gen_gaussian_partition,
    gen_lfr,
)
from .intervention import (
    COMBAT_METRICS,
    CombatParams,
    intervention_metrics,
    minimum_true_seeds,
    run_false_process,
    run_intervention,
)
from .stats import PairedSample, compare_strategies

_STREAM_GRAPH = 0
_STREAM_FALSE_SEEDS = 1
_STREAM_RANDOM_STRATEGY = 2

#: Strategy order used by the preset batteries.
ALL_STRATEGIES = (
    CentralityKind.DEGREE,
    CentralityKind.EIGENVECTOR,
    CentralityKind.CLOSENESS,
    CentralityKind.BETWEENNESS,
    CentralityKind.PAGERANK,
    CentralityKind.RANDOM,
)

#: Which direction means "the strategy beats the baseline" per metric.
METRIC_ALTERNATIVE = {
    "iterations": "x_less",
    "sum_p_i": "x_greater",
    "sum_p_it": "x_greater",
    "infected": "x_less",
    "susceptible": "x_less",
    "protected": "x_greater",
}

_SINGLE_COLUMNS = ("iterations", "sum_p_i", "infected", "susceptible")
_SINGLE_TESTED = ("iterations", "sum_p_i")

GeneratorParams = ErParams | GaussianPartitionParams | LfrParams

#: The model parameters each mode runs on.
_MODEL_TYPES = {"single": DiffusionParams, "intervention": CombatParams}


def _model_type(mode):
    """The model class of ``mode``; an unknown mode is an InputError naming it."""
    if not isinstance(mode, str) or mode not in _MODEL_TYPES:
        raise InputError(f"mode must be 'single' or 'intervention', got {mode!r}")
    return _MODEL_TYPES[mode]


@dataclass(frozen=True)
class SweepSpec:
    """Grid of values for one generator or model parameter."""

    parameter: str
    values: tuple

    def __post_init__(self):
        # NumPy scalars become Python numbers, so the values hash and print alike
        values = tuple(v.item() if isinstance(v, np.generic) else v for v in self.values)
        object.__setattr__(self, "values", values)
        if not isinstance(self.parameter, str):
            raise InputError(f"sweep parameter must be a field name, got {self.parameter!r}")
        if len(self.values) == 0:
            raise InputError("sweep grid must be non-empty")


@dataclass(frozen=True)
class ExperimentConfig:
    """One ensemble battery: generator, model, strategies, and seeds."""

    generator: GeneratorParams
    ensemble_size: int
    mode: str
    strategies: tuple
    model: DiffusionParams | CombatParams
    master_rng_seed: int
    info_starter: int = 0
    false_info_starter: int = 0
    true_info_starter: int = 0
    sweep: SweepSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(CentralityKind(s) for s in self.strategies))
        check_int_fields(self)
        if self.ensemble_size < 1:
            raise InputError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        model_cls = _model_type(self.mode)
        if not self.strategies:
            raise InputError("at least one strategy is required")
        if len(set(self.strategies)) != len(self.strategies):
            raise InputError("strategies must be unique")
        if self.master_rng_seed < 0:
            raise InputError(f"master_rng_seed must be >= 0, got {self.master_rng_seed}")
        n = self.generator.n
        if not isinstance(self.model, model_cls):
            raise InputError(f"{self.mode} mode requires {model_cls.__name__}")
        if self.mode == "single":
            if not 1 <= self.info_starter <= n:
                raise InputError(f"single mode requires info_starter in [1, generator.n = {n}]")
        else:
            if not (1 <= self.false_info_starter <= n and 1 <= self.true_info_starter <= n):
                raise InputError(f"both starter counts must be in [1, generator.n = {n}]")


@dataclass(frozen=True)
class MetricRecord:
    strategy: str
    graph_index: int
    sweep_value: float | None
    metrics: dict


@dataclass(frozen=True)
class PValueEntry:
    strategy: str
    metric: str
    sweep_value: float | None
    p: float
    method: str
    degenerate: bool


@dataclass(frozen=True)
class Provenance:
    config_hash: str
    master_rng_seed: int
    timestamp: str


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    p_values: list
    provenance: Provenance

    def metric_column(self, strategy, metric: str, sweep_value=None) -> np.ndarray:
        """Per-graph metric values for one strategy, ordered by graph index."""
        name = CentralityKind(strategy).value
        rows = [
            r for r in self.records
            if r.strategy == name and r.sweep_value == sweep_value
        ]
        rows.sort(key=lambda r: r.graph_index)
        return np.array([r.metrics[metric] for r in rows], dtype=np.float64)

    def p_value(self, strategy, metric: str, sweep_value=None) -> PValueEntry:
        name = CentralityKind(strategy).value
        for entry in self.p_values:
            if entry.strategy == name and entry.metric == metric and entry.sweep_value == sweep_value:
                return entry
        raise InputError(f"no p-value recorded for ({name}, {metric}, {sweep_value})")

    def mean_advantage(self, strategy, metric: str, sweep_value=None) -> float:
        """Mean per-graph difference (strategy - random baseline)."""
        own = self.metric_column(strategy, metric, sweep_value)
        base = self.metric_column(CentralityKind.RANDOM, metric, sweep_value)
        return float((own - base).mean())


def derive_seed(master: int, stream: int, sweep_index: int, graph_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master, spawn_key=(stream, sweep_index, graph_index))


def generate_graph(params: GeneratorParams, rng_seed):
    """Dispatch to the matching generator; returns (graph, communities|None)."""
    if isinstance(params, ErParams):
        return gen_er(params, rng_seed), None
    if isinstance(params, GaussianPartitionParams):
        return gen_gaussian_partition(params, rng_seed)
    if isinstance(params, LfrParams):
        return gen_lfr(params, rng_seed)
    raise InputError(f"unknown generator params: {type(params).__name__}")


def _apply_sweep_value(config: ExperimentConfig, parameter: str, value):
    if hasattr(config.generator, parameter):
        gen = dataclasses.replace(config.generator, **{parameter: value})
        return dataclasses.replace(config, generator=gen, sweep=None)
    if hasattr(config.model, parameter):
        model = dataclasses.replace(config.model, **{parameter: value})
        return dataclasses.replace(config, model=model, sweep=None)
    raise InputError(f"sweep parameter {parameter!r} is neither a generator nor a model field")


def _graph(point: ExperimentConfig, sweep_index: int, graph_index: int, ranked=None):
    """Ensemble member ``graph_index``: (graph, communities) from the graph stream,
    holding the scores of ``ranked``, its :func:`forking.ahead` item: a
    worker's :func:`_costly_scores` or None.  The item this process made,
    the member it ranked ahead (:func:`_ranked`), is returned as it is."""
    if ranked is not None and not isinstance(ranked[0], dict):
        return ranked
    with failing_at(f"graph {graph_index}"):
        g, communities = generate_graph(
            point.generator, derive_seed(point.master_rng_seed, _STREAM_GRAPH, sweep_index, graph_index)
        )
        if ranked is not None:
            keep_scores(g, *ranked)
        return g, communities


def _false_process(point: ExperimentConfig, g, sweep_index: int, graph_index: int):
    """The graph's false process, spread from creators drawn on the false-seed
    stream; a failure names ``graph <i>: false process``."""
    seed = derive_seed(point.master_rng_seed, _STREAM_FALSE_SEEDS, sweep_index, graph_index)
    ic_f = np.random.default_rng(seed).choice(g.node_count, size=point.false_info_starter, replace=False)
    with failing_at(f"graph {graph_index}: false process"):
        return run_false_process(g, ic_f, point.model)


#: The strategies whose ranking is worth a worker process.
_COSTLY = frozenset(CentralityKind) - {CentralityKind.DEGREE, CentralityKind.RANDOM}


def _ranking_workers(workers, strategies, graph_count: int) -> int:
    """How many processes rank a battery's graphs, this one included:
    min(``workers``, the usable CPUs, ``graph_count``), but 1 when no costly
    strategy is ranked.  :func:`forking.ahead` forks one fewer.

    ``workers`` None means the usable CPUs.  ``scipy.sparse`` is loaded here,
    before a fork, so the workers do not each load it again.
    """
    cpus = forking.usable_cpus()
    workers = cpus if workers is None else as_integer("workers", workers)
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    if not _COSTLY.intersection(strategies):
        return 1
    count = min(workers, cpus, graph_count)
    if count > 1:
        import scipy.sparse  # noqa: F401
    return count


def _ranked(task):
    """The member of a ranking task ``(point, sweep index, graph index,
    strategies)``: its (graph, communities), ranked by its costly
    ``strategies`` into the graph's score cache.  A failure is raised as it
    is, with no context: the calling process then meets it in order."""
    point, sweep_index, graph_index, strategies = task
    g, communities = generate_graph(
        point.generator, derive_seed(point.master_rng_seed, _STREAM_GRAPH, sweep_index, graph_index)
    )
    for kind in strategies:
        if kind in _COSTLY:
            compute_centrality(g, kind)
    return g, communities


def _costly_scores(task):
    """A worker's share of the ranking: ``({kind: scores}, (node count, edge
    count))`` of the :func:`_ranked` member of ``task``."""
    g, _ = _ranked(task)
    scores = {kind: compute_centrality(g, kind).scores for kind in task[3] if kind in _COSTLY}
    return scores, (g.node_count, g.edge_count)


def _run_one_graph(point: ExperimentConfig, sweep_index: int, graph_index: int, g, shared: dict):
    """All strategy runs of ``point`` on ensemble member ``graph_index``, the
    graph ``g`` (shared graph and false seeds).

    ``shared`` is the member's store for every point of its sweep group: the
    false process under its P_F, spread on first use, and each strategy's
    (true) creators, replaced by their layering after its first run.
    Neither depends on another model field, and a strategy's creators are
    the same at every point.

    A :class:`LayercastError` from ranking or spreading names the graph and
    the strategy (or the false process) it stopped at.
    """
    # select_seeds reads the stream-2 seed only for the random strategy
    strategy_seed = derive_seed(point.master_rng_seed, _STREAM_RANDOM_STRATEGY, sweep_index, graph_index)
    out = {}
    if point.mode == "single":
        for strategy in point.strategies:
            with failing_at(f"graph {graph_index}: {strategy.value}"):
                if strategy not in shared:
                    shared[strategy] = select_seeds(g, strategy, point.info_starter, strategy_seed)
                state = run_single_diffusion(g, shared[strategy], point.model)
            shared[strategy] = state.layers
            infected = label_counts(state.labels)[Label.INFECTED]
            out[strategy.value] = dict(
                zip(_SINGLE_COLUMNS, (*diffusion_metrics(state), infected, g.node_count - infected))
            )
    else:
        p_f = point.model.false_transmission_prob
        if p_f not in shared:
            shared[p_f] = _false_process(point, g, sweep_index, graph_index)
        for strategy in point.strategies:
            with failing_at(f"graph {graph_index}: {strategy.value}"):
                if strategy not in shared:
                    shared[strategy] = select_seeds(g, strategy, point.true_info_starter, strategy_seed)
                state = run_intervention(g, shared[p_f], shared[strategy], point.model)
            shared[strategy] = state.true_layers
            out[strategy.value] = dict(zip(COMBAT_METRICS, intervention_metrics(state)))
    return out


def _column(per_graph, strategy: CentralityKind, metric: str) -> np.ndarray:
    """One (strategy, metric) column of a sweep point's per-graph results."""
    return np.array([row[strategy.value][metric] for row in per_graph], dtype=np.float64)


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Run the battery described by the config.

    Graphs (and, in intervention mode, the random false creators) are shared
    across strategies within each ensemble member, so the per-strategy metric
    columns form paired samples.  ``workers`` counts the processes that rank
    the graphs by the costly strategies, this one included, at most the
    usable CPUs (:func:`_ranking_workers`).  Where :func:`forking.ahead`
    forks the others, this process takes their scores in graph order and,
    while it waits, ranks the next untaken graph itself and keeps it
    (:func:`_ranked`): the output is the same for any count, and this
    process generates each graph once.  A graph whose ranking failed, or
    that no live worker sent, is ranked again when the battery gets to it.
    A battery that raises kills its workers, even mid-graph.

    Each graph is generated and ranked once: every point of a model-parameter
    sweep runs on it before the next graph is generated, and shares its false
    process and true layerings (see :func:`_run_one_graph`).
    """
    sweep = config.sweep
    if sweep is None:
        groups = [[(None, config)]]
    elif hasattr(config.generator, sweep.parameter):  # one ensemble per point
        groups = [[(value, _apply_sweep_value(config, sweep.parameter, value))] for value in sweep.values]
    else:  # a model-parameter sweep's points share one ensemble
        groups = [[(value, _apply_sweep_value(config, sweep.parameter, value)) for value in sweep.values]]
    # a group's index is its sweep index, and its first point generates the graphs
    graph_indices = range(config.ensemble_size)
    tasks = [(group[0][1], s, i, config.strategies) for s, group in enumerate(groups) for i in graph_indices]
    count = _ranking_workers(workers, config.strategies, config.ensemble_size)

    per_point = []  # (sweep value, point, its per-graph results), in point order
    with forking.ahead(_costly_scores, tasks, count - 1, here=_ranked) as ranked:
        for sweep_index, group in enumerate(groups):
            rows = [(value, point, []) for value, point in group]
            for i in graph_indices:
                g, shared = None, {}
                for sweep_value, point, per_graph in rows:
                    # a failure names its sweep point, then its graph
                    with failing_at(f"{sweep.parameter}={sweep_value}") if sweep else contextlib.nullcontext():
                        if g is None:
                            g, _ = _graph(point, sweep_index, i, next(ranked))
                        per_graph.append(_run_one_graph(point, sweep_index, i, g, shared))
            per_point += rows

    records = []
    p_values = []
    for sweep_value, point, per_graph in per_point:
        records += [
            MetricRecord(strategy.value, i, sweep_value, per_graph[i][strategy.value])
            for strategy in point.strategies
            for i in graph_indices
        ]
        if CentralityKind.RANDOM not in point.strategies:
            continue
        for strategy in point.strategies:
            if strategy is CentralityKind.RANDOM:
                continue
            for metric in _SINGLE_TESTED if point.mode == "single" else COMBAT_METRICS:
                try:
                    res = compare_strategies(
                        PairedSample(
                            x=_column(per_graph, strategy, metric),
                            y=_column(per_graph, CentralityKind.RANDOM, metric),
                        ),
                        METRIC_ALTERNATIVE[metric],
                    )
                    p, method = res.p_one_tailed, res.method
                except DegenerateSampleError:
                    p, method = 1.0, "degenerate"
                p_values.append(
                    PValueEntry(strategy.value, metric, sweep_value, p, method, method == "degenerate")
                )

    provenance = Provenance(
        config_hash=config_hash(config),
        master_rng_seed=config.master_rng_seed,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    return ExperimentResult(config=config, records=records, p_values=p_values, provenance=provenance)


# -- ensembles and the minimum-seed search -------------------------------------


def build_ensemble(config: ExperimentConfig):
    """The ensemble of (graph, communities) the config's battery runs on."""
    return [_graph(config, 0, i) for i in range(config.ensemble_size)]


def minimum_seed_battery(config: ExperimentConfig, k_max: int, strategies=None):
    """Minimum true-creator count per strategy for a complete intervention.

    Reuses the config's ensemble and false-creator draws so every strategy
    faces identical conditions; each graph's false process is spread once.
    The graphs are ranked as in :func:`run_experiment`, on the default
    workers.  Returns ``{strategy name: k or None}``.  A swept config is an
    :class:`InputError`: the search runs one point.  A
    :class:`LayercastError` from a false process names its graph; one from
    the search names what :func:`minimum_true_seeds` names.
    """
    if config.mode != "intervention":
        raise InputError("minimum_seed_battery requires an intervention config")
    if config.sweep is not None:
        raise InputError("minimum_seed_battery searches one point; the config has a sweep")
    strategies = [CentralityKind(s) for s in (strategies or config.strategies)]
    indices = range(config.ensemble_size)
    tasks = [(config, 0, i, strategies) for i in indices]
    count = _ranking_workers(None, strategies, config.ensemble_size)
    with forking.ahead(_costly_scores, tasks, count - 1, here=_ranked) as ranked:
        graphs = [_graph(config, 0, i, next(ranked))[0] for i in indices]
    false_processes = [_false_process(config, g, 0, i) for i, g in enumerate(graphs)]
    return {
        strategy.value: minimum_true_seeds(
            graphs, strategy, false_processes, config.model, k_max, rng_seed=config.master_rng_seed
        )
        for strategy in strategies
    }


# -- presets -------------------------------------------------------------------

_PRESET_SEED = 1729


def apply_scale(config: ExperimentConfig, scale: str) -> ExperimentConfig:
    """Map a paper-scale battery to desk scale (or return it unchanged).

    Desk mapping: node counts shrink 5x (1000 -> 200) and ensembles cap at 30
    graphs; pairwise edge probabilities scale up by the node ratio so the mean
    degree is preserved (ER: p, Gaussian partition: p_out).  Community-level
    parameters and the diffusion model are untouched.  A swept generator
    field's values map as its points would: each is that point's field after
    the mapping, the point built and checked at paper scale first.  Two
    values that map to one point are an :class:`InputError`.
    """
    if scale == "paper":
        return config
    if scale != "desk":
        raise InputError(f"scale must be 'desk' or 'paper', got {scale!r}")
    sweep = config.sweep
    if sweep is not None and hasattr(config.generator, sweep.parameter):
        name = sweep.parameter
        points = [_apply_sweep_value(config, name, value).generator for value in sweep.values]
        values = tuple(getattr(_desk(gen), name) for gen in points)
        if len(set(values)) < len(set(sweep.values)):
            raise InputError(f"desk scale maps the {name} sweep {sweep.values} onto repeated points {values}")
        sweep = SweepSpec(name, values)
    return dataclasses.replace(
        config, generator=_desk(config.generator), ensemble_size=min(config.ensemble_size, 30), sweep=sweep
    )


def _desk(gen: GeneratorParams) -> GeneratorParams:
    """The generator at desk scale, as :func:`apply_scale` maps it."""
    n_new = max(2, gen.n // 5)
    ratio = gen.n / n_new
    if isinstance(gen, ErParams):
        return ErParams(n=n_new, edge_exist_prob=min(1.0, gen.edge_exist_prob * ratio))
    if isinstance(gen, GaussianPartitionParams):
        return dataclasses.replace(gen, n=n_new, p_out=min(1.0, gen.p_out * ratio))
    return dataclasses.replace(gen, n=n_new, min_community=min(gen.min_community, n_new))


_SINGLE = ExperimentConfig(
    generator=ErParams(n=1000, edge_exist_prob=0.04),
    ensemble_size=50,
    mode="single",
    strategies=ALL_STRATEGIES,
    model=DiffusionParams(transmission_prob=0.5, threshold=0.5),
    info_starter=3,
    master_rng_seed=_PRESET_SEED,
)
_INTERVENTION = ExperimentConfig(
    generator=ErParams(n=1000, edge_exist_prob=0.03),
    ensemble_size=50,
    mode="intervention",
    strategies=ALL_STRATEGIES,
    model=CombatParams(
        false_transmission_prob=0.5,
        true_transmission_prob=0.4,
        decisive_threshold=0.4,
        comparative_threshold=0.1,
    ),
    false_info_starter=3,
    true_info_starter=10,
    master_rng_seed=_PRESET_SEED,
)
# community sizes ~ Normal(40, 40/shape): near-equal (shape 40) or varying (shape 1)
_GAUSSIAN_SIMILAR = GaussianPartitionParams(n=1000, mean_size=40, shape=40, p_in=0.1, p_out=0.001)
_GAUSSIAN_VARYING = dataclasses.replace(_GAUSSIAN_SIMILAR, shape=1)
_LFR = LfrParams(n=1000, tau1=3.0, tau2=1.5, mu=0.1, average_degree=5.0, min_community=50)

#: The paper's batteries at paper scale, one per network family and mode.
PRESETS = {
    "dense_er_single": _SINGLE,
    "sparse_er_single": dataclasses.replace(
        _SINGLE, generator=ErParams(n=1000, edge_exist_prob=0.0005)
    ),
    "gaussian_similar_single": dataclasses.replace(_SINGLE, generator=_GAUSSIAN_SIMILAR),
    "gaussian_varying_single": dataclasses.replace(_SINGLE, generator=_GAUSSIAN_VARYING),
    "lfr_single": dataclasses.replace(_SINGLE, generator=_LFR),
    "er_intervention": _INTERVENTION,
    "gaussian_similar_intervention": dataclasses.replace(_INTERVENTION, generator=_GAUSSIAN_SIMILAR),
    "gaussian_varying_intervention": dataclasses.replace(_INTERVENTION, generator=_GAUSSIAN_VARYING),
    # the paper uses decisive threshold 0.5 on the LFR family
    "lfr_intervention": dataclasses.replace(
        _INTERVENTION,
        generator=_LFR,
        model=dataclasses.replace(_INTERVENTION.model, decisive_threshold=0.5),
    ),
}


def preset(name: str, scale: str = "desk") -> ExperimentConfig:
    """The ``PRESETS`` battery ``name`` at desk or paper scale."""
    if name not in PRESETS:
        raise InputError(f"preset must be one of {sorted(PRESETS)}, got {name!r}")
    return apply_scale(PRESETS[name], scale)


# named lookups kept because the benchmark's workloads call them
dense_er_single_preset = functools.partial(preset, "dense_er_single")
er_intervention_preset = functools.partial(preset, "er_intervention")
lfr_intervention_preset = functools.partial(preset, "lfr_intervention")


# -- serialization ---------------------------------------------------------------

_GENERATOR_TYPES = {
    "er": ErParams,
    "gaussian_partition": GaussianPartitionParams,
    "lfr": LfrParams,
}
_GENERATOR_NAMES = {cls: name for name, cls in _GENERATOR_TYPES.items()}


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config as JSON-ready data: its fields, plus the generator's ``type`` tag."""
    out = dataclasses.asdict(config)
    out["generator"]["type"] = _GENERATOR_NAMES[type(config.generator)]
    out["strategies"] = [s.value for s in config.strategies]
    if config.sweep:
        out["sweep"]["values"] = list(config.sweep.values)
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`; every key must name a field."""
    try:
        fields = dict(data)
        gen_data = dict(fields["generator"])
        gen_type = gen_data.pop("type")
        if gen_type not in _GENERATOR_TYPES:
            raise InputError(
                f"generator.type must be one of {sorted(_GENERATOR_TYPES)}, got {gen_type!r}"
            )
        fields["generator"] = _GENERATOR_TYPES[gen_type](**gen_data)
        fields["model"] = _model_type(fields["mode"])(**fields["model"])
        fields["sweep"] = SweepSpec(**fields["sweep"]) if fields.get("sweep") else None
        return ExperimentConfig(**fields)
    except KeyError as exc:
        raise InputError(f"experiment config is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed experiment config: {exc}") from None


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(read_text(path, "config", "utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(data)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _csv_columns(mode: str):
    metrics = _SINGLE_COLUMNS if mode == "single" else COMBAT_METRICS
    return ("strategy", "graph_index", "sweep_value") + metrics


def write_records_csv(result: ExperimentResult, stream) -> None:
    columns = _csv_columns(result.config.mode)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for rec in result.records:
        row = [rec.strategy, rec.graph_index, "" if rec.sweep_value is None else repr(rec.sweep_value)]
        row.extend(rec.metrics[m] for m in columns[3:])
        writer.writerow(row)


def result_to_dict(result: ExperimentResult) -> dict:
    return {
        "config": config_to_dict(result.config),
        "provenance": dataclasses.asdict(result.provenance),
        "records": [dataclasses.asdict(r) for r in result.records],
        "p_values": [dataclasses.asdict(p) for p in result.p_values],
    }


def export_results(result: ExperimentResult, path, format: str = "csv") -> None:
    """Write the battery output; CSV carries the records, JSON everything."""
    if format == "csv":
        with open(path, "w", encoding="ascii", newline="") as fh:
            write_records_csv(result, fh)
    elif format == "json":
        with open(path, "w", encoding="ascii") as fh:
            json.dump(result_to_dict(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise InputError(f"format must be 'csv' or 'json', got {format!r}")


def records_to_csv_text(result: ExperimentResult) -> str:
    buf = io.StringIO()
    write_records_csv(result, buf)
    return buf.getvalue()


def _csv_cell(text: str):
    """A sweep or metric cell: empty for no sweep, an int for a count, else a float repr."""
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        return float(text)


def read_records(path, format: str = "csv"):
    """Re-import exported records (CSV or JSON) as MetricRecord lists."""
    if format == "csv":
        header, *rows = csv.reader(io.StringIO(read_text(path, "records"), newline=""))
        return [
            MetricRecord(
                strategy, int(index), _csv_cell(sweep), dict(zip(header[3:], map(_csv_cell, values)))
            )
            for strategy, index, sweep, *values in rows
        ]
    if format == "json":
        return [MetricRecord(**r) for r in json.loads(read_text(path, "records"))["records"]]
    raise InputError(f"format must be 'csv' or 'json', got {format!r}")
