"""Command-line interface: generate, centrality, diffuse, intervene, stats, experiment.

Exit codes form the stable contract: 0 success, 1 input error, 2
runtime/generation/numeric error, 3 memory exhausted.  Every failure prints
a single-line diagnostic ``error: <code>: <message>`` to stderr.  Stochastic
subcommands take their entropy only from ``--seed``; repeated invocations
with identical arguments produce identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .centrality import CentralityKind, compute_centrality, select_seeds
from .diffusion import DiffusionParams, Label, diffusion_metrics, label_counts, run_single_diffusion
from .errors import ContractError, GenerationError, InputError, LayercastError, NumericError
from .generators import ErParams, GaussianPartitionParams, LfrParams
from .graph import format_edge_list, load_edge_list
from .intervention import COMBAT_METRICS, CombatParams, intervention_metrics, run_intervention
from .stats import engagement_sample, load_engagement, summarize, wilcoxon_one_tailed


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_STRATEGY_CHOICES = [k.value for k in CentralityKind]
_MEASURE_CHOICES = [k.value for k in CentralityKind if k is not CentralityKind.RANDOM]


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds from nonnegative integers only."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _parse_node_list(text: str) -> np.ndarray:
    try:
        nodes = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise InputError(f"node list must be comma-separated integers, got {text!r}") from None
    if not nodes:
        raise InputError("node list is empty")
    return np.array(nodes, dtype=np.int64)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="ascii")


def _label_name(value: int) -> str:
    return Label(value).name.capitalize()


def _params(args):
    """The subcommand's ``params`` dataclass, built from the options named after its fields."""
    return args.params(**{f.name: getattr(args, f.name) for f in dataclasses.fields(args.params)})


# -- generate -------------------------------------------------------------------


def _community_text(communities) -> str:
    return "".join(f"{node} {c}\n" for node, c in enumerate(communities))


def _cmd_generate(args) -> int:
    g, communities = harness.generate_graph(_params(args), args.seed)
    _emit(format_edge_list(g), args.out)
    if getattr(args, "community_out", None):
        Path(args.community_out).write_text(_community_text(communities), encoding="ascii")
    return 0


# -- centrality -------------------------------------------------------------------


def _cmd_centrality(args) -> int:
    g = load_edge_list(args.graph)
    scores = compute_centrality(g, CentralityKind(args.measure))
    lines = ["node,score"]
    lines.extend(f"{v},{float(score)!r}" for v, score in enumerate(scores.scores))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- diffuse / intervene ------------------------------------------------------


def _pick_seeds(g, explicit, strategy, count, rng_seed, explicit_flag: str, prefix: str = "") -> np.ndarray:
    if explicit is not None:
        return _parse_node_list(explicit)
    if strategy is None or count is None:
        raise InputError(
            f"provide either --{explicit_flag} or --{prefix}strategy with --{prefix}count"
        )
    kind = CentralityKind(strategy)
    if kind is CentralityKind.RANDOM and rng_seed is None:
        raise InputError("--seed is required when a random strategy is used")
    return select_seeds(g, kind, count, rng_seed)


def _emit_run(lines, metrics: dict, args) -> None:
    """The per-node CSV, then the metrics JSON: to --metrics-out, or to stdout after a CSV file."""
    _emit("\n".join(lines) + "\n", args.out)
    payload = json.dumps(metrics, sort_keys=True) + "\n"
    if args.metrics_out:
        Path(args.metrics_out).write_text(payload, encoding="ascii")
    elif args.out is not None:
        sys.stdout.write(payload)


def _cmd_diffuse(args) -> int:
    g = load_edge_list(args.graph)
    ic = _pick_seeds(g, args.ic, args.strategy, args.count, args.seed, "ic")
    state = run_single_diffusion(g, ic, _params(args))

    lines = ["node,layer,p_i,label"]
    for v in range(g.node_count):
        lines.append(
            f"{v},{int(state.layers.layer_of[v])},{float(state.p_i[v])!r},{_label_name(state.labels[v])}"
        )
    iterations, sum_p_i = diffusion_metrics(state)
    metrics = {
        "iterations": iterations,
        "sum_p_i": sum_p_i,
        "infected_count": label_counts(state.labels)[Label.INFECTED],
    }
    _emit_run(lines, metrics, args)
    return 0


def _cmd_intervene(args) -> int:
    g = load_edge_list(args.graph)
    seed = args.seed
    false_seed = true_seed = None
    if seed is not None:
        false_seed = np.random.SeedSequence(seed, spawn_key=(0,))
        true_seed = np.random.SeedSequence(seed, spawn_key=(1,))
    ic_f = _pick_seeds(g, args.ic_f, args.false_strategy, args.false_count, false_seed, "ic-f", "false-")
    ic_t = _pick_seeds(g, args.ic_t, args.true_strategy, args.true_count, true_seed, "ic-t", "true-")
    state = run_intervention(g, ic_f, ic_t, _params(args))

    lines = ["node,p_if,p_it,blocked,label"]
    for v in range(g.node_count):
        lines.append(
            f"{v},{float(state.p_if[v])!r},{float(state.p_it[v])!r},"
            f"{bool(state.blocked[v])},{_label_name(state.labels[v])}"
        )
    _emit_run(lines, dict(zip(COMBAT_METRICS, intervention_metrics(state))), args)
    return 0


# -- stats ---------------------------------------------------------------------


def _cmd_stats_wilcoxon(args) -> int:
    records = load_engagement(args.input)
    result = wilcoxon_one_tailed(engagement_sample(records), args.alt)
    sys.stdout.write(json.dumps(dataclasses.asdict(result), sort_keys=True) + "\n")
    return 0


def _cmd_stats_summarize(args) -> int:
    records = load_engagement(args.input)
    column = {
        "true": [r.true_engagement for r in records],
        "false": [r.false_engagement for r in records],
    }[args.column]
    mean, median = summarize(column)
    sys.stdout.write(json.dumps({"column": args.column, "mean": mean, "median": median}, sort_keys=True) + "\n")
    return 0


# -- experiment ------------------------------------------------------------------


def _cmd_experiment_run(args) -> int:
    config = harness.apply_scale(harness.load_config(args.config), args.scale)
    result = harness.run_experiment(config, workers=args.workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    harness.export_results(result, out_dir / "results.csv", "csv")
    harness.export_results(result, out_dir / "results.json", "json")
    summary = {
        "out": str(out_dir),
        "records": len(result.records),
        "config_hash": result.provenance.config_hash,
        "p_values": [
            {k: v for k, v in dataclasses.asdict(p).items() if k != "method"}
            for p in result.p_values
        ],
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="layercast",
        description="Layered-BFS information diffusion and true-vs-false intervention simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # generate
    p_gen = sub.add_parser("generate", help="generate a random network")
    gen_sub = p_gen.add_subparsers(dest="family", required=True, parser_class=_Parser)

    p_er = gen_sub.add_parser("er", help="Erdős–Rényi G(n, p)")
    p_er.add_argument("--n", type=int, required=True, help="node count")
    p_er.add_argument(
        "--p", "--edge-exist-prob", dest="edge_exist_prob", metavar="P", type=float, required=True,
        help="pairwise edge probability (edge_exist_prob)",
    )
    p_er.add_argument("--seed", type=_seed, required=True, help="RNG seed")
    p_er.add_argument("--out", help="edge-list output path (default: stdout)")
    p_er.set_defaults(handler=_cmd_generate, params=ErParams)

    p_ga = gen_sub.add_parser("gaussian", help="Gaussian random partition graph")
    p_ga.add_argument("--n", type=int, required=True)
    p_ga.add_argument(
        "--mean-size", "--s", dest="mean_size", type=float, required=True,
        help="mean community size (s)",
    )
    p_ga.add_argument(
        "--shape", "--v", dest="shape", type=float, required=True,
        help="shape parameter (v); community-size variance = s/v",
    )
    p_ga.add_argument("--p-in", type=float, required=True, help="intra-community edge probability")
    p_ga.add_argument("--p-out", type=float, required=True, help="inter-community edge probability")
    p_ga.add_argument("--seed", type=_seed, required=True)
    p_ga.add_argument("--out")
    p_ga.add_argument("--community-out", help="write 'node community_id' lines here")
    p_ga.set_defaults(handler=_cmd_generate, params=GaussianPartitionParams)

    p_lfr = gen_sub.add_parser("lfr", help="LFR benchmark graph")
    p_lfr.add_argument("--n", type=int, required=True)
    p_lfr.add_argument("--tau1", type=float, required=True, help="degree power-law exponent")
    p_lfr.add_argument("--tau2", type=float, required=True, help="community-size power-law exponent")
    p_lfr.add_argument("--mu", type=float, required=True, help="mixing fraction")
    p_lfr.add_argument("--average-degree", type=float, required=True)
    p_lfr.add_argument("--min-community", type=int, required=True)
    p_lfr.add_argument("--seed", type=_seed, required=True)
    p_lfr.add_argument("--out")
    p_lfr.add_argument("--community-out")
    p_lfr.set_defaults(handler=_cmd_generate, params=LfrParams)

    # centrality
    p_cent = sub.add_parser("centrality", help="score nodes by a centrality measure")
    p_cent.add_argument("--graph", required=True, help="edge-list input path")
    p_cent.add_argument("--measure", required=True, choices=_MEASURE_CHOICES)
    p_cent.add_argument("--out", help="CSV output path (default: stdout)")
    p_cent.set_defaults(handler=_cmd_centrality)

    # diffuse
    p_diff = sub.add_parser("diffuse", help="run the single-information diffusion")
    p_diff.add_argument("--graph", required=True)
    p_diff.add_argument(
        "--transmission-prob", "--p", dest="transmission_prob",
        type=float, required=True, help="per-edge transmission probability (P)",
    )
    p_diff.add_argument(
        "--threshold", type=float, required=True, help="believer threshold (T)"
    )
    p_diff.add_argument("--ic", help="explicit creator nodes, comma-separated")
    p_diff.add_argument("--strategy", choices=_STRATEGY_CHOICES, help="creator-selection strategy")
    p_diff.add_argument("--count", type=int, help="number of creators for --strategy")
    p_diff.add_argument("--seed", type=_seed, help="RNG seed (required for random strategy)")
    p_diff.add_argument("--out", help="per-node CSV path (default: stdout)")
    p_diff.add_argument("--metrics-out", help="metrics JSON path")
    p_diff.set_defaults(handler=_cmd_diffuse, params=DiffusionParams)

    # intervene
    p_int = sub.add_parser("intervene", help="run the true-vs-false intervention")
    p_int.add_argument("--graph", required=True)
    p_int.add_argument(
        "--pf", "--false-transmission-prob",
        dest="false_transmission_prob", metavar="PF", type=float, required=True,
        help="false-information transmission probability (P_F)",
    )
    p_int.add_argument(
        "--pt", "--true-transmission-prob",
        dest="true_transmission_prob", metavar="PT", type=float, required=True,
        help="true-information transmission probability (P_T)",
    )
    p_int.add_argument(
        "--td", "--decisive-threshold",
        dest="decisive_threshold", metavar="TD", type=float, required=True,
        help="decisive threshold (T_D): false-belief level that blocks the true process",
    )
    p_int.add_argument(
        "--tc", "--comparative-threshold",
        dest="comparative_threshold", metavar="TC", type=float, required=True,
        help="comparative threshold (T_C): belief gap that labels a node infected",
    )
    p_int.add_argument("--ic-f", help="explicit false creators, comma-separated")
    p_int.add_argument("--ic-t", help="explicit true creators, comma-separated")
    p_int.add_argument("--false-strategy", choices=_STRATEGY_CHOICES)
    p_int.add_argument("--false-count", type=int)
    p_int.add_argument("--true-strategy", choices=_STRATEGY_CHOICES)
    p_int.add_argument("--true-count", type=int)
    p_int.add_argument("--seed", type=_seed, help="RNG seed (required for random strategies)")
    p_int.add_argument("--out", help="per-node CSV path (default: stdout)")
    p_int.add_argument("--metrics-out", help="metrics JSON path")
    p_int.set_defaults(handler=_cmd_intervene, params=CombatParams)

    # stats
    p_stats = sub.add_parser("stats", help="engagement statistics")
    stats_sub = p_stats.add_subparsers(dest="stat", required=True, parser_class=_Parser)

    p_wil = stats_sub.add_parser("wilcoxon", help="one-tailed Wilcoxon signed-rank test")
    p_wil.add_argument("--input", help="engagement CSV (default: bundled dataset)")
    p_wil.add_argument("--alt", required=True, choices=["x_less", "x_greater"],
                       help="alternative hypothesis for the true column vs the false column")
    p_wil.set_defaults(handler=_cmd_stats_wilcoxon)

    p_sum = stats_sub.add_parser("summarize", help="mean and median of one column")
    p_sum.add_argument("--input", help="engagement CSV (default: bundled dataset)")
    p_sum.add_argument("--column", required=True, choices=["true", "false"])
    p_sum.set_defaults(handler=_cmd_stats_summarize)

    # experiment
    p_exp = sub.add_parser("experiment", help="run a declarative ensemble battery")
    exp_sub = p_exp.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p_run = exp_sub.add_parser("run", help="run a battery from a JSON config")
    p_run.add_argument("--config", required=True, help="experiment config JSON path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--scale", choices=["desk", "paper"], default="paper",
                       help="desk shrinks node counts 5x and caps ensembles at 30 graphs")
    p_run.add_argument(
        "--workers", type=int, help="processes ranking graphs, this one included (default and cap: the usable CPUs)"
    )
    p_run.set_defaults(handler=_cmd_experiment_run)

    return parser


#: (error type, diagnostic label, exit code), most specific first: the first match wins.
_EXIT_CODES = (
    (InputError, "input", 1),
    (GenerationError, "generation", 2),
    (NumericError, "numeric", 2),
    (ContractError, "contract", 2),
    (LayercastError, "runtime", 2),
    (OSError, "io", 2),
    (MemoryError, "memory", 3),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (LayercastError, OSError, MemoryError) as exc:
        label, code = next((label, code) for kind, label, code in _EXIT_CODES if isinstance(exc, kind))
        # a bare MemoryError carries no message
        print(f"error: {label}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code

if __name__ == "__main__":
    sys.exit(main())
