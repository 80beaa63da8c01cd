"""The benchmark's workloads: how each builds its input from a seed, which
public entry point it calls, and how its output is checked.

Importing this module imports ``layercast``; ``run.py`` puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import layercast as lc
from layercast.harness import records_to_csv_text
from tracer import SCORING

REFERENCES_PATH = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark input family (BENCHMARK.json says why each exists).

    ``config(seed)`` builds the experiment config (not timed), ``call`` is the
    single timed call into the library, and ``digest`` reduces its result to
    the JSON value that the committed reference for the seed must equal.
    ``spans`` are the tracer spans every battery of the workload enters; a
    traced battery that leaves one at zero means the library stopped calling
    the wrapped function, and the traced run stops.
    """

    name: str
    config: Callable[[int], object]
    call: Callable[[object], object]
    digest: Callable[[object], object]
    spans: tuple = ()


def _csv_sha256(result) -> str:
    return hashlib.sha256(records_to_csv_text(result).encode("ascii")).hexdigest()


def _dense_er_paper(seed: int):
    # ensemble_size=8 keeps the first 8 graphs of the paper battery: the
    # spawn keys depend only on the graph index.
    return dataclasses.replace(
        lc.dense_er_single_preset("paper"), ensemble_size=8, master_rng_seed=seed
    )


def _lfr_intervention(seed: int):
    return dataclasses.replace(lc.lfr_intervention_preset("desk"), master_rng_seed=seed)


def _er_intervention(seed: int):
    return dataclasses.replace(lc.er_intervention_preset("desk"), master_rng_seed=seed)


def _min_seed_search(config):
    return lc.minimum_seed_battery(config, k_max=80, strategies=("degree",))


_SCORING_SPANS = tuple(f"centrality.{kind}_s" for kind in SCORING)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense_er_paper",
            config=_dense_er_paper,
            call=lc.run_experiment,
            digest=_csv_sha256,
            spans=("generators.er_s", *_SCORING_SPANS, "graph.layering_s",
                   "diffusion.single_s", "stats.wilcoxon_s"),
        ),
        Workload(
            name="lfr_intervention",
            config=_lfr_intervention,
            call=lc.run_experiment,
            digest=_csv_sha256,
            spans=("generators.lfr_s", *_SCORING_SPANS, "graph.layering_s",
                   "intervention.run_s", "stats.wilcoxon_s"),
        ),
        Workload(
            name="er_min_seeds",
            config=_er_intervention,
            call=_min_seed_search,
            digest=dict,
            spans=("generators.er_s", "centrality.degree_s", "graph.layering_s",
                   "intervention.run_s"),
        ),
    )
}


def load_references(path=REFERENCES_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def input_seed(seed: int, refs: dict) -> int:
    """The master seed a run with ``--seed seed`` uses.

    Seeds that have a committed reference run as given.  Any other seed maps
    onto the reference pool, so every sample of every run is checked against
    a committed result; the same seed always gives the same input.
    """
    if seed in refs["pool"] or seed == refs["held_out_seed"]:
        return seed
    pool = sorted(refs["pool"])
    return pool[seed % len(pool)]


def check(workload: Workload, seed: int, digest, refs: dict) -> bool:
    """True when a result digest equals the committed reference for the seed.

    A seed without a reference fails: an unchecked sample is not a pass.
    """
    expected = refs["results"][workload.name].get(str(seed))
    return expected is not None and digest == expected
