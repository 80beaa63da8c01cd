"""Seeded fuzz of every config field: each battery runs or fails by the contract.

Every field of the five parameter dataclasses (the three generators', the
single and the combat model) and of the experiment config file is set to
each of a fixed set of hostile values, one field at a time and then a few at
a time for each seed.  Each config is driven through the API
(``config_from_dict``, ``apply_scale`` and ``run_experiment``) and through
``cli.main`` (``experiment run --scale desk``), at desk size.  Either both
succeed with the same ``results.csv``, or the API raises a
:class:`LayercastError` and the CLI exits with that error's code and one
stderr line carrying its message.  The same values go to every option of
``generate``, ``diffuse`` and ``intervene`` as text, which must exit 0 with
nothing on stderr, or 1 or 2 with one ``error:`` line.  Any other
exception, or any warning, fails the test.
"""

import copy
import json
import math
import random
import shutil
import warnings

import pytest

from layercast import LayercastError, build_graph, cli, harness, save_edge_list

#: 0, +-1, tiny, huge, +-inf, NaN, a bool, a string and None.
VALUES = (0, 1, -1, 5e-324, 1e308, math.inf, -math.inf, math.nan, True, "1", None)

GENERATORS = {
    "er": {"type": "er", "n": 60, "edge_exist_prob": 0.05},
    "gaussian_partition": {
        "type": "gaussian_partition", "n": 60, "mean_size": 4.0, "shape": 4.0,
        "p_in": 0.5, "p_out": 0.01,
    },
    "lfr": {
        "type": "lfr", "n": 100, "tau1": 3.0, "tau2": 1.5, "mu": 0.1,
        "average_degree": 3.0, "min_community": 5,
    },
}
MODELS = {
    "single": {"transmission_prob": 0.5, "threshold": 0.5},
    "intervention": {
        "false_transmission_prob": 0.5, "true_transmission_prob": 0.4,
        "decisive_threshold": 0.4, "comparative_threshold": 0.1,
    },
}
#: A sweep of one field of each kind, for the fuzzed grid value.
SWEEPS = {"single": "n", "intervention": "decisive_threshold"}

SEEDS = 200


def base(generator: str, mode: str) -> dict:
    return {
        "generator": dict(GENERATORS[generator]),
        "ensemble_size": 2,
        "mode": mode,
        "strategies": ["degree", "random"],
        "model": dict(MODELS[mode]),
        "info_starter": 2,
        "false_info_starter": 2,
        "true_info_starter": 3,
        "sweep": None,
        "master_rng_seed": 5,
    }


def paths(generator: str, mode: str) -> list:
    """Every field a config of this generator and mode reads, as key paths."""
    return [
        *((key,) for key in base(generator, mode)),
        *(("generator", key) for key in GENERATORS[generator]),
        *(("model", key) for key in MODELS[mode]),
        ("sweep", "parameter"),
        ("sweep", "values"),
    ]


def mutated(data: dict, path: tuple, value) -> dict:
    data = copy.deepcopy(data)
    if path[0] == "sweep" and len(path) == 2:
        parameter = SWEEPS.get(data["mode"], "n")
        sweep = {"parameter": parameter, "values": [30 if parameter == "n" else 0.3]}
        sweep[path[1]] = value if path[1] == "parameter" else [value]
        data["sweep"] = sweep
    elif len(path) == 1:
        data[path[0]] = value
    elif isinstance(data[path[0]], dict):  # else an earlier mutation replaced it
        data[path[0]][path[1]] = value
    return data


def drive(data: dict, tmp_path, capsys) -> bool:
    """Run ``data`` through the API and the CLI and check they agree; True
    when the battery ran."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        try:
            config = harness.apply_scale(harness.config_from_dict(copy.deepcopy(data)), "desk")
            want = harness.records_to_csv_text(harness.run_experiment(config, workers=1))
        except LayercastError as exc:
            want = exc
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        code = cli.main([
            "experiment", "run", "--config", str(path), "--out", str(out),
            "--scale", "desk", "--workers", "1",
        ])
    captured = capsys.readouterr()
    if isinstance(want, str):
        assert (code, captured.err) == (0, "")
        assert (out / "results.csv").read_text(encoding="ascii") == want
        return True
    label, exit_code = next((label, c) for kind, label, c in cli._EXIT_CODES if isinstance(want, kind))
    assert "\n" not in str(want)
    assert (code, captured.err) == (exit_code, f"error: {label}: {want}\n")
    return False


CASES = [
    (generator, mode, path)
    for generator in GENERATORS
    for mode in MODELS
    for path in paths(generator, mode)
    # each generator's fields in single mode, the rest on the ER generator
    if (mode == "single" if path[0] == "generator" else generator == "er")
]


def test_every_base_config_runs(tmp_path, capsys):
    for generator in GENERATORS:
        for mode in MODELS:
            assert drive(base(generator, mode), tmp_path, capsys)
            # a swept n of 200 runs at n = 40 once desk scale maps it
            swept = mutated(base(generator, mode), ("sweep", "values"), 200 if mode == "single" else 0.3)
            assert drive(swept, tmp_path, capsys)


@pytest.mark.parametrize(
    "generator, mode, path", CASES, ids=[f"{g}-{m}-{'.'.join(p)}" for g, m, p in CASES]
)
def test_each_field_takes_each_value(generator, mode, path, tmp_path, capsys):
    for value in VALUES:
        drive(mutated(base(generator, mode), path, value), tmp_path, capsys)


@pytest.mark.parametrize("seed", range(SEEDS))
def test_seeded_combinations(seed, tmp_path, capsys):
    rng = random.Random(seed)
    generator, mode = rng.choice(list(GENERATORS)), rng.choice(list(MODELS))
    data = base(generator, mode)
    for path in rng.sample(paths(generator, mode), rng.randint(2, 3)):
        data = mutated(data, path, rng.choice(VALUES))
    drive(data, tmp_path, capsys)


#: Each subcommand's options around a run that succeeds, ``GRAPH`` standing
#: for an edge-list file.
COMMANDS = {
    "er": ["generate", "er", "--n", "60", "--p", "0.05", "--seed", "1"],
    "gaussian": [
        "generate", "gaussian", "--n", "60", "--mean-size", "4", "--shape", "4",
        "--p-in", "0.5", "--p-out", "0.01", "--seed", "1",
    ],
    "lfr": [
        "generate", "lfr", "--n", "100", "--tau1", "3", "--tau2", "1.5", "--mu", "0.1",
        "--average-degree", "3", "--min-community", "5", "--seed", "1",
    ],
    "diffuse": [
        "diffuse", "--graph", "GRAPH", "--transmission-prob", "0.5", "--threshold", "0.5",
        "--strategy", "degree", "--count", "2", "--seed", "1",
    ],
    "intervene": [
        "intervene", "--graph", "GRAPH", "--pf", "0.5", "--pt", "0.4", "--td", "0.4",
        "--tc", "0.1", "--false-strategy", "random", "--false-count", "2",
        "--true-strategy", "degree", "--true-count", "3", "--seed", "1",
    ],
}
FLAGS = [
    (command, i)
    for command, argv in COMMANDS.items()
    for i, token in enumerate(argv)
    if token.startswith("--") and token != "--graph"
]


def run_main(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, at", FLAGS, ids=[f"{c}{COMMANDS[c][i]}" for c, i in FLAGS])
def test_each_option_takes_each_value(command, at, tmp_path, capsys):
    graph = tmp_path / "g.edges"
    save_edge_list(build_graph(12, [(v, (v * 5 + 1) % 12) for v in range(12)]), graph)
    argv = [str(graph) if token == "GRAPH" else token for token in COMMANDS[command]]
    code, out, err = run_main(argv, capsys)
    assert (code, err) == (0, "") and out
    for value in VALUES:
        argv[at + 1] = str(value)
        code, out, err = run_main(argv, capsys)
        if code == 0:
            assert err == "" and out
        else:
            assert code in (1, 2) and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
