"""Run one workload of the layercast benchmark and print its metrics.

    python3 perfbench/run.py --workload dense_er_paper --seed 1729 --seconds 34 --trace 0

The library is imported from ``src/`` next to this directory.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
measures the per-layer metrics of traced batteries, each paired with an
untraced one whose result it must equal exactly.  Every battery's
output is checked against the reference committed for its seed.

Standard output ends with two JSON lines: the full report (provenance, every
sample, sample counts), then the result object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Modules that import layercast (workloads, tracer) are imported inside the
# functions below, once use_checkout_src() has put the checkout's src first.

#: Fresh-interpreter imports per run behind setup_s; the median is reported.
SETUP_REPEATS = 9
#: ``-X importtime`` runs behind stats.import_s; the median is reported.
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120

_SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import layercast\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def use_checkout_src() -> bool:
    """Put the checkout's ``src`` first on ``sys.path``; False if it is absent."""
    if not (SRC / "layercast" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def _child(args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )


def setup_seconds() -> float:
    """Seconds a fresh interpreter spends in ``import layercast``."""
    return float(_child(["-c", _SETUP_CHILD]).stdout.split()[-1])


def stats_import_seconds() -> float:
    """Median ``-X importtime`` cumulative time of ``layercast.stats`` (0 if not imported)."""
    times = []
    for _ in range(IMPORTTIME_REPEATS):
        cumulative_us = 0
        for line in _child(["-X", "importtime", "-c", "import layercast"]).stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "layercast.stats":
                cumulative_us = int(fields[1])
        times.append(cumulative_us / 1e6)
    return statistics.median(times)


@dataclass
class Sample:
    seconds: float
    ok: bool
    digest: object


def timed_call(workload, config, seed: int, refs: dict) -> Sample:
    """One timed call into the workload's entry point, checked outside the timing.

    A call that raises is a failed sample.
    """
    import workloads

    t0 = time.perf_counter()
    try:
        result = workload.call(config)
    except Exception:  # a failing battery is counted, not fatal
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return Sample(seconds, False, None)
    seconds = time.perf_counter() - t0
    digest = workload.digest(result)
    return Sample(seconds, workloads.check(workload, seed, digest, refs), digest)


def repeat(seconds: float, start: float, once) -> list:
    """Call ``once()`` until the next call would end more than ``seconds``
    after ``start``, predicting its length by the median call so far.  At
    least one call; returns what the calls returned."""
    results, took = [], []
    while True:
        t0 = time.perf_counter()
        results.append(once())
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return results


def quartiles(values) -> list:
    values = list(values)
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def measure_end_to_end(workload, seed: int, seconds: float, refs: dict):
    """battery_s, setup_s, peak_rss_mb and passed_share, untraced."""
    config = workload.config(seed)
    start = time.perf_counter()
    setup = []

    def setup_on_schedule():
        # The fresh imports keep pace with the run's clock, one at the start
        # and the rest spread in proportion to elapsed time, so setup_s
        # samples the whole run even when only one or two batteries fit.
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup) < 1 + int((SETUP_REPEATS - 1) * share):
            setup.append(setup_seconds())

    def once() -> Sample:
        setup_on_schedule()
        sample = timed_call(workload, config, seed, refs)
        setup_on_schedule()
        return sample

    samples = repeat(seconds, start, once)
    setup.extend(setup_seconds() for _ in range(SETUP_REPEATS - len(setup)))
    battery = [s.seconds for s in samples]
    passed = sum(s.ok for s in samples)
    metrics = {
        "battery_s": (statistics.median(battery), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "passed_share": (passed / len(samples), "share"),
    }
    detail = {
        "battery_s": {"samples": battery, "quartiles": quartiles(battery)},
        "setup_s": {"samples": setup, "quartiles": quartiles(setup)},
    }
    return samples, metrics, detail


def measure_layers(workload, seed: int, seconds: float, refs: dict):
    """Per-layer metrics from traced batteries, each paired with an untraced
    battery run just before it."""
    from tracer import COUNT_NAMES, SPAN_NAMES, Tracer, peak_mib

    import_s = stats_import_seconds()
    config = workload.config(seed)

    def pair():
        base = timed_call(workload, config, seed, refs)
        tracer = Tracer()
        with tracer.installed():
            traced = timed_call(workload, config, seed, refs)
        if traced.digest != base.digest:
            raise RuntimeError(
                f"{workload.name}: traced digest {traced.digest!r} != untraced {base.digest!r}"
            )
        unentered = [name for name in workload.spans if not tracer.busy[name]]
        if unentered:
            raise RuntimeError(
                f"{workload.name}: the battery no longer calls what {unentered} wrap"
            )
        return base, traced, tracer

    pairs = repeat(seconds, time.perf_counter(), pair)
    first = pairs[0][2]
    for _, _, tracer in pairs[1:]:
        if tracer.counts != first.counts:
            raise RuntimeError(f"{workload.name}: layer counts differ between traced batteries")

    def median(per_pair):
        return statistics.median(per_pair(*p) for p in pairs)

    metrics = {name: (median(lambda b, s, t: t.busy[name]), "s") for name in SPAN_NAMES}
    metrics.update({name: (first.counts[name], "count") for name in COUNT_NAMES})
    metrics["intervention.false_distinct_share"] = (first.false_distinct_share(), "share")
    peaks = peak_mib(first.peak_graphs)
    metrics["centrality.closeness_peak_mb"] = (peaks["closeness"], "MiB")
    metrics["centrality.betweenness_peak_mb"] = (peaks["betweenness"], "MiB")
    metrics["stats.import_s"] = (import_s, "s")
    metrics["harness.self_s"] = (median(lambda b, s, t: s.seconds - t.top_level_s - t.own_s), "s")
    metrics["trace.overhead_s"] = (median(lambda b, s, t: s.seconds - b.seconds), "s")
    detail = {
        "untraced_battery_s": [b.seconds for b, _, _ in pairs],
        "traced_battery_s": [s.seconds for _, s, _ in pairs],
        "tracer_own_s": [t.own_s for _, _, t in pairs],
        "digest": pairs[0][0].digest,
    }
    samples = [sample for b, s, _ in pairs for sample in (b, s)]
    return samples, metrics, detail


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(seed: int, input_seed: int) -> dict:
    import numpy
    import scipy

    import layercast

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "layercast": layercast.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "input_seed": input_seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, refs: dict | None = None):
    """Measure one workload; returns (report, result) as printed by :func:`main`."""
    import workloads

    refs = workloads.load_references() if refs is None else refs
    workload = workloads.WORKLOADS[name]
    input_seed = workloads.input_seed(seed, refs)
    measure = measure_layers if trace else measure_end_to_end
    samples, metrics, detail = measure(workload, input_seed, seconds, refs)
    failed = sum(not s.ok for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    report = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(seed, input_seed),
        "sample_count": len(samples),
        "samples_ok": [s.ok for s in samples],
        **detail,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_src():
        print(f"perfbench: no layercast package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
