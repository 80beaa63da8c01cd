"""Write ``references.json``: every workload's output digest at every reference
seed, as the library in this checkout computes it.

    python3 perfbench/make_references.py

The pool holds the preset seed 1729 and nine more; runs with any other seed
map onto it.  The held-out seed is not in the pool, so routine runs never use
it; run it by name to check a change on an input it was not tuned on.
Regenerate only for a change that is meant to alter battery results.
"""

from __future__ import annotations

import json
import sys

import run

DEFAULT_SEED = 1729
HELD_OUT_SEED = 2718
POOL = [0, 1, 2, 3, 4, 5, 6, 7, 8, DEFAULT_SEED]


def main() -> int:
    if not run.use_checkout_src():
        print(f"no layercast sources under {run.SRC}", file=sys.stderr)
        return 2
    import workloads

    results = {}
    for w in workloads.WORKLOADS.values():
        results[w.name] = {}
        for seed in POOL + [HELD_OUT_SEED]:
            results[w.name][str(seed)] = w.digest(w.call(w.config(seed)))
            print(w.name, seed, results[w.name][str(seed)], flush=True)
    refs = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "pool": POOL,
        "results": results,
    }
    with open(workloads.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
