#!/usr/bin/env python3
"""Records the reference outputs that run.py checks every pass against.

    python3 perfbench/record_references.py [WORKLOAD ...]

For each workload, runs set-up and one untraced pass for every reference seed
of the full sizes (0 .. REF_SEEDS-1) and for seed 0 of the tiny sizes, and
stores each command's observed output in perfbench/references.json. Run it on
the code whose outputs are to be the reference; entries for workloads not
named are kept.
"""

from __future__ import annotations

import json
import sys

from run import REF_SEEDS, REFERENCES, WORKLOADS, Run, load_generator, load_references


def record(names: list[str]) -> int:
    gen = load_generator()
    for name in names:
        jobs = [("full", s) for s in range(REF_SEEDS)] + [("tiny", 0)]
        for size, seed in jobs:
            run = Run(WORKLOADS[name], seed, size)
            run.set_up(gen, reps=1)
            result = run.run_pass(0, False, None, {})
            if result.failed or result.errors:
                print(f"{run.ref_key()}: {result.errors}", file=sys.stderr)
                return 1
            print(f"{run.ref_key()}: {result.wall_s:.2f} s", flush=True)
            # re-read first, so that recorders for different workloads can run
            # side by side
            refs = load_references()
            refs[run.ref_key()] = result.observations
            REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:] or sorted(WORKLOADS)))
