"""Pin the correctness digests the benchmark checks against.

Run from the root of a checkout::

    python3 perfbench/pin.py --size full --seeds 7 11 13 --held-out 2017

For every seed and workload this runs one untraced pass exactly as
``run.py`` does and records the digest of each cell's ``RunStats`` and of
the figure output in ``pins.json``.  Benchmark seeds without pins of
their own map onto the rotation seeds (every pinned seed except the
held-out one).  Re-pin only after a reviewed change to the simulated
results: a pin that moves is a correctness change, not a speed-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--held-out", type=int, required=True)
    args = parser.parse_args(argv)

    path = run.PINS
    everything = json.loads(path.read_text()) if path.exists() else {}
    pins = everything.setdefault(args.size, {"seeds": {}})
    seeds = sorted(set(args.seeds) | {args.held_out})
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            session = run.Session(Path.cwd(), workload, args.size, seed)
            try:
                _, result, _ = session.one_pass(workloads.jobs_for(workload))
            finally:
                session.close()
            if result.get("error"):
                print(result["error"], file=sys.stderr)
                return 1
            pins["seeds"].setdefault(str(seed), {})[workload] = {
                "figure": result["figure"],
                "cells": result["cells"],
            }
            print(f"pinned {args.size} seed {seed} {workload}: "
                  f"{len(result['cells'])} cells, {result['wall_s']:.2f} s")
    pins["held_out"] = args.held_out
    pins["rotation"] = sorted(int(s) for s in pins["seeds"] if int(s) != args.held_out)
    path.write_text(json.dumps(everything, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
