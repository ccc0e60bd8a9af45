#!/usr/bin/env python3
"""Store reference outputs for the correctness gate.

Usage, from the root of a checkout:

    python3 stablebench/make_refs.py --seeds 0-31 [--workload mc_paper ...]

Runs each workload's operation once per seed at full size and merges the
parsed outputs into ``stablebench/refs/<workload>.json``. An output that
fails the workload's check against the true model is not stored. Only
regenerate references from a commit whose numbers are trusted: the gate
compares every later commit with them.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import gate
import workloads

WORK_DIR = Path(__file__).resolve().parent / "_work"


def _seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-31 or 7")
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    WORK_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        w = workloads.WORKLOADS[name]
        stored = {}
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(dir=WORK_DIR) as d:
                out = w.outputs(w.op(w.setup(seed, w.full, Path(d))))
            problems = w.sanity(out, w.full)
            if problems:
                print(f"{name} seed {seed}: not stored: {problems}", file=sys.stderr)
                return 1
            stored[seed] = out
            print(f"{name} seed {seed}: ok", flush=True)
        gate.store_references(name, stored)
    return 0


if __name__ == "__main__":
    sys.exit(main())
