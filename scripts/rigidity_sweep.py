#!/usr/bin/env python3
"""Run seeded rigidity trials in bulk and summarize.

Each trial scrambles a strongly slide-free reduced graph with random legal
moves, reduces the result, and checks it is the original up to relabeling
and sign flips.  Any failure prints a full replayable witness: the start
graph as indented .gbs text, then the moves as an indented move script, each
block readable by ``gbsdeform apply`` once dedented.
"""

import argparse
import sys
import textwrap
import time

from gbsdeform import (DEFAULT_SIZE_CAP, ExpansionBounds, RandomGraphSpec, format_script,
                       rigidity_trial, serialize_graph)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0, help="base seed")
    ap.add_argument("--moves", type=int, default=8)
    ap.add_argument("--max-vertices", type=int, default=5)
    ap.add_argument("--max-n", type=int, default=9)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error("--trials must be at least 1")
    if args.max_vertices < 2:
        ap.error("--max-vertices must be at least 2")
    if args.max_vertices > DEFAULT_SIZE_CAP:
        ap.error(f"--max-vertices must be at most {DEFAULT_SIZE_CAP}")
    if args.moves < 0:
        ap.error("--moves must be at least 0")
    if args.max_n < 0:
        ap.error("--max-n must be at least 0")

    bounds = ExpansionBounds(max_n=args.max_n)
    passed = 0
    start = time.perf_counter()
    for i in range(args.trials):
        seed = args.seed + i
        nv = 2 + seed % (args.max_vertices - 1)
        spec = RandomGraphSpec(num_vertices=nv, num_edges=nv - 1 + seed % 2,
                               index_range=(2, 9), require="strongly_slide_free")
        trial = rigidity_trial(spec, num_moves=args.moves, seed=seed, bounds=bounds)
        if trial.passed:
            passed += 1
        else:
            print(f"FAIL seed={seed}")
            print("  start:")
            print(textwrap.indent(serialize_graph(trial.start), "    "), end="")
            print("  moves:")
            print(textwrap.indent(format_script(trial.moves), "    "), end="")
    elapsed = time.perf_counter() - start
    print(f"{passed}/{args.trials} trials passed in {elapsed:.2f}s")
    return 0 if passed == args.trials else 1


if __name__ == "__main__":
    sys.exit(main())
