#!/usr/bin/env python3
"""Tabulate slide-ladder certificates across parameter choices.

Each row instantiates the two-vertex family at (m, n, r, s), certifies the
ladder to the requested depth, and prints the free-edge indices level by
level.  Rows whose parameters violate the divisibility hypotheses are
reported as skipped.
"""

import argparse
import itertools
import sys

from gbsdeform import ExampleParams, LadderHypothesisError, index_str, verify_slide_ladder


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=8)
    ap.add_argument("--max-param", type=int, default=4,
                    help="sweep m, n over 2..max-param, r, s fixed small primes")
    args = ap.parse_args()
    if args.depth < 0:
        ap.error("--depth must be at least 0")
    if args.max_param < 3:
        ap.error("--max-param must be at least 3")

    failed = False
    for m, n in itertools.permutations(range(2, args.max_param + 1), 2):
        for r, s in ((5, 7), (7, 5)):
            p = ExampleParams(m, n, r, s)
            tag = f"(m={m}, n={n}, r={r}, s={s})"
            try:
                cert = verify_slide_ladder(p, args.depth)
            except LadderHypothesisError as exc:
                print(f"{tag}: skipped ({exc})")
                continue
            status = "ok" if cert.ok else "FAILED"
            failed |= not cert.ok
            # One index at a time: a row at depth 4,500 is megabytes of text.
            print(f"{tag}: {status}  indices:", end="")
            for level in cert.levels:
                print("", index_str(level.index), end="")
            print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
