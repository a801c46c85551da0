#!/usr/bin/env python3
"""Print the verdict table of ROADMAP's sample S and tree stress.

Sample S is 6,000 seeded pairs of random graphs on 1-3 vertices with equal
vertex counts and Betti numbers, each decided under both move classes, its
budget chosen by the seed.  The tree stress is 1,500 seeded pairs of random
trees on 3 or 4 vertices (``strategies.tree_stress_pair``), decided under
``deform`` and ``strategies.tree_stress_budget``.  For each of the three runs the script prints how many verdicts
have each (kind, evidence, reason of an ``unknown``), then one sha256 over the
"kind | reason | path" line of every verdict, the runs in the order printed
and the pairs in seed order: two checkouts that print the same digest gave
every pair the same verdict, reason and path.

    python3 scripts/verdict_table.py

It takes no flags and runs in a few seconds.  Standard library only, plus the
test generators of ``tests/strategies.py``, which need hypothesis as tier-1 does.
"""

import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from gbsdeform import Budget, ExpansionBounds, betti_number, decide_equivalence  # noqa: E402
from strategies import (DIFFERENTIAL_BUDGETS, corpus_line, random_small_graph,  # noqa: E402
                        tree_stress_budget, tree_stress_pair)

SAMPLE_S_PAIRS = 6000
TREE_STRESS_PAIRS = 1500
# Pair ``seed`` of sample S runs under budget ``seed % 6``.
SAMPLE_S_BUDGETS = DIFFERENTIAL_BUDGETS + (
    Budget(max_depth=3, max_nodes=3000, max_abs_index=200,
           expansion=ExpansionBounds(max_n=4, max_subset_size=2)),)


def sample_s(move_class, seeds=range(SAMPLE_S_PAIRS)):
    """The verdict of each pair of sample S under the move class: g1 is the first
    graph ``random.Random(10**6 + seed)`` draws, and g2 the next it draws on as
    many vertices whose Betti number is g1's."""
    for seed in seeds:
        rng = random.Random(10**6 + seed)
        g1 = random_small_graph(rng)
        g2 = random_small_graph(rng, len(g1.vertices))
        while betti_number(g2) != betti_number(g1):
            g2 = random_small_graph(rng, len(g1.vertices))
        yield decide_equivalence(g1, g2, move_class, SAMPLE_S_BUDGETS[seed % 6])


def tree_stress(seeds=range(TREE_STRESS_PAIRS)):
    """The deform verdict of each tree-stress pair."""
    for seed in seeds:
        yield decide_equivalence(*tree_stress_pair(seed), "deform", tree_stress_budget(seed))


def main() -> int:
    digest = hashlib.sha256()
    for title, verdicts in (("sample S, deform", sample_s("deform")),
                            ("sample S, slide", sample_s("slide")),
                            ("tree stress, deform", tree_stress())):
        counts = Counter()
        for v in verdicts:
            counts[v.kind, v.evidence, v.reason if v.kind == "unknown" else None] += 1
            digest.update(f"{corpus_line(v)}\n".encode())
        print(f"{title}: {sum(counts.values())} pairs")
        for (kind, evidence, reason), count in sorted(counts.items(), key=str):
            print(f"  {kind} {evidence or ''}{reason or ''}: {count}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
