"""The soundness gate: pairs that are equivalent by construction are never
refuted and never ``distinct``, and a larger budget never turns a verdict
into its opposite.

Every rule that decides a pair ``distinct`` (an invariant in ``refute``, an
exhausted class, a closed deform search) is checked here against one set of
pairs, so a later rule passes the same gate as the ones before it.  The
corpora are seeded; a pair this gate finds is a soundness defect of the
program, not of the corpus.
"""

import random
from collections import Counter
from itertools import islice, product

from gbsdeform import (
    Budget, ExampleParams, ExpansionBounds, apply_move, canonical_certificate,
    decide_equivalence, example_graph, refute,
)

from strategies import (DIFFERENTIAL_BUDGETS, neighbor_moves, random_small_graph,
                        scramble_with_end_swaps)
from test_explore import differential_corpus

# Moved copies: a random graph of 1-3 vertices and itself moved by 1-3 moves of
# the pair's class, with expansion factors up to 7 (past every budget's
# ``max_n``), then relabeled, sign-flipped and read from swapped ends.
MOVED_COPIES = 1000
COPY_MOVES = ExpansionBounds(max_n=7)
# The first quarter of the differential corpus, for the cross-budget check.
CROSS_BUDGET_PAIRS = 100


def _assert_sound(g1, g2, move_class, budget):
    """No refutation and no ``distinct``; an ``equivalent`` path replays from
    g1 to a graph canon-equal to g2.  Returns the verdict's kind."""
    assert refute(g1, g2, move_class) is None
    v = decide_equivalence(g1, g2, move_class, budget)
    assert v.kind != "distinct", v
    if v.kind == "equivalent":
        g = g1
        for move in v.path:
            g = apply_move(g, move)
        assert canonical_certificate(g) == canonical_certificate(g2)
    return v.kind


def test_no_moved_copy_is_refuted_or_distinct():
    kinds = Counter()
    for seed in range(MOVED_COPIES):
        rng = random.Random(50_000 + seed)
        move_class = ("slide", "deform")[seed % 2]
        budget = DIFFERENTIAL_BUDGETS[seed // 2 % len(DIFFERENTIAL_BUDGETS)]
        g = moved = random_small_graph(rng)
        for _ in range(rng.randint(1, 3)):
            if moves := neighbor_moves(moved, move_class, COPY_MOVES):
                moved = apply_move(moved, rng.choice(moves))
        kinds[_assert_sound(g, scramble_with_end_swaps(moved, seed), move_class, budget)] += 1
    # The search meets most copies, so the gate replays paths, not only kinds.
    assert kinds["equivalent"] > MOVED_COPIES * 9 // 10, kinds


def test_no_pair_of_the_paper_family_is_refuted_or_distinct():
    # X and Y are joined by a four-move deformation for every m, n, r, s.
    for m, n, r, s in product((1, 2, 3), repeat=4):
        p = ExampleParams(m, n, r, s)
        x, y = example_graph("X", p), example_graph("Y", p)
        for budget in DIFFERENTIAL_BUDGETS:
            _assert_sound(x, y, "deform", budget)


def test_a_larger_budget_never_reverses_a_verdict():
    # Each pair under its budget and under one larger in every field.  A larger
    # budget may decide an unknown pair, or leave a bounded distinct unknown
    # (larger expansion factors can open a class that closed under the smaller
    # ones), but it never turns equivalent into distinct or back, and a verdict
    # that rests on an invariant or an exhausted class does not depend on it.
    for g1, g2, move_class, b in islice(differential_corpus(), CROSS_BUDGET_PAIRS):
        larger = Budget(max_depth=b.max_depth + 1, max_nodes=b.max_nodes * 10,
                        max_abs_index=b.max_abs_index * 10,
                        expansion=ExpansionBounds(max_n=b.expansion.max_n + 2,
                                                  max_subset_size=b.expansion.max_subset_size + 1))
        small = decide_equivalence(g1, g2, move_class, b)
        large = decide_equivalence(g1, g2, move_class, larger)
        assert {small.kind, large.kind} != {"equivalent", "distinct"}, (small, large)
        if small.evidence in ("invariant", "exhausted"):
            assert large == small
