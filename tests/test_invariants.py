"""The abelianization refuter: H1 of the fundamental group, kept by every move
and every sign flip, agrees with the oracle, and refutes under both move
classes with a reason that names both groups."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsdeform import (
    MOVE_CLASSES, Budget, ExampleParams, ExpansionBounds, abelianization, apply_move,
    decide_equivalence, example_graph, graph_from_parts, refute,
)

import oracles
from strategies import connected_graphs, flip_signs, neighbor_moves, scramble, sign_flips

BOUNDS = ExpansionBounds(max_n=4, max_subset_size=2)
SEARCH = Budget(max_depth=2, max_nodes=400, max_abs_index=200,
                expansion=ExpansionBounds(max_n=3, max_subset_size=2))
ORACLE_GRAPHS = 2000


def _seeded_graph(seed):
    """1-5 vertices, a spanning tree and 0-3 more edges, indices up to 1, 3, 6,
    30 or 10**6 in absolute value."""
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(rng.randint(1, 5))]
    hi = rng.choice((1, 3, 6, 30, 10**6))

    def index():
        return rng.choice((1, -1)) * rng.randint(1, hi)

    edges = [(f"e{i}", verts[rng.randrange(i)], verts[i], index(), index())
             for i in range(1, len(verts))]
    for _ in range(rng.randint(0, 3)):
        edges.append((f"e{len(edges) + 1}", rng.choice(verts), rng.choice(verts),
                      index(), index()))
    return graph_from_parts(verts, edges)


def test_the_abelianization_agrees_with_the_oracle():
    for seed in range(ORACLE_GRAPHS):
        g = _seeded_graph(seed)
        assert abelianization(g) == oracles.abelianization(g), (seed, g)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_vertices=4, max_extra_edges=2), st.data())
def test_every_move_kind_and_sign_flip_keeps_the_abelianization(g, data):
    group = abelianization(g)
    assert abelianization(flip_signs(g, *data.draw(sign_flips(g)))) == group
    for move in neighbor_moves(g, "deform", BOUNDS):
        assert abelianization(apply_move(g, move)) == group, move


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=3, max_extra_edges=2), st.sampled_from(MOVE_CLASSES),
       st.integers(0, 2**32))
def test_a_replayed_equivalent_path_keeps_the_abelianization(g, move_class, seed):
    # g against itself moved by one or two moves of the class and scrambled:
    # never refuted, and each graph on an equivalent path has g's group.
    rng = random.Random(seed)
    moved = g
    for _ in range(rng.randint(1, 2)):
        if moves := neighbor_moves(moved, move_class, SEARCH.expansion):
            moved = apply_move(moved, rng.choice(moves))
    target = scramble(moved, seed)
    group = abelianization(g)
    assert refute(g, target, move_class) is None
    verdict = decide_equivalence(g, target, move_class, SEARCH)
    assert verdict.kind != "distinct", verdict
    for move in verdict.path or ():
        g = apply_move(g, move)
        assert abelianization(g) == group
    assert abelianization(target) == group


@pytest.mark.parametrize("move_class", MOVE_CLASSES)
def test_the_abelianization_refutes_under_both_move_classes(move_class):
    # X at s = 7 and at s = 11: equal Betti numbers and vertex counts, and
    # relation determinants r*(m*n - 1)*s of 175 and 275.
    x7 = example_graph("X", ExampleParams(2, 3, 5, 7))
    x11 = example_graph("X", ExampleParams(2, 3, 5, 11))
    assert abelianization(x7) == abelianization(example_graph("Y", ExampleParams(2, 3, 5, 7)))
    reason = "abelianization differs (Z + Z/175 vs Z + Z/275)"
    assert refute(x7, x11, move_class) == reason
    verdict = decide_equivalence(x7, x11, move_class, Budget(max_depth=0))
    assert (verdict.kind, verdict.reason, verdict.evidence) == ("distinct", reason, "invariant")


def test_a_group_is_written_with_its_free_rank_and_factors():
    one = graph_from_parts(["A"], [("e", "A", "A", 1, 1), ("f", "A", "A", 2, 8),
                                   ("g", "A", "A", 3, -3)])
    assert abelianization(one) == (3, (6,))
    assert refute(one, graph_from_parts(["A"], [("e", "A", "A", 1, 1), ("f", "A", "A", 1, 1),
                                                 ("g", "A", "A", 1, 1)]), "slide") == \
        "abelianization differs (Z^3 + Z/6 vs Z^4)"
