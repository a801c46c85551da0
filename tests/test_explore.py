import gc
import hashlib
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsdeform import (
    Budget,
    EdgeIndexedGraph,
    End,
    Expansion,
    ExpansionBounds,
    Verdict,
    apply_move,
    betti_number,
    canonical_certificate,
    class_invariant,
    decide_equivalence,
    explore_class,
    format_script,
    graph_from_parts,
    is_isomorphic,
    parse_graph,
    refute,
    serialize_graph,
)
from gbsdeform import explore
from gbsdeform.canonical import DEFAULT_SIZE_CAP
from gbsdeform.counterexample import ExampleParams, example_graph, verify_slide_ladder
from gbsdeform.cli import adjacency_dot, dump_visited, main

from oracles import abelianization, least_meeting_sum
from strategies import (X_TEXT, Y_TEXT, connected_graphs, ladder_level, loop, neighbor_moves,
                        scramble)

P = ExampleParams(2, 3, 5, 7)
DEFORM_BUDGET = Budget(max_depth=4, max_nodes=100_000, max_abs_index=100,
                       expansion=ExpansionBounds(max_n=10, max_subset_size=3))


@pytest.fixture
def x():
    return example_graph("X", P)


@pytest.fixture
def y():
    return example_graph("Y", P)


def test_slide_class_is_a_ray_prefix(x):
    report = explore_class(x, "slide", Budget(max_depth=6, max_abs_index=10**7))
    assert len(report.members) == 7
    assert not report.closed
    ladder_certs = [canonical_certificate(ladder_level(P, k)) for k in range(7)]
    assert list(report.members) == ladder_certs
    degrees = sorted(len(report.adjacency[c]) for c in report.members)
    assert degrees == [1, 1, 2, 2, 2, 2, 2]


def test_slide_depths_follow_the_ladder(x):
    report = explore_class(x, "slide", Budget(max_depth=3, max_abs_index=10**6))
    ladder_certs = [canonical_certificate(ladder_level(P, k)) for k in range(4)]
    assert report.depths == {cert: k for k, cert in enumerate(ladder_certs)}
    assert list(report.depths) == ladder_certs


def test_unit_loop_slide_class_is_closed():
    g = parse_graph("vertex A\nedge e A A 1 1")
    report = explore_class(g, "slide", Budget(max_depth=10))
    assert len(report.members) == 1
    assert report.closed


def test_point_deform_class_is_closed():
    g = parse_graph("vertex A")
    report = explore_class(g, "deform", Budget(max_depth=1))
    assert len(report.members) == 1
    assert report.closed


def test_index_cap_marks_report_open(x):
    report = explore_class(x, "slide", Budget(max_depth=6, max_abs_index=100))
    assert "index" in report.caps
    assert not report.closed
    assert len(report.members) == 1


def test_node_cap_marks_report_open(x):
    # The cap is checked between layers: the first layer, started with one
    # member, is admitted whole, and the cap refuses the second.
    report = explore_class(x, "deform", Budget(max_depth=2, max_nodes=5,
                                               expansion=ExpansionBounds(max_n=10)))
    assert "node" in report.caps
    assert not report.closed
    assert len(report.members) == 19
    assert set(report.depths.values()) == {0, 1}


@pytest.mark.parametrize("max_depth, max_nodes, cap", [
    (1, 100, "depth"), (2, 5, "node"), (1, 5, "depth"),
], ids=["depth", "node", "depth-before-node"])
def test_a_stop_records_its_cap_and_empties_the_frontier(x, max_depth, max_nodes, cap):
    # After one layer of 19 classes, the side is at the depth bound, past
    # max_nodes, or both, when the depth bound is the one recorded.  The
    # refused advance() builds no step, records the stop's cap, empties the
    # frontier and keeps the depth.
    budget = Budget(max_depth=max_depth, max_nodes=max_nodes,
                    expansion=ExpansionBounds(max_n=10))
    side = explore._Side(x, "deform", budget, explore._Names())
    for _ in side.grow(side.advance()):
        pass
    assert (len(side.visited), side.depth, side.caps) == (19, 1, set()) and side.frontier
    assert list(side.advance()) == []
    assert (side.caps, side.frontier, side.depth) == ({cap}, [], 1)


@pytest.mark.parametrize("text, move_class, max_nodes", [
    ("vertex A", "deform", 1),
    ("vertex v0\nvertex v1\nvertex v2\nedge e1 v0 v1 -1 -1\nedge e2 v1 v2 1 1\n"
     "edge e3 v1 v2 1 1", "slide", 4),
], ids=["point", "slide-class-of-4"])
def test_a_class_of_exactly_max_nodes_members_closes(text, move_class, max_nodes):
    # The cap refuses a layer only once a side holds more than max_nodes
    # certificates, so the layer that finds nothing new still runs.
    report = explore_class(parse_graph(text), move_class,
                           Budget(max_depth=2, max_nodes=max_nodes))
    assert report.closed and len(report.members) == max_nodes


def _path(n, index, last=None):
    """A path on n vertices whose edges have indices (index, index), or ``last``
    at the last edge."""
    verts = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", verts[i], verts[i + 1], index, index) for i in range(n - 1)]
    if last:
        edges[-1] = (*edges[-1][:3], *last)
    return graph_from_parts(verts, edges)


def test_size_cap_marks_report_open():
    # Expansions of a 12-vertex path have 13 vertices, past the certificate
    # cap; they are dropped like any capped graph instead of raising.
    report = explore_class(_path(DEFAULT_SIZE_CAP, 2), "deform",
                           Budget(max_depth=1, max_abs_index=100))
    assert "size" in report.caps
    assert not report.closed
    assert "index" not in report.caps and "node" not in report.caps
    assert all(len(g.vertices) <= DEFAULT_SIZE_CAP for g in report.members.values())


def test_class_graph_labels_are_distinct(x):
    # The deform class of `explore --depth 2 --max-n 5 --max-index 100`.
    report = explore_class(x, "deform", Budget(max_depth=2, max_abs_index=100,
                                               expansion=ExpansionBounds(max_n=5)))
    labels = re.findall(r'\[label="([0-9a-f]{12})"\]', adjacency_dot(report))
    assert len(labels) == len(report.members) == 104
    assert len(set(labels)) == 104


def test_size_cap_leaves_equivalence_open():
    # Both paths' groups abelianize to Z + (Z/2)^11, so no invariant decides
    # the pair; the expansions of either reach 13 vertices.
    verdict = decide_equivalence(_path(DEFAULT_SIZE_CAP, 2), _path(DEFAULT_SIZE_CAP, 2, (4, 2)),
                                 "deform", Budget(max_depth=2, max_abs_index=100))
    assert verdict.kind == "unknown"
    assert verdict.reason == "budget exhausted (depth, size cap)"


def test_deform_equivalence_of_the_example_pair(x, y):
    verdict = decide_equivalence(x, y, "deform", DEFORM_BUDGET)
    assert verdict.kind == "equivalent"
    assert len(verdict.path) <= 4
    g = x
    for move in verdict.path:
        g = apply_move(g, move)
    assert is_isomorphic(g, y)


# Each field is checked where the budget is built: a search adds and compares
# them, so a value that is not a count would fail deep inside it, or read as
# an exhausted budget.
@pytest.mark.parametrize("field, value", [
    ("max_depth", "3"), ("max_depth", -1), ("max_depth", 2.0), ("max_nodes", -5),
    ("max_nodes", -10**5000), ("max_abs_index", True),
], ids=["text", "negative", "float", "negative-nodes", "long-negative", "bool"])
def test_a_budget_field_that_is_not_a_count_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an int of at least 0, got "):
        Budget(**{field: value})


def test_a_budget_takes_zero_counts_and_only_expansion_bounds():
    assert Budget(0, 0, 0, ExpansionBounds(0, 0)).max_depth == 0
    with pytest.raises(ValueError, match="^expansion must be an ExpansionBounds, got "):
        Budget(expansion=(6, 3))


@pytest.mark.parametrize("search", [
    lambda g: explore_class(g, "bogus", Budget(max_depth=0)),
    lambda g: decide_equivalence(g, g, "bogus", Budget(max_depth=0)),
    lambda g: refute(g, g, "bogus"),
], ids=["explore_class", "decide_equivalence", "refute"])
def test_unknown_move_class_is_rejected_up_front(x, search):
    with pytest.raises(ValueError, match="unknown move class 'bogus'"):
        search(x)


def test_no_graph_outlives_a_search(x, y):
    # Each search keeps its table of names to itself; once its results are
    # dropped, none of the graphs it built is reachable.
    def live_graphs():
        gc.collect()
        return sum(isinstance(obj, EdgeIndexedGraph) for obj in gc.get_objects())

    before = live_graphs()
    verdict = decide_equivalence(x, y, "deform", Budget(max_depth=2, max_abs_index=100))
    report = explore_class(x, "deform", Budget(max_depth=1))
    ladder = verify_slide_ladder(P, 20)
    assert verdict.kind == "unknown" and len(report.members) > 1 and ladder.ok
    del verdict, report, ladder
    assert live_graphs() <= before


def test_betti_refuter(x):
    verdict = decide_equivalence(x, parse_graph("vertex A"), "deform", DEFORM_BUDGET)
    assert verdict.kind == "distinct"
    assert "betti" in verdict.reason
    assert verdict.evidence == "invariant"
    assert Verdict("distinct", None, verdict.reason).evidence is None


def test_slide_count_refuter(x):
    two_edges = parse_graph(
        "vertex A\nvertex B\nedge l A A 30 5\nedge t A B 20 7\nedge u A B 2 2")
    verdict = decide_equivalence(x, two_edges, "slide", Budget(max_depth=2))
    assert (verdict.kind, verdict.evidence) == ("distinct", "invariant")


def test_slide_vertex_count_refuter(x):
    # Both graphs have Betti number 1, so the Betti refuter passes them on.
    loop = parse_graph("vertex A\nedge l A A 2 3")
    verdict = decide_equivalence(x, loop, "slide", Budget(max_depth=2))
    assert (verdict.kind, verdict.reason, verdict.evidence) == (
        "distinct", "vertex count differs", "invariant")


@pytest.mark.parametrize("text, group", [
    (X_TEXT, (1, (175,))),
    (Y_TEXT, (1, (175,))),
    ("vertex A\nedge e A A 1 1", (2, ())),
    ("vertex A\nedge e A A 1 -1", (1, (2,))),
    ("vertex A\nvertex B\nedge e A B 4 6\nedge f A B 6 4", (1, (2, 10))),
], ids=["X", "Y", "loop-1-1", "loop-1-minus-1", "two-vertices"])
def test_the_abelianization_oracle_matches_groups_known_by_hand(text, group):
    # Z + Z/175 for X and Y; Z^2 and Z + Z/2 for the loops; and for two
    # vertices joined by (4, 6) and (6, 4), the relation matrix has determinant
    # 20 and entries of gcd 2, so Z + Z/2 + Z/10.  Every move keeps the group.
    g = parse_graph(text)
    assert abelianization(g) == group
    for move in neighbor_moves(g, "deform", ExpansionBounds(max_n=3, max_subset_size=2)):
        assert abelianization(apply_move(g, move)) == group


def test_trivially_equivalent_pair(x):
    verdict = decide_equivalence(x, scramble(x, 5), "deform", DEFORM_BUDGET)
    assert (verdict.kind, verdict.evidence) == ("equivalent", "path")
    assert verdict.path == ()


def test_slide_equivalence_is_unknown_on_the_pair(x, y):
    verdict = decide_equivalence(x, y, "slide",
                                 Budget(max_depth=10, max_abs_index=10**12))
    assert verdict.kind == "unknown"


def test_slide_distinct_by_exhaustion(x):
    # No slide is available at all here, so the class closes immediately.
    rigid = parse_graph("vertex A\nvertex B\nedge l A A 30 5\nedge t A B 21 7")
    verdict = decide_equivalence(rigid, x, "slide", Budget(max_depth=4))
    assert verdict.kind == "distinct"
    assert "exhausted" in verdict.reason
    report = explore_class(rigid, "slide", Budget(max_depth=4))
    assert report.closed
    assert canonical_certificate(x) not in report.members


def test_deform_distinct_needs_both_sides_closed():
    unit_loop = parse_graph("vertex A\nedge e A A 1 1")
    minus_loop = parse_graph("vertex A\nedge e A A 1 -1")
    verdict = decide_equivalence(unit_loop, minus_loop, "deform", Budget(max_depth=3))
    assert verdict.kind == "distinct"
    # A factor-1 expansion leaves the closed singleton class of the unit
    # loop, yet joins the pair; one closed side alone must not decide.
    expanded = apply_move(unit_loop, Expansion(
        vertex="A", n=1, moved_ends=(End("e", 0),), new_vertex="Q", new_edge="d"))
    verdict2 = decide_equivalence(unit_loop, expanded, "deform", Budget(max_depth=3))
    assert verdict2.kind == "equivalent"


def test_slide_verdict_deterministic(x, y):
    b = Budget(max_depth=3, max_abs_index=10**6)
    first = decide_equivalence(x, y, "deform", b)
    second = decide_equivalence(x, y, "deform", b)
    assert first == second


def test_budget_monotonicity(x, y):
    small = decide_equivalence(x, y, "deform", DEFORM_BUDGET)
    bigger = decide_equivalence(
        x, y, "deform",
        Budget(max_depth=5, max_nodes=200_000, max_abs_index=150,
               expansion=ExpansionBounds(max_n=10, max_subset_size=3)))
    assert small.kind == "equivalent"
    assert bigger.kind == "equivalent"


def test_unknown_on_tiny_node_budget(x, y):
    verdict = decide_equivalence(x, y, "deform",
                                 Budget(max_depth=4, max_nodes=3, max_abs_index=100,
                                        expansion=ExpansionBounds(max_n=10)))
    assert verdict.kind == "unknown"
    assert verdict.reason == "budget exhausted (index cap, node cap)"


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_vertices=4, max_extra_edges=1, min_abs=2, max_abs=9))
def test_every_member_reachable_and_path_replays(g):
    budget = Budget(max_depth=2, max_nodes=500, max_abs_index=10**6,
                    expansion=ExpansionBounds(max_n=5, max_subset_size=2))
    report = explore_class(g, "deform", budget)
    for cert, member in list(report.members.items())[:6]:
        verdict = decide_equivalence(g, member, "deform", budget)
        assert verdict.kind == "equivalent"
        h = g
        for move in verdict.path:
            h = apply_move(h, move)
        assert canonical_certificate(h) == cert


def test_dump_and_dot_outputs(x):
    report = explore_class(x, "slide", Budget(max_depth=2, max_abs_index=10**6))
    dump = dump_visited(report)
    assert len(dump.strip().split("\n")) == len(report.members)
    assert "vertex A; vertex B;" in dump
    dot = adjacency_dot(report)
    assert dot.startswith("graph classgraph {")
    assert dot.count(" -- ") == 2


# A side's last layer can meet only the other side's root.  The tests below
# cover each way that layer can end: a meeting, a meeting in a layer that
# passes the node cap, and no meeting, after which the layer still counts for
# the reason.

def test_backward_side_meets_the_forward_root_in_its_last_layer(x):
    # No expansion with a factor up to 3 reaches y from x, but y collapses
    # onto x, so only the backward side finds the one-move path.
    y = apply_move(x, Expansion(vertex="A", n=5, moved_ends=(End("l", 1),),
                                new_vertex="Q", new_edge="d"))
    verdict = decide_equivalence(x, y, "deform",
                                 Budget(max_depth=1, expansion=ExpansionBounds(max_n=3)))
    assert verdict.kind == "equivalent"
    assert len(verdict.path) == 1 and isinstance(verdict.path[0], Expansion)
    g = x
    for move in verdict.path:
        g = apply_move(g, move)
    assert canonical_certificate(g) == canonical_certificate(y)


NODE_CAP_BUDGET = Budget(max_depth=2, max_nodes=4, max_abs_index=100,
                         expansion=ExpansionBounds(max_n=3, max_subset_size=2))


# The node cap is checked between layers, and a started layer is admitted
# whole, so a meeting in it counts whatever the order of the layer's steps.
# Each of these pairs has a layer that passes the cap; the ids name what a
# cap checked per result once did to it.
@pytest.mark.parametrize("g1, g2, budget, kind, reason, script", [
    # x's first layer reaches the root with its third move, which fills a
    # node cap of 3.  x's own index 30 is past the index cap, so the backward
    # side cannot meet.
    (X_TEXT, "vertex A\nvertex B\nvertex Q\nedge d A Q 3 1\nedge l Q A 10 5\n"
     "edge t A B 20 7",
     Budget(max_depth=1, max_nodes=3, max_abs_index=25,
            expansion=ExpansionBounds(max_n=3, max_subset_size=2)),
     "equivalent", None, "expand A 3 l:0 as w x\n"),
    # The forward side's first layer leaves it under the node cap, so its
    # last layer runs whole and reaches the backward root.
    ("vertex v0\nedge e1 v0 v0 -3 -5",
     "vertex u0\nvertex u1\nvertex u2\n"
     "edge f0 u0 u1 1 -1\nedge f1 u2 u0 -3 -1\nedge f2 u1 u2 1 -5",
     NODE_CAP_BUDGET, "equivalent", None,
     "expand v0 3 e1:0 as w x\nexpand v0 3 x:0 as w2 x2\n"),
    # The forward side's first layer takes it to 10 certificates, past the
    # cap of 4; the backward side's first layer then meets one of them.
    ("vertex v0\nvertex v1\nedge e1 v0 v1 -2 -6\nedge e2 v0 v1 4 -2",
     "vertex u0\nvertex u1\nvertex u2\nvertex u3\n"
     "edge f0 u0 u2 2 -1\nedge f1 u2 u1 -2 2\nedge f2 u2 u3 -1 -2\nedge f3 u1 u3 3 1",
     NODE_CAP_BUDGET, "equivalent", None,
     "expand v1 3 e1:1 as w x\nexpand v0 -2 e1:0 e2:0 as w2 x2\n"),
    # The collapses, whose results have a vertex fewer than the other root,
    # come before the slide that reaches it and fill the node cap; the layer
    # runs whole and keeps the meeting.
    ("vertex v0\nvertex v1\nvertex v2\nedge e1 v0 v1 1 1\nedge e2 v1 v2 1 3\nedge e3 v1 v1 2 2",
     "vertex u0\nvertex u1\nvertex u2\nedge f0 u2 u1 -2 -6\nedge f1 u1 u2 -3 -1\n"
     "edge f2 u0 u2 1 1",
     Budget(max_depth=1, max_nodes=4, max_abs_index=100,
            expansion=ExpansionBounds(max_n=3, max_subset_size=2)),
     "equivalent", None, "slide e3:0 along e2:0\n"),
], ids=["kept", "dropped-then-met", "dropped", "filled-by-other-sizes"])
def test_a_last_layer_meeting_near_the_node_cap_is_decided_in_full(g1, g2, budget, kind,
                                                                   reason, script):
    verdict = decide_equivalence(parse_graph(g1), parse_graph(g2), "deform", budget)
    assert (verdict.kind, verdict.reason, verdict.evidence) == (kind, reason, "path")
    assert (None if verdict.path is None else format_script(verdict.path)) == script


@pytest.mark.parametrize("g1, g2, move_class, max_abs_index, reason, evidence", [
    # Both loops' groups abelianize to Z + Z, and neither has a move.
    ("vertex A\nedge e A A 1 1", "vertex A\nedge e A A 7 7", "deform", 10**6,
     "deformation class exhausted within bounds", "bounds"),
    ("vertex A\nvertex B\nedge l A A 30 5\nedge t A B 21 7", X_TEXT, "slide", 10**6,
     "slide class exhausted", "exhausted"),
    (X_TEXT, Y_TEXT, "slide", 10**6, "budget exhausted (depth)", None),
    # No move of the path can reach one vertex, so the meeting search skips
    # them all; the class searches' results are new, or past the index cap.
    ("vertex v0\nvertex v1\nvertex v2\nedge e1 v0 v1 -1 -1\nedge e2 v1 v2 1 1", "vertex u0",
     "deform", 10**6, "budget exhausted (depth)", None),
    ("vertex v0\nvertex v1\nvertex v2\nedge e1 v0 v1 5 1\nedge e2 v1 v2 -5 1\n"
     "edge e3 v0 v2 3 5", "vertex u0\nedge f0 u0 u0 3 -125",
     "deform", 100, "budget exhausted (depth, index cap)", None),
    # Only slides keep the other root's 12 vertices, so the meeting search
    # skips collapses and expansions; the expansions' 13-vertex results, past
    # the certificate's vertex cap, are dropped only in the class searches.
    (serialize_graph(_path(DEFAULT_SIZE_CAP, 2)),
     serialize_graph(_path(DEFAULT_SIZE_CAP, 2, (4, 2))),
     "deform", 100, "budget exhausted (depth, size cap)", None),
], ids=["deform-closed", "slide-closed", "depth", "out-of-reach-depth",
        "out-of-reach-index-cap", "out-of-reach-size-cap"])
def test_a_last_layer_with_no_meeting_still_decides_the_reason(g1, g2, move_class,
                                                              max_abs_index, reason, evidence):
    verdict = decide_equivalence(parse_graph(g1), parse_graph(g2), move_class,
                                 Budget(max_depth=1, max_abs_index=max_abs_index))
    assert verdict.kind == ("unknown" if reason.startswith("budget") else "distinct")
    assert (verdict.reason, verdict.evidence) == (reason, evidence)


def test_a_node_cap_found_by_the_class_search_refuses_the_layer_of_an_index_cap():
    # Holding only the 38 classes in reach, the forward side passes the node
    # cap of 40 and builds layer 3, where a result passes the index cap.  With
    # no meeting, the forward root's class search builds its far classes too,
    # so it holds more than 40 classes above layer 3 and refuses that layer:
    # only the node cap bounds it.
    g1 = parse_graph("vertex v0\nvertex v1\nedge e1 v0 v1 -6 -2\nedge e2 v0 v1 -3 -4")
    g2 = parse_graph("vertex v0\nvertex v1\nedge e1 v0 v1 -4 -6\nedge e2 v1 v0 -3 1")
    budget = Budget(max_depth=3, max_nodes=40, max_abs_index=60,
                    expansion=ExpansionBounds(max_n=3, max_subset_size=2))
    verdict = decide_equivalence(g1, g2, "deform", budget)
    assert (verdict.kind, verdict.reason) == ("unknown", "budget exhausted (node cap)")
    assert explore_class(g1, "deform", budget).caps == {"node"}


P1_TEXT = "vertex v0\nvertex v1\nvertex v2\nedge e1 v0 v1 1 11\nedge e2 v1 v2 1 11\n"
P2_TEXT = "vertex v0\nvertex v1\nvertex v2\nedge e1 v0 v1 1 -1\nedge e2 v1 v2 -1 13\n"


def test_closed_classes_that_share_a_class_past_the_depth_bound_are_equivalent():
    # Both sides close with a shared class at depths 2 and 2, so no meeting
    # counts at depth 3; the path goes through that class and has 4 moves.
    g1, g2 = parse_graph(P1_TEXT), parse_graph(P2_TEXT)
    verdict = decide_equivalence(g1, g2, "deform", Budget(max_depth=3))
    assert (verdict.kind, verdict.evidence) == ("equivalent", "path")
    assert format_script(verdict.path) == ("collapse e1 into v1\ncollapse e2 into v2\n"
                                           "expand v2 13 as w x\nexpand w -1 x:1 as w2 x2\n")
    g = g1
    for move in verdict.path:
        g = apply_move(g, move)
    assert canonical_certificate(g) == canonical_certificate(g2)


@pytest.mark.parametrize("g1, g2, move_class, max_depth, total", [
    ("vertex A\nvertex B\nvertex C\nedge a A B 2 4\nedge b B C 2 4\nedge c A C 2 2\n"
     "edge l A A 2 4",
     "vertex A\nvertex B\nvertex C\nedge a A B 2 4\nedge b B C 2 4\nedge c A C 2 2\n"
     "edge l A A 2 -2", "slide", 2, 200),
    (X_TEXT, "vertex A\nvertex B\nedge l A A 30 5\nedge t A B 21 7", "deform", 2, 346),
    # At depth 3 steps are skipped in the layers before the last too, and the
    # class searches build from the far classes they make.
    (X_TEXT, "vertex A\nvertex B\nedge l A A 30 5\nedge t A B 21 7", "deform", 3, 2848),
], ids=["slide", "deform", "deform-depth-3"])
def test_a_search_with_no_meeting_applies_each_move_once(monkeypatch, g1, g2, move_class,
                                                         max_depth, total):
    # Each layer skips the moves that cannot reach the other root within the
    # depth left.  Once no meeting is found, each side that skipped a move is
    # searched again from its root, as explore_class searches it: no side
    # applies a move twice, and every move built is applied.
    g1, g2 = parse_graph(g1), parse_graph(g2)
    applied, stepped, sides = [], [], []
    advance, init = explore._Side.advance, explore._Side.__init__

    def recorded(g, move):
        applied.append((g, move))
        return apply_move(g, move)

    def recorded_steps(side):           # grow applies each step as it is drawn
        for step in advance(side):
            stepped.append((side, *step[1:]))
            yield step

    def recorded_init(self, *args):
        init(self, *args)
        sides.append(self)

    monkeypatch.setattr(explore, "apply_move", recorded)
    monkeypatch.setattr(explore._Side, "advance", recorded_steps)
    monkeypatch.setattr(explore._Side, "__init__", recorded_init)
    kinds, built = counted_enumerators(monkeypatch)
    verdict = decide_equivalence(g1, g2, move_class, Budget(max_depth=max_depth))
    assert verdict.reason == "budget exhausted (depth)"
    assert [(g, move) for _, g, move in stepped] == applied
    assert len(applied) == sum(built) == total
    assert len(set(stepped)) == len(stepped)
    skipped = [root for side, root in zip(sides, (g1, g2)) if "reach" in side.caps]
    assert bool(skipped) == (move_class == "deform")
    if not skipped:
        # The slide class keeps the vertex count, so nothing is skipped and
        # nothing searched again: every (graph, kind) is enumerated once.
        assert len(sides) == 2 and len(set(applied)) == len(applied)
        assert kinds and len(set(kinds)) == len(kinds)
    rebuilt = Counter((g, move) for side, g, move in stepped if side in sides[2:])
    applied.clear()
    for root in skipped:
        explore_class(root, move_class, Budget(max_depth=max_depth))
    assert rebuilt == Counter(applied)


def counted_enumerators(monkeypatch):
    """Record (graph, kind) per call of ``explore``'s enumerators, and the
    number of moves each call built."""
    kinds, built = [], []

    def recorded(name):
        fn = getattr(explore, name)

        def wrapper(g, *args):
            moves = fn(g, *args)
            kinds.append((g, name))
            built.append(len(moves))
            return moves
        return wrapper

    for name in ("enumerate_collapses", "enumerate_slides", "enumerate_expansions"):
        monkeypatch.setattr(explore, name, recorded(name))
    return kinds, built


# The paper search, as ``gbsdeform equiv`` runs it: each layer builds only the
# moves whose results stay within the depth left of the other root's vertex
# count, so every move built is applied (5,134 moves while only the depth-4
# layers held moves back, and 38,534 when every move of every parent was
# built).  It names the 306 classes it meets by invariant bucket, and builds a
# form only for a shape whose bucket already holds another shape: no two of
# its 306 shapes share a bucket, so it builds none (8 while it met 1,886
# shapes); the stitch's endpoint check is a memo hit.
PAPER_SEARCH_MOVES = 1278
PAPER_SEARCH_FORMS = 0


def test_the_paper_search_builds_only_the_moves_it_applies(monkeypatch, capsys, tmp_path,
                                                           canonical_form_calls):
    (tmp_path / "X.gbs").write_text(X_TEXT)
    (tmp_path / "Y.gbs").write_text(Y_TEXT)
    applied = []

    def counted_apply(g, move):
        applied.append(move)
        return apply_move(g, move)

    monkeypatch.setattr(explore, "apply_move", counted_apply)
    _, built = counted_enumerators(monkeypatch)
    code = main(["equiv", "--moves", "deform", "--depth", "4", "--max-n", "10",
                 "--max-index", "100", str(tmp_path / "X.gbs"), str(tmp_path / "Y.gbs")])
    out = capsys.readouterr().out
    assert code == 0 and "verdict: equivalent" in out and "path_length: 4" in out
    assert sum(built) == len(applied) == PAPER_SEARCH_MOVES
    assert len(canonical_form_calls) == PAPER_SEARCH_FORMS


# The paper search's tracemalloc peak, a ceiling on what it keeps per class:
# 3.28-3.42 MB on Python 3.10-3.13 while it held nested shape keys, parked
# (name, graph, enumerator) tuples, a fresh edge for each one a move left
# unchanged and a __dict__ per move; 1.97-2.04 MB once it held each once; and
# 0.334-0.364 MB since it holds only the classes still in reach of the other
# root's vertex count.  The ceiling is 24 % above the highest of those.
PAPER_SEARCH_PEAK_BYTES = 450_000


def test_the_paper_search_keeps_its_peak_memory_under_a_ceiling():
    x, y = example_graph("X", P), example_graph("Y", P)
    tracemalloc.start()
    try:
        verdict = decide_equivalence(x, y, "deform", DEFORM_BUDGET)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.kind == "equivalent"
    assert peak < PAPER_SEARCH_PEAK_BYTES


def test_two_classes_in_one_invariant_bucket_keep_apart():
    # The graphs share a bucket and an abelianization, Z + Z, but not a class:
    # a bucket hit must compare certificates, or the roots would meet at once.
    g = parse_graph("vertex A\nedge e A A 2 3\nedge f A A 1 1")
    h = parse_graph("vertex A\nedge e A A 2 -3\nedge f A A 1 -1")
    assert class_invariant(g) == class_invariant(h)
    verdict = decide_equivalence(g, h, "slide", Budget(max_depth=3))
    assert (verdict.kind, verdict.reason) == ("distinct", "slide class exhausted")
    assert decide_equivalence(g, h, "slide", Budget(max_depth=0)).kind == "unknown"
    g2 = parse_graph("vertex A\nedge e A A 3 2\nedge f A A 1 1")
    verdict = decide_equivalence(g, g2, "slide", Budget(max_depth=3))
    assert (verdict.kind, verdict.path) == ("equivalent", ())


@settings(max_examples=200, deadline=None)
@given(st.lists(connected_graphs(max_vertices=3, max_abs=2), min_size=2, max_size=4),
       st.integers(0, 2**16))
def test_a_searchs_names_are_equal_exactly_when_certificates_are(graphs, seed):
    # Small indices on few vertices make invariant buckets collide often; the
    # scrambled copies reach each class again through another shape.
    graphs += [scramble(g, seed + k) for k, g in enumerate(graphs)]
    names = explore._Names()
    named = [names(g) for g in graphs]
    certs = [canonical_certificate(g) for g in graphs]
    assert [names(g) for g in graphs] == named
    for i, j in combinations(range(len(graphs)), 2):
        assert (named[i] == named[j]) == (certs[i] == certs[j])


# The two refuted pairs pin the order every rule before the search keeps: a
# refutation returns before either side is built, so it computes no shape.
@pytest.mark.parametrize("g2, move_class, kind, computed", [
    (example_graph("Y", P), "deform", "unknown", 2),
    (parse_graph("vertex A"), "deform", "distinct", 0),
    (loop(2, 3), "slide", "distinct", 0),
], ids=["searched", "betti", "slide-vertex-count"])
def test_a_search_computes_each_roots_shape_once(monkeypatch, x, g2, move_class, kind,
                                                 computed):
    shapes = []
    real = EdgeIndexedGraph.shape

    def counted(g):
        shapes.append(g)
        return real(g)

    monkeypatch.setattr(EdgeIndexedGraph, "shape", counted)
    verdict = decide_equivalence(x, g2, move_class, Budget(max_depth=0))
    assert verdict.kind == kind
    assert shapes == [x, g2][:computed]


# A fixed corpus of decide_equivalence pairs: random graphs with 1-3 vertices,
# the second either drawn with the first's Betti number or the first moved by
# up to three random moves and relabeled.  The digest was taken from the
# search that checks the node cap between layers and, at every layer, holds
# back the steps whose results are out of reach of the other root's vertex
# count; the node cap counts only the classes a side holds; and ``refute``
# checks the abelianization before either side is built.
DIFFERENTIAL_PAIRS = 400
DIFFERENTIAL_SHA256 = "7ac424129ae52ecf2ce4bcf556e2560260b285dd174e9a7bba58cc006c309457"
# The corpus's verdicts counted by (move class, kind, evidence): a change that
# decides an unknown pair shows here as counts that move.
DIFFERENTIAL_COVERAGE = {
    ("deform", "equivalent", "path"): 146,
    ("deform", "distinct", "invariant"): 36,
    ("deform", "unknown", None): 18,
    ("slide", "equivalent", "path"): 147,
    ("slide", "distinct", "invariant"): 44,
    ("slide", "distinct", "exhausted"): 8,
    ("slide", "unknown", None): 1,
}
DIFFERENTIAL_BUDGETS = (
    Budget(max_depth=2, max_nodes=4, max_abs_index=100,
           expansion=ExpansionBounds(max_n=3, max_subset_size=2)),
    Budget(max_depth=3, max_nodes=60, max_abs_index=60,
           expansion=ExpansionBounds(max_n=3, max_subset_size=1)),
    Budget(max_depth=2, max_nodes=400, max_abs_index=200,
           expansion=ExpansionBounds(max_n=4, max_subset_size=2)),
    Budget(max_depth=1, max_nodes=400, max_abs_index=200,
           expansion=ExpansionBounds(max_n=2, max_subset_size=2)),
    Budget(max_depth=4, max_nodes=40, max_abs_index=10**6,
           expansion=ExpansionBounds(max_n=2, max_subset_size=1)),
)


def _random_small_graph(rng, n=None, extra=None):
    n = rng.randint(1, 3) if n is None else n
    verts = [f"v{i}" for i in range(n)]
    hi = rng.choice((1, 3, 6))

    def index():
        return rng.choice((1, -1)) * rng.randint(1, hi)

    edges = [(f"e{i}", verts[rng.randrange(i)], verts[i], index(), index())
             for i in range(1, n)]
    for _ in range(rng.randint(0, 1) if extra is None else extra):
        edges.append((f"e{len(edges) + 1}", rng.choice(verts), rng.choice(verts),
                       index(), index()))
    return graph_from_parts(verts, edges)


def _moved_copy(rng, g, move_class, seed):
    """g moved by up to three random moves of the class, then relabeled."""
    for _ in range(rng.randint(1, 3)):
        moves = neighbor_moves(g, move_class, ExpansionBounds(max_n=3, max_subset_size=2))
        if moves:
            g = apply_move(g, rng.choice(moves))
    return scramble(g, seed)


def differential_corpus():
    """(g1, g2, move class, budget) for each seed of the corpus."""
    for seed in range(DIFFERENTIAL_PAIRS):
        rng = random.Random(seed)
        move_class = ("slide", "deform")[seed % 2]
        budget = DIFFERENTIAL_BUDGETS[seed // 2 % len(DIFFERENTIAL_BUDGETS)]
        g1 = _random_small_graph(rng)
        if rng.random() < 0.35:
            g2 = _random_small_graph(rng, len(g1.vertices), betti_number(g1))
        else:
            g2 = _moved_copy(rng, g1, move_class, seed)
        yield g1, g2, move_class, budget


def test_verdicts_reasons_and_paths_match_the_pinned_corpus():
    lines, coverage = [], Counter()
    for g1, g2, move_class, budget in differential_corpus():
        v = decide_equivalence(g1, g2, move_class, budget)
        # g2 is drawn with g1's Betti number and vertex count, or is g1 moved
        # within the class, so only the abelianization refutes a pair, and
        # every other distinct verdict rests on a closed search.
        evidence = {"equivalent": {"path"}, "unknown": {None},
                    "distinct": {"invariant", {"slide": "exhausted", "deform": "bounds"}[move_class]}}
        assert v.evidence in evidence[v.kind], (v, move_class)
        if v.evidence == "invariant":
            assert v.reason.startswith("abelianization differs ("), v
        coverage[move_class, v.kind, v.evidence] += 1
        path = None if v.path is None else format_script(v.path)
        lines.append(f"{v.kind} | {v.reason} | {path}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIFFERENTIAL_SHA256
    assert coverage == DIFFERENTIAL_COVERAGE


# The meeting oracle on the corpus's first pairs, with every node cap lifted.
# A pair that meets within the depth bound gets a path no shorter than the
# least depth sum and no longer than the bound; a layer stops at its first
# meeting, so the path need not be least.  A pair whose classes share a
# certificate is never distinct.
ORACLE_PAIRS = 120


def test_verdicts_agree_with_the_meeting_oracle_with_no_node_cap():
    for i, (g1, g2, move_class, budget) in enumerate(islice(differential_corpus(), ORACLE_PAIRS)):
        least = least_meeting_sum(g1, g2, move_class, budget)
        v = decide_equivalence(g1, g2, move_class, replace(budget, max_nodes=10**6))
        if least is not None:
            assert v.kind != "distinct", i
        if least is not None and least <= budget.max_depth:
            assert v.kind == "equivalent", i
            assert least <= len(v.path) <= budget.max_depth, i


def test_the_vertex_count_bound_changes_no_verdict_when_no_node_cap_applies(monkeypatch):
    # With every node cap lifted, a search that skips no step (a side with
    # no ``size``) gives every pair the same kind, reason and evidence.
    def outcomes():
        for g1, g2, move_class, budget in differential_corpus():
            v = decide_equivalence(g1, g2, move_class, replace(budget, max_nodes=10**6))
            if v.path is not None:
                g = g1
                for move in v.path:
                    g = apply_move(g, move)
                assert canonical_certificate(g) == canonical_certificate(g2)
                assert len(v.path) <= budget.max_depth
            yield v.kind, v.reason, v.evidence

    bounded = list(outcomes())
    init = explore._Side.__init__

    def unbounded(self, g, move_class, budget, name, size=None):
        init(self, g, move_class, budget, name)

    monkeypatch.setattr(explore._Side, "__init__", unbounded)
    assert list(outcomes()) == bounded


def test_a_search_with_no_meeting_ends_each_side_as_its_class_search(monkeypatch):
    # Once no meeting is found, the side the verdict reads for each root, the
    # last one built for it, holds what explore_class finds from that root,
    # at the same depths, and has the same caps.  A pair whose groups'
    # abelianizations differ is skipped: a refuter of them builds no side.
    sides = []
    init = explore._Side.__init__

    def recorded(self, *args):
        init(self, *args)
        sides.append(self)

    monkeypatch.setattr(explore._Side, "__init__", recorded)
    checked = Counter()
    for g1, g2, move_class, budget in differential_corpus():
        if abelianization(g1) != abelianization(g2):
            continue
        sides.clear()
        v = decide_equivalence(g1, g2, move_class, budget)
        if v.kind == "equivalent" and len(v.path) <= budget.max_depth:
            continue                    # a meeting, or equal roots
        last = {id(side.visited[side.root][0]): side for side in sides}
        for root in (g1, g2):
            side, report = last[id(root)], explore_class(root, move_class, budget)
            depths = {canonical_certificate(graph): depth
                      for graph, depth, _, _ in side.visited.values()}
            assert depths == report.depths
            assert side.caps == report.caps
            checked["node" in report.caps] += 1
    assert checked == {False: 53, True: 1}


# A corpus under tiny node caps, where the cap decides which layers run:
# random graphs with 1-3 vertices, each paired with itself moved by up to
# three random moves and relabeled, over every combination of the budgets
# below.  The digest was taken from the search that checks the node cap
# between layers and holds back, at every layer, the steps out of reach of the
# other root's vertex count.
NODE_CAP_PAIRS = 3000
NODE_CAP_SHA256 = "48c9536d1b7b9b757f5618a9b65d4049527a3f68124b8fce9ba1aac4d6f05c3b"
NODE_CAP_BUDGETS = tuple(
    Budget(max_depth=depth, max_nodes=nodes, max_abs_index=index,
           expansion=ExpansionBounds(max_n=max_n, max_subset_size=subset))
    for depth in (1, 2, 3) for nodes in (2, 3, 5, 8, 13, 40) for index in (60, 10**6)
    for max_n, subset in ((2, 1), (3, 2)))


def test_node_cap_verdicts_reasons_and_paths_match_the_pinned_corpus():
    lines = []
    for i in range(NODE_CAP_PAIRS):
        seed = 10_000 + i
        rng = random.Random(seed)
        move_class = ("slide", "deform")[i % 2]
        budget = NODE_CAP_BUDGETS[i // 2 % len(NODE_CAP_BUDGETS)]
        g1 = _random_small_graph(rng)
        v = decide_equivalence(g1, _moved_copy(rng, g1, move_class, seed), move_class, budget)
        path = None if v.path is None else format_script(v.path)
        lines.append(f"{i} {v.kind} | {v.reason} | {path}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == NODE_CAP_SHA256


# explore_class on the first graph of each corpus pair, under the pair's
# move class and budget: every member's certificate, depth and neighbours,
# and whether the class closed and which caps fired.  The digest was taken
# from the search that checks the node cap between layers and records the
# depth bound as the cap "depth" when it leaves a frontier.
EXPLORE_SHA256 = "9fd6658ae09f81df6ced42c0356f1181ebe666e0d94b45264b5e94756fafac3b"


def test_explore_class_matches_the_pinned_corpus():
    lines = []
    for g1, _, move_class, budget in differential_corpus():
        report = explore_class(g1, move_class, budget)
        for cert in report.members:
            neighbours = " ".join(nb.hex() for nb in report.adjacency[cert])
            lines.append(f"{cert.hex()} {report.depths[cert]} {neighbours}")
        lines.append(f"{report.closed} {sorted(report.caps)}")
        assert report.closed == (not report.caps)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EXPLORE_SHA256


# The corpus's first pairs, for the step-order check.  Not every other pair:
# the move class alternates with the seed, so that slice holds slides only.
ORDER_PAIRS = 200


def test_no_verdict_or_class_depends_on_the_order_of_a_layers_steps(monkeypatch):
    # Each layer's steps run in a seeded shuffle.  Paths may differ, since a
    # layer stops at its first meeting, but no verdict, reason, member, depth
    # or cap may.
    def outcomes():
        for g1, g2, move_class, budget in islice(differential_corpus(), ORDER_PAIRS):
            v = decide_equivalence(g1, g2, move_class, budget)
            report = explore_class(g1, move_class, budget)
            yield (v.kind, v.reason, report.depths, report.caps, report.closed)

    in_order = list(outcomes())
    advance, rng = explore._Side.advance, random.Random(21)

    def shuffled(side):                 # the class searches' layers too
        steps = list(advance(side))
        rng.shuffle(steps)
        return iter(steps)

    monkeypatch.setattr(explore._Side, "advance", shuffled)
    assert list(outcomes()) == in_order
