import functools
import gc
import re

import pytest
from hypothesis import given, settings

from gbsdeform import (
    Budget,
    EdgeIndexedGraph,
    ExpansionBounds,
    apply_move,
    canonical_certificate,
    decide_equivalence,
    explore_class,
    graph_from_parts,
    is_isomorphic,
    parse_graph,
)
from gbsdeform.canonical import DEFAULT_SIZE_CAP
from gbsdeform.counterexample import ExampleParams, example_graph, verify_slide_ladder
from gbsdeform.explore import adjacency_dot, dump_visited

from strategies import connected_graphs, scramble

P = ExampleParams(2, 3, 5, 7)
DEFORM_BUDGET = Budget(max_depth=4, max_nodes=100_000, max_abs_index=100,
                       expansion=ExpansionBounds(max_n=10, max_subset_size=3))


@functools.cache
def example_pair_deform_verdict():
    """The X -> Y deform search under DEFORM_BUDGET, run once for the tests
    that share it; a Verdict holds moves, not graphs."""
    return decide_equivalence(example_graph("X", P), example_graph("Y", P), "deform",
                              DEFORM_BUDGET)


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
    ladder_certs = [canonical_certificate(example_graph("Xk", P, k)) for k in range(7)]
    assert list(report.members) == ladder_certs
    degrees = sorted(len(report.adjacency[c]) for c in report.members)
    assert degrees == [1, 1, 2, 2, 2, 2, 2]


def test_slide_depths_follow_the_ladder(x):
    report = explore_class(x, "slide", Budget(max_depth=3, max_abs_index=10**6))
    ladder_certs = [canonical_certificate(example_graph("Xk", P, k)) for k in range(4)]
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
    report = explore_class(x, "deform", Budget(max_depth=2, max_nodes=5,
                                               expansion=ExpansionBounds(max_n=10)))
    assert "node" in report.caps
    assert not report.closed
    assert len(report.members) == 5


def _path(n, index):
    verts = [f"v{i}" for i in range(n)]
    return graph_from_parts(
        verts, [(f"e{i}", verts[i], verts[i + 1], index, index) for i in range(n - 1)])


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
    verdict = decide_equivalence(_path(DEFAULT_SIZE_CAP, 2), _path(DEFAULT_SIZE_CAP, 3),
                                 "deform", Budget(max_depth=2, max_abs_index=100))
    assert verdict.kind == "unknown"
    assert verdict.reason == "budget exhausted (depth, size cap)"


def test_deform_equivalence_of_the_example_pair(x, y):
    verdict = example_pair_deform_verdict()
    assert verdict.kind == "equivalent"
    assert len(verdict.path) <= 4
    g = x
    for move in verdict.path:
        g = apply_move(g, move)
    assert is_isomorphic(g, y)


@pytest.mark.parametrize("search", [
    lambda g: explore_class(g, "bogus", Budget(max_depth=0)),
    lambda g: decide_equivalence(g, g, "bogus", Budget(max_depth=0)),
], ids=["explore_class", "decide_equivalence"])
def test_unknown_move_class_is_rejected_up_front(x, search):
    with pytest.raises(ValueError, match="unknown move class 'bogus'"):
        search(x)


def test_no_graph_outlives_a_search(x, y):
    # Each search keeps its certificate memo to itself; once its results are
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


def test_slide_count_refuter(x):
    two_edges = parse_graph(
        "vertex A\nvertex B\nedge l A A 30 5\nedge t A B 20 7\nedge u A B 2 2")
    verdict = decide_equivalence(x, two_edges, "slide", Budget(max_depth=2))
    assert verdict.kind == "distinct"


def test_trivially_equivalent_pair(x):
    verdict = decide_equivalence(x, scramble(x, 5), "deform", DEFORM_BUDGET)
    assert verdict.kind == "equivalent"
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
    from gbsdeform import End, Expansion

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
    small = example_pair_deform_verdict()
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
