import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsdeform import (
    Collapse,
    Edge,
    EdgeIndexedGraph,
    End,
    ExampleParams,
    Expansion,
    GenerationError,
    IllegalMoveError,
    InvalidGraphError,
    LadderHypothesisError,
    ParseError,
    RandomGraphSpec,
    Slide,
    apply_move,
    betti_number,
    canonical_certificate,
    dot_export,
    graph_from_parts,
    free_edge_index,
    parse_graph,
    serialize_graph,
    verify_slide_ladder,
)

from strategies import X_TEXT, assert_valid, connected_graphs, flip_signs, scramble, sign_flips


def test_parse_example_graph():
    g = parse_graph("vertex A\nvertex B\nedge l A A 30 5\nedge t A B 20 7")
    assert g.vertices == ("A", "B")
    l = g.edge("l")
    assert (l.v0, l.v1, l.i0, l.i1) == ("A", "A", 30, 5)
    t = g.edge("t")
    assert (t.v0, t.v1, t.i0, t.i1) == ("A", "B", 20, 7)


def test_edge_has_slots_and_no_dict():
    e = Edge("e", "A", "B", 2, 3)
    assert not hasattr(e, "__dict__")
    with pytest.raises(AttributeError):
        e.i0 = 5


def test_an_edge_is_its_field_tuple():
    e = Edge("e", "A", "B", 2, 3)
    fields = ("e", "A", "B", 2, 3)
    assert e == fields and hash(e) == hash(fields) and tuple(e) == fields
    eid, v0, v1, i0, i1 = e
    assert (eid, v0, v1, i0, i1) == (e.eid, e.v0, e.v1, e.i0, e.i1)
    assert Edge(*fields) == e and e != Edge("e", "A", "B", 2, -3)


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_vertices=5, max_extra_edges=3), st.integers(0, 2**16))
def test_a_graph_built_in_shuffled_order_equals_the_original(g, seed):
    rng = random.Random(seed)
    vertices, edges = list(g.vertices), list(g.edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    for h in (EdgeIndexedGraph(vertices, edges), graph_from_parts(vertices, edges),
              graph_from_parts(vertices, [tuple(e) for e in edges])):
        assert h == g and hash(h) == hash(g)
        assert h.vertices == g.vertices and h.edges == g.edges


def test_graph_has_slots_and_no_dict_after_lookups_and_a_move():
    # A graph holds its vertices and edges and nothing else: no lookup and
    # no move leaves a table on it.
    g = parse_graph(X_TEXT)
    g.edge("t"), g.end_table(), g.shape()
    apply_move(g, Expansion("A", 2, (End("t", 0),), "Q", "d"))
    assert not hasattr(g, "__dict__")


@settings(max_examples=150, deadline=None)
@given(connected_graphs(max_vertices=5, max_extra_edges=3))
def test_lookups_and_the_end_table_agree_with_the_edges(g):
    for e in g.edges:
        assert g.edge(e.eid) is e
    with pytest.raises(InvalidGraphError, match="no edge 'absent'"):
        g.edge("absent")
    table = g.end_table()
    assert list(table) == list(g.vertices)
    for v in g.vertices:
        ends = sorted((e.eid, side, e.index(side))
                      for e in g.edges for side in (0, 1) if e.endpoint(side) == v)
        assert table[v] == ends


@settings(max_examples=400, deadline=None)
@given(connected_graphs(max_vertices=3, max_abs=2), connected_graphs(max_vertices=3, max_abs=2),
       st.integers(0, 2**16))
def test_equal_shapes_share_a_certificate(g, h, seed):
    # A search's memo answers a graph with the name of another of its
    # shape.  Small indices on few vertices make shapes collide often.
    for other in (h, scramble(g, seed)):
        if g.shape() == other.shape():
            assert canonical_certificate(g) == canonical_certificate(other)


@given(connected_graphs(max_vertices=5, max_extra_edges=3))
def test_a_renaming_that_keeps_the_ids_order_keeps_the_shape(g):
    # Vertex ids break ties only through their order; edge ids and the side an
    # edge is read from do not count at all.
    renamed = graph_from_parts(
        [f"w_{v}" for v in g.vertices],
        [(f"x{len(g.edges) - k}", f"w_{e.v0}", f"w_{e.v1}", e.i0, e.i1)
         for k, e in enumerate(g.edges)])
    swapped = graph_from_parts(g.vertices, [(e.eid, e.v1, e.v0, e.i1, e.i0) for e in g.edges])
    assert renamed.shape() == swapped.shape() == g.shape()


def test_loops_whose_index_signs_differ_have_different_shapes():
    g, h = (graph_from_parts(["A"], [("l", "A", "A", 2, i)]) for i in (3, -3))
    assert g.shape() == (1, 0, 0, 2, 3) and h.shape() == (1, 0, 0, -3, 2)
    assert canonical_certificate(g) != canonical_certificate(h)


def test_parse_single_vertex():
    g = parse_graph("vertex A")
    assert g.vertices == ("A",)
    assert g.edges == ()


def test_parse_comments_blank_lines_and_tabs():
    text = "# header\n\nvertex A\t\nvertex B  # trailing\nedge e A B -3 4\n"
    g = parse_graph(text)
    assert g.edge("e").i0 == -3


@pytest.mark.parametrize("text,match,line", [
    ("vertex A\nedge e A A 0 1", "zero index", 2),
    ("vertex A\nedge e A A 1 -0", "zero index", 2),
    ("vertex A\nvertex A", "duplicate vertex", 2),
    ("vertex A\nedge e A A 1 2\nedge e A A 1 2", "duplicate edge", 3),
    ("vertex A\nedge e A B 1 2", "undeclared vertex", 2),
    ("vertex A\nedge e A A 007 1", "bad integer", 2),
    ("vertex A\nedge e A A +7 1", "bad integer", 2),
    ("vertex 9bad", "bad identifier", 1),
    ("frob A", "unknown declaration", 1),
    ("vertex A\nedge e A A 1", "edge declaration", 2),
    ("vertex", "vertex declaration needs exactly one identifier", 1),
    ("vertex A B", "vertex declaration needs exactly one identifier", 1),
    ("vertex A\nedge e A 9B 1 2", "line 2, column 10: bad identifier '9B'", 2),
    (b"vertex A\n", "^text must be a str, got bytes$", None),
    (None, "^text must be a str, got NoneType$", None),
])
def test_parse_errors_are_distinct(text, match, line):
    with pytest.raises(ParseError, match=match) as info:
        parse_graph(text)
    assert info.value.line == line


@pytest.mark.parametrize("text,line,column", [
    ("vertex A\nedge e10 A A 0 1", 2, 14),
    ("vertex AB\nedge AB AB B 2 3", 2, 12),
    ("vertex ex\nvertex ex", 2, 8),
])
def test_parse_error_column_is_the_field_position(text, line, column):
    # Each token also occurs inside an earlier one on its line.
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert (info.value.line, info.value.column) == (line, column)


def test_parse_rejects_disconnected():
    with pytest.raises(ParseError, match="not connected"):
        parse_graph("vertex A\nvertex B")


def test_constructor_rejects_empty():
    with pytest.raises(InvalidGraphError):
        graph_from_parts((), ())


@pytest.mark.parametrize("vertices,edges,match", [
    ((), (), "at least one vertex"),
    (("9bad",), (), "bad vertex identifier '9bad'"),
    (("A",), (("e-1", "A", "A", 2, 3),), "bad edge identifier 'e-1'"),
    (("A", "A"), (), "duplicate vertex id 'A'"),
    (("A",), (("e", "A", "A", 2, 3), ("e", "A", "A", 2, 3)), "duplicate edge id 'e'"),
    (("A",), (("e", "A", "B", 2, 3),), "edge 'e' uses undeclared vertex 'B'"),
    (("A",), (("e", "A", "A", 0, 3),), "edge 'e' has a zero index"),
    (("A",), (("e", "A", "A", 2.0, 3),), "edge 'e' has non-integer indices"),
    (("A", "B", "C"), (("e", "A", "B", 2, 3),), "graph is not connected"),
    (("A",), (("e", "A", "A", True, 2),), "edge 'e' has non-integer indices"),
    (("A",), (("e", "A", "A", False, 2),), "edge 'e' has non-integer indices"),
    ((5,), (), "bad vertex identifier 5"),
    (("A", 5), (("e", "A", 5, 2, 3),), "bad vertex identifier 5"),
    (("A",), (("e", "A", "A", 2, 3), (7, "A", "A", 2, 3)), "bad edge identifier 7"),
    (("A",), (("e", "A", ["A"], 2, 3),), r"edge 'e' uses undeclared vertex \['A'\]"),
    (("A",), (("e", "A", "A", 2),), r"edge entry \('e', 'A', 'A', 2\) is not"),
    (("A",), (("e", "A", "A", 2, 3, 4),), r"edge entry \('e', 'A', 'A', 2, 3, 4\) is not"),
    (("A",), (5,), "edge entry 5 is not"),
    (("A",), (Edge("e", "A", "A", 0, 3),), "edge 'e' has a zero index"),
    (("A",), (Edge("e", "A", "B", 2, 3),), "edge 'e' uses undeclared vertex 'B'"),
    ("AB", (("e", "A", "B", 1, 1),), "vertices 'AB' is a string"),
    ("A", (), "vertices 'A' is a string"),
    # A text is not a collection, nor is None: each is named whole.
    (b"AB", (), r"^vertices b'AB' is a string, not a collection$"),
    (("A",), "abcde", r"^edges 'abcde' is a string, not a collection$"),
    (("A",), b"ab", r"^edges b'ab' is a string, not a collection$"),
    (None, (), r"^vertices None is not a collection$"),
    (("A",), None, r"^edges None is not a collection$"),
    (("A",), 5, r"^edges 5 is not a collection$"),
])
def test_graph_from_parts_rejects_malformed_input(vertices, edges, match):
    with pytest.raises(InvalidGraphError, match=match):
        graph_from_parts(vertices, edges)


BIG = 10 ** 5000     # past CPython's default int<->str limit of 4,300 digits


@pytest.mark.parametrize("make, error", [
    (lambda: verify_slide_ladder(ExampleParams(BIG, 2 * BIG, 5, 7), 2), LadderHypothesisError),
    (lambda: verify_slide_ladder(ExampleParams(2, 3, 5, 7), -BIG), ValueError),
    (lambda: free_edge_index(ExampleParams(2, 3, 5, 7), -BIG), ValueError),
    (lambda: RandomGraphSpec(BIG, 0), GenerationError),
    (lambda: RandomGraphSpec(2, 1, require=BIG), ValueError),
    (lambda: graph_from_parts([BIG], []), InvalidGraphError),
    (lambda: graph_from_parts(["A"], [(BIG, "A", "A", 2, 3)]), InvalidGraphError),
    (lambda: graph_from_parts(["A"], [("e", "A", BIG, 2, 3)]), InvalidGraphError),
    (lambda: graph_from_parts(["A"], [("e", "A", "A", 2, 3, BIG)]), InvalidGraphError),
    (lambda: apply_move(parse_graph(X_TEXT), Slide(End("t", BIG), End("l", 0))), IllegalMoveError),
    (lambda: apply_move(parse_graph(X_TEXT), Slide(End(BIG, 2), End("l", 0))), IllegalMoveError),
    (lambda: Slide(("t", 0, BIG), ("l", 0)), IllegalMoveError),
    (lambda: apply_move(parse_graph(X_TEXT), Collapse(BIG, "A")), IllegalMoveError),
    (lambda: apply_move(parse_graph(X_TEXT), Collapse("t", BIG)), IllegalMoveError),
    (lambda: apply_move(parse_graph(X_TEXT), Expansion(BIG, 2, (), "Q", "d")), IllegalMoveError),
    (lambda: apply_move(parse_graph(X_TEXT), Expansion("A", 2, (), BIG, "d")), IllegalMoveError),
    (lambda: apply_move(parse_graph(X_TEXT), BIG), IllegalMoveError),
], ids=["ladder-hypothesis", "ladder-depth", "ladder-level", "spec-vertices", "spec-requirement",
        "vertex", "edge-id", "endpoint", "edge-entry", "slide-side", "slide-edge-and-side",
        "move-end", "collapse-edge", "collapse-survivor", "expansion-vertex",
        "expansion-new-vertex", "unknown-move"])
def test_an_error_message_writes_out_an_integer_past_the_digit_limit(make, error):
    # repr and str refuse such an integer with a plain ValueError; the message
    # writes it out instead and the error keeps its class.
    with pytest.raises(error) as info:
        make()
    assert "1" + "0" * 5000 in str(info.value)


def test_graph_from_parts_takes_a_graphs_own_edges():
    x = parse_graph(X_TEXT)
    assert graph_from_parts(x.vertices, x.edges) == x
    assert graph_from_parts(x.vertices, [x.edges[0], ("t", "A", "B", 20, 7)]) == x


def test_betti_numbers():
    assert betti_number(parse_graph(X_TEXT)) == 1
    assert betti_number(parse_graph("vertex A")) == 0
    assert betti_number(parse_graph("vertex A\nedge e A A 2 3")) == 1


def test_declaration_order_is_normalized():
    g1 = parse_graph("vertex B\nvertex A\nedge t A B 20 7\nedge l A A 30 5")
    g2 = parse_graph(X_TEXT)
    assert g1 == g2


def test_sign_flip_on_loop_edge():
    loop = parse_graph("vertex A\nedge e A A 2 -3")
    flipped = flip_signs(loop, edges={"e"})
    assert (flipped.edge("e").i0, flipped.edge("e").i1) == (-2, 3)
    # both loop ends sit at A, so a vertex flip acts the same way
    flipped_v = flip_signs(loop, vertices={"A"})
    assert flipped_v == flipped


def test_sign_flip_identity_and_unknown_ids():
    g = parse_graph(X_TEXT)
    assert flip_signs(g) == g
    assert flip_signs(g, vertices={"Z"}, edges={"zz"}) == g


@given(connected_graphs())
def test_serialize_parse_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(connected_graphs().flatmap(
    lambda g: sign_flips(g).map(lambda s: (g, s))))
def test_sign_flip_involution_and_invariants(case):
    g, s = case
    once = flip_signs(g, *s)
    assert_valid(once)
    assert flip_signs(once, *s) == g
    assert betti_number(once) == betti_number(g)
    assert all(e.i0 != 0 and e.i1 != 0 for e in once.edges)


def test_dot_export_shape():
    g = parse_graph(X_TEXT)
    dot = dot_export(g)
    assert dot == (
        'graph G {\n'
        '  "A";\n'
        '  "B";\n'
        '  "A" -- "A" [label="30|5"];\n'
        '  "A" -- "B" [label="20|7"];\n'
        '}\n'
    )


def test_graph_values_are_immutable_and_hashable():
    g = parse_graph(X_TEXT)
    h = scramble(g, 3)
    assert len({g, h, g}) == 2
    with pytest.raises(Exception):
        g.vertices = ()


def test_round_trip_past_the_int_str_digit_limit():
    digits = "-1" + "0" * 4998 + "7"     # 5,000 digits, past CPython's default limit
    g = parse_graph(f"vertex A\nvertex B\nedge e A B {digits} 3\n")
    assert g.edge("e").i0 == -(10 ** 4999 + 7)
    text = serialize_graph(g)
    assert text == f"vertex A\nvertex B\nedge e A B {digits} 3\n"
    assert parse_graph(text) == g
    assert f'[label="{digits}|3"]' in dot_export(g)
