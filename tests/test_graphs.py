import pytest
from hypothesis import given

from gbsdeform import (
    Edge,
    InvalidGraphError,
    ParseError,
    SignFlip,
    apply_sign_flips,
    betti_number,
    dot_export,
    graph_from_parts,
    parse_graph,
    serialize_graph,
)

from strategies import X_TEXT, assert_valid, connected_graphs, scramble, sign_flips


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


def test_ends_at_rejects_an_unknown_vertex():
    with pytest.raises(InvalidGraphError) as info:
        parse_graph(X_TEXT).ends_at("Z")
    assert str(info.value) == "no vertex 'Z' in graph"


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
])
def test_graph_from_parts_rejects_malformed_input(vertices, edges, match):
    with pytest.raises(InvalidGraphError, match=match):
        graph_from_parts(vertices, edges)


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
    flipped = apply_sign_flips(loop, SignFlip(edge_flips=frozenset({"e"})))
    assert (flipped.edge("e").i0, flipped.edge("e").i1) == (-2, 3)
    # both loop ends sit at A, so a vertex flip acts the same way
    flipped_v = apply_sign_flips(loop, SignFlip(vertex_flips=frozenset({"A"})))
    assert flipped_v == flipped


def test_sign_flip_identity_and_unknown_ids():
    g = parse_graph(X_TEXT)
    assert apply_sign_flips(g, SignFlip()) == g
    with pytest.raises(InvalidGraphError, match="unknown vertex"):
        apply_sign_flips(g, SignFlip(vertex_flips=frozenset({"Z"})))
    with pytest.raises(InvalidGraphError, match="no edge"):
        apply_sign_flips(g, SignFlip(edge_flips=frozenset({"zz"})))


@given(connected_graphs())
def test_serialize_parse_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(connected_graphs().flatmap(
    lambda g: sign_flips(g).map(lambda s: (g, s))))
def test_sign_flip_involution_and_invariants(case):
    g, s = case
    once = apply_sign_flips(g, s)
    assert_valid(once)
    assert apply_sign_flips(once, s) == g
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
