import random
import subprocess
import sys
from math import isqrt

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gbsdeform import (
    Collapse,
    Edge,
    End,
    Expansion,
    ExpansionBounds,
    IllegalMoveError,
    ParseError,
    ScriptError,
    Slide,
    analyze,
    apply_move,
    betti_number,
    canonical_certificate,
    enumerate_collapses,
    enumerate_expansions,
    enumerate_slides,
    format_move,
    format_script,
    graph_from_parts,
    graph_isomorphism,
    index_str,
    invert_move,
    is_isomorphic,
    parse_graph,
    parse_move,
    parse_script,
    reduce_graph,
)
from gbsdeform.counterexample import ExampleParams
from gbsdeform.moves import transport_move

from strategies import (X_TEXT, Y_TEXT, assert_valid, connected_graphs, ladder_level,
                        neighbor_moves, scramble)

P = ExampleParams(2, 3, 5, 7)
BOUNDS = ExpansionBounds(max_n=10, max_subset_size=3)


@pytest.fixture
def x():
    return parse_graph(X_TEXT)


@pytest.fixture
def diagram4():
    # Third intermediate stage of the X-to-Y deformation at (2,3,5,7).
    return parse_graph(
        "vertex A\nvertex B\nvertex C\n"
        "edge l C A 3 5\nedge t C B 2 7\nedge u B C 21 1")


def test_slide_around_loop(x):
    moved = apply_move(x, Slide(moving_end=End("t", 0), along=End("l", 1)))
    t = moved.edge("t")
    assert (t.v0, t.v1, t.i0, t.i1) == ("A", "B", 120, 7)
    assert moved.edge("l") == x.edge("l")


def test_expansion_splits_vertex(x):
    move = Expansion(vertex="A", n=10, moved_ends=(End("l", 0), End("t", 0)),
                     new_vertex="Q", new_edge="d")
    out = apply_move(x, move)
    assert set(out.vertices) == {"A", "B", "Q"}
    d = out.edge("d")
    assert (d.v0, d.v1, d.i0, d.i1) == ("A", "Q", 10, 1)
    l = out.edge("l")
    assert (l.v0, l.v1, l.i0, l.i1) == ("Q", "A", 3, 5)
    t = out.edge("t")
    assert (t.v0, t.v1, t.i0, t.i1) == ("Q", "B", 2, 7)


def test_collapse_reaches_mirror_graph(diagram4):
    out = apply_move(diagram4, Collapse(edge="u", survivor="B"))
    assert set(out.vertices) == {"A", "B"}
    assert is_isomorphic(out, parse_graph(Y_TEXT))
    l = out.edge("l")
    assert (l.v0, l.v1, l.i0, l.i1) == ("B", "A", 63, 5)
    t = out.edge("t")
    assert (t.v0, t.v1, t.i0, t.i1) == ("B", "B", 42, 7)


def test_collapse_negative_unit_end():
    g = parse_graph("vertex A\nvertex B\nedge e A B 4 -1\nedge f B B 6 10")
    out = apply_move(g, Collapse(edge="e", survivor="A"))
    f = out.edge("f")
    assert (f.v0, f.v1, f.i0, f.i1) == ("A", "A", -24, -40)


@pytest.mark.parametrize("move,match", [
    (Collapse(edge="l", survivor="A"), "loop"),
    (Collapse(edge="t", survivor="B"), r"index 20 .*needs \+1 or -1"),
    (Collapse(edge="t", survivor="Z"), "not an endpoint"),
    (Collapse(edge="zz", survivor="A"), "no edge 'zz'"),
    (Expansion("A", 0, (), "Q", "d"), "nonzero"),
    (Expansion("Z", 2, (), "Q", "d"), "no vertex"),
    (Expansion("A", 2, (), "B", "d"), "already in use"),
    (Expansion("A", 2, (), "Q", "l"), "already in use"),
    (Expansion("A", 2, (End("t", 1),), "Q", "d"), "not at"),
    (Expansion("A", 7, (End("t", 0),), "Q", "d"), "not divisible"),
    (Slide(End("l", 0), End("l", 1)), "itself"),
    (Slide(End("t", 1), End("l", 0)), "do not share a vertex"),
    (Slide(End("l", 0), End("t", 0)), "does not divide"),
    (Slide(End("t", 0), End("zz", 0)), "no edge"),
    (Slide(End("t", 2), End("l", 0)), "bad side"),
    (Expansion("A", 2, (), "9bad", "d"), "bad new vertex identifier '9bad'"),
    (Expansion("A", 2, (), "Q", "d-1"), "bad new edge identifier 'd-1'"),
    (Expansion("A", 2.0, (), "Q", "d"), "nonzero"),
    (Expansion("A", True, (End("t", 0),), "Q", "d"), "nonzero"),
    (Slide(End("t", False), End("l", 1)), "bad side"),
    (Slide(End("zz", 0), End("t", 0)), "no edge 'zz'"),
    (Expansion("A", 2, (End("zz", 0),), "Q", "d"), "no edge 'zz'"),
    (Expansion("A", 2, (), 5, "d"), "^bad new vertex identifier 5$"),
    (Expansion("A", 2, (), "Q", None), "^bad new edge identifier None$"),
])
def test_illegal_moves_are_rejected(x, move, match):
    with pytest.raises(IllegalMoveError, match=match):
        apply_move(x, move)
    with pytest.raises(IllegalMoveError, match=match):
        invert_move(x, move)


def test_invert_expansion_is_collapse(x):
    move = Expansion(vertex="A", n=10, moved_ends=(End("l", 0), End("t", 0)),
                     new_vertex="Q", new_edge="d")
    out = apply_move(x, move)
    inv = invert_move(x, move)
    assert inv == Collapse(edge="d", survivor="A")
    assert apply_move(out, inv) == x


def test_invert_slide_traverses_loop_oppositely(x):
    move = Slide(End("t", 0), End("l", 1))
    out = apply_move(x, move)
    inv = invert_move(x, move)
    assert inv == Slide(End("t", 0), End("l", 0))
    assert apply_move(out, inv) == x


def test_slide_built_from_tuples_formats_parses_and_inverts(x):
    move = Slide(("t", 0), ("l", 1))
    assert move == Slide(End("t", 0), End("l", 1))
    text = format_script([move])
    assert text == "slide t:0 along l:1\n"
    assert parse_move(text) == move
    assert invert_move(x, move) == Slide(End("t", 0), End("l", 0))


NOT_A_PAIR = "is not an (edge, side) pair"
NOT_PAIRS = "are not (edge, side) pairs of a str and an int"


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: Slide("t0", ("l", 0)), f"move end 't0' {NOT_A_PAIR}",
                 id="slide-moving-string"),
    pytest.param(lambda: Slide(("t", 0), "l1"), f"move end 'l1' {NOT_A_PAIR}",
                 id="slide-along-string"),
    pytest.param(lambda: Slide(("t", 0, 1), End("l", 0)), f"move end ('t', 0, 1) {NOT_A_PAIR}",
                 id="slide-triple"),
    pytest.param(lambda: Slide(End("t", 0), 5), f"move end 5 {NOT_A_PAIR}", id="slide-int"),
    pytest.param(lambda: Expansion("A", 2, ("t0",), "Q", "d"), f"move end 't0' {NOT_A_PAIR}",
                 id="expansion-string"),
    pytest.param(lambda: Expansion("A", 2, (End("l", 0), ["t", 0, 1]), "Q", "d"),
                 f"move end ['t', 0, 1] {NOT_A_PAIR}", id="expansion-triple-list"),
    # Ends that cannot be sorted or hashed, and no collection of ends at all.
    pytest.param(lambda: Expansion("A", 2, [("l", 0), (5, 0)], "C", "u"),
                 f"moved ends [('l', 0), (5, 0)] {NOT_PAIRS}", id="expansion-int-edge-id"),
    pytest.param(lambda: Expansion("A", 2, [("l", 0), ("l", "x")], "C", "u"),
                 f"moved ends [('l', 0), ('l', 'x')] {NOT_PAIRS}", id="expansion-str-side"),
    pytest.param(lambda: Expansion("A", 2, [(["l"], 0)], "C", "u"),
                 f"moved ends [(['l'], 0)] {NOT_PAIRS}", id="expansion-list-edge-id"),
    pytest.param(lambda: Expansion("A", 2, None, "C", "u"), f"moved ends None {NOT_PAIRS}",
                 id="expansion-none"),
    # A text is not a collection of ends: it is named whole, not by a character.
    pytest.param(lambda: Expansion("A", 2, "t0", "Q", "d"), f"moved ends 't0' {NOT_PAIRS}",
                 id="expansion-text"),
    pytest.param(lambda: Expansion("A", 2, b"ab", "Q", "d"), f"moved ends b'ab' {NOT_PAIRS}",
                 id="expansion-bytes"),
])
def test_a_move_end_that_is_not_an_edge_side_pair_is_rejected(make, message):
    with pytest.raises(IllegalMoveError) as info:
        make()
    assert str(info.value) == message


def test_a_move_keeps_its_ends_and_builds_them_from_pairs():
    moving, along = End("t", 0), End("l", 1)
    move = Slide(moving, along)
    assert move.moving_end is moving and move.along is along
    assert Slide(["t", 0], ("l", 1)) == move and type(Slide(["t", 0], along).moving_end) is End
    assert Expansion("A", 2, [["t", 0], ("l", 0)], "Q", "d").moved_ends == (End("l", 0), End("t", 0))


# Indices of about 5,000 digits, past CPython's 4,300-digit int->str limit.
BIG = 10 ** 5000


def _big_graph(index):
    return graph_from_parts(("A", "B"), [("l", "A", "A", 3, 5), ("t", "A", "B", index, 7)])


def test_a_slide_past_the_int_str_limit_divides_and_names_the_index():
    legal = 6 * BIG
    out = apply_move(_big_graph(legal), Slide(End("t", 0), End("l", 0)))
    assert out.edge("t") == Edge("t", "A", "B", legal // 3 * 5, 7)
    illegal = 3 * BIG + 1
    with pytest.raises(IllegalMoveError) as info:
        apply_move(_big_graph(illegal), Slide(End("t", 0), End("l", 0)))
    assert str(info.value) == f"carrier index 3 does not divide moving index {index_str(illegal)}"


def test_an_expansion_past_the_int_str_limit_divides_and_names_the_index():
    factor = BIG + 7
    legal = 6 * factor * BIG
    out = apply_move(_big_graph(legal), Expansion("A", factor, (End("t", 0),), "C", "u"))
    assert out.edge("t") == Edge("t", "C", "B", legal // factor, 7)
    assert out.edge("u") == Edge("u", "A", "C", factor, 1)
    illegal = factor * BIG + 1
    with pytest.raises(IllegalMoveError) as info:
        apply_move(_big_graph(illegal), Expansion("A", factor, (End("t", 0),), "C", "u"))
    assert str(info.value) == (f"index {index_str(illegal)} at end t:0 is not divisible by "
                               f"{index_str(factor)}")


def test_invert_collapse_restores_up_to_signs(diagram4):
    move = Collapse(edge="u", survivor="B")
    out = apply_move(diagram4, move)
    inv = invert_move(diagram4, move)
    assert isinstance(inv, Expansion)
    back = apply_move(out, inv)
    assert back == diagram4


def test_double_inverse_is_identity(x):
    move = Slide(End("t", 0), End("l", 1))
    out = apply_move(x, move)
    assert invert_move(out, invert_move(x, move)) == move


def test_invert_rejects_illegal(x):
    with pytest.raises(IllegalMoveError):
        invert_move(x, Collapse(edge="t", survivor="B"))


def test_enumerate_slides_on_ladder_levels(x):
    assert enumerate_slides(x) == [Slide(End("t", 0), End("l", 1))]
    x1 = ladder_level(P, 1)
    slides = enumerate_slides(x1)
    assert len(slides) == 2
    results = {apply_move(x1, mv).edge("t").i0 for mv in slides}
    assert results == {20, 720}


def test_enumerate_collapses(x, diagram4):
    assert enumerate_collapses(x) == []
    assert enumerate_collapses(diagram4) == [Collapse(edge="u", survivor="B")]
    both = parse_graph("vertex A\nvertex B\nedge e A B 1 -1")
    assert enumerate_collapses(both) == [
        Collapse(edge="e", survivor="A"), Collapse(edge="e", survivor="B")]


def test_enumerate_expansions_factors(x):
    moves = enumerate_expansions(x, BOUNDS)
    pair = {m.n for m in moves
            if m.moved_ends == (End("l", 0), End("t", 0))}
    assert pair == {2, 5, 10}
    at_b = {m.n for m in moves if m.vertex == "B"}
    assert at_b == {7}
    point = parse_graph("vertex A")
    assert enumerate_expansions(point, BOUNDS) == []
    small = enumerate_expansions(x, ExpansionBounds(max_n=10, max_subset_size=1))
    assert all(len(m.moved_ends) == 1 for m in small)


def expansion_factors(d, max_n):
    """The factors enumerated at A for a single end of index d there."""
    g = graph_from_parts(("A", "B"), [("e", "A", "B", d, 1)])
    return [m.n for m in enumerate_expansions(g, ExpansionBounds(max_n=max_n))
            if m.vertex == "A"]


def test_expansion_factors_match_trial_division_of_every_candidate():
    # Squares, where a divisor is its own cofactor, and bounds on each side
    # of the square root and of d.  ExpansionBounds refuses a negative bound.
    for d in [*range(1, 130), 2 * 3 * 5 * 7 * 11, 97 * 97, 2**20, 10**6]:
        root = isqrt(d)
        for max_n in {0, 1, 2, 3, root - 1, root, root + 1, 2 * root, d - 1, d, d + 1}:
            naive = [n for n in range(2, min(max_n, d) + 1) if d % n == 0]
            assert expansion_factors(d, max_n) == naive, (d, max_n)


def test_expansion_factors_of_a_large_index_under_a_large_bound_finish():
    # Trial division of every candidate would take 10**12 steps; pairing each
    # divisor with its cofactor stops at 10**6.
    code = ("from gbsdeform import ExpansionBounds, enumerate_expansions, graph_from_parts\n"
            "g = graph_from_parts(('A', 'B'), [('e', 'A', 'B', 10**12, 1)])\n"
            "print(*(m.n for m in enumerate_expansions(g, ExpansionBounds(max_n=10**12))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    factors = [int(tok) for tok in proc.stdout.split()]
    assert len(factors) == 168
    assert factors == sorted(2**a * 5**b for a in range(13) for b in range(13))[1:]


def test_enumerated_moves_all_apply(x, diagram4):
    for g in (x, diagram4):
        for move in (enumerate_slides(g) + enumerate_collapses(g)
                     + enumerate_expansions(g, BOUNDS)):
            apply_move(g, move)


def test_analyze_example_graphs(x):
    rx = analyze(x)
    assert (rx.reduced, rx.minimal, rx.strongly_slide_free) == (True, True, False)
    assert rx.unfolded_sufficient and rx.geometry == "general"
    assert rx.jsj == "QUALIFIED"
    ry = analyze(parse_graph(Y_TEXT))
    assert ry.jsj == "QUALIFIED"


def test_analyze_lines_and_point():
    r_loop = analyze(parse_graph("vertex A\nedge e A A 1 1"))
    assert r_loop.reduced and r_loop.geometry == "line"
    assert r_loop.jsj == "NOT_QUALIFIED"
    r_seg = analyze(parse_graph("vertex A\nvertex B\nedge e A B 2 -2"))
    assert r_seg.geometry == "line" and r_seg.jsj == "NOT_QUALIFIED"
    r_point = analyze(parse_graph("vertex A"))
    assert r_point.geometry == "point" and r_point.jsj == "NOT_QUALIFIED"


def test_analyze_unreduced_and_inconclusive(diagram4):
    r4 = analyze(diagram4)
    assert not r4.reduced
    assert r4.jsj == "NOT_QUALIFIED" and r4.jsj_reason == "not reduced"
    # reduced, not a line, but a unit index on a loop: sufficient test silent
    r = analyze(parse_graph("vertex A\nedge e A A 1 3"))
    assert r.reduced and r.geometry == "general"
    assert r.jsj == "UNKNOWN"
    assert "inconclusive" in r.jsj_reason


def test_analyze_minimal_vs_reduced():
    # valence-one vertex with a unit index: collapsible, not minimal
    g = parse_graph("vertex A\nvertex B\nedge e A B 1 5\nedge f B B 2 3")
    r = analyze(g)
    assert not r.reduced and not r.minimal
    # valence-one vertex with magnitude 2: minimal but slide-frail
    h = parse_graph("vertex A\nvertex B\nedge e A B 2 5\nedge f B B 10 3")
    rh = analyze(h)
    assert rh.reduced and rh.minimal and not rh.strongly_slide_free


def test_strongly_slide_free_blocks_slides():
    g = parse_graph("vertex A\nvertex B\nedge e A B 2 3\nedge f A B 5 7")
    r = analyze(g)
    assert r.strongly_slide_free
    assert enumerate_slides(g) == []
    # parallel edges with equal magnitudes divide each other
    h = parse_graph("vertex A\nvertex B\nedge e A B 2 3\nedge f A B 2 7")
    assert not analyze(h).strongly_slide_free


def test_reduce_fixed_points_and_scripts(x, diagram4):
    rx, script = reduce_graph(x)
    assert rx == x and script == ()
    ry, script = reduce_graph(diagram4)
    assert len(script) == 1
    assert is_isomorphic(ry, parse_graph(Y_TEXT))
    chain = parse_graph("vertex A\nvertex B\nedge e A B 3 1\nedge f B B 2 5")
    reduced, script = reduce_graph(chain)
    assert analyze(reduced).reduced
    assert len(script) <= 2


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_vertices=5, max_extra_edges=2))
def test_move_conservation_and_round_trip(g):
    rng = random.Random(betti_number(g) * 31 + len(g.edges))
    moves = (enumerate_slides(g) + enumerate_collapses(g)
             + enumerate_expansions(g, ExpansionBounds(max_n=9)))
    if not moves:
        return
    move = moves[rng.randrange(len(moves))]
    h = apply_move(g, move)
    assert_valid(h)
    assert betti_number(h) == betti_number(g)
    assert all(e.i0 != 0 and e.i1 != 0 for e in h.edges)
    if isinstance(move, Slide):
        assert len(h.vertices) == len(g.vertices)
        assert len(h.edges) == len(g.edges)
    back = apply_move(h, invert_move(g, move))
    assert_valid(back)
    assert is_isomorphic(back, g)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_vertices=5, max_extra_edges=2))
def test_a_move_keeps_each_edge_it_leaves_unchanged_as_the_same_object(g):
    # Graphs a search keeps share the edges their moves did not touch: a
    # collapse's edges away from the absorbed vertex, an expansion's edges
    # with no moved end, and every edge of a slide but the moving one.
    for move in neighbor_moves(g, "deform", ExpansionBounds(max_n=9)):
        if isinstance(move, Collapse):
            e = g.edge(move.edge)
            dead = e.v1 if move.survivor == e.v0 else e.v0
            kept = [f for f in g.edges if dead not in (f.v0, f.v1)]
        elif isinstance(move, Expansion):
            kept = [f for f in g.edges if f.eid not in {end.edge for end in move.moved_ends}]
        else:
            kept = [f for f in g.edges if f.eid != move.moving_end.edge]
        h = apply_move(g, move)
        assert all(any(f is k for k in h.edges) for f in kept), move


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=4, max_extra_edges=2), st.integers(0, 2**32))
def test_transported_moves_apply_across_an_isomorphism(g, seed):
    # Each deform move of g, and its inverse (whose factor can be negative),
    # carried onto a scrambled copy gives a result canon-equal to g's.
    h = scramble(g, seed)
    iso = graph_isomorphism(g, h)
    for move in neighbor_moves(g, "deform", ExpansionBounds(max_n=6, max_subset_size=2)):
        after_g = apply_move(g, move)
        after_h = apply_move(h, transport_move(move, iso, h))
        assert canonical_certificate(after_h) == canonical_certificate(after_g)
        inverse = invert_move(g, move)
        back = apply_move(after_h, transport_move(
            inverse, graph_isomorphism(after_g, after_h), after_h))
        assert canonical_certificate(back) == canonical_certificate(g)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=4, max_extra_edges=2))
def test_perturbed_moves_are_rejected(g):
    for move in enumerate_slides(g):
        with pytest.raises(IllegalMoveError):
            apply_move(g, Slide(move.moving_end, End(move.moving_end.edge,
                                                     1 - move.moving_end.side)))
    for move in enumerate_collapses(g):
        edge = g.edge(move.edge)
        other = edge.v0 if move.survivor == edge.v1 else edge.v1
        if abs(edge.index(0 if other == edge.v1 else 1)) != 1:
            with pytest.raises(IllegalMoveError):
                apply_move(g, Collapse(move.edge, other))
    for move in enumerate_expansions(g, ExpansionBounds(max_n=9))[:5]:
        with pytest.raises(IllegalMoveError):
            apply_move(g, Expansion(move.vertex, move.n, move.moved_ends,
                                    move.new_vertex, g.edges[0].eid))


def test_empty_subset_expansion_applies_but_is_not_enumerated(x):
    move = Expansion(vertex="B", n=5, moved_ends=(), new_vertex="Q", new_edge="d")
    out = apply_move(x, move)
    d = out.edge("d")
    assert (d.v0, d.v1, d.i0, d.i1) == ("B", "Q", 5, 1)
    assert all(m.moved_ends for m in enumerate_expansions(x, BOUNDS))
    # factor 1 is likewise legal to apply, just never enumerated
    assert len(apply_move(x, Expansion("B", 1, (End("t", 1),), "Q", "d")).end_table()["Q"]) == 2


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=5, max_extra_edges=2))
def test_predicate_consistency(g):
    r = analyze(g)
    assert r.reduced == (enumerate_collapses(g) == [])
    assert r.jsj == ("QUALIFIED" if r.reduced and r.unfolded_sufficient
                     and r.geometry == "general" else r.jsj)
    assert (r.jsj == "QUALIFIED") == (
        r.reduced and r.unfolded_sufficient and r.geometry == "general")
    if r.strongly_slide_free:
        assert r.minimal
        assert enumerate_slides(g) == []


def test_script_round_trip():
    moves = (
        Expansion("A", 10, (End("l", 0), End("t", 0)), "C", "u"),
        Slide(End("u", 0), End("l", 1)),
        Collapse("u", "B"),
        Expansion("B", -3, (), "Q", "d"),
    )
    text = format_script(moves)
    assert text == (
        "expand A 10 l:0 t:0 as C u\n"
        "slide u:0 along l:1\n"
        "collapse u into B\n"
        "expand B -3 as Q d\n"
    )
    assert parse_script(text) == moves


def test_script_round_trip_past_the_int_str_digit_limit():
    moves = (Expansion("A", 10 ** 5000, (End("t", 0),), "C", "u"),)
    text = format_script(moves)
    assert text == "expand A 1" + "0" * 5000 + " t:0 as C u\n"
    assert parse_script(text) == moves


@pytest.mark.parametrize("line,match", [
    ("collapse e B", "want: collapse"),
    ("slide t:0 over l:1", "want: slide"),
    ("slide t:2 along l:1", "bad end"),
    ("expand A x as Q d", "bad integer"),
    ("wiggle A", "unknown move kind"),
    ("expand A 1_0 t:0 as Q d", "bad integer"),
    ("expand A +2 as Q d", "bad integer"),
    ("expand A 002 as Q d", "bad integer"),
    ("expand A \u0662 as Q d", "bad integer"),
    ("expand A 2 as C", "want: expand VERTEX N"),
    ("", "line 1: empty move"),
    ("slide 9t:0 along l:1", "bad end"),
    ("slide t:01 along l:1", "bad end"),
    ("slide a:b:0 along l:1", "bad end"),
    ("slide :0 along l:1", "bad end"),
    (5, "line 1: line must be a str, got int"),
    (b"wiggle A", "line 1: line must be a str, got bytes"),
    (None, "line 1: line must be a str, got NoneType"),
])
def test_script_errors(line, match):
    with pytest.raises(ScriptError, match=match):
        parse_move(line, 1)


def test_parse_script_reports_line():
    with pytest.raises(ScriptError, match="line 3"):
        parse_script("collapse e into B\n\nslide bad\n")


@pytest.mark.parametrize("text, kind", [(b"collapse e into B\n", "bytes"), (None, "NoneType")])
def test_a_script_that_is_not_a_str_is_a_script_error(text, kind):
    with pytest.raises(ScriptError) as info:
        parse_script(text)
    assert (str(info.value), info.value.line) == (f"text must be a str, got {kind}", None)


def test_a_script_error_is_a_parse_error_with_a_line_and_no_column():
    with pytest.raises(ParseError) as info:
        parse_script("collapse e into B\n\nslide bad\n")
    assert (info.value.line, info.value.column) == (3, None)


def test_a_non_move_is_an_unknown_move(x):
    not_a_move = ("slide", "t:0", "l:1")
    message = "unknown move ('slide', 't:0', 'l:1')"
    iso = graph_isomorphism(x, x)
    for call in (lambda: apply_move(x, not_a_move), lambda: invert_move(x, not_a_move),
                 lambda: transport_move(not_a_move, iso, x), lambda: format_move(not_a_move)):
        with pytest.raises(IllegalMoveError) as info:
            call()
        assert str(info.value) == message
