import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gbsdeform import (
    Collapse,
    EdgeIndexedGraph,
    Expansion,
    Slide,
    analyze,
    apply_move,
    canonical,
    canonical_certificate,
    canonical_form,
    counterexample,
    enumerate_slides,
    graph_isomorphism,
    is_isomorphic,
    parse_graph,
)
from gbsdeform.counterexample import (
    ExampleParams,
    LadderHypothesisError,
    example_graph,
    free_edge_index,
    index_tuple,
    replay_deformation,
    verify_slide_ladder,
)

from strategies import X_TEXT, Y_TEXT, assert_valid, edge_named, ladder_level, scramble

P = ExampleParams(2, 3, 5, 7)

nonzero = st.integers(-6, 6).filter(lambda v: v != 0)


def test_params_validation_and_flags():
    with pytest.raises(ValueError, match="^parameter m must be nonzero$"):
        ExampleParams(0, 3, 5, 7)
    assert P.m_n_incomparable
    assert not ExampleParams(2, 4, 5, 7).m_n_incomparable


def test_example_graphs_instantiate_the_diagrams():
    assert example_graph("X", P) == parse_graph(X_TEXT)
    assert example_graph("Y", P) == parse_graph(Y_TEXT)
    assert edge_named(ladder_level(P, 1), "t").i0 == 120
    assert ladder_level(P, 0) == example_graph("X", P)
    for which in ("Z", "Xk"):
        with pytest.raises(ValueError, match=f"^unknown example graph '{which}'$"):
            example_graph(which, P)


def test_free_edge_index_formula():
    values = [free_edge_index(P, k) for k in range(7)]
    assert values == [20, 120, 720, 4320, 25920, 155520, 933120]


@pytest.mark.parametrize("value", [1.5, 2.0, "3", True])
def test_a_ladder_level_or_depth_must_be_an_int(value):
    # Unchecked, a float level gives a float index and True certifies "depth True".
    with pytest.raises(ValueError) as info:
        free_edge_index(P, value)
    assert str(info.value) == f"ladder level k must be an int of at least 0, got {value!r}"
    with pytest.raises(ValueError) as info:
        verify_slide_ladder(P, value)
    assert str(info.value) == f"ladder depth must be an int of at least 0, got {value!r}"
    assert not isinstance(info.value, LadderHypothesisError)


def test_deformation_script_shape_and_tuples():
    report = replay_deformation(P)
    kinds = tuple(type(m) for m in report.moves)
    assert kinds == (Expansion, Slide, Slide, Collapse)
    assert report.index_tuples == (
        (30, 5, 20, 7),
        (5, 3, 10, 1, 2, 7),
        (5, 3, 6, 1, 2, 7),
        (5, 3, 1, 21, 2, 7),
        (5, 63, 42, 7),
    )
    assert report.endpoint_matches


def test_deformation_mirrored_parameters():
    p = ExampleParams(3, 2, 7, 5)
    report = replay_deformation(p)
    assert report.endpoint_matches
    g = example_graph("X", p)
    for move in report.moves:
        g = apply_move(g, move)
    assert is_isomorphic(g, example_graph("Y", p))


@settings(max_examples=40, deadline=None)
@given(nonzero, nonzero, nonzero, nonzero)
def test_deformation_closes_for_all_nonzero_parameters(m, n, r, s):
    report = replay_deformation(ExampleParams(m, n, r, s))
    assert report.endpoint_matches


@settings(max_examples=30, deadline=None)
@given(nonzero, nonzero, nonzero, nonzero)
def test_qualification_under_the_stated_hypotheses(m, n, r, s):
    p = ExampleParams(m, n, r, s)
    if not (p.m_n_incomparable and abs(r) >= 2 and abs(s) >= 2):
        return
    assert analyze(example_graph("X", p)).jsj == "QUALIFIED"
    assert analyze(example_graph("Y", p)).jsj == "QUALIFIED"


def test_ladder_certificate_small_depth():
    cert = verify_slide_ladder(P, 0)
    assert cert.shape_ok and cert.y_absent
    assert cert.levels[0].move_count == 1
    cert6 = verify_slide_ladder(P, 6)
    assert cert6.ok
    assert [lv.index for lv in cert6.levels] == [
        20, 120, 720, 4320, 25920, 155520, 933120]
    assert [lv.move_count for lv in cert6.levels] == [1, 2, 2, 2, 2, 2, 2]


def test_ladder_certificate_past_the_int_str_digit_limit():
    # The deepest levels carry indices of more than 4,300 digits, CPython's
    # default int<->str limit, which certificates must get past.
    p = ExampleParams(2, 3, 5, 7)
    assert len(str(free_edge_index(p, 4000))) < 4300
    cert = verify_slide_ladder(p, 5600)
    assert cert.ok
    assert cert.levels[-1].index == free_edge_index(p, 5600)


# The ladder certificate's tracemalloc peak at the benchmark's depth, 4,500:
# 3.92 MB on Python 3.11 while each level kept its index, of about 0.78*k
# digits, so that the memory it held grew x3.6 from depth 2,250 to 4,500;
# 0.469 MB since a level keeps k and computes its index on each read, growing
# x2.04.  The ceiling is 26 % above that reading; the growth bound fails a
# certificate that holds memory quadratic in its depth under any ceiling.
LADDER_PEAK_BYTES = 590_000
LADDER_HELD_GROWTH = 2.2


def test_the_ladder_keeps_its_memory_linear_in_its_depth():
    held = {}
    for depth in (2250, 4500):
        tracemalloc.start()
        try:
            cert = verify_slide_ladder(P, depth)
            held[depth], peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.ok
    assert peak < LADDER_PEAK_BYTES
    assert held[4500] <= LADDER_HELD_GROWTH * held[2250]


def test_negative_ladder_depth_is_an_error_not_a_skip():
    with pytest.raises(ValueError, match="ladder depth must be an int of at least 0, got -3") as info:
        verify_slide_ladder(P, -3)
    assert not isinstance(info.value, LadderHypothesisError)


def test_ladder_hypotheses_enforced():
    with pytest.raises(LadderHypothesisError):
        verify_slide_ladder(ExampleParams(2, 4, 5, 7), 3)


LADDER_MN = [(2, 3), (3, 2), (2, 5), (4, 6), (-2, 3), (5, -3)]
LADDER_RS = st.integers(-5, 5).filter(lambda v: v != 0)    # unit indices and either sign


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(LADDER_MN), LADDER_RS, LADDER_RS)
def test_ladder_holds_across_parameters(mn, r, s):
    m, n = mn
    cert = verify_slide_ladder(ExampleParams(m, n, r, s), 5)
    assert cert.ok
    assert all(lv.index == free_edge_index(ExampleParams(m, n, r, s), k)
               for k, lv in enumerate(cert.levels))


def test_example_graphs_meet_every_invariant():
    # They are built unchecked from parameters that ExampleParams checked;
    # ladder_level builds the levels the same way.
    for mn, r, s in itertools.product(LADDER_MN, range(2, 6), range(2, 6)):
        p = ExampleParams(*mn, r, s)
        for g in [example_graph("X", p), example_graph("Y", p),
                  *(ladder_level(p, k) for k in (*range(6), 5600))]:
            assert_valid(g)


def test_index_tuple_reads_breadth_first():
    assert index_tuple(parse_graph(X_TEXT)) == (30, 5, 20, 7)
    assert index_tuple(parse_graph(Y_TEXT)) == (5, 63, 42, 7)
    assert index_tuple(parse_graph("vertex A")) == ()


def test_ladder_certs_are_distinct_levels():
    cert = verify_slide_ladder(P, 4)
    graphs = [ladder_level(P, k) for k in range(5)]
    byte_certs = {canonical_certificate(g) for g in graphs}
    assert len(byte_certs) == 5
    y_cert = canonical_certificate(example_graph("Y", P))
    assert y_cert not in byte_certs
    assert cert.y_absent


@pytest.mark.parametrize("mn", LADDER_MN)
def test_ladder_keys_are_equal_exactly_when_certificates_are(mn):
    # Levels 0..31, Y and every slide result of levels 0..30, for each r, s
    # of test_ladder_holds_across_parameters.  Keys and bytes pair one to one
    # exactly when, for every two graphs, equal keys go with equal bytes.
    for r, s in itertools.product(range(2, 6), repeat=2):
        p = ExampleParams(*mn, r, s)
        levels = [ladder_level(p, k) for k in range(32)]
        graphs = levels + [example_graph("Y", p)]
        graphs += [apply_move(g, mv) for g in levels[:31] for mv in enumerate_slides(g)]
        keys = [canonical_form(g).key for g in graphs]
        certs = [canonical_certificate(g) for g in graphs]
        assert len(set(keys)) == len(set(certs)) == len(set(zip(keys, certs)))
        assert len(set(keys)) == 33


@pytest.mark.parametrize("wrong", [0, 3, 6])
def test_ladder_shape_check_fires_on_a_wrong_slide(monkeypatch, wrong):
    real = counterexample.apply_move

    def slide(g, mv):
        # Level `wrong` slides onto itself instead of onto its neighbours.
        return g if edge_named(g, "t").i0 == free_edge_index(P, wrong) else real(g, mv)

    monkeypatch.setattr(counterexample, "apply_move", slide)
    cert = verify_slide_ladder(P, 6)
    assert not cert.shape_ok and cert.y_absent


@pytest.mark.parametrize("edit", [lambda slides: slides[1:], lambda slides: slides[:1] + slides],
                         ids=["dropped", "repeated"])
def test_ladder_shape_check_fires_on_a_dropped_or_repeated_slide(monkeypatch, edit):
    # The ordered list comparison also checks the slide count: level 3 loses
    # its first slide, or lists it twice.
    real = counterexample.enumerate_slides

    def slides(g):
        found = real(g)
        return edit(found) if edge_named(g, "t").i0 == free_edge_index(P, 3) else found

    monkeypatch.setattr(counterexample, "enumerate_slides", slides)
    cert = verify_slide_ladder(P, 6)
    assert not cert.shape_ok and cert.y_absent


def test_the_ladder_hashes_no_graph(monkeypatch):
    # A graph's hash reads every digit of its indices, about 3,500 of them at
    # the benchmark's depth; the ladder compares each level's slide results
    # with its neighbours as an ordered list.
    def unhashable(g):
        raise AssertionError("a graph was hashed")

    monkeypatch.setattr(EdgeIndexedGraph, "__hash__", unhashable)
    assert verify_slide_ladder(P, 50).ok


@pytest.mark.parametrize("level, absent", [(0, False), (6, False), (7, True)])
def test_ladder_y_check_covers_levels_0_to_depth(monkeypatch, level, absent):
    real = counterexample.example_graph

    def graph(which, p):
        return ladder_level(p, level) if which == "Y" else real(which, p)

    monkeypatch.setattr(counterexample, "example_graph", graph)
    cert = verify_slide_ladder(P, 6)
    assert cert.shape_ok and cert.y_absent == absent


def test_ladder_writes_no_index_as_text(monkeypatch):
    def text(x):
        raise AssertionError("an index was written as text")

    monkeypatch.setattr(canonical, "index_str", text)
    assert verify_slide_ladder(P, 50).ok


def test_class_equality_writes_no_index_as_text(monkeypatch):
    # Level-5600 indices have thousands of digits; equality compares keys.
    g = ladder_level(P, 5600)
    h = scramble(g, 3)
    other = ladder_level(P, 5599)

    def text(x):
        raise AssertionError("an index was written as text")

    monkeypatch.setattr(canonical, "index_str", text)
    assert is_isomorphic(g, h) and not is_isomorphic(g, other)
    assert graph_isomorphism(g, h) is not None and graph_isomorphism(g, other) is None


# Every certificate of the `scripts/ladder_table.py --max-param 5` sweep at
# depth 40: (depth, shape_ok, y_absent, [(index, move count), ...]) per row.
LADDER_SWEEP_SHA256 = "0e7183d51783cb30f387be8b488ea1fc8885cfdf682dbfd15553dab30942414d"


def test_ladder_certificates_of_the_sweep_are_pinned():
    lines = []
    for m, n in itertools.permutations(range(2, 6), 2):
        for r, s in ((5, 7), (7, 5)):
            p = ExampleParams(m, n, r, s)
            if p.m_n_incomparable:
                cert = verify_slide_ladder(p, 40)
                lines.append(repr((cert.depth, cert.shape_ok, cert.y_absent,
                                   [(lv.index, lv.move_count) for lv in cert.levels])))
    assert len(lines) == 20
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LADDER_SWEEP_SHA256


def test_the_ladder_calls_each_layer_through_its_module_binding(monkeypatch):
    # The benchmark's tracer times the move enumeration, move application and
    # canonical layers by wrapping these three bindings of the ladder's
    # module; a ladder that inlined one would hide its layer from the trace.
    calls = {}

    def counted(name):
        real = getattr(counterexample, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return wrapper

    for name in ("enumerate_slides", "apply_move", "is_isomorphic"):
        monkeypatch.setattr(counterexample, name, counted(name))
    assert verify_slide_ladder(P, 3).ok
    assert calls == {"enumerate_slides": 4, "apply_move": 7, "is_isomorphic": 4}


def test_the_ladder_makes_no_canonical_form(canonical_form_calls):
    assert verify_slide_ladder(ExampleParams(2, 3, 5, 7), 300).ok
    assert canonical_form_calls == []
    # At (2, 3, 3, 2) Y ties with level 0 on both cheap invariants, so the
    # count sees the fallback there.
    assert verify_slide_ladder(ExampleParams(2, 3, 3, 2), 1).ok
    assert len(canonical_form_calls) == 2
