import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gbsdeform import (
    Collapse,
    Expansion,
    Slide,
    analyze,
    canonical_certificate,
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

from strategies import X_TEXT, Y_TEXT

P = ExampleParams(2, 3, 5, 7)

nonzero = st.integers(-6, 6).filter(lambda v: v != 0)


def test_params_validation_and_flags():
    with pytest.raises(ValueError, match="nonzero"):
        ExampleParams(0, 3, 5, 7)
    assert P.m_n_incomparable and P.r_s_nontrivial
    assert not ExampleParams(2, 4, 5, 7).m_n_incomparable
    assert not ExampleParams(2, 3, 1, 7).r_s_nontrivial


def test_example_graphs_instantiate_the_diagrams():
    assert example_graph("X", P) == parse_graph(X_TEXT)
    assert example_graph("Y", P) == parse_graph(Y_TEXT)
    x1 = example_graph("Xk", P, 1)
    assert x1.edge("t").i0 == 120
    assert example_graph("Xk", P, 0) == example_graph("X", P)
    with pytest.raises(ValueError, match="unknown example"):
        example_graph("Z", P)


def test_free_edge_index_formula():
    values = [free_edge_index(P, k) for k in range(7)]
    assert values == [20, 120, 720, 4320, 25920, 155520, 933120]


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
    report = replay_deformation(ExampleParams(3, 2, 7, 5))
    assert report.endpoint_matches
    assert is_isomorphic(report.graphs[-1],
                         example_graph("Y", ExampleParams(3, 2, 7, 5)))


@settings(max_examples=40, deadline=None)
@given(nonzero, nonzero, nonzero, nonzero)
def test_deformation_closes_for_all_nonzero_parameters(m, n, r, s):
    report = replay_deformation(ExampleParams(m, n, r, s))
    assert report.endpoint_matches


@settings(max_examples=30, deadline=None)
@given(nonzero, nonzero, nonzero, nonzero)
def test_qualification_under_the_stated_hypotheses(m, n, r, s):
    p = ExampleParams(m, n, r, s)
    if not (p.m_n_incomparable and p.r_s_nontrivial):
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


def test_negative_ladder_depth_is_an_error_not_a_skip():
    with pytest.raises(ValueError, match="ladder depth must be at least 0, got -3") as info:
        verify_slide_ladder(P, -3)
    assert not isinstance(info.value, LadderHypothesisError)


def test_ladder_hypotheses_enforced():
    with pytest.raises(LadderHypothesisError):
        verify_slide_ladder(ExampleParams(2, 4, 5, 7), 3)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (2, 5), (4, 6), (-2, 3), (5, -3)]),
       st.integers(2, 5), st.integers(2, 5))
def test_ladder_holds_across_parameters(mn, r, s):
    m, n = mn
    cert = verify_slide_ladder(ExampleParams(m, n, r, s), 5)
    assert cert.ok
    assert all(lv.index == free_edge_index(ExampleParams(m, n, r, s), k)
               for k, lv in enumerate(cert.levels))


def test_index_tuple_reads_breadth_first():
    assert index_tuple(parse_graph(X_TEXT)) == (30, 5, 20, 7)
    assert index_tuple(parse_graph(Y_TEXT)) == (5, 63, 42, 7)
    assert index_tuple(parse_graph("vertex A")) == ()


def test_ladder_certs_are_distinct_levels():
    cert = verify_slide_ladder(P, 4)
    graphs = [example_graph("Xk", P, k) for k in range(5)]
    byte_certs = {canonical_certificate(g) for g in graphs}
    assert len(byte_certs) == 5
    y_cert = canonical_certificate(example_graph("Y", P))
    assert y_cert not in byte_certs
    assert cert.y_absent
