import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsdeform import (
    End,
    SizeCapError,
    canonical_certificate,
    canonical_form,
    class_invariant,
    graph_from_parts,
    graph_isomorphism,
    is_isomorphic,
    parse_graph,
    serialize_graph,
)

from oracles import brute_force_isomorphic, oracle_min_encoding
from strategies import (
    X_TEXT, Y_TEXT, connected_graphs, flip_signs, loop, scramble, scramble_with_end_swaps,
    sign_flips,
)


def test_certificate_bytes_are_the_minimal_encoding():
    # Hand check: rank A first; the loop pair (30, 5) ordered by magnitude
    # then negated by the free pair sign; the A-B edge likewise.
    g = parse_graph(X_TEXT)
    assert canonical_certificate(g) == b"v2:0,0,-5,-30;0,1,-20,-7"


def test_certificate_invariant_under_relabel_and_flips():
    g = parse_graph(X_TEXT)
    for seed in range(25):
        assert canonical_certificate(scramble(g, seed)) == canonical_certificate(g)


def test_loop_sign_classes_differ():
    # The product of the two end signs of a loop survives every sign flip.
    assert canonical_certificate(loop(2, 3)) != canonical_certificate(loop(2, -3))
    assert canonical_certificate(loop(2, 3)) == canonical_certificate(loop(-2, -3))
    assert canonical_certificate(loop(2, -3)) == canonical_certificate(loop(-2, 3))
    assert canonical_certificate(loop(2, 3)) == canonical_certificate(loop(3, 2))
    assert not brute_force_isomorphic(loop(2, 3), loop(2, -3))
    assert brute_force_isomorphic(loop(2, 3), loop(-2, -3))


def test_single_vertices_match():
    a = parse_graph("vertex A")
    b = parse_graph("vertex B")
    assert canonical_certificate(a) == canonical_certificate(b)
    assert is_isomorphic(a, b)


def test_example_pair_is_distinct():
    x = parse_graph(X_TEXT)
    y = parse_graph(Y_TEXT)
    assert not is_isomorphic(x, y)
    assert not brute_force_isomorphic(x, y)


def test_point_vs_unit_loop():
    assert not is_isomorphic(parse_graph("vertex A"), loop(1, 1))


def test_size_caps():
    big = graph_from_parts(
        [f"v{i}" for i in range(13)],
        [(f"e{i}", f"v{i}", f"v{i+1}", 2, 3) for i in range(12)])
    with pytest.raises(SizeCapError):
        canonical_certificate(big)
    with pytest.raises(SizeCapError, match="graph has 13 vertices, cap is 12"):
        class_invariant(big)
    with pytest.raises(SizeCapError, match="graph has 13 vertices, cap is 12"):
        is_isomorphic(big, big)
    with pytest.raises(SizeCapError, match="graph has 13 vertices, cap is 12"):
        graph_isomorphism(big, big)
    seven = graph_from_parts(
        [f"v{i}" for i in range(7)],
        [(f"e{i}", f"v{i}", f"v{i+1}", 2, 3) for i in range(6)])
    with pytest.raises(SizeCapError):
        brute_force_isomorphic(seven, seven)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_class_invariant_is_equal_on_relabels_and_sign_flips(data):
    g = data.draw(connected_graphs(max_vertices=5, max_extra_edges=3))
    seed = data.draw(st.integers(0, 2**16))
    flipped = flip_signs(g, *data.draw(sign_flips(g)))
    for other in (scramble(g, seed), scramble_with_end_swaps(g, seed), flipped):
        assert class_invariant(other) == class_invariant(g)


def test_class_invariant_reads_absolute_indices_and_loops():
    # A: the loop read from each end, then t; B: t from its far end.
    assert class_invariant(parse_graph(X_TEXT)) == (
        2, (((5, 30, True), (20, 7, False), (30, 5, True)), ((7, 20, False),)))


def test_class_invariant_hashes_alike_in_every_process():
    # Only ints and bools: no string is hashed, so PYTHONHASHSEED moves nothing.
    code = ("from gbsdeform import class_invariant, parse_graph\n"
            f"print(hash(class_invariant(parse_graph({X_TEXT!r}))))")
    hashes = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONHASHSEED": seed}).stdout
              for seed in ("1", "2")}
    assert hashes == {f"{hash(class_invariant(parse_graph(X_TEXT)))}\n"}


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=4, max_extra_edges=2))
def test_oracle_agreement_on_scrambles(g):
    h = scramble(g, sum(map(abs, (e.i0 * e.i1 for e in g.edges))) + len(g.vertices))
    assert is_isomorphic(g, h)
    assert brute_force_isomorphic(g, h)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=4, max_extra_edges=1),
       connected_graphs(max_vertices=4, max_extra_edges=1))
def test_oracle_agreement_on_cross_pairs(g1, g2):
    assert is_isomorphic(g1, g2) == brute_force_isomorphic(g1, g2)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=4, max_extra_edges=2),
       connected_graphs(max_vertices=4, max_extra_edges=2), st.integers(0, 1000))
def test_is_isomorphic_agrees_with_canonical_keys(g, h, seed):
    for other in (g, h, scramble(g, seed), scramble_with_end_swaps(g, seed)):
        assert is_isomorphic(g, other) == (canonical_form(g).key == canonical_form(other).key)


def test_is_isomorphic_canonicalizes_only_on_a_tie(canonical_form_calls):
    # Three vertices and absolute pairs (2, 3), (5, 7) in both paths, but B
    # carries 3 and 5 in one and 3 and 7 in the other.
    g = parse_graph("vertex A\nvertex B\nvertex C\nedge e A B 2 3\nedge f B C 5 7\n")
    h = parse_graph("vertex A\nvertex B\nvertex C\nedge e A B 2 3\nedge f B C 7 5\n")
    assert not brute_force_isomorphic(g, h) and not is_isomorphic(g, h)
    assert canonical_form_calls == [g, h]
    canonical_form_calls.clear()
    # Label-equal graphs, and graphs apart in vertex count or in absolute
    # pairs, are decided without a form.
    assert is_isomorphic(g, parse_graph(serialize_graph(g)))
    assert not is_isomorphic(g, parse_graph(X_TEXT))
    assert not is_isomorphic(g, parse_graph(serialize_graph(h).replace("7 5", "7 6")))
    assert canonical_form_calls == []


def _plain_multigraph_isomorphic(g1, g2):
    """Labeled multigraph isomorphism with signs taken literally."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    target = Counter(
        tuple(sorted(((e.v0, e.i0), (e.v1, e.i1)))) for e in g2.edges)
    for perm in permutations(g2.vertices):
        phi = dict(zip(g1.vertices, perm))
        got = Counter(
            tuple(sorted(((phi[e.v0], e.i0), (phi[e.v1], e.i1)))) for e in g1.edges)
        if got == target:
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=4, max_extra_edges=1, min_abs=1, max_abs=5),
       connected_graphs(max_vertices=4, max_extra_edges=1, min_abs=1, max_abs=5))
def test_all_positive_reduction(g1, g2):
    pos1 = graph_from_parts(
        g1.vertices, [(e.eid, e.v0, e.v1, abs(e.i0), abs(e.i1)) for e in g1.edges])
    pos2 = graph_from_parts(
        g2.vertices, [(e.eid, e.v0, e.v1, abs(e.i0), abs(e.i1)) for e in g2.edges])
    assert is_isomorphic(pos1, pos2) == _plain_multigraph_isomorphic(pos1, pos2)


def test_certificate_stability_within_process():
    g = parse_graph(X_TEXT)
    assert canonical_certificate(g) == canonical_certificate(parse_graph(X_TEXT))


def test_isomorphism_witness_maps_structure():
    g = parse_graph(X_TEXT)
    h = scramble(g, 11)
    iso = graph_isomorphism(g, h)
    assert iso is not None
    assert sorted(iso.vertex_map.values()) == list(h.vertices)
    targets = []
    for e in g.edges:
        image0, image1 = (iso.end_map[End(e.eid, side)] for side in (0, 1))
        assert image0.edge == image1.edge
        f = h.edge(image0.edge)
        targets.append(f.eid)
        assert {abs(e.i0), abs(e.i1)} == {abs(f.i0), abs(f.i1)}
        assert iso.vertex_map[e.v0] in (f.v0, f.v1)
    assert sorted(targets) == [f.eid for f in h.edges]
    assert graph_isomorphism(g, parse_graph(Y_TEXT)) is None


@settings(max_examples=50, deadline=None)
@given(connected_graphs(max_vertices=5), st.integers(0, 1000))
def test_cached_certificate_is_the_form_certificate(g, seed):
    # Nothing is cached: the certificate is always the one a fresh form computes.
    assert canonical_form(g).cert == canonical_certificate(g)
    assert is_isomorphic(g, scramble(g, seed))


def test_canonical_form_has_slots_and_no_dict_after_cert_is_read():
    g = parse_graph(X_TEXT)
    form = canonical_form(g)
    assert form.cert == canonical_certificate(g)
    assert not hasattr(form, "__dict__")


def test_canonical_form_exposes_consistent_assignment():
    g = parse_graph(X_TEXT)
    form = canonical_form(g)
    assert sorted(form.order) == sorted(g.vertices)
    assert form.alpha[0] == 1
    assert graph_isomorphism(g, g) is not None


def _assert_lex_min_with_connected_prefixes(g):
    form = canonical_form(g)
    assert form.tuples == oracle_min_encoding(g)
    for k, v in enumerate(form.order[1:], start=1):
        earlier = set(form.order[:k])
        assert any({e.v0, e.v1} & earlier for e in g.edges if v in (e.v0, e.v1)), \
            f"rank {k} ({v}) is not adjacent to a lower rank"


@settings(max_examples=50, deadline=None)
@given(connected_graphs(max_vertices=5))
def test_certificate_is_the_lex_min_over_all_bijections_and_signs(g):
    _assert_lex_min_with_connected_prefixes(g)


# Tie-heavy graphs, with the rank order and vertex signs behind each
# certificate.  graph_isomorphism builds witnesses from them, and path
# stitching names its moves through those witnesses.
TIE_HEAVY = [
    (graph_from_parts(tuple("ABCD"), [("a", "A", "B", 2, 2), ("b", "B", "C", 2, 2),
                                      ("c", "C", "D", 2, 2), ("d", "D", "A", 2, 2)]),
     ("A", "B", "D", "C"), (1, 1, 1, 1)),
    (graph_from_parts(tuple("ABCD"), [(f"e{i}{j}", "ABCD"[i], "ABCD"[j], 3, 3)
                                      for i in range(4) for j in range(i + 1, 4)]),
     ("A", "B", "C", "D"), (1, 1, 1, 1)),
    (graph_from_parts(tuple("AB"), [("e", "A", "B", 2, 3), ("f", "A", "B", 2, -3)]),
     ("B", "A"), (1, 1)),
]


@pytest.mark.parametrize("g, order, alpha", TIE_HEAVY, ids=["4-cycle", "K4", "parallel"])
def test_tie_heavy_cases_are_lex_min_and_pinned(g, order, alpha):
    _assert_lex_min_with_connected_prefixes(g)
    form = canonical_form(g)
    assert (form.order, form.alpha) == (order, alpha)


# Class-equality where the search uses the certificate: 6-12 vertices, up to
# the size cap, past the oracle's reach.  Tie-heavy index sets make sibling
# dominance decide among many equal candidates.
TIE_INDEX_SETS = [(2,), (2, -2), (2, 3), (1, 2, -2, 4)]


def _random_tie_heavy_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
    values = TIE_INDEX_SETS[seed % len(TIE_INDEX_SETS)]
    return graph_from_parts([f"v{i}" for i in range(n)],
                            [(f"e{k}", f"v{a}", f"v{b}", rng.choice(values), rng.choice(values))
                             for k, (a, b) in enumerate(pairs)])


def _index_two_graph(n, pairs):
    return graph_from_parts([f"v{i}" for i in range(n)],
                            [(f"e{k}", f"v{a}", f"v{b}", 2, 2) for k, (a, b) in enumerate(pairs)])


SYMMETRIC_FAMILIES = {
    "C12": _index_two_graph(12, [(i, (i + 1) % 12) for i in range(12)]),
    "Q3": _index_two_graph(8, [(a, b) for a, b in combinations(range(8), 2)
                               if bin(a ^ b).count("1") == 1]),
    "Petersen": _index_two_graph(10, [(i, (i + 1) % 5) for i in range(5)]
                                 + [(i, i + 5) for i in range(5)]
                                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
    "K4,4": _index_two_graph(8, [(a, b) for a in range(4) for b in range(4, 8)]),
    "C10(1,3)": _index_two_graph(10, [(i, (i + d) % 10) for i in range(10) for d in (1, 3)]),
    "K8-matching": _index_two_graph(8, [(a, b) for a, b in combinations(range(8), 2)
                                        if b != a + 4]),
}


def _assert_scramble_is_class_equal(g, seed):
    h = scramble_with_end_swaps(g, seed)
    assert canonical_form(h).key == canonical_form(g).key
    iso = graph_isomorphism(g, h)
    assert iso is not None
    # Each edge's two end images lie on one edge of h, and those edges cover h once.
    targets = []
    for e in g.edges:
        images = [iso.end_map[End(e.eid, side)] for side in (0, 1)]
        assert images[0].edge == images[1].edge
        targets.append(images[0].edge)
        assert {image.side for image in images} == {0, 1}
        for side, image in enumerate(images):
            assert h.edge(image.edge).endpoint(image.side) == iso.vertex_map[e.endpoint(side)]
            assert abs(h.edge(image.edge).index(image.side)) == abs(e.index(side))
    assert sorted(targets) == [e.eid for e in h.edges]


def test_certificate_is_class_equal_on_random_tie_heavy_graphs_up_to_the_cap():
    for seed in range(200):
        _assert_scramble_is_class_equal(_random_tie_heavy_graph(seed), seed)


@pytest.mark.parametrize("name", SYMMETRIC_FAMILIES)
def test_certificate_is_class_equal_on_symmetric_families(name):
    _assert_scramble_is_class_equal(SYMMETRIC_FAMILIES[name], len(name))


# The encoding, rank order and vertex signs of every graph above, bit for
# bit: graph_isomorphism and path stitching read the order and signs, so a
# faster canonical search must reproduce them as well as the certificate.
FORMS_SHA256 = "cda8acee39c3846acd088db2513ca6729c2d5681bfa2682430b1ef3df5bda8e7"


def test_forms_of_the_symmetric_families_and_tie_heavy_graphs_are_pinned():
    graphs = list(SYMMETRIC_FAMILIES.values()) + [_random_tie_heavy_graph(s) for s in range(200)]
    lines = []
    for g in graphs:
        form = canonical_form(g)
        lines.append(repr((form.tuples, form.order, form.alpha)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FORMS_SHA256
