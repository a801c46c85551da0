"""Shared hypothesis strategies and scrambling helpers."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from gbsdeform import (
    EdgeIndexedGraph, ExpansionBounds, Move, SignFlip, apply_sign_flips, enumerate_collapses,
    enumerate_expansions, enumerate_slides, graph_from_parts, parse_graph,
)

X_TEXT = "vertex A\nvertex B\nedge l A A 30 5\nedge t A B 20 7\n"
Y_TEXT = "vertex A\nvertex B\nedge l B B 42 7\nedge t B A 63 5\n"


def loop(i0: int, i1: int) -> EdgeIndexedGraph:
    """One vertex with one loop of indices (i0, i1)."""
    return parse_graph(f"vertex A\nedge e A A {i0} {i1}")


def neighbor_moves(g: EdgeIndexedGraph, move_class: str, bounds: ExpansionBounds) -> list[Move]:
    """Every move of the class at g in one list: its slides, or under ``deform``
    its collapses, slides, then expansions.  The corpora draw their moved copies
    from this order."""
    if move_class == "slide":
        return enumerate_slides(g)
    return enumerate_collapses(g) + enumerate_slides(g) + enumerate_expansions(g, bounds)


def assert_valid(g: EdgeIndexedGraph) -> None:
    """Assert that g meets every graph invariant.

    The constructor trusts its caller, so graphs the engine builds are
    checked by rebuilding them through the validating entry.
    """
    assert graph_from_parts(g.vertices, g.edges) == g


@st.composite
def indices(draw, min_abs: int = 1, max_abs: int = 9) -> int:
    sign = draw(st.sampled_from((1, -1)))
    return sign * draw(st.integers(min_abs, max_abs))


@st.composite
def connected_graphs(draw, max_vertices: int = 5, max_extra_edges: int = 2,
                     min_abs: int = 1, max_abs: int = 9) -> EdgeIndexedGraph:
    n = draw(st.integers(1, max_vertices))
    verts = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        edges.append((f"e{len(edges)}", verts[j], verts[i],
                      draw(indices(min_abs, max_abs)), draw(indices(min_abs, max_abs))))
    for _ in range(draw(st.integers(0, max_extra_edges))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        edges.append((f"e{len(edges)}", verts[a], verts[b],
                      draw(indices(min_abs, max_abs)), draw(indices(min_abs, max_abs))))
    return graph_from_parts(verts, edges)


@st.composite
def sign_flips(draw, g: EdgeIndexedGraph) -> SignFlip:
    vf = draw(st.sets(st.sampled_from(list(g.vertices))))
    ef = draw(st.sets(st.sampled_from([e.eid for e in g.edges])) if g.edges
              else st.just(set()))
    return SignFlip(frozenset(vf), frozenset(ef))


def scramble(g: EdgeIndexedGraph, seed: int) -> EdgeIndexedGraph:
    """Relabel vertices and edges and apply a random sign flip."""
    rng = random.Random(seed)
    vnames = [f"u{i}" for i in range(len(g.vertices))]
    rng.shuffle(vnames)
    vmap = dict(zip(g.vertices, vnames))
    enames = [f"f{i}" for i in range(len(g.edges))]
    rng.shuffle(enames)
    emap = {e.eid: enames[i] for i, e in enumerate(g.edges)}
    flip = SignFlip(
        frozenset(v for v in g.vertices if rng.random() < 0.5),
        frozenset(e.eid for e in g.edges if rng.random() < 0.5),
    )
    h = apply_sign_flips(g, flip)
    return graph_from_parts(
        [vmap[v] for v in h.vertices],
        [(emap[e.eid], vmap[e.v0], vmap[e.v1], e.i0, e.i1) for e in h.edges],
    )


def scramble_with_end_swaps(g: EdgeIndexedGraph, seed: int) -> EdgeIndexedGraph:
    """``scramble``, then read each edge from its other end with probability 1/2."""
    h = scramble(g, seed)
    rng = random.Random(f"end swaps {seed}")
    return graph_from_parts(h.vertices, [
        (e.eid, e.v1, e.v0, e.i1, e.i0) if rng.random() < 0.5 else (e.eid, e.v0, e.v1, e.i0, e.i1)
        for e in h.edges])
