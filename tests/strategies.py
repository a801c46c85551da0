"""Shared hypothesis strategies and scrambling helpers."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from gbsdeform import (
    Budget, Edge, EdgeIndexedGraph, ExampleParams, ExpansionBounds, Move, Verdict,
    enumerate_collapses, enumerate_expansions, enumerate_slides, format_script, free_edge_index,
    graph_from_parts, parse_graph,
)

X_TEXT = "vertex A\nvertex B\nedge l A A 30 5\nedge t A B 20 7\n"
Y_TEXT = "vertex A\nvertex B\nedge l B B 42 7\nedge t B A 63 5\n"


def loop(i0: int, i1: int) -> EdgeIndexedGraph:
    """One vertex with one loop of indices (i0, i1)."""
    return parse_graph(f"vertex A\nedge e A A {i0} {i1}")


def ladder_level(p: ExampleParams, k: int) -> EdgeIndexedGraph:
    """Level k >= 0 of X's slide ladder (level 0 is X): the free edge has index
    ``free_edge_index(p, k)`` at the loop vertex."""
    return EdgeIndexedGraph(("A", "B"), (Edge("l", "A", "A", p.m * p.n * p.r, p.r),
                                         Edge("t", "A", "B", free_edge_index(p, k), p.s)))


def edge_named(g: EdgeIndexedGraph, eid: str) -> Edge:
    """The edge of g whose id is ``eid``: a graph is its two sorted fields and has
    no lookup of its own.  KeyError when g has no such edge."""
    for e in g.edges:
        if e.eid == eid:
            return e
    raise KeyError(eid)


def neighbor_moves(g: EdgeIndexedGraph, move_class: str, bounds: ExpansionBounds) -> list[Move]:
    """Every move of the class at g in one list: its slides, or under ``deform``
    its collapses, slides, then expansions.  The corpora draw their moved copies
    from this order."""
    if move_class == "slide":
        return enumerate_slides(g)
    return enumerate_collapses(g) + enumerate_slides(g) + enumerate_expansions(g, bounds)


def flip_signs(g: EdgeIndexedGraph, vertices=(), edges=()) -> EdgeIndexedGraph:
    """g after a change of generators: each end's index negated once if its vertex
    is in ``vertices`` and once if its edge is in ``edges``; an involution.  Names
    are not checked, so one not in g flips nothing."""
    return EdgeIndexedGraph(g.vertices, [
        Edge(eid, v0, v1, i0 if (v0 in vertices) == (eid in edges) else -i0,
             i1 if (v1 in vertices) == (eid in edges) else -i1)
        for eid, v0, v1, i0, i1 in g.edges])


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
def sign_flips(draw, g: EdgeIndexedGraph) -> tuple[set[str], set[str]]:
    """(vertices, edges) to flip, drawn from g's own names: ``flip_signs``'s arguments."""
    vf = draw(st.sets(st.sampled_from(list(g.vertices))))
    ef = draw(st.sets(st.sampled_from([e.eid for e in g.edges])) if g.edges
              else st.just(set()))
    return vf, ef


def scramble(g: EdgeIndexedGraph, seed: int) -> EdgeIndexedGraph:
    """Relabel vertices and edges and apply a random sign flip."""
    rng = random.Random(seed)
    vnames = [f"u{i}" for i in range(len(g.vertices))]
    rng.shuffle(vnames)
    vmap = dict(zip(g.vertices, vnames))
    enames = [f"f{i}" for i in range(len(g.edges))]
    rng.shuffle(enames)
    emap = {e.eid: enames[i] for i, e in enumerate(g.edges)}
    h = flip_signs(g, {v for v in g.vertices if rng.random() < 0.5},
                   {e.eid for e in g.edges if rng.random() < 0.5})
    return graph_from_parts(
        [vmap[v] for v in h.vertices],
        [(emap[e.eid], vmap[e.v0], vmap[e.v1], e.i0, e.i1) for e in h.edges],
    )


def tree_stress_pair(seed: int) -> tuple[EdgeIndexedGraph, EdgeIndexedGraph]:
    """Pair ``seed`` of ROADMAP's tree stress: two independent random trees on
    3 or 4 vertices, the second relabeled by ``scramble(g2, seed)``.

    Every draw comes from one ``random.Random(seed)``, g1's before g2's.  A tree
    draws its vertex count, ``rng.choice((3, 4))``.  Then each vertex ``v{k}``,
    k >= 1, gets its edge ``e{k}`` to a parent through five calls in this order:
    the unit index ``rng.choice((1, -1))``; the other index's absolute value
    ``rng.choice((1, 5, 7, 11, 13))`` and its sign ``rng.choice((1, -1))``; the
    side that carries the unit index, ``rng.randrange(2)``; and the parent
    ``v{rng.randrange(k)}``.  The parent's end is side 0.
    """
    rng = random.Random(seed)

    def tree() -> EdgeIndexedGraph:
        n = rng.choice((3, 4))
        edges = []
        for k in range(1, n):
            unit = rng.choice((1, -1))
            other = rng.choice((1, 5, 7, 11, 13)) * rng.choice((1, -1))
            i0, i1 = (unit, other) if rng.randrange(2) == 0 else (other, unit)
            edges.append((f"e{k}", f"v{rng.randrange(k)}", f"v{k}", i0, i1))
        return graph_from_parts([f"v{k}" for k in range(n)], edges)

    g1 = tree()
    return g1, scramble(tree(), seed)


def tree_stress_budget(seed: int) -> Budget:
    """The budget pair ``seed`` of the tree stress is decided under, at depth
    ``2 + seed % 4``."""
    return Budget(max_depth=2 + seed % 4, max_nodes=3000, max_abs_index=10**6,
                  expansion=ExpansionBounds(max_n=3, max_subset_size=2))


def random_small_graph(rng: random.Random, n: int | None = None,
                       extra: int | None = None) -> EdgeIndexedGraph:
    """A random connected graph from rng: n vertices (1-3 when None), a random
    spanning tree and ``extra`` more edges (0 or 1 when None), every index drawn
    with a sign from 1 up to one of 1, 3 or 6.  The differential, node-cap and
    soundness corpora and ROADMAP's sample S draw their graphs here."""
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


# The budgets of the differential corpus (tests/data/differential.txt), which
# sample S reuses.
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


def corpus_line(v: Verdict) -> str:
    """A verdict as one line of a pinned corpus: "kind | reason | path"."""
    path = None if v.path is None else format_script(v.path)
    return f"{v.kind} | {v.reason} | {path}"


def scramble_with_end_swaps(g: EdgeIndexedGraph, seed: int) -> EdgeIndexedGraph:
    """``scramble``, then read each edge from its other end with probability 1/2."""
    h = scramble(g, seed)
    rng = random.Random(f"end swaps {seed}")
    return graph_from_parts(h.vertices, [
        (e.eid, e.v1, e.v0, e.i1, e.i0) if rng.random() < 0.5 else (e.eid, e.v0, e.v1, e.i0, e.i1)
        for e in h.edges])
