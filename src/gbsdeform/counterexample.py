"""The two-vertex family showing deformation equivalence is coarser than
slide equivalence.

For nonzero integers m, n, r, s:

  X = vertices {A, B}, loop at A with indices (m*n*r, r), edge A-B with
      indices (r*m^2 at A, s at B);
  Y = the mirror image with m and n, r and s exchanged: loop at B with
      (m*n*s, s), edge B-A with (s*n^2 at B, r at A).

X and Y are joined by a four-move deformation (expand, slide, slide,
collapse), replayed and checked here.  When neither of m, n divides the
other, the slide class of X is a ray X_0, X_1, ... whose free-edge index at
level k is r*m^(k+2)*n^k, and Y appears nowhere on it; ``verify_slide_ladder``
certifies that shape level by level up to a chosen depth.  It compares each
level's slide results with its neighbours as an ordered list of values, and Y
through ``is_isomorphic``, so no index becomes decimal text and no graph is
hashed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import is_isomorphic
from .graphs import Edge, EdgeIndexedGraph, End, _repr, _require_int
from .moves import Collapse, Expansion, Move, Slide, apply_move, enumerate_slides

__all__ = [
    "ExampleParams",
    "LadderHypothesisError",
    "example_graph",
    "free_edge_index",
    "deformation_moves",
    "DeformationReport",
    "replay_deformation",
    "LadderLevel",
    "LadderCertificate",
    "verify_slide_ladder",
    "index_tuple",
]


class LadderHypothesisError(ValueError):
    """The ladder certificate needs m and n to not divide each other."""


@dataclass(frozen=True, slots=True)
class ExampleParams:
    m: int
    n: int
    r: int
    s: int

    def __post_init__(self) -> None:
        for name in ("m", "n", "r", "s"):
            _require_int(f"parameter {name}", getattr(self, name), least=None)
            if getattr(self, name) == 0:
                raise ValueError(f"parameter {name} must be nonzero")

    @property
    def m_n_incomparable(self) -> bool:
        """Neither of m, n divides the other; gates the ladder claims."""
        return self.n % self.m != 0 and self.m % self.n != 0


def free_edge_index(p: ExampleParams, k: int) -> int:
    """Index of the non-loop edge at the loop vertex on ladder level k >= 0."""
    _require_int("ladder level k", k)
    return p.r * p.m ** (k + 2) * p.n ** k


def _level(p: ExampleParams, index: int) -> EdgeIndexedGraph:
    """The ladder level whose free edge has ``index`` at the loop vertex.

    ``ExampleParams`` checks the parameters, so this graph and Y are built
    unchecked: nonzero parameters and index make every invariant hold."""
    return EdgeIndexedGraph(("A", "B"), (Edge("l", "A", "A", p.m * p.n * p.r, p.r),
                                         Edge("t", "A", "B", index, p.s)))


def example_graph(which: str, p: ExampleParams) -> EdgeIndexedGraph:
    """Construct X (ladder level 0) or Y."""
    if which == "X":
        return _level(p, free_edge_index(p, 0))
    if which == "Y":
        return EdgeIndexedGraph(("A", "B"), (Edge("l", "B", "B", p.m * p.n * p.s, p.s),
                                             Edge("t", "B", "A", p.s * p.n * p.n, p.r)))
    raise ValueError(f"unknown example graph {which!r}")


def deformation_moves(p: ExampleParams) -> tuple[Move, ...]:
    """The four-move deformation from X to Y.

    Expand at A by r*m, carrying the loop's big end and the free edge's end
    to a new vertex C; slide the new edge's end around what is left of the
    loop; slide it again across the free edge; collapse it into B.
    """
    return (
        Expansion(vertex="A", n=p.r * p.m,
                  moved_ends=(End("l", 0), End("t", 0)),
                  new_vertex="C", new_edge="u"),
        Slide(moving_end=End("u", 0), along=End("l", 1)),
        Slide(moving_end=End("u", 0), along=End("t", 0)),
        Collapse(edge="u", survivor="B"),
    )


@dataclass(slots=True)
class DeformationReport:
    moves: tuple[Move, ...]
    index_tuples: tuple[tuple[int, ...], ...]
    endpoint_matches: bool


def replay_deformation(p: ExampleParams) -> DeformationReport:
    """Apply the four moves from X and check the endpoint against Y.

    An illegal step signals a fault in the move engine, not bad input; the
    moves are legal for every choice of nonzero parameters.
    """
    g = example_graph("X", p)
    graphs = [g]
    moves = deformation_moves(p)
    for move in moves:
        g = apply_move(g, move)
        graphs.append(g)
    target = example_graph("Y", p)
    return DeformationReport(
        moves=moves,
        index_tuples=tuple(index_tuple(h) for h in graphs),
        endpoint_matches=is_isomorphic(graphs[-1], target),
    )


def index_tuple(g: EdgeIndexedGraph) -> tuple[int, ...]:
    """Read a graph's indices in a breadth-first order, for reports.

    Vertices are ranked breadth-first from the smallest identifier; edges are
    listed by (rank pair, index pair, id) with each pair read from the
    lower-ranked endpoint, loops in declaration side order.
    """
    order = [g.vertices[0]]         # the breadth-first queue: it grows as it is read
    for v in order:
        for _, v0, v1, _, _ in g.edges:
            for near, far in ((v0, v1), (v1, v0)):      # (edge id, side) order
                if near == v and far not in order:
                    order.append(far)
    rank = {v: r for r, v in enumerate(order)}
    keyed = []
    for e in g.edges:
        r0, r1 = rank[e.v0], rank[e.v1]
        if r1 < r0:
            pair = (e.i1, e.i0)
            ranks = (r1, r0)
        else:
            pair = (e.i0, e.i1)
            ranks = (r0, r1)
        keyed.append((ranks, pair, e.eid))
    keyed.sort()
    return tuple(x for (_, pair, _) in keyed for x in pair)


@dataclass(frozen=True, slots=True)
class LadderLevel:
    """Level k of the ladder and its slide count.  It keeps k, not the index,
    whose digits grow linearly in k; ``index`` computes one power on each read."""

    params: ExampleParams
    k: int
    move_count: int

    @property
    def index(self) -> int:
        return free_edge_index(self.params, self.k)


@dataclass(slots=True)
class LadderCertificate:
    """Machine-checked: to the given depth, the slide class of X is the path
    X_0 - X_1 - ... with the predicted indices, and Y is on no level.

    This certifies that no slide path of length at most the depth joins X
    and Y; the unbounded statement needs the induction, not a computation.
    """

    depth: int
    levels: tuple[LadderLevel, ...]
    shape_ok: bool
    y_absent: bool

    @property
    def ok(self) -> bool:
        return self.shape_ok and self.y_absent


def verify_slide_ladder(p: ExampleParams, depth: int) -> LadderCertificate:
    """Check the ladder shape for levels 0..depth, where depth >= 0.

    Level k's slide results, in ``enumerate_slides``' order, must be the list
    [level k-1, level k+1], or [level 1] at k = 0, each level's index I_k being
    the last one's times m*n.  That order is fixed: slides are listed by moving
    end, then carrier end, and only t:0 can move (|m|, |n| >= 2).  Along l:0 it
    needs m*n*r | I_k and gives level k-1; along l:1 it gives level k+1; l:0
    sorts first; and at k = 0 m*n*r does not divide r*m^2, as n does not divide
    m.  A list equal to [*below, above] is equal to it as a set, so the ordered
    check is the stricter one, and it hashes no graph: a hash reads every digit
    of an index.  A slide result is label for label its level, so this equality
    is the class equality the certificate claims.  Only Y, labelled
    differently, goes through ``is_isomorphic``, which builds a canonical form
    only on a tie, so no index becomes text.  Only levels k-1, k, k+1 are held
    as graphs; the loop carries I_k as an int, and a certificate level keeps k
    and its move count, and its ``index`` computes one power on each read."""
    _require_int("ladder depth", depth)
    if not p.m_n_incomparable:
        raise LadderHypothesisError(
            f"need m and n to not divide each other, got m={_repr(p.m)}, n={_repr(p.n)}")
    y = example_graph("Y", p)
    step = p.m * p.n
    index = free_edge_index(p, 0)
    below, g = [], _level(p, index)
    levels = []
    shape_ok = y_absent = True
    for k in range(depth + 1):
        index *= step
        above = _level(p, index)
        slides = enumerate_slides(g)
        results = [apply_move(g, mv) for mv in slides]
        shape_ok = shape_ok and results == [*below, above]
        y_absent = y_absent and not is_isomorphic(g, y)
        levels.append(LadderLevel(p, k, len(slides)))
        below, g = [g], above
    return LadderCertificate(
        depth=depth,
        levels=tuple(levels),
        shape_ok=shape_ok,
        y_absent=y_absent,
    )
