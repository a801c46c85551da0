"""Bounded search over move graphs with canonical deduplication.

``explore_class`` runs a breadth-first enumeration of everything reachable
from a graph under one move class, keyed by canonical certificate.  A report
is *closed* when the frontier emptied and nothing was dropped by a cap; only
then is the member set the whole class.  The caps are the budget's index and
node bounds and the certificate's vertex cap (``DEFAULT_SIZE_CAP``): a move
result past it is dropped before its certificate is computed.

``decide_equivalence`` answers whether two graphs are joined by moves of a
class, using fast invariant refuters and then a bidirectional search.  The
move classes:

  slide   - slide moves only; enumeration is complete, so a closed side
            decides distinctness on its own.
  deform  - collapses, slides and bounded expansions.  A slide is itself an
            expansion followed by a collapse, so this class generates the
            elementary-deformation relation; keeping slides as single steps
            makes short deformations discoverable within small budgets.
            Expansion factors above the bound are never enumerated, so the
            step relation is not symmetric and distinctness is only claimed
            when both sides close.

Paths returned by the decision replay from the first graph and end
canon-equal to the second.  When the frontiers meet, the back half is
rebuilt by inverting the second side's moves and transporting them across
an explicit isomorphism of the meeting graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import DEFAULT_SIZE_CAP, Isomorphism, canonical_certificate, graph_isomorphism
from .graphs import EdgeIndexedGraph, End, betti_number, serialize_graph
from .moves import (
    Collapse,
    Expansion,
    ExpansionBounds,
    Move,
    Slide,
    apply_move,
    enumerate_collapses,
    enumerate_expansions,
    enumerate_slides,
    fresh_edge_id,
    fresh_vertex_id,
    invert_move,
)

__all__ = [
    "Budget",
    "ExplorationReport",
    "Verdict",
    "MOVE_CLASSES",
    "neighbor_moves",
    "explore_class",
    "decide_equivalence",
    "transport_move",
    "dump_visited",
    "adjacency_dot",
]

MOVE_CLASSES = ("slide", "deform")


@dataclass(frozen=True)
class Budget:
    max_depth: int = 4
    max_nodes: int = 100_000
    max_abs_index: int = 1_000_000
    expansion: ExpansionBounds = ExpansionBounds()


def neighbor_moves(g: EdgeIndexedGraph, move_class: str, bounds: ExpansionBounds) -> list[Move]:
    if move_class == "slide":
        return list(enumerate_slides(g))
    if move_class == "deform":
        return (list(enumerate_collapses(g)) + list(enumerate_slides(g))
                + list(enumerate_expansions(g, bounds)))
    raise ValueError(f"unknown move class {move_class!r}")


@dataclass
class ExplorationReport:
    move_class: str
    members: dict[bytes, EdgeIndexedGraph]
    depths: dict[bytes, int]
    adjacency: dict[bytes, tuple[bytes, ...]]
    closed: bool
    hit_index_cap: bool
    hit_node_cap: bool
    hit_size_cap: bool = False


def explore_class(g: EdgeIndexedGraph, move_class: str, budget: Budget) -> ExplorationReport:
    """BFS closure of g under one move class, deduplicated by certificate."""
    start = canonical_certificate(g)
    members: dict[bytes, EdgeIndexedGraph] = {start: g}
    depths: dict[bytes, int] = {start: 0}
    adjacency: dict[bytes, set[bytes]] = {start: set()}
    hit_index_cap = hit_node_cap = hit_size_cap = False
    frontier = [start]
    depth = 0
    while frontier and depth < budget.max_depth:
        nxt: list[bytes] = []
        for cert_u in frontier:
            gu = members[cert_u]
            for move in neighbor_moves(gu, move_class, budget.expansion):
                h = apply_move(gu, move)
                if h.max_abs_index() > budget.max_abs_index:
                    hit_index_cap = True
                    continue
                if len(h.vertices) > DEFAULT_SIZE_CAP:
                    hit_size_cap = True
                    continue
                cert_h = canonical_certificate(h)
                if cert_h not in members:
                    if len(members) >= budget.max_nodes:
                        hit_node_cap = True
                        continue
                    members[cert_h] = h
                    depths[cert_h] = depth + 1
                    adjacency[cert_h] = set()
                    nxt.append(cert_h)
                adjacency[cert_u].add(cert_h)
                adjacency[cert_h].add(cert_u)
        frontier = nxt
        depth += 1
    closed = not (frontier or hit_index_cap or hit_node_cap or hit_size_cap)
    return ExplorationReport(
        move_class=move_class,
        members=members,
        depths=depths,
        adjacency={c: tuple(sorted(nb)) for c, nb in adjacency.items()},
        closed=closed,
        hit_index_cap=hit_index_cap,
        hit_node_cap=hit_node_cap,
        hit_size_cap=hit_size_cap,
    )


@dataclass(frozen=True)
class Verdict:
    kind: str                       # equivalent | distinct | unknown
    path: tuple[Move, ...] | None = None
    reason: str | None = None

    @property
    def exit_code(self) -> int:
        return {"equivalent": 0, "distinct": 1, "unknown": 2}[self.kind]


class _Side:
    def __init__(self, g: EdgeIndexedGraph):
        self.start = g
        cert = canonical_certificate(g)
        self.root = cert
        # cert -> (graph as reached, depth, parent cert, move from parent)
        self.visited: dict[bytes, tuple[EdgeIndexedGraph, int, bytes | None, Move | None]] = {
            cert: (g, 0, None, None)}
        self.frontier: list[bytes] = [cert]
        self.depth = 0
        self.dropped = False

    @property
    def closed(self) -> bool:
        return not self.frontier and not self.dropped

    def chain(self, cert: bytes) -> list[tuple[EdgeIndexedGraph, Move, EdgeIndexedGraph]]:
        """(graph before, move, graph after) steps from the root to cert."""
        steps = []
        while True:
            graph, _, parent, move = self.visited[cert]
            if parent is None:
                return list(reversed(steps))
            steps.append((self.visited[parent][0], move, graph))
            cert = parent


def transport_move(m: Move, iso: Isomorphism, target: EdgeIndexedGraph) -> Move:
    """Rewrite a move's identifiers through an isomorphism onto target."""
    if isinstance(m, Collapse):
        return Collapse(edge=iso.edge_map[m.edge], survivor=iso.vertex_map[m.survivor])
    if isinstance(m, Slide):
        return Slide(moving_end=iso.map_end(End(*m.moving_end)),
                     along=iso.map_end(End(*m.along)))
    if isinstance(m, Expansion):
        return Expansion(
            vertex=iso.vertex_map[m.vertex],
            n=m.n,
            moved_ends=tuple(iso.map_end(End(*e)) for e in m.moved_ends),
            new_vertex=fresh_vertex_id(target),
            new_edge=fresh_edge_id(target),
        )
    raise ValueError(f"unknown move {m!r}")


def _stitch(fwd: _Side, bwd: _Side, cert: bytes) -> tuple[Move, ...]:
    """Forward path to the meeting point, then inverted transported back half."""
    path = [move for (_, move, _) in fwd.chain(cert)]
    cur = fwd.visited[cert][0]
    for before, move, after in reversed(bwd.chain(cert)):
        inverse = invert_move(before, move)
        iso = graph_isomorphism(after, cur)
        assert iso is not None, "meeting graphs must share a certificate"
        transported = transport_move(inverse, iso, cur)
        cur = apply_move(cur, transported)
        path.append(transported)
    assert canonical_certificate(cur) == bwd.root
    return tuple(path)


def decide_equivalence(g1: EdgeIndexedGraph, g2: EdgeIndexedGraph,
                       move_class: str, budget: Budget) -> Verdict:
    """Equivalent with a replayable path, Distinct with a reason, or Unknown."""
    if move_class not in MOVE_CLASSES:
        raise ValueError(f"unknown move class {move_class!r}")
    b1, b2 = betti_number(g1), betti_number(g2)
    if b1 != b2:
        return Verdict("distinct", reason=f"betti number differs ({b1} vs {b2})")
    if move_class == "slide":
        if len(g1.vertices) != len(g2.vertices):
            return Verdict("distinct", reason="vertex count differs")
        if len(g1.edges) != len(g2.edges):
            return Verdict("distinct", reason="edge count differs")

    fwd, bwd = _Side(g1), _Side(g2)
    if fwd.root == bwd.root:
        return Verdict("equivalent", path=())

    while True:
        expandable = [s for s in (fwd, bwd) if s.frontier and s.depth < budget.max_depth]
        if not expandable:
            break
        side = min(expandable, key=lambda s: (len(s.frontier), s is bwd))
        other = bwd if side is fwd else fwd
        meet = _expand_layer(side, other, move_class, budget)
        if meet is not None:
            return Verdict("equivalent", path=_stitch(fwd, bwd, meet))

    if move_class == "slide":
        if fwd.closed or bwd.closed:
            return Verdict("distinct", reason="slide class exhausted")
    else:
        if fwd.closed and bwd.closed:
            return Verdict("distinct", reason="deformation class exhausted within bounds")
    return Verdict("unknown", reason="budget exhausted")


def _expand_layer(side: _Side, other: _Side, move_class: str, budget: Budget) -> bytes | None:
    """Grow one BFS layer; return a meeting certificate within the depth cap."""
    nxt: list[bytes] = []
    met: bytes | None = None
    for cert_u in side.frontier:
        gu = side.visited[cert_u][0]
        depth_u = side.visited[cert_u][1]
        for move in neighbor_moves(gu, move_class, budget.expansion):
            h = apply_move(gu, move)
            if h.max_abs_index() > budget.max_abs_index or len(h.vertices) > DEFAULT_SIZE_CAP:
                side.dropped = True
                continue
            cert_h = canonical_certificate(h)
            if cert_h in side.visited:
                continue
            if len(side.visited) >= budget.max_nodes:
                side.dropped = True
                continue
            side.visited[cert_h] = (h, depth_u + 1, cert_u, move)
            nxt.append(cert_h)
            if met is None and cert_h in other.visited:
                total = depth_u + 1 + other.visited[cert_h][1]
                if total <= budget.max_depth:
                    met = cert_h
        if met is not None:
            break
    if met is not None:
        return met
    side.frontier = nxt
    side.depth += 1
    return None


def dump_visited(report: ExplorationReport) -> str:
    """One line per member: hex certificate, then the graph on one line."""
    lines = []
    for cert, graph in report.members.items():
        flat = serialize_graph(graph).strip().replace("\n", "; ")
        lines.append(f"{cert.hex()} {flat}")
    return "\n".join(lines) + "\n"


def adjacency_dot(report: ExplorationReport, name: str = "classgraph") -> str:
    """The class adjacency graph in DOT form, nodes named by short cert hash."""
    short = {cert: f"n{i}" for i, cert in enumerate(report.members)}
    lines = [f"graph {name} {{"]
    for cert in report.members:
        lines.append(f'  {short[cert]} [label="{cert.hex()[:12]}"];')
    seen = set()
    for cert, nbrs in report.adjacency.items():
        for nb in nbrs:
            if nb in report.members:
                key = tuple(sorted((short[cert], short[nb])))
                if key not in seen:
                    seen.add(key)
                    lines.append(f"  {key[0]} -- {key[1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
