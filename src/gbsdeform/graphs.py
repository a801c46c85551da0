"""Edge-indexed graphs: connected multigraphs with a nonzero integer at each
edge-end.

These are the quotient objects of generalized Baumslag-Solitar trees: every
vertex and edge carries an infinite cyclic group, and the index at an edge-end
records the inclusion map (multiplication by that integer).  Indices are
arbitrary-precision; slide orbits grow geometrically and overflow fixed-width
integers quickly.

Graphs are immutable values.  Every operation returns a new graph, so values
can be shared freely across threads.  The constructor only normalizes and
trusts its caller: outside data enters through ``parse_graph`` or
``graph_from_parts``, which check every invariant, and the moves keep them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from .bigint import index_str, parse_index

__all__ = [
    "GraphError",
    "InvalidGraphError",
    "ParseError",
    "Edge",
    "End",
    "SignFlip",
    "EdgeIndexedGraph",
    "graph_from_parts",
    "parse_graph",
    "serialize_graph",
    "dot_export",
    "betti_number",
    "apply_sign_flips",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class GraphError(ValueError):
    """Base class for graph construction errors and .gbs or move-script parse errors."""


class InvalidGraphError(GraphError):
    """A structural invariant was violated (zero index, disconnected, ...)."""


class ParseError(GraphError):
    """Text did not conform to the .gbs grammar or the move-script grammar.

    Carries 1-based line and column numbers when they apply.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Edge:
    """One geometric edge: an unordered pair of ends with indices.

    Side 0 refers to (v0, i0), side 1 to (v1, i1).
    """

    eid: str
    v0: str
    v1: str
    i0: int
    i1: int

    def endpoint(self, side: int) -> str:
        return self.v0 if side == 0 else self.v1

    def index(self, side: int) -> int:
        return self.i0 if side == 0 else self.i1

    @property
    def is_loop(self) -> bool:
        return self.v0 == self.v1


class End(NamedTuple):
    """A reference to one end of a geometric edge (side 0 or 1)."""

    edge: str
    side: int

    def __str__(self) -> str:
        return f"{self.edge}:{self.side}"


@dataclass(frozen=True)
class SignFlip:
    """A change of generators: negate the index at an end once per membership
    of its vertex in ``vertex_flips`` and once per membership of its edge in
    ``edge_flips``.  The action is an involution componentwise.
    """

    vertex_flips: frozenset[str] = frozenset()
    edge_flips: frozenset[str] = frozenset()


@dataclass(frozen=True)
class EdgeIndexedGraph:
    """A connected multigraph with nonzero integer indices at all edge-ends.

    Vertices and edges are stored sorted by identifier, so two graphs built
    from the same id-keyed content compare equal regardless of declaration
    order.  Loops and parallel edges are permitted.  The constructor checks
    nothing; build graphs from outside data with ``graph_from_parts``.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.eid)))

    @cached_property
    def _edges_by_id(self) -> dict[str, Edge]:
        return {e.eid: e for e in self.edges}

    @cached_property
    def _ends_by_vertex(self) -> dict[str, tuple[End, ...]]:
        ends: dict[str, list[End]] = {v: [] for v in self.vertices}
        for e in self.edges:
            ends[e.v0].append(End(e.eid, 0))
            ends[e.v1].append(End(e.eid, 1))
        return {v: tuple(sorted(es)) for v, es in ends.items()}

    def edge(self, eid: str) -> Edge:
        try:
            return self._edges_by_id[eid]
        except KeyError:
            raise InvalidGraphError(f"no edge {eid!r} in graph") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._ends_by_vertex

    def has_edge(self, eid: str) -> bool:
        return eid in self._edges_by_id

    def ends(self) -> Iterator[End]:
        for e in self.edges:
            yield End(e.eid, 0)
            yield End(e.eid, 1)

    def ends_at(self, v: str) -> tuple[End, ...]:
        try:
            return self._ends_by_vertex[v]
        except KeyError:
            raise InvalidGraphError(f"no vertex {v!r} in graph") from None

    def end_vertex(self, end: End) -> str:
        return self.edge(end.edge).endpoint(end.side)

    def end_index(self, end: End) -> int:
        return self.edge(end.edge).index(end.side)

    def degree(self, v: str) -> int:
        return len(self.ends_at(v))

    def max_abs_index(self) -> int:
        return max((max(abs(e.i0), abs(e.i1)) for e in self.edges), default=0)


def _check(g: EdgeIndexedGraph) -> EdgeIndexedGraph:
    """Return g if it meets every invariant, else raise InvalidGraphError."""
    if not g.vertices:
        raise InvalidGraphError("a graph needs at least one vertex")
    adj: dict[str, set[str]] = {}
    for v in g.vertices:
        if not _IDENT_RE.match(v):
            raise InvalidGraphError(f"bad vertex identifier {v!r}")
        if v in adj:
            raise InvalidGraphError(f"duplicate vertex id {v!r}")
        adj[v] = set()
    seen_e: set[str] = set()
    for e in g.edges:
        if not _IDENT_RE.match(e.eid):
            raise InvalidGraphError(f"bad edge identifier {e.eid!r}")
        if e.eid in seen_e:
            raise InvalidGraphError(f"duplicate edge id {e.eid!r}")
        seen_e.add(e.eid)
        for v in (e.v0, e.v1):
            if v not in adj:
                raise InvalidGraphError(f"edge {e.eid!r} uses undeclared vertex {v!r}")
        if e.i0 == 0 or e.i1 == 0:
            raise InvalidGraphError(f"edge {e.eid!r} has a zero index")
        if type(e.i0) is not int or type(e.i1) is not int:
            raise InvalidGraphError(f"edge {e.eid!r} has non-integer indices")
        adj[e.v0].add(e.v1)
        adj[e.v1].add(e.v0)
    reached, stack = {g.vertices[0]}, [g.vertices[0]]
    while stack:
        new = adj[stack.pop()] - reached
        reached |= new
        stack += new
    if len(reached) != len(adj):
        raise InvalidGraphError("graph is not connected")
    return g


def graph_from_parts(vertices, edges) -> EdgeIndexedGraph:
    """Build and check a graph from vertex ids and (eid, v0, v1, i0, i1) tuples."""
    return _check(EdgeIndexedGraph(tuple(vertices), tuple(Edge(*e) for e in edges)))


def betti_number(g: EdgeIndexedGraph) -> int:
    """First Betti number: edges - vertices + 1.

    Invariant under collapse, expansion and slide moves, which makes it a
    cheap refuter for equivalence questions.
    """
    return len(g.edges) - len(g.vertices) + 1


def apply_sign_flips(g: EdgeIndexedGraph, s: SignFlip) -> EdgeIndexedGraph:
    """Negate indices per the sign-flip action; the structure is unchanged."""
    for v in s.vertex_flips:
        if not g.has_vertex(v):
            raise InvalidGraphError(f"sign flip names unknown vertex {v!r}")
    for eid in s.edge_flips:
        g.edge(eid)
    new_edges = []
    for e in g.edges:
        sign0 = -1 if (e.v0 in s.vertex_flips) != (e.eid in s.edge_flips) else 1
        sign1 = -1 if (e.v1 in s.vertex_flips) != (e.eid in s.edge_flips) else 1
        new_edges.append(Edge(e.eid, e.v0, e.v1, sign0 * e.i0, sign1 * e.i1))
    return EdgeIndexedGraph(g.vertices, tuple(new_edges))


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text before any '#') for each line that is not blank."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield lineno, line


def parse_graph(text: str) -> EdgeIndexedGraph:
    """Parse the .gbs text format.

    Grammar, per line: blank, comment ('#' to end of line), ``vertex IDENT``,
    or ``edge IDENT IDENT IDENT INT INT`` (edge id, endpoint0, endpoint1,
    index0, index1).  Integers are nonzero decimals without leading zeros.
    Errors carry the offending line number and, for a bad field, its column.
    """
    vertices: list[str] = []
    edges: list[Edge] = []
    seen_v: set[str] = set()
    seen_e: set[str] = set()
    for lineno, line in _content_lines(text):
        fields = line.split()
        cols = [m.start() + 1 for m in re.finditer(r"\S+", line)]
        if fields[0] == "vertex":
            if len(fields) != 2:
                raise ParseError("vertex declaration needs exactly one identifier", lineno)
            name = fields[1]
            if not _IDENT_RE.match(name):
                raise ParseError(f"bad identifier {name!r}", lineno, cols[1])
            if name in seen_v:
                raise ParseError(f"duplicate vertex id {name!r}", lineno, cols[1])
            seen_v.add(name)
            vertices.append(name)
        elif fields[0] == "edge":
            if len(fields) != 6:
                raise ParseError("edge declaration needs id, two endpoints and two indices", lineno)
            eid, v0, v1 = fields[1:4]
            for i in (1, 2, 3):
                if not _IDENT_RE.match(fields[i]):
                    raise ParseError(f"bad identifier {fields[i]!r}", lineno, cols[i])
            if eid in seen_e:
                raise ParseError(f"duplicate edge id {eid!r}", lineno, cols[1])
            for i in (2, 3):
                if fields[i] not in seen_v:
                    raise ParseError(f"undeclared vertex {fields[i]!r}", lineno, cols[i])
            indices = []
            for i in (4, 5):
                if fields[i] in ("0", "-0"):
                    raise ParseError(f"zero index on edge {eid!r}", lineno, cols[i])
                try:
                    indices.append(parse_index(fields[i]))
                except ValueError:
                    raise ParseError(f"bad integer {fields[i]!r}", lineno, cols[i]) from None
            seen_e.add(eid)
            edges.append(Edge(eid, v0, v1, indices[0], indices[1]))
        else:
            raise ParseError(f"unknown declaration {fields[0]!r}", lineno, cols[0])
    try:
        return _check(EdgeIndexedGraph(tuple(vertices), tuple(edges)))
    except InvalidGraphError as exc:
        raise ParseError(str(exc)) from exc


def serialize_graph(g: EdgeIndexedGraph) -> str:
    """Emit .gbs text; round-trips with parse_graph up to declaration order."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.eid} {e.v0} {e.v1} {index_str(e.i0)} {index_str(e.i1)}" for e in g.edges]
    return "\n".join(lines) + "\n"


def dot_export(g: EdgeIndexedGraph) -> str:
    """Graphviz export: one node per vertex, edges labeled "index0|index1"."""
    lines = ["graph G {"]
    lines += [f'  "{v}";' for v in g.vertices]
    lines += [f'  "{e.v0}" -- "{e.v1}" [label="{index_str(e.i0)}|{index_str(e.i1)}"];'
              for e in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
