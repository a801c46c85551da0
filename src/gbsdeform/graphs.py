"""Edge-indexed graphs: connected multigraphs with a nonzero integer at each
edge-end.

These are the quotient objects of generalized Baumslag-Solitar trees: every
vertex and edge carries an infinite cyclic group, and the index at an edge-end
records the inclusion map (multiplication by that integer).  Indices are
arbitrary-precision; slide orbits grow geometrically and overflow fixed-width
integers quickly.

Graphs are immutable values that hold only their vertices and edges.  Every
operation returns a new graph, so values can be shared freely across threads.
Edges and ends are NamedTuples, built, compared and hashed in C; hot loops
unpack an edge rather than read its fields by name.
The constructor only normalizes and trusts its caller: outside data enters
through ``parse_graph`` or ``graph_from_parts``, which check every invariant,
and the moves keep them.  Here too is the text grammar the graph files and
move scripts share: identifiers, indices and content lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

__all__ = [
    "InvalidGraphError",
    "ParseError",
    "Edge",
    "End",
    "EdgeIndexedGraph",
    "Isomorphism",
    "graph_from_parts",
    "parse_graph",
    "serialize_graph",
    "dot_export",
    "index_str",
    "parse_index",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INDEX_RE = re.compile(r"-?[1-9][0-9]*\Z")


def index_str(x: int) -> str:
    """Decimal text of an index.

    CPython refuses int<->str conversions past ``sys.get_int_max_str_digits()``
    digits (4,300 by default), and slide-ladder indices grow past that.  Below
    the limit ``index_str`` and ``parse_index`` are plain ``str`` and ``int``;
    past it they go through ``decimal``, which converts exactly at any length
    and at about the same cost.  The interpreter-wide limit is left alone, and
    ``decimal`` is imported only once an index needs it.
    """
    try:
        return str(x)
    except ValueError:          # longer than the interpreter's limit
        from decimal import Decimal
        return str(Decimal(x))


def _repr(x, text=repr) -> str:
    """``text(x)`` for an error message; an int past the digit limit, which ``repr``
    and ``str`` refuse, is written through ``index_str``, also in a tuple or list."""
    try:
        return text(x)
    except ValueError:          # an int longer than the interpreter's limit
        if isinstance(x, int):
            return index_str(x)
        inner = ", ".join(map(_repr, x))
        return f"[{inner}]" if isinstance(x, list) else f"({inner})"


def _require_int(what: str, value, least: int | None = 0) -> None:
    """The one check of an int a caller gives the library: ValueError naming ``what``
    unless value is an ``int``, not a ``bool``, at least ``least`` unless that is None."""
    if type(value) is not int or least is not None and value < least:
        bound = "" if least is None else f" of at least {least}"
        raise ValueError(f"{what} must be an int{bound}, got {_repr(value)}")


def parse_index(text: str) -> int:
    """The integer an ASCII ``-?[1-9][0-9]*`` text spells; ValueError otherwise.
    The one integer grammar, for graph files and move scripts alike; past the
    interpreter's digit limit it goes through ``decimal``, as ``index_str`` does."""
    if not _INDEX_RE.match(text):
        raise ValueError(f"bad integer {text!r}")
    try:
        return int(text)
    except ValueError:          # longer than the interpreter's limit
        from decimal import Decimal
        return int(Decimal(text))


class InvalidGraphError(ValueError):
    """A structural invariant was violated (zero index, disconnected, ...)."""


class ParseError(ValueError):
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


def _require_text(what: str, value, error: type[ParseError] = ParseError,
                  line: int | None = None) -> None:
    """The one check of a text a caller gives a parser: ``error`` naming ``what`` and
    the value's type unless value is a ``str``."""
    if not isinstance(value, str):
        raise error(f"{what} must be a str, got {type(value).__name__}", line)


class Edge(NamedTuple):
    """One geometric edge: an unordered pair of ends with indices.

    Side 0 refers to (v0, i0), side 1 to (v1, i1).  A NamedTuple like
    ``End``: an edge equals, hashes like and unpacks to its field tuple.
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


@dataclass(frozen=True, slots=True, init=False)
class EdgeIndexedGraph:
    """A connected multigraph with nonzero integer indices at all edge-ends.

    Vertices and edges are stored sorted by identifier (edges sort as tuples,
    which is by id as ids are unique), so two graphs built from the same
    id-keyed content compare equal regardless of declaration order.  Loops
    and parallel edges are permitted.  The constructor checks nothing; build
    graphs from outside data with ``graph_from_parts``.  A graph keeps no
    cache: ``edge`` scans the edges, and ``end_table``, the one per-vertex
    table of ends, and ``shape``, one flat tuple, are built on each call and
    kept by nothing.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices, edges) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(vertices)))
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    def edge(self, eid: str) -> Edge:
        for e in self.edges:
            if e.eid == eid:
                return e
        raise InvalidGraphError(f"no edge {_repr(eid)} in graph")

    def end_table(self) -> dict[str, list[tuple[str, int, int]]]:
        """(edge id, side, index) of each end at each vertex, sorted by (edge
        id, side): one pass over the edges, which are sorted by id."""
        table: dict[str, list[tuple[str, int, int]]] = {v: [] for v in self.vertices}
        for eid, v0, v1, i0, i1 in self.edges:
            table[v0].append((eid, 0, i0))
            table[v1].append((eid, 1, i1))
        return table

    def shape(self) -> tuple[int, ...]:
        """(vertex count, a, b, i, j, a, b, i, j, ...), the sorted edge tuples laid
        flat in one tuple: the graph relabeled, ids dropped.  Vertices rank by their
        sorted (near index, far index, is loop) ends, ties by id; an edge (a, b, i, j)
        is (rank a, rank b, index at a, index at b), a <= b and a loop's smaller index
        first, and gives exactly 4 entries.  Equal shapes share a certificate."""
        ends: dict[str, list[tuple[int, int, bool]]] = {v: [] for v in self.vertices}
        for _, v0, v1, i0, i1 in self.edges:
            ends[v0].append((i0, i1, v0 == v1))
            ends[v1].append((i1, i0, v0 == v1))
        for vertex_ends in ends.values():
            vertex_ends.sort()
        order = sorted(self.vertices, key=ends.__getitem__)     # stable: ties by id
        rank = {v: r for r, v in enumerate(order)}
        tuples = []
        for _, v0, v1, i, j in self.edges:
            a, b = rank[v0], rank[v1]
            tuples.append((a, b, i, j) if (a, i) <= (b, j) else (b, a, j, i))
        return (len(self.vertices), *[x for edge in sorted(tuples) for x in edge])

    def max_abs_index(self) -> int:
        return max((max(abs(i0), abs(i1)) for _, _, _, i0, i1 in self.edges), default=0)


@dataclass(eq=False, slots=True)
class Isomorphism:
    """An equivalence witness g1 -> g2: vertex and end correspondences."""

    vertex_map: dict[str, str]
    end_map: dict[End, End]


def _check(vertices: tuple, edges: tuple[Edge, ...]) -> EdgeIndexedGraph:
    """Check every invariant of the parts, then build their graph (which sorts ids)."""
    if not vertices:
        raise InvalidGraphError("a graph needs at least one vertex")
    adj: dict[str, set[str]] = {}
    for v in vertices:
        if type(v) is not str or not _IDENT_RE.match(v):
            raise InvalidGraphError(f"bad vertex identifier {_repr(v)}")
        if v in adj:
            raise InvalidGraphError(f"duplicate vertex id {v!r}")
        adj[v] = set()
    seen_e: set[str] = set()
    for e in edges:
        if type(e.eid) is not str or not _IDENT_RE.match(e.eid):
            raise InvalidGraphError(f"bad edge identifier {_repr(e.eid)}")
        if e.eid in seen_e:
            raise InvalidGraphError(f"duplicate edge id {e.eid!r}")
        seen_e.add(e.eid)
        for v in (e.v0, e.v1):
            if type(v) is not str or v not in adj:
                raise InvalidGraphError(f"edge {e.eid!r} uses undeclared vertex {_repr(v)}")
        if type(e.i0) is not int or type(e.i1) is not int:
            raise InvalidGraphError(f"edge {e.eid!r} has non-integer indices")
        if e.i0 == 0 or e.i1 == 0:
            raise InvalidGraphError(f"edge {e.eid!r} has a zero index")
        adj[e.v0].add(e.v1)
        adj[e.v1].add(e.v0)
    reached, stack = {vertices[0]}, [vertices[0]]
    while stack:
        new = adj[stack.pop()] - reached
        reached |= new
        stack += new
    if len(reached) != len(adj):
        raise InvalidGraphError("graph is not connected")
    return EdgeIndexedGraph(vertices, edges)


def graph_from_parts(vertices, edges) -> EdgeIndexedGraph:
    """Build and check a graph from a collection of vertex ids and one of edges, each
    an ``Edge`` or an (eid, v0, v1, i0, i1) tuple.  A text is not a collection."""
    for what, value in (("vertices", vertices), ("edges", edges)):
        if isinstance(value, (str, bytes)):
            raise InvalidGraphError(f"{what} {_repr(value)} is a string, not a collection")
        try:
            iter(value)
        except TypeError:
            raise InvalidGraphError(f"{what} {_repr(value)} is not a collection") from None
    parts = []
    for e in edges:
        if not isinstance(e, (tuple, list)) or len(e) != 5:
            raise InvalidGraphError(f"edge entry {_repr(e)} is not (eid, v0, v1, i0, i1)")
        parts.append(Edge(*e))
    return _check(tuple(vertices), tuple(parts))


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
    index0, index1).  Integers are nonzero decimals without leading zeros.  An
    edge line may name only vertices declared above it, unlike the parts given
    to ``graph_from_parts``, which may come in any order.
    Errors carry the offending line number and, for a bad field, its column.
    """
    _require_text("text", text)
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
        return _check(tuple(vertices), tuple(edges))
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
