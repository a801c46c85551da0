"""Moves on edge-indexed graphs: collapse, expansion and slide.

A collapse removes a non-loop edge whose index at the absorbed end is +1 or
-1; the surviving vertex picks up the absorbed vertex's other ends with
indices scaled by the survivor-side index.  An expansion is the reverse.  A
slide carries an edge-end across an adjacent carrier edge when the carrier's
near index divides the moving index.  All three preserve the first Betti
number, connectivity and nonzero indices.

Also here: move inversion and transport, the legality predicates (reduced,
minimal, strongly slide-free, the sufficient unfoldedness test, point/line
geometry) and the one-move-per-line script format.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt
from typing import ClassVar

from .graphs import (_IDENT_RE, Edge, EdgeIndexedGraph, End, InvalidGraphError, Isomorphism,
                     ParseError, _content_lines, _repr, _require_int, _require_text,
                     index_str, parse_index)

__all__ = [
    "IllegalMoveError",
    "ScriptError",
    "Collapse",
    "Expansion",
    "Slide",
    "Move",
    "ExpansionBounds",
    "PredicateReport",
    "apply_move",
    "invert_move",
    "transport_move",
    "enumerate_collapses",
    "enumerate_slides",
    "enumerate_expansions",
    "analyze",
    "reduce_graph",
    "format_move",
    "parse_move",
    "format_script",
    "parse_script",
]


class IllegalMoveError(ValueError):
    """A move precondition failed; the message names the offending ids."""


class ScriptError(ParseError):
    """A move script line did not parse."""


def _as_end(end) -> End:
    """An ``End`` as it is, or one built from an (edge, side) tuple or list."""
    if not isinstance(end, (tuple, list)) or len(end) != 2:
        raise IllegalMoveError(f"move end {_repr(end)} is not an (edge, side) pair")
    return end if isinstance(end, End) else End(*end)


@dataclass(frozen=True, slots=True)
class Collapse:
    vertex_shift: ClassVar[int] = -1    # change in vertex count: the absorbed vertex goes
    edge: str
    survivor: str


@dataclass(frozen=True, slots=True)
class Expansion:
    vertex_shift: ClassVar[int] = 1     # change in vertex count: new_vertex comes
    vertex: str
    n: int
    moved_ends: tuple[End, ...]
    new_vertex: str
    new_edge: str

    def __post_init__(self) -> None:
        # A text would iterate by character: it is refused as None is.
        moved = None if isinstance(self.moved_ends, (str, bytes)) else self.moved_ends
        try:
            ends = tuple(sorted(set(map(_as_end, moved))))
        except TypeError:               # not iterable, unhashable, or ids that do not sort
            raise IllegalMoveError(f"moved ends {_repr(self.moved_ends)} are not "
                                   "(edge, side) pairs of a str and an int") from None
        object.__setattr__(self, "moved_ends", ends)


@dataclass(frozen=True, slots=True)
class Slide:
    vertex_shift: ClassVar[int] = 0
    moving_end: End
    along: End

    def __post_init__(self) -> None:
        if not isinstance(self.moving_end, End):
            object.__setattr__(self, "moving_end", _as_end(self.moving_end))
        if not isinstance(self.along, End):
            object.__setattr__(self, "along", _as_end(self.along))


Move = Collapse | Expansion | Slide


@dataclass(frozen=True, slots=True)
class ExpansionBounds:
    """Enumeration bounds: factors 2..max_n, moved subsets up to the size cap."""

    max_n: int = 6
    max_subset_size: int = 3

    def __post_init__(self) -> None:
        _require_int("max_n", self.max_n)
        _require_int("max_subset_size", self.max_subset_size)


def _fresh_ids(g: EdgeIndexedGraph) -> tuple[str, str]:
    """The first of w, w2, w3, ... and of x, x2, x3, ... that g does not use."""
    fresh = []
    for base, taken in (("w", g.vertices), ("x", [e.eid for e in g.edges])):
        name, k = base, 2
        while name in taken:
            name, k = f"{base}{k}", k + 1
        fresh.append(name)
    return fresh[0], fresh[1]


def _require_end(g: EdgeIndexedGraph, end: End) -> Edge:
    """The edge an end lies on, looked up once: callers read the end's vertex
    and index off it.  IllegalMoveError for a bad side or a missing edge."""
    if type(end.side) is not int or end.side not in (0, 1):
        raise IllegalMoveError(f"end {_repr(end.edge, str)}:{_repr(end.side, str)} has a bad side")
    try:
        return g.edge(end.edge)
    except InvalidGraphError:
        raise IllegalMoveError(f"no edge {_repr(end.edge)} in graph") from None


def apply_move(g: EdgeIndexedGraph, m: Move) -> EdgeIndexedGraph:
    """Apply one move, checking every precondition; returns a new graph."""
    if isinstance(m, Slide):            # first: the ladder applies only slides
        return _apply_slide(g, m)
    if isinstance(m, Collapse):
        return _apply_collapse(g, m)
    if isinstance(m, Expansion):
        return _apply_expansion(g, m)
    raise IllegalMoveError(f"unknown move {_repr(m)}")


def _collapse_parts(g: EdgeIndexedGraph, m: Collapse) -> tuple[str, int, int]:
    """Check a collapse; return (absorbed vertex, survivor-side index,
    absorbed-side index)."""
    e = _require_end(g, End(m.edge, 0))
    if e.is_loop:
        raise IllegalMoveError(f"cannot collapse loop {m.edge!r}")
    if m.survivor == e.v0:
        dead, n_surv, eps = e.v1, e.i0, e.i1
    elif m.survivor == e.v1:
        dead, n_surv, eps = e.v0, e.i1, e.i0
    else:
        raise IllegalMoveError(
            f"survivor {_repr(m.survivor)} is not an endpoint of edge {m.edge!r}")
    if abs(eps) != 1:
        raise IllegalMoveError(
            f"edge {m.edge!r} has index {index_str(eps)} at {dead!r}; collapse needs +1 or -1")
    return dead, n_surv, eps


def _apply_collapse(g: EdgeIndexedGraph, m: Collapse) -> EdgeIndexedGraph:
    dead, n_surv, eps = _collapse_parts(g, m)
    new_edges = []
    for f in g.edges:
        if f.eid == m.edge:
            continue
        v0, i0 = (m.survivor, n_surv * f.i0 * eps) if f.v0 == dead else (f.v0, f.i0)
        v1, i1 = (m.survivor, n_surv * f.i1 * eps) if f.v1 == dead else (f.v1, f.i1)
        new_edges.append(f if dead not in (f.v0, f.v1) else Edge(f.eid, v0, v1, i0, i1))
    vertices = tuple(v for v in g.vertices if v != dead)
    return EdgeIndexedGraph(vertices, tuple(new_edges))


def _apply_expansion(g: EdgeIndexedGraph, m: Expansion) -> EdgeIndexedGraph:
    if type(m.n) is not int or m.n == 0:
        raise IllegalMoveError(f"expansion factor {_repr(m.n)} is not a nonzero integer")
    for kind, name in (("vertex", m.new_vertex), ("edge", m.new_edge)):
        if type(name) is not str or not _IDENT_RE.match(name):
            raise IllegalMoveError(f"bad new {kind} identifier {_repr(name)}")
    if m.vertex not in g.vertices:
        raise IllegalMoveError(f"no vertex {_repr(m.vertex)} in graph")
    if m.new_vertex in g.vertices:
        raise IllegalMoveError(f"new vertex id {m.new_vertex!r} already in use")
    if any(e.eid == m.new_edge for e in g.edges):
        raise IllegalMoveError(f"new edge id {m.new_edge!r} already in use")
    moved: dict[str, dict[int, int]] = {}   # edge id -> moved side -> its new index
    for end in m.moved_ends:
        e = _require_end(g, end)
        if e.endpoint(end.side) != m.vertex:
            raise IllegalMoveError(
                f"end {end} is at {e.endpoint(end.side)!r}, not at {m.vertex!r}")
        idx = e.index(end.side)
        quotient, rest = divmod(idx, m.n)
        if rest:
            raise IllegalMoveError(
                f"index {index_str(idx)} at end {end} is not divisible by {index_str(m.n)}")
        moved.setdefault(end.edge, {})[end.side] = quotient
    new_edges = []
    for e in g.edges:
        sides = moved.get(e.eid, ())
        v0, i0 = (m.new_vertex, sides[0]) if 0 in sides else (e.v0, e.i0)
        v1, i1 = (m.new_vertex, sides[1]) if 1 in sides else (e.v1, e.i1)
        new_edges.append(Edge(e.eid, v0, v1, i0, i1) if sides else e)
    new_edges.append(Edge(m.new_edge, m.vertex, m.new_vertex, m.n, 1))
    return EdgeIndexedGraph(g.vertices + (m.new_vertex,), tuple(new_edges))


def _apply_slide(g: EdgeIndexedGraph, m: Slide) -> EdgeIndexedGraph:
    moving, along = m.moving_end, m.along
    f = _require_end(g, moving)
    fid, f0, f1, fi0, fi1 = f
    aid, a0, a1, ai0, ai1 = _require_end(g, along)
    if fid == aid:
        raise IllegalMoveError(
            f"cannot slide edge {moving.edge!r} along itself")
    v, i_m = (f1, fi1) if moving.side else (f0, fi0)
    near, i_a, far_vertex, i_far = (a1, ai1, a0, ai0) if along.side else (a0, ai0, a1, ai1)
    if near != v:
        raise IllegalMoveError(
            f"ends {moving} (at {v!r}) and {along} (at {near!r}) do not share a vertex")
    quotient, rest = divmod(i_m, i_a)
    if rest:
        raise IllegalMoveError(
            f"carrier index {index_str(i_a)} does not divide moving index {index_str(i_m)}")
    if moving.side:
        new_f = Edge(fid, f0, far_vertex, fi0, quotient * i_far)
    else:
        new_f = Edge(fid, far_vertex, f1, quotient * i_far, fi1)
    return EdgeIndexedGraph(g.vertices, [new_f if e is f else e for e in g.edges])


def invert_move(g: EdgeIndexedGraph, m: Move) -> Move:
    """The move undoing m, expressed on apply_move(g, m).

    Collapse and expansion swap; a slide reverses across the same carrier.
    Replaying the pair returns a graph equivalent to g (equal whenever the
    collapsed end's index was +1; a -1 differs by an edge sign flip).
    """
    if isinstance(m, Collapse):     # _collapse_parts is the collapse's legality check
        dead, n_surv, eps = _collapse_parts(g, m)
        moved = tuple(End(eid, side) for eid, side, _ in g.end_table()[dead] if eid != m.edge)
        return Expansion(vertex=m.survivor, n=n_surv * eps, moved_ends=moved,
                         new_vertex=dead, new_edge=m.edge)
    apply_move(g, m)  # legality check of an expansion or slide; errors propagate
    if isinstance(m, Expansion):
        return Collapse(edge=m.new_edge, survivor=m.vertex)
    return Slide(moving_end=m.moving_end, along=End(m.along.edge, 1 - m.along.side))


def transport_move(m: Move, iso: Isomorphism, target: EdgeIndexedGraph) -> Move:
    """Rewrite a move's identifiers through an isomorphism onto target."""
    if isinstance(m, Collapse):
        return Collapse(edge=iso.end_map[End(m.edge, 0)].edge, survivor=iso.vertex_map[m.survivor])
    if isinstance(m, Slide):
        return Slide(moving_end=iso.end_map[m.moving_end], along=iso.end_map[m.along])
    if isinstance(m, Expansion):
        return Expansion(iso.vertex_map[m.vertex], m.n,
                         tuple(iso.end_map[e] for e in m.moved_ends), *_fresh_ids(target))
    raise IllegalMoveError(f"unknown move {_repr(m)}")


def enumerate_collapses(g: EdgeIndexedGraph) -> list[Collapse]:
    """All legal collapses, sorted by edge then survivor."""
    out = []
    for e in g.edges:
        if e.is_loop:
            continue
        if abs(e.i0) == 1:
            out.append(Collapse(edge=e.eid, survivor=e.v1))
        if abs(e.i1) == 1:
            out.append(Collapse(edge=e.eid, survivor=e.v0))
    out.sort(key=lambda c: (c.edge, c.survivor))
    return out


def enumerate_slides(g: EdgeIndexedGraph) -> list[Slide]:
    """All legal slides, sorted by moving end then carrier end: ordered pairs
    of distinct-edge ends at one vertex with the carrier index dividing the
    moving index.  ``verify_slide_ladder`` relies on this order."""
    out = []
    for ends in g.end_table().values():
        for edge_m, side_m, i_m in ends:
            for edge_a, side_a, i_a in ends:
                if edge_a != edge_m and i_m % i_a == 0:
                    out.append(Slide(End(edge_m, side_m), End(edge_a, side_a)))
    out.sort(key=lambda s: (s.moving_end, s.along))
    return out


def enumerate_expansions(g: EdgeIndexedGraph, bounds: ExpansionBounds) -> list[Expansion]:
    """All expansions with factor 2..max_n dividing a nonempty end subset.

    Subsets hold at most ``max_subset_size`` of a vertex's ends, and factors
    are divisors of the subset gcd; negative factors and empty subsets are
    deliberately excluded (sign flips and collapsible appendages add nothing
    but fanout).  Fresh ids are derived deterministically from the graph.
    """
    new_v, new_e = _fresh_ids(g)
    out = []
    factors: dict[int, list[int]] = {}     # subset gcd -> its factors
    for v, ends in g.end_table().items():
        for size in range(1, min(len(ends), bounds.max_subset_size) + 1):
            for combo in combinations(ends, size):
                d = 0
                for _, _, index in combo:
                    d = gcd(d, index)
                if d not in factors:
                    factors[d] = _factors(d, bounds.max_n)
                for n in factors[d]:
                    out.append(Expansion(vertex=v, n=n,
                                         moved_ends=[End(edge, side) for edge, side, _ in combo],
                                         new_vertex=new_v, new_edge=new_e))
    return out


def _factors(d: int, max_n: int) -> list[int]:
    """The divisors 2..max_n of d >= 1, ascending.  Trial division stops at
    isqrt(d): a divisor above it is d // i for a divisor i below it (d itself
    pairs with 1)."""
    root = isqrt(d)
    low, high = [], [d] if root < d <= max_n else []
    for i in range(2, min(max_n, root) + 1):
        if d % i == 0:
            low.append(i)
            if root < (q := d // i) <= max_n:
                high.append(q)
    return low + high[::-1]


@dataclass(frozen=True, slots=True)
class PredicateReport:
    """Structural verdicts for one graph.

    ``jsj`` is QUALIFIED exactly when the graph is reduced, passes the
    sufficient unfoldedness test (every index has absolute value at least 2)
    and is neither a point nor a line.  When the graph is reduced and general
    but some index is a unit, the sufficient test is inconclusive and the
    verdict is UNKNOWN rather than a guess.
    """

    reduced: bool
    minimal: bool
    strongly_slide_free: bool
    unfolded_sufficient: bool
    geometry: str
    jsj: str
    jsj_reason: str | None = None


def _geometry(g: EdgeIndexedGraph) -> str:
    if len(g.vertices) == 1 and not g.edges:
        return "point"
    if len(g.edges) == 1:
        e = g.edges[0]
        if e.is_loop and abs(e.i0) == 1 and abs(e.i1) == 1:
            return "line"
        if not e.is_loop and abs(e.i0) == 2 and abs(e.i1) == 2:
            return "line"
    return "general"


def analyze(g: EdgeIndexedGraph) -> PredicateReport:
    reduced = not enumerate_collapses(g)
    table = g.end_table()
    minimal = all(abs(ends[0][2]) >= 2 for ends in table.values() if len(ends) == 1)
    ssf = minimal and not any(
        i != j and a % b == 0
        for ends in table.values()
        for i, (_, _, a) in enumerate(ends)
        for j, (_, _, b) in enumerate(ends))
    unfolded = all(abs(e.i0) >= 2 and abs(e.i1) >= 2 for e in g.edges)
    geometry = _geometry(g)
    if not reduced:
        jsj, reason = "NOT_QUALIFIED", "not reduced"
    elif geometry != "general":
        jsj, reason = "NOT_QUALIFIED", f"graph is a {geometry}"
    elif unfolded:
        jsj, reason = "QUALIFIED", None
    else:
        jsj, reason = "UNKNOWN", "unfoldedness test inconclusive"
    return PredicateReport(
        reduced=reduced,
        minimal=minimal,
        strongly_slide_free=ssf,
        unfolded_sufficient=unfolded,
        geometry=geometry,
        jsj=jsj,
        jsj_reason=reason,
    )


def reduce_graph(g: EdgeIndexedGraph) -> tuple[EdgeIndexedGraph, tuple[Collapse, ...]]:
    """Greedily collapse (first legal move each round) until reduced."""
    script: list[Collapse] = []
    while True:
        cols = enumerate_collapses(g)
        if not cols:
            return g, tuple(script)
        g = apply_move(g, cols[0])
        script.append(cols[0])


def _parse_end(tok: str, lineno: int | None) -> End:
    edge, _, side = tok.partition(":")
    if not _IDENT_RE.match(edge) or side not in ("0", "1"):
        raise ScriptError(f"bad end reference {tok!r} (want edge:side)", lineno)
    return End(edge, int(side))


def format_move(m: Move) -> str:
    if isinstance(m, Collapse):
        return f"collapse {m.edge} into {m.survivor}"
    if isinstance(m, Slide):
        return f"slide {m.moving_end} along {m.along}"
    if isinstance(m, Expansion):
        ends = "".join(f" {end}" for end in m.moved_ends)
        return f"expand {m.vertex} {index_str(m.n)}{ends} as {m.new_vertex} {m.new_edge}"
    raise IllegalMoveError(f"unknown move {_repr(m)}")


def parse_move(line: str, lineno: int | None = None) -> Move:
    _require_text("line", line, ScriptError, lineno)
    fields = line.split()
    if not fields:
        raise ScriptError("empty move", lineno)
    kind = fields[0]
    if kind == "collapse":
        if len(fields) != 4 or fields[2] != "into":
            raise ScriptError("want: collapse EDGE into VERTEX", lineno)
        return Collapse(edge=fields[1], survivor=fields[3])
    if kind == "slide":
        if len(fields) != 4 or fields[2] != "along":
            raise ScriptError("want: slide EDGE:SIDE along EDGE:SIDE", lineno)
        return Slide(moving_end=_parse_end(fields[1], lineno),
                     along=_parse_end(fields[3], lineno))
    if kind == "expand":
        if len(fields) < 6 or fields[-3] != "as":
            raise ScriptError(
                "want: expand VERTEX N [EDGE:SIDE ...] as NEWVERTEX NEWEDGE", lineno)
        try:
            n = parse_index(fields[2])
        except ValueError:
            raise ScriptError(f"bad integer {fields[2]!r}", lineno) from None
        moved = tuple(_parse_end(tok, lineno) for tok in fields[3:-3])
        return Expansion(vertex=fields[1], n=n, moved_ends=moved,
                         new_vertex=fields[-2], new_edge=fields[-1])
    raise ScriptError(f"unknown move kind {kind!r}", lineno)


def format_script(moves) -> str:
    return "".join(format_move(m) + "\n" for m in moves)


def parse_script(text: str) -> tuple[Move, ...]:
    _require_text("text", text, ScriptError)
    return tuple(parse_move(line, lineno) for lineno, line in _content_lines(text))
