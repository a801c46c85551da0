"""Bounded search over move graphs, keyed by class name.

``_Side`` runs every search and decides every cap.  A started layer is
admitted whole, so no verdict depends on the order of a layer's steps, and a
class of at most ``max_nodes`` members still closes.  A side is *closed* when
its frontier emptied and no cap fired; only then is it the whole class.  Each
search keeps one ``_Names`` for both of its sides, freed when it returns.

``decide_equivalence`` first asks ``invariants.refute``, whose reasons rest on
an ``invariant``, then grows two sides, smaller frontier first.  A move shifts
the vertex count by at most 1, so a result at depth k whose count is more than
``max_depth - k`` from the other root's can meet nothing within the depth
bound, nor can any class reached through it: the move kind that would build it
waits until the search has found no meeting.  The move classes:

  slide   - slide moves only; enumeration is complete, so a closed side
            decides distinctness on its own: the class is ``exhausted``.
  deform  - collapses, slides and bounded expansions.  A slide is itself an
            expansion followed by a collapse, so this class generates the
            elementary-deformation relation; keeping slides as single steps
            makes short deformations discoverable within small budgets.
            Expansion factors above the bound are never enumerated, so the
            step relation is not symmetric and distinctness is only claimed
            when both sides close, relative to the ``bounds``.

An ``equivalent`` verdict's ``path`` replays from the first graph and ends
canon-equal to the second: its back half inverts the second side's moves and
transports them across an explicit isomorphism of the meeting graphs
(``moves.transport_move``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .canonical import SizeCapError, canonical_certificate, class_invariant, graph_isomorphism
from .graphs import EdgeIndexedGraph, _repr, _require_counts
from .invariants import refute
from .moves import (
    Collapse, Expansion, ExpansionBounds, Move, Slide, apply_move, enumerate_collapses,
    enumerate_expansions, enumerate_slides, invert_move, transport_move,
)

__all__ = [
    "Budget",
    "ExplorationReport",
    "Verdict",
    "MOVE_CLASSES",
    "explore_class",
    "decide_equivalence",
]

MOVE_CLASSES = ("slide", "deform")
Name = int | bytes                  # a class's name within one search (``_Names``)


@dataclass(frozen=True, slots=True)
class Budget:
    max_depth: int = 4
    max_nodes: int = 100_000
    max_abs_index: int = 1_000_000
    expansion: ExpansionBounds = ExpansionBounds()

    def __post_init__(self) -> None:
        _require_counts(self, "max_depth", "max_nodes", "max_abs_index")
        if not isinstance(self.expansion, ExpansionBounds):
            raise ValueError(f"expansion must be an ExpansionBounds, got {_repr(self.expansion)}")


def _kinds(move_class: str, bounds: ExpansionBounds) -> tuple[tuple, ...]:
    """(vertex shift, enumerator) of each move kind of the class: collapses,
    slides, expansions.  Each call reads the module's bindings."""
    if move_class not in MOVE_CLASSES:
        raise ValueError(f"unknown move class {move_class!r}")
    slides = (Slide.vertex_shift, enumerate_slides)
    if move_class == "slide":
        return (slides,)
    return ((Collapse.vertex_shift, enumerate_collapses), slides,
            (Expansion.vertex_shift, lambda g: enumerate_expansions(g, bounds)))


@dataclass(slots=True)
class ExplorationReport:
    members: dict[bytes, EdgeIndexedGraph]
    depths: dict[bytes, int]
    adjacency: dict[bytes, tuple[bytes, ...]]
    closed: bool
    caps: frozenset[str]            # "index", "size", "node": caps that bound the search


class _Names:
    """Names equal exactly when classes are: the ``class_invariant`` hash, or the
    certificate of a graph whose bucket's first graph is of another class."""

    def __init__(self) -> None:
        self.memo: dict[tuple, Name] = {}                   # shape -> name
        self.firsts: dict[int, EdgeIndexedGraph] = {}       # hash -> its bucket's first graph
        self.certs: dict[int, bytes] = {}                   # hash -> that graph's cert, once built

    def __call__(self, g: EdgeIndexedGraph) -> Name:
        """g's name, from the memo when a graph of g's shape was met."""
        key = g.shape()
        if key not in self.memo:
            name = hash(class_invariant(g))
            first = self.firsts.setdefault(name, g)
            if first is not g:          # a bucket hit: the certificates decide
                self.certs[name] = self.certs.get(name) or canonical_certificate(first)
                cert = canonical_certificate(g)
                name = name if cert == self.certs[name] else cert
            self.memo[key] = name
        return self.memo[key]


class _Side:
    """One breadth-first search from a root graph, keyed by class name."""

    def __init__(self, g: EdgeIndexedGraph, kinds: tuple[tuple, ...], budget: Budget,
                 name: _Names, size: int | None = None):
        self.kinds, self.budget, self.size = kinds, budget, size  # size: other root's vertex count
        self.name = name                # shared by the search's sides
        self.root = name(g)             # each root is named once per search, by its own side
        # name -> (graph as reached, depth, parent name, move from parent)
        self.visited: dict[Name, tuple[EdgeIndexedGraph, int, Name | None, Move | None]] = {
            self.root: (g, 0, None, None)}
        self.frontier: list[Name] = [self.root]
        self.depth = 0
        self.capped: set[tuple[str, int]] = set()   # (cap, the layer it bounded)

    @property
    def caps(self) -> set[str]:
        """"index", "size", "node": the caps that bound the side."""
        return {cap for cap, _ in self.capped}

    @property
    def closed(self) -> bool:
        return not self.frontier and not self.capped

    @property
    def growing(self) -> bool:
        """A next layer is due: the frontier is not empty, the depth bound not
        reached, and the node cap refused no layer."""
        return (bool(self.frontier) and self.depth < self.budget.max_depth
                and "node" not in self.caps)

    def advance(self) -> Iterator[tuple]:
        """The next layer's steps (parent name, parent, move), lazily, or none if the
        side holds more than ``max_nodes`` classes: it records ``"node"``.  A step
        into layer k whose result's vertex count is more than ``max_depth - k`` from
        ``size``, the other root's, waits for ``drain``: a move shifts the count by
        at most 1, so no class the other side holds within the depth left is that far."""
        if len(self.visited) > self.budget.max_nodes:
            self.capped.add(("node", self.depth + 1))
            return
        frontier, self.frontier, self.depth = self.frontier, [], self.depth + 1
        yield from self._steps(frontier, waiting=False)

    def drain(self) -> None:
        """Once no meeting is found, run the waiting steps layer by layer, from
        every class held one layer up, near or far, so no move runs twice.  The
        node cap counts the classes above each layer, and ``depth``, ``frontier``
        and ``caps`` end as if no step had waited."""
        layers: dict[int, list[Name]] = {}
        for name, entry in self.visited.items():
            layers.setdefault(entry[1], []).append(name)
        held, self.depth, self.frontier = 1, 0, [self.root]
        while self.frontier and self.depth < self.budget.max_depth:
            if held > self.budget.max_nodes:    # no layer past this one would have run
                self.capped = {cap for cap in self.capped if cap[1] <= self.depth}
                self.capped.add(("node", self.depth + 1))
                return
            parents, self.frontier = self.frontier, layers.get(self.depth + 1, [])
            self.depth += 1
            for _ in self.grow(self._steps(parents, waiting=True)):
                pass
            held += len(self.frontier)

    def _steps(self, parents: list[Name], waiting: bool) -> Iterator[tuple]:
        """(parent name, parent, move), parent by parent and kinds in order, of the
        kinds that wait (``waiting``) or not: the vertex-count bound's one test."""
        left = self.budget.max_depth - self.depth
        for name_u in parents:
            gu = self.visited[name_u][0]
            for shift, enumerate_kind in self.kinds:
                far = self.size is not None and abs(len(gu.vertices) + shift - self.size) > left
                if far == waiting:
                    for move in enumerate_kind(gu):
                        yield name_u, gu, move

    def grow(self, steps: Iterable[tuple]) -> Iterator[tuple]:
        """Apply steps at ``depth``; yield (parent, name) per uncapped result."""
        for name_u, gu, move in steps:
            h = apply_move(gu, move)
            if h.max_abs_index() > self.budget.max_abs_index:
                self.capped.add(("index", self.depth))
                continue
            try:
                name_h = self.name(h)
            except SizeCapError:
                self.capped.add(("size", self.depth))
                continue
            if name_h not in self.visited:
                self.visited[name_h] = (h, self.depth, name_u, move)
                self.frontier.append(name_h)
            yield name_u, name_h

    def chain(self, name: Name) -> list[tuple[EdgeIndexedGraph, Move, EdgeIndexedGraph]]:
        """(graph before, move, graph after) steps from the root to the class."""
        steps = []
        while True:
            graph, _, parent, move = self.visited[name]
            if parent is None:
                return list(reversed(steps))
            steps.append((self.visited[parent][0], move, graph))
            name = parent


def explore_class(g: EdgeIndexedGraph, move_class: str, budget: Budget) -> ExplorationReport:
    """BFS closure of g under one move class; each class is certified once, at the end."""
    side = _Side(g, _kinds(move_class, budget.expansion), budget, _Names())
    adjacency: dict[Name, set[Name]] = {side.root: set()}
    while side.growing:
        for parent, name in side.grow(side.advance()):
            adjacency.setdefault(name, set()).add(parent)
            adjacency[parent].add(name)
    cert = {name: canonical_certificate(entry[0]) for name, entry in side.visited.items()}
    return ExplorationReport(
        members={cert[n]: entry[0] for n, entry in side.visited.items()},
        depths={cert[n]: entry[1] for n, entry in side.visited.items()},
        adjacency={cert[n]: tuple(sorted(cert[m] for m in nb)) for n, nb in adjacency.items()},
        closed=side.closed,
        caps=frozenset(side.caps),
    )


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: str                       # equivalent | distinct | unknown
    path: tuple[Move, ...] | None = None
    reason: str | None = None
    evidence: str | None = None     # path | invariant | exhausted | bounds; None if unknown


def _stitch(fwd: _Side, bwd: _Side, name: Name) -> tuple[Move, ...]:
    """Forward path to the meeting point, then inverted transported back half."""
    path = [move for (_, move, _) in fwd.chain(name)]
    cur = fwd.visited[name][0]
    for before, move, after in reversed(bwd.chain(name)):
        inverse = invert_move(before, move)
        iso = graph_isomorphism(after, cur)
        assert iso is not None, "meeting graphs must share a class"
        transported = transport_move(inverse, iso, cur)
        cur = apply_move(cur, transported)
        path.append(transported)
    assert fwd.name(cur) == bwd.root
    return tuple(path)


def decide_equivalence(g1: EdgeIndexedGraph, g2: EdgeIndexedGraph,
                       move_class: str, budget: Budget) -> Verdict:
    """Equivalent with a replayable path, Distinct with a reason, or Unknown.
    When both classes close with no meeting within the depth bound but share a
    class, the path runs through it and can be longer than that bound."""
    kinds = _kinds(move_class, budget.expansion)
    if reason := refute(g1, g2, move_class):
        return Verdict("distinct", reason=reason, evidence="invariant")

    names = _Names()
    fwd = _Side(g1, kinds, budget, names, len(g2.vertices))
    bwd = _Side(g2, kinds, budget, names, len(g1.vertices))
    if fwd.root == bwd.root:
        return Verdict("equivalent", path=(), evidence="path")

    while expandable := [s for s in (fwd, bwd) if s.growing]:
        side = min(expandable, key=lambda s: (len(s.frontier), s is bwd))
        other = bwd if side is fwd else fwd
        for _, name in side.grow(side.advance()):
            if (name in other.visited
                    and side.visited[name][1] + other.visited[name][1] <= budget.max_depth):
                return Verdict("equivalent", path=_stitch(fwd, bwd, name), evidence="path")
    for side in (fwd, bwd):             # no meeting: the waiting steps run
        side.drain()

    if move_class == "slide":
        if fwd.closed or bwd.closed:
            return Verdict("distinct", reason="slide class exhausted", evidence="exhausted")
    elif fwd.closed and bwd.closed:
        shared = fwd.visited.keys() & bwd.visited.keys()
        if shared:
            # Depth ties go to the least certificate: int and bytes names do not order.
            name = min(shared, key=lambda n: (fwd.visited[n][1] + bwd.visited[n][1],
                                              canonical_certificate(fwd.visited[n][0])))
            return Verdict("equivalent", path=_stitch(fwd, bwd, name), evidence="path")
        return Verdict("distinct", reason="deformation class exhausted within bounds",
                       evidence="bounds")
    bounds = [f"{cap} cap" for cap in fwd.caps | bwd.caps]
    if any(s.frontier and s.depth >= budget.max_depth for s in (fwd, bwd)):
        bounds.append("depth")
    return Verdict("unknown", reason=f"budget exhausted ({', '.join(sorted(bounds))})")
