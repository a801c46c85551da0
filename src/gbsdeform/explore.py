"""Bounded search over move graphs, keyed by class name.

``_search`` is every search's one loop: it grows each ``_Side`` a layer at a
time until every frontier is empty.  The side decides every cap and names in its
``caps`` each reason it is not its whole class; a stop empties its frontier.  A
started layer is admitted whole, so no verdict depends on the order of a layer's
steps, and a class of at most ``max_nodes`` members still closes.  A walked side
is *closed* when its ``caps`` name no cap; only then is it the whole class.
Each search keeps one ``_Names`` for both of its sides, freed when it returns.

``decide_equivalence`` first asks ``invariants.refute``, whose reasons rest on
an ``invariant``, then grows two sides.  A move shifts the vertex count by at
most 1, so a result at depth k whose count is more than ``max_depth - k`` from
the other root's can meet nothing within the depth bound, nor can any class
reached through it: the side leaves out the move kind that would build it, as
``"reach"``.  When no meeting is found, each side with ``"reach"`` is searched
again from its root as its whole class, the search ``explore_class`` runs.  The
move classes:

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
from .graphs import EdgeIndexedGraph, _repr, _require_int
from .invariants import MOVE_CLASSES, refute
from .moves import (
    Collapse, Expansion, ExpansionBounds, Move, Slide, apply_move, enumerate_collapses,
    enumerate_expansions, enumerate_slides, invert_move, transport_move,
)

__all__ = [
    "Budget",
    "ExplorationReport",
    "Verdict",
    "explore_class",
    "decide_equivalence",
]

Name = int | bytes                  # a class's name within one search (``_Names``)


@dataclass(frozen=True, slots=True)
class Budget:
    max_depth: int = 4
    max_nodes: int = 100_000
    max_abs_index: int = 1_000_000
    expansion: ExpansionBounds = ExpansionBounds()

    def __post_init__(self) -> None:
        for field in ("max_depth", "max_nodes", "max_abs_index"):
            _require_int(field, getattr(self, field))
        if not isinstance(self.expansion, ExpansionBounds):
            raise ValueError(f"expansion must be an ExpansionBounds, got {_repr(self.expansion)}")


@dataclass(slots=True)
class ExplorationReport:
    members: dict[bytes, EdgeIndexedGraph]
    depths: dict[bytes, int]
    adjacency: dict[bytes, tuple[bytes, ...]]
    caps: frozenset[str]            # "depth", "index", "size", "node": caps that bound the search

    @property
    def closed(self) -> bool:
        return not self.caps


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
    """One BFS from a root graph, by class name; ``_search``, every search's loop, walks it."""

    def __init__(self, g: EdgeIndexedGraph, move_class: str, budget: Budget,
                 name: _Names, size: int | None = None):
        if move_class not in MOVE_CLASSES:
            raise ValueError(f"unknown move class {move_class!r}")
        # Enumerators are read here, not at import: tests and the benchmark's tracer replace them.
        slides = (Slide.vertex_shift, enumerate_slides)
        self.kinds = (slides,) if move_class == "slide" else (
            (Collapse.vertex_shift, enumerate_collapses), slides,
            (Expansion.vertex_shift, lambda h: enumerate_expansions(h, budget.expansion)))
        self.budget, self.size = budget, size       # size: the other root's vertex count
        self.name = name                # shared by the search's sides
        self.root = name(g)             # a side rebuilt from its root names it through the memo
        # name -> (graph as reached, depth, parent name, move from parent)
        self.visited: dict[Name, tuple[EdgeIndexedGraph, int, Name | None, Move | None]] = {
            self.root: (g, 0, None, None)}
        self.frontier: list[Name] = [self.root]     # the names first reached at depth
        self.depth = 0
        self.caps: set[str] = set()     # why the side is not its whole class, by name

    def advance(self) -> Iterator[tuple]:
        """The next layer's steps (parent name, parent, move), lazily.  At the depth
        bound the side records ``"depth"``, else past ``max_nodes`` classes ``"node"``;
        either stop empties the frontier and builds no step.  A step into layer k whose
        result's vertex count is more than ``max_depth - k`` from ``size``, the other
        root's, is left out and records ``"reach"``: a move shifts the count by at
        most 1, so no class the other side holds within the depth left is that far."""
        if self.depth >= self.budget.max_depth or len(self.visited) > self.budget.max_nodes:
            self.caps.add("depth" if self.depth >= self.budget.max_depth else "node")
            self.frontier = []
            return
        parents, self.frontier, self.depth = self.frontier, [], self.depth + 1
        left = self.budget.max_depth - self.depth
        for name_u in parents:
            gu = self.visited[name_u][0]
            for shift, enumerate_kind in self.kinds:
                if self.size is not None and abs(len(gu.vertices) + shift - self.size) > left:
                    self.caps.add("reach")
                else:
                    for move in enumerate_kind(gu):
                        yield name_u, gu, move

    def grow(self, steps: Iterable[tuple]) -> Iterator[tuple]:
        """Apply steps at ``depth``; yield (parent, name) per result no cap drops."""
        for name_u, gu, move in steps:
            h = apply_move(gu, move)
            if h.max_abs_index() > self.budget.max_abs_index:
                self.caps.add("index")
                continue
            try:
                name_h = self.name(h)
            except SizeCapError:
                self.caps.add("size")
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


def _search(sides: list[_Side]) -> Iterator[tuple]:
    """Every search's loop: grow the side with the smaller frontier, ties to the
    first, until every frontier is empty; yield (parent, name) per kept result."""
    while live := [s for s in sides if s.frontier]:
        side = min(live, key=lambda s: len(s.frontier))
        yield from side.grow(side.advance())


def explore_class(g: EdgeIndexedGraph, move_class: str, budget: Budget) -> ExplorationReport:
    """BFS closure of g under one move class; each class is certified once, at the end."""
    side = _Side(g, move_class, budget, _Names())
    adjacency: dict[Name, set[Name]] = {side.root: set()}
    for parent, name in _search([side]):
        adjacency.setdefault(name, set()).add(parent)
        adjacency[parent].add(name)
    cert = {name: canonical_certificate(entry[0]) for name, entry in side.visited.items()}
    return ExplorationReport(
        members={cert[n]: entry[0] for n, entry in side.visited.items()},
        depths={cert[n]: entry[1] for n, entry in side.visited.items()},
        adjacency={cert[n]: tuple(sorted(cert[m] for m in nb)) for n, nb in adjacency.items()},
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
    if reason := refute(g1, g2, move_class):
        return Verdict("distinct", reason=reason, evidence="invariant")

    names = _Names()
    fwd = _Side(g1, move_class, budget, names, len(g2.vertices))
    bwd = _Side(g2, move_class, budget, names, len(g1.vertices))
    if fwd.root == bwd.root:
        return Verdict("equivalent", path=(), evidence="path")

    for _, name in _search([fwd, bwd]):
        if (name in fwd.visited and name in bwd.visited
                and fwd.visited[name][1] + bwd.visited[name][1] <= budget.max_depth):
            return Verdict("equivalent", path=_stitch(fwd, bwd, name), evidence="path")
    # No meeting: a side that left out a step is searched again as its whole class.
    fwd, bwd = (_Side(g, move_class, budget, names) if "reach" in side.caps else side
                for side, g in ((fwd, g1), (bwd, g2)))
    for _ in _search([fwd, bwd]):
        pass

    if move_class == "slide":
        if not fwd.caps or not bwd.caps:
            return Verdict("distinct", reason="slide class exhausted", evidence="exhausted")
    elif not fwd.caps and not bwd.caps:
        shared = fwd.visited.keys() & bwd.visited.keys()
        if shared:
            # Depth ties go to the least certificate: int and bytes names do not order.
            name = min(shared, key=lambda n: (fwd.visited[n][1] + bwd.visited[n][1],
                                              canonical_certificate(fwd.visited[n][0])))
            return Verdict("equivalent", path=_stitch(fwd, bwd, name), evidence="path")
        return Verdict("distinct", reason="deformation class exhausted within bounds",
                       evidence="bounds")
    bounds = [cap if cap == "depth" else f"{cap} cap" for cap in fwd.caps | bwd.caps]
    return Verdict("unknown", reason=f"budget exhausted ({', '.join(sorted(bounds))})")
