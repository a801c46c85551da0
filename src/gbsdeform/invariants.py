"""Invariant refutations: checks that decide a pair distinct before a search.

A check reads only the two graphs and the move class, so ``decide_equivalence``
runs it before either side of the search exists, and a pair it refutes costs
no move, name or canonical form.  This module imports only from ``graphs``: the
benchmark tracer times canonical calls only from its layer modules, and
``explore``, which calls ``refute``, imports this module.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .graphs import EdgeIndexedGraph, index_str

__all__ = ["MOVE_CLASSES", "abelianization", "betti_number", "refute"]

MOVE_CLASSES = ("slide", "deform")


def betti_number(g: EdgeIndexedGraph) -> int:
    """First Betti number: edges - vertices + 1.  Collapse, expansion and slide
    moves keep it."""
    return len(g.edges) - len(g.vertices) + 1


def abelianization(g: EdgeIndexedGraph) -> tuple[int, tuple[int, ...]]:
    """H1 of g's fundamental group as (free rank, invariant factors), each
    factor above 1 and dividing the next.  Every move keeps the fundamental
    group and a sign flip inverts a generator, so both move classes keep it.

    H1 is Z^betti plus the cokernel of one relation per edge on the vertex
    generators: i*e_v - j*e_w for an edge (v, w) with indices (i, j), and
    (i - j)*e_v for a loop.  Echelon forms of the relations and of their
    transpose alternate until each row holds one entry; a gcd/lcm pass makes
    that diagonal a divisibility chain.  No integer is factored or written as
    text.  The free rank is at least 1, as there are at most betti + V - 1
    independent relations on V generators."""
    col = {v: k for k, v in enumerate(g.vertices)}
    rows = []
    for _, v0, v1, i0, i1 in g.edges:
        row = [0] * len(col)
        row[col[v0]] += i0
        row[col[v1]] -= i1
        rows.append(row)
    rows = _echelon(rows, len(col))
    while any(sum(map(bool, row)) > 1 for row in rows):
        rows = _echelon([list(column) for column in zip(*rows)], len(rows))
    diagonal = [abs(a) for row in rows for a in row if a]
    for i, j in combinations(range(len(diagonal)), 2):
        d = gcd(diagonal[i], diagonal[j])
        diagonal[i], diagonal[j] = d, diagonal[i] * diagonal[j] // d
    return betti_number(g) + len(col) - len(diagonal), tuple(d for d in diagonal if d > 1)


def _echelon(rows: list[list[int]], width: int) -> list[list[int]]:
    """The nonzero rows of an echelon form, by integer row operations: at each
    column, Euclid's algorithm on the rows that reach it reduces all but one
    to zero there.  A least entry that divides its column keeps its row as it
    is, so alternating with the transpose ends: the first pivot shrinks until
    it divides its row and its column, and is then alone in both."""
    out = []
    for c in range(width):
        live, rows = [row for row in rows if row[c]], [row for row in rows if not row[c]]
        while len(live) > 1:
            pivot = min(live, key=lambda row: abs(row[c]))
            live = [pivot] + [[a - row[c] // pivot[c] * b for a, b in zip(row, pivot)]
                              for row in live if row is not pivot]
            rows += [row for row in live if not row[c]]
            live = [row for row in live if row[c]]
        out += live
    return out


def _group_text(h: tuple[int, tuple[int, ...]]) -> str:
    """H1 as a reason writes it, e.g. ``Z + Z/175`` or ``Z^2``."""
    rank, factors = h
    return " + ".join(["Z" if rank == 1 else f"Z^{rank}", *(f"Z/{index_str(d)}" for d in factors)])


def refute(g1: EdgeIndexedGraph, g2: EdgeIndexedGraph, move_class: str) -> str | None:
    """Why no move of the class joins g1 and g2, or None.  Checks the Betti
    number, then, as a slide keeps the vertices, a slide pair's vertex count,
    then the abelianization."""
    if move_class not in MOVE_CLASSES:
        raise ValueError(f"unknown move class {move_class!r}")
    b1, b2 = betti_number(g1), betti_number(g2)
    if b1 != b2:
        return f"betti number differs ({b1} vs {b2})"
    if move_class == "slide" and len(g1.vertices) != len(g2.vertices):
        return "vertex count differs"
    h1, h2 = abelianization(g1), abelianization(g2)
    if h1 != h2:
        return f"abelianization differs ({_group_text(h1)} vs {_group_text(h2)})"
    return None
