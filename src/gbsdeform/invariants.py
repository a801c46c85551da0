"""Invariant refutations: checks that decide a pair distinct before a search.

A check reads only the two graphs and the move class, so ``decide_equivalence``
runs it before either side of the search exists, and a pair it refutes costs
no move, name or canonical form.  This module imports only from ``graphs``: the
benchmark tracer times canonical calls only from its layer modules, and
``explore``, which calls ``refute``, imports this module.
"""

from __future__ import annotations

from .graphs import EdgeIndexedGraph

__all__ = ["MOVE_CLASSES", "betti_number", "refute"]

MOVE_CLASSES = ("slide", "deform")


def betti_number(g: EdgeIndexedGraph) -> int:
    """First Betti number: edges - vertices + 1.  Collapse, expansion and slide
    moves keep it."""
    return len(g.edges) - len(g.vertices) + 1


def refute(g1: EdgeIndexedGraph, g2: EdgeIndexedGraph, move_class: str) -> str | None:
    """Why no move of the class joins g1 and g2, or None.  Checks the Betti
    number, then, as a slide keeps the vertices, a slide pair's vertex count."""
    if move_class not in MOVE_CLASSES:
        raise ValueError(f"unknown move class {move_class!r}")
    b1, b2 = betti_number(g1), betti_number(g2)
    if b1 != b2:
        return f"betti number differs ({b1} vs {b2})"
    if move_class == "slide" and len(g1.vertices) != len(g2.vertices):
        return "vertex count differs"
    return None
