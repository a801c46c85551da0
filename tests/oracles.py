"""Exhaustive oracles the library is checked against.

Each one answers a question the library answers by a pruned search, by the
plainest search there is: every vertex bijection and sign vector for the
canonical certificate, and a whole class explored from each root for the
meeting of a two-sided equivalence search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import permutations, product

from gbsdeform import Budget, EdgeIndexedGraph, SizeCapError, explore_class
from gbsdeform.canonical import _loop_slot

ORACLE_SIZE_CAP = 6


def brute_force_isomorphic(g1: EdgeIndexedGraph, g2: EdgeIndexedGraph) -> bool:
    """Exhaustive equivalence test; the oracle for the canonical search.

    Tries every vertex bijection composed with every vertex sign assignment.
    Edge flips negate both entries of a single edge and touch nothing else,
    so they are absorbed by comparing each edge descriptor up to pair sign.
    """
    if len(g1.vertices) > ORACLE_SIZE_CAP or len(g2.vertices) > ORACLE_SIZE_CAP:
        raise SizeCapError(f"oracle vertex cap {ORACLE_SIZE_CAP} exceeded")
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False

    def descriptor(v0, v1, i0, i1):
        d = sorted(((v0, i0), (v1, i1)))
        dneg = sorted(((v0, -i0), (v1, -i1)))
        return tuple(min(d, dneg))

    target = Counter(descriptor(e.v0, e.v1, e.i0, e.i1) for e in g2.edges)
    verts1 = g1.vertices
    for perm in permutations(g2.vertices):
        phi = dict(zip(verts1, perm))
        for signs in product((1, -1), repeat=len(verts1)):
            alpha = dict(zip(verts1, signs))
            got = Counter(
                descriptor(phi[e.v0], phi[e.v1], alpha[e.v0] * e.i0, alpha[e.v1] * e.i1)
                for e in g1.edges)
            if got == target:
                return True
    return False


def oracle_min_encoding(g: EdgeIndexedGraph):
    """The certificate's definition, by exhaustion: the least sorted encoding
    over every vertex bijection and every vertex sign vector."""
    n = len(g.vertices)
    best = None
    for perm in permutations(range(n)):
        rank = dict(zip(g.vertices, perm))
        for alpha in product((1, -1), repeat=n):
            tuples = []
            for e in g.edges:
                a, b, x, y = rank[e.v0], rank[e.v1], e.i0, e.i1
                if e.is_loop:
                    p, q = _loop_slot(x, y)[0]
                    tuples.append((a, a, p, q))
                    continue
                if a > b:
                    a, b, x, y = b, a, y, x
                sgn = 1 if x > 0 else -1
                tuples.append((a, b, -abs(x), -y * sgn * alpha[a] * alpha[b]))
            encoding = tuple(sorted(tuples))
            if best is None or encoding < best:
                best = encoding
    return best


def least_meeting_sum(g1: EdgeIndexedGraph, g2: EdgeIndexedGraph, move_class: str,
                      budget: Budget) -> int | None:
    """The least depth sum over the certificates both roots' classes hold,
    each class explored under the budget with its node cap lifted to 10**6;
    None when the two share none.  Every move has an inverse, so a shared
    certificate at depths d1 and d2 is a path of d1 + d2 moves."""
    lifted = replace(budget, max_nodes=10**6)
    depths1 = explore_class(g1, move_class, lifted).depths
    depths2 = explore_class(g2, move_class, lifted).depths
    return min((depths1[c] + depths2[c] for c in depths1.keys() & depths2.keys()), default=None)
