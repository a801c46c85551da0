"""Exhaustive oracles the library is checked against.

Each one answers a question the library answers by a pruned search, by the
plainest search there is: every vertex bijection and sign vector for the
canonical certificate, a whole class explored from each root for the
meeting of a two-sided equivalence search, and integer elimination for the
fundamental group's abelianization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import combinations, permutations, product
from math import gcd

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
                if e.v0 == e.v1:
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


def abelianization(g: EdgeIndexedGraph) -> tuple[int, tuple[int, ...]]:
    """H1 of g's fundamental group as (free rank, invariant factors), each
    factor above 1 and dividing the next.

    H1 is Z^betti, one generator per edge off a spanning tree, plus the
    cokernel of one relation per edge on the vertex generators: i*e_v - j*e_w
    for an edge (v, w) with indices (i, j), and (i - j)*e_v for a loop.  The
    relation matrix is diagonalized by integer row and column operations, and
    the diagonal turned into a divisibility chain by gcd and lcm; no integer
    is factored."""
    col = {v: k for k, v in enumerate(g.vertices)}
    rows = []
    for e in g.edges:
        row = [0] * len(col)
        row[col[e.v0]] += e.i0
        row[col[e.v1]] -= e.i1
        rows.append(row)
    diagonal = []
    while rows := [row for row in rows if any(row)]:
        # Pivot on the least entry; reduce its row and column by it, and pivot
        # again on any remainder, which is less, until both are clear.
        r, c = min(((r, c) for r, row in enumerate(rows) for c, a in enumerate(row) if a),
                   key=lambda rc: abs(rows[rc[0]][rc[1]]))
        pivot_row, p = rows[r], rows[r][c]
        for k, row in enumerate(rows):
            if k != r and row[c]:
                q = row[c] // p
                rows[k] = [a - q * b for a, b in zip(row, pivot_row)]
        for j, a in enumerate(pivot_row):
            if j != c and a:
                q = a // p
                for row in rows:
                    row[j] -= q * row[c]
        if not any(a for j, a in enumerate(rows[r]) if j != c) and \
                not any(row[c] for k, row in enumerate(rows) if k != r):
            diagonal.append(abs(p))
            rows = [row[:c] + row[c + 1:] for k, row in enumerate(rows) if k != r]
    for i, j in combinations(range(len(diagonal)), 2):
        d = gcd(diagonal[i], diagonal[j])
        diagonal[i], diagonal[j] = d, diagonal[i] * diagonal[j] // d
    betti = len(g.edges) - len(g.vertices) + 1
    return betti + len(col) - len(diagonal), tuple(d for d in diagonal if d > 1)
