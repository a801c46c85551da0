"""Canonical certificates for edge-indexed graphs.

Two graphs are equivalent when some relabeling composed with some sign flip
turns one into the other.  The certificate is the lexicographically minimal
encoding over all vertex bijections onto {0..n-1} and all sign flips, where
the encoding lists geometric edges as tuples

    (min endpoint rank, max endpoint rank, index at min-rank end, index at
     max-rank end)

sorted lexicographically; the two index entries of a loop are ordered by
(absolute value, sign).  Equal certificates hold exactly on equivalence
classes, so certificates double as deduplication keys for move searches.

The search assigns ranks one at a time.  Flipping an edge negates both of its
entries, so each tuple is minimized over its pair sign on its own and only
the vertex signs (one per rank, the first +1) couple the edges.  Block a holds
the tuples with min rank a; its size is fixed once rank a is given, and its
determined tuples sort before its open ones.  A node's *staircase* is the
determined tuples in flat order up to the first open slot, then the bound
(a, k+1, -m) on that slot, m the largest index at the rank-a vertex on an
edge to an unranked one: below every entry that can fill the slot, above
every determined entry that can stand there.  After McKay and Piperno,
"Practical graph isomorphism, II" (2014), sibling dominance prunes: a
completion of a strictly smaller staircase is below every completion of a
larger one, so at rank k only the candidates (vertex, sign) with the least
staircase are kept.  Only neighbours of the first vertex with an open slot can
fill it, so rank prefixes stay connected, and the tuples a vertex fills there
settle its sign.  At rank 0 a staircase is the vertex's loops, then (0, 1, -m),
so without loops only vertices carrying an end of maximal absolute index survive.

A staircase above the best complete encoding is cut too.  Survivors are
walked in the exhaustive walk's order, (tuples they determine, vertex,
-sign), and a cut drops only leaves strictly above another leaf, so the
first minimal leaf, with the rank order and signs that ``graph_isomorphism``
hands to path stitching, is the exhaustive walk's.  A form keeps only that
order, those signs and the encoding; ``graph_isomorphism`` re-encodes each
edge from the order and signs, and checks that the result is the encoding.
The exhaustive oracles live with the tests, in ``tests/oracles.py``.  Nothing
in this module is cached: a caller keeps its own memo, as ``explore._Names``
does by ``_shape``.  ``DEFAULT_SIZE_CAP`` is the single vertex cap on
canonicalization and on ``class_invariant``.  ``graph_isomorphism`` is the one
comparison: it builds forms only for graphs not label-equal that tie on vertex
count and absolute index pairs, and ``is_isomorphic`` asks it for a yes or no.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import EdgeIndexedGraph, End, Isomorphism, index_str

__all__ = [
    "SizeCapError",
    "DEFAULT_SIZE_CAP",
    "CanonicalForm",
    "canonical_form",
    "canonical_certificate",
    "class_invariant",
    "is_isomorphic",
    "graph_isomorphism",
]

DEFAULT_SIZE_CAP = 12


class SizeCapError(ValueError):
    """The graph exceeds the vertex cap for canonicalization."""


def _sgn(x: int) -> int:
    return 1 if x > 0 else -1


def _loop_slot(a: int, b: int) -> tuple[tuple[int, int], int]:
    """Canonical (pair, first side) for a loop with raw indices (a, b).

    Minimizes over the free pair sign; within a pair the entries are ordered
    by (absolute value, sign).  ``first side`` records which physical side
    supplies the first entry, for isomorphism extraction.
    """
    def slot(s: int):
        va, vb = s * a, s * b
        if (abs(va), va > 0) <= (abs(vb), vb > 0):
            return ((va, vb), 0)
        return ((vb, va), 1)

    return min(slot(1), slot(-1), key=lambda cand: cand[0])


@dataclass(frozen=True, slots=True, eq=False)
class CanonicalForm:
    """Minimal encoding plus the assignment that realizes it.  ``cert`` spells
    ``key`` in ASCII, so keys are equal exactly when certificates are; the
    text is made each time ``cert`` is read and kept by nothing, so a caller
    reads it once."""

    order: tuple[str, ...]              # rank -> vertex
    alpha: tuple[int, ...]              # rank -> vertex sign
    tuples: tuple[tuple[int, int, int, int], ...]   # sorted encoding

    @property
    def key(self) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
        return len(self.order), self.tuples

    @property
    def cert(self) -> bytes:
        body = ";".join(f"{a},{b},{index_str(x)},{index_str(y)}" for (a, b, x, y) in self.tuples)
        return f"v{len(self.order)}:{body}".encode("ascii")


def _search_min_encoding(g: EdgeIndexedGraph):
    """Return (flat encoding, rank order, alpha) minimizing the edge listing."""
    names = g.vertices
    n = len(names)
    at = {v: i for i, v in enumerate(names)}
    loops: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # nbr[v][w]: (entry 2, entry 4 before vertex signs) of each edge v-w,
    # read with w ranked first; reach[u]: (-|index at u|, w), largest first.
    nbr: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(n)]
    reach: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in g.edges:
        i, j = at[e.v0], at[e.v1]
        if i == j:
            loops[i].append(_loop_slot(e.i0, e.i1)[0])
            continue
        x0, x1 = -abs(e.i0), -abs(e.i1)
        nbr[i].setdefault(j, []).append((x1, -e.i0 * _sgn(e.i1)))
        nbr[j].setdefault(i, []).append((x0, -e.i1 * _sgn(e.i0)))
        reach[i].append((x0, j))
        reach[j].append((x1, i))
    for slots in loops + reach:
        slots.sort()

    rank = [-1] * n
    order, alpha, sizes = [], [], []                      # per rank
    blocks: list[list[tuple[int, int, int, int]]] = []   # determined prefixes
    best: list = [None, None, None]                       # flat, order, alpha

    def staircase(k: int, v: int, elsewhere, mine) -> list:
        # Determined entries once v takes rank k, then the open slot's bound.
        stair, i = [], 0
        for a, u in enumerate(order):
            j = i
            while j < len(elsewhere) and elsewhere[j][0] == a:
                j += 1
            stair += blocks[a]
            stair += elsewhere[i:j]
            if len(blocks[a]) + j - i < sizes[a]:
                break
            i = j
        else:
            a, u = k, v
            stair += mine
            if len(elsewhere) == len(reach[v]):
                return stair
        return stair + [next((a, k + 1, x) for (x, w) in reach[u] if rank[w] < 0 and w != v)]

    def dfs(k: int) -> None:
        # Past rank 0, dominance among siblings first on a cheap prefix of the staircase.
        if k == 0:
            picks = [(v, 1) for v in range(n)]
        else:
            a0 = 0
            while len(blocks[a0]) == sizes[a0]:
                a0 += 1
            u = order[a0]
            cands = [w for w in nbr[u] if rank[w] < 0]
            if len(cands) == 1 and len(nbr[cands[0]][u]) == 1:
                # One tuple fills the slot: the sign making its last entry negative.
                picks = [(cands[0], -1 if nbr[cands[0]][u][0][1] * alpha[a0] > 0 else 1)]
            else:
                picks = [(v, t) for v in sorted(cands) for t in (1, -1)]
                # The tuples each fills in block a0; (0,) is an open slot, above all.
                keys = [sorted([(x, y * alpha[a0] * t) for (x, y) in nbr[v][u]]) + [(0,)]
                        for (v, t) in picks]
                low = min(keys)
                picks = [pick for pick, key in zip(picks, keys) if key == low]
        options = []
        for v, t in picks:
            mine = [(k, k, p, q) for (p, q) in loops[v]]
            elsewhere = sorted([(rank[w], k, x, y * alpha[rank[w]] * t)
                                for w, pairs in nbr[v].items() if rank[w] >= 0
                                for (x, y) in pairs])
            options.append((v, t, elsewhere, mine))
        stairs = [staircase(k, v, elsewhere, mine) for (v, _, elsewhere, mine) in options]
        stair = min(stairs)
        options = sorted((opt for key, opt in zip(stairs, options) if key == stair),
                         key=lambda opt: (opt[2] + opt[3], opt[0], -opt[1]))
        for v, t, elsewhere, mine in options:
            if best[0] is not None and stair > best[0][:len(stair)]:
                return
            if k == n - 1:
                if best[0] is None or stair < best[0]:
                    best[:] = stair, (*order, v), (*alpha, t)
                return
            rank[v] = k
            order.append(v)
            alpha.append(t)
            for tup in elsewhere:
                blocks[tup[0]].append(tup)
            blocks.append(mine)
            sizes.append(len(mine) + len(reach[v]) - len(elsewhere))
            dfs(k + 1)
            del blocks[k:], sizes[k:], alpha[k:], order[k:]
            for tup in elsewhere:
                blocks[tup[0]].pop()
            rank[v] = -1

    dfs(0)
    return tuple(best[0]), tuple(names[i] for i in best[1]), best[2]


def _check_size(g: EdgeIndexedGraph) -> None:
    if len(g.vertices) > DEFAULT_SIZE_CAP:
        raise SizeCapError(f"graph has {len(g.vertices)} vertices, cap is {DEFAULT_SIZE_CAP}")


def canonical_form(g: EdgeIndexedGraph) -> CanonicalForm:
    _check_size(g)
    tuples, order, alpha = _search_min_encoding(g)
    return CanonicalForm(order=order, alpha=alpha, tuples=tuples)


def canonical_certificate(g: EdgeIndexedGraph) -> bytes:
    """Certificate bytes; equal exactly on relabel-and-sign-flip classes."""
    return canonical_form(g).cert


def class_invariant(g: EdgeIndexedGraph) -> tuple[int, tuple]:
    """(vertex count, sorted tuple of each vertex's sorted (|near index|, |far
    index|, is loop) ends), with no form built: equal on every relabel-and-sign-
    flip class, and made of ints and bools only, so its hash is the same in every
    process.  Raises ``SizeCapError`` past the vertex cap, as a form would."""
    _check_size(g)
    ends: dict[str, list[tuple[int, int, bool]]] = {v: [] for v in g.vertices}
    for _, v0, v1, i0, i1 in g.edges:
        a, b, loop = abs(i0), abs(i1), v0 == v1
        ends[v0].append((a, b, loop))
        ends[v1].append((b, a, loop))
    return len(g.vertices), tuple(sorted(tuple(sorted(v_ends)) for v_ends in ends.values()))


def _shape(g: EdgeIndexedGraph) -> tuple[int, ...]:
    """(vertex count, a, b, i, j, a, b, i, j, ...), the sorted edge tuples laid
    flat in one tuple: the graph relabeled, ids dropped.  Vertices rank by their
    sorted (near index, far index, is loop) ends, ties by id; an edge (a, b, i, j)
    is (rank a, rank b, index at a, index at b), a <= b and a loop's smaller index
    first, and gives exactly 4 entries.  Equal shapes share a certificate."""
    ends: dict[str, list[tuple[int, int, bool]]] = {v: [] for v in g.vertices}
    for _, v0, v1, i0, i1 in g.edges:
        ends[v0].append((i0, i1, v0 == v1))
        ends[v1].append((i1, i0, v0 == v1))
    for vertex_ends in ends.values():
        vertex_ends.sort()
    order = sorted(g.vertices, key=ends.__getitem__)        # stable: ties by id
    rank = {v: r for r, v in enumerate(order)}
    tuples = []
    for _, v0, v1, i, j in g.edges:
        a, b = rank[v0], rank[v1]
        tuples.append((a, b, i, j) if (a, i) <= (b, j) else (b, a, j, i))
    return (len(g.vertices), *[x for edge in sorted(tuples) for x in edge])


def is_isomorphic(g1: EdgeIndexedGraph, g2: EdgeIndexedGraph) -> bool:
    """Whether ``graph_isomorphism`` finds a witness: equivalence up to
    relabeling and sign flips, within the size cap."""
    return graph_isomorphism(g1, g2) is not None


def _abs_pairs(g: EdgeIndexedGraph) -> list[tuple[int, int]]:
    """Each edge's absolute indices, smaller first, sorted."""
    pairs = []
    for _, _, _, i0, i1 in g.edges:
        a, b = abs(i0), abs(i1)
        pairs.append((a, b) if a <= b else (b, a))
    return sorted(pairs)


def _edge_slots(g: EdgeIndexedGraph, form: CanonicalForm) -> list[tuple[tuple, str, int]]:
    """(tuple, edge id, first side) of each edge under the form's assignment,
    sorted; the tuples must be the form's encoding."""
    rank = {v: i for i, v in enumerate(form.order)}
    slots = []
    for e in g.edges:
        if e.v0 == e.v1:
            a = rank[e.v0]
            (x, y), first = _loop_slot(e.i0, e.i1)
            slots.append(((a, a, x, y), e.eid, first))
            continue
        r0, r1 = rank[e.v0], rank[e.v1]
        a, b, x, y, first = (r0, r1, e.i0, e.i1, 0) if r0 < r1 else (r1, r0, e.i1, e.i0, 1)
        slots.append(((a, b, -abs(x), -y * _sgn(x) * form.alpha[a] * form.alpha[b]), e.eid, first))
    slots.sort()
    assert tuple(tup for tup, _, _ in slots) == form.tuples
    return slots


def graph_isomorphism(g1: EdgeIndexedGraph, g2: EdgeIndexedGraph) -> Isomorphism | None:
    """An explicit witness of equivalence up to relabeling and sign flips,
    within the size cap, or None when the graphs differ.

    Label-equal graphs are equivalent: the identity witnesses it.  Graphs
    apart in vertex count or in their sorted per-edge pairs of absolute
    indices are not: a relabeling keeps each edge's two indices together, and
    a sign flip changes no absolute value.  Only a tie builds the two forms.
    Edges sharing a canonical tuple are interchangeable, so each form's edges
    are sorted by (tuple, identifier) and paired by position; any such
    pairing differs from any other by an automorphism composed with sign
    flips.  Equal keys give both forms the same multiset of tuples.
    """
    _check_size(g1)
    _check_size(g2)
    if g1 == g2:
        ends = [End(eid, side) for eid, *_ in g1.edges for side in (0, 1)]
        return Isomorphism({v: v for v in g1.vertices}, dict(zip(ends, ends)))
    if len(g1.vertices) != len(g2.vertices) or _abs_pairs(g1) != _abs_pairs(g2):
        return None
    f1 = canonical_form(g1)
    f2 = canonical_form(g2)
    if f1.key != f2.key:
        return None
    end_map: dict[End, End] = {}
    for (_, e1, first1), (_, e2, first2) in zip(_edge_slots(g1, f1), _edge_slots(g2, f2)):
        end_map[End(e1, first1)] = End(e2, first2)
        end_map[End(e1, 1 - first1)] = End(e2, 1 - first2)
    return Isomorphism(dict(zip(f1.order, f2.order)), end_map)
