"""Seeded random graphs and the rigidity fuzz harness.

``random_graph`` draws connected multigraphs with index magnitudes in a
range, optionally rejection-sampled until reduced or strongly slide-free.
``rigidity_trial`` is the experiment behind the uniqueness theorem for
strongly slide-free graphs: scramble one with random legal moves, reduce,
and demand the original back up to relabeling and sign flips.  A reproducible
failing trial would falsify the move engine, not the theorem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .canonical import is_isomorphic
from .graphs import Edge, EdgeIndexedGraph
from .moves import (
    ExpansionBounds,
    Move,
    analyze,
    apply_move,
    enumerate_collapses,
    enumerate_expansions,
    enumerate_slides,
    reduce_graph,
)

__all__ = [
    "GenerationError",
    "RandomGraphSpec",
    "random_graph",
    "random_legal_move",
    "RigidityTrial",
    "rigidity_trial",
]

REQUIREMENTS = ("none", "reduced", "strongly_slide_free")
MAX_RETRIES = 5000                      # samples drawn before GenerationError


class GenerationError(ValueError):
    """The sampler could not satisfy the spec within its retry budget."""


@dataclass(frozen=True)
class RandomGraphSpec:
    num_vertices: int
    num_edges: int
    index_range: tuple[int, int] = (2, 9)   # absolute values; signs are random
    require: str = "none"

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("need at least one vertex")
        if self.num_edges < self.num_vertices - 1:
            raise GenerationError(
                f"{self.num_vertices} vertices cannot be connected by "
                f"{self.num_edges} edges")
        lo, hi = self.index_range
        if not (1 <= lo <= hi):
            raise ValueError("index range must satisfy 1 <= lo <= hi")
        if self.require not in REQUIREMENTS:
            raise ValueError(f"unknown requirement {self.require!r}")


def _rand_index(spec: RandomGraphSpec, rng: random.Random) -> int:
    lo, hi = spec.index_range
    return rng.choice((1, -1)) * rng.randint(lo, hi)


def _sample(spec: RandomGraphSpec, rng: random.Random) -> EdgeIndexedGraph:
    verts = tuple(f"v{i}" for i in range(spec.num_vertices))
    edges = []
    for i in range(1, spec.num_vertices):
        a = verts[rng.randrange(i)]
        edges.append((a, verts[i]))
    for _ in range(spec.num_edges - (spec.num_vertices - 1)):
        edges.append((verts[rng.randrange(spec.num_vertices)],
                      verts[rng.randrange(spec.num_vertices)]))
    built = tuple(
        Edge(f"e{i}", v0, v1, _rand_index(spec, rng), _rand_index(spec, rng))
        for i, (v0, v1) in enumerate(edges))
    return EdgeIndexedGraph(verts, built)


def _satisfies(g: EdgeIndexedGraph, require: str) -> bool:
    if require == "none":
        return True
    report = analyze(g)
    if require == "reduced":
        return report.reduced
    return report.strongly_slide_free


def random_graph_from_rng(spec: RandomGraphSpec, rng: random.Random) -> EdgeIndexedGraph:
    """Rejection-sample until the requirement holds, at most MAX_RETRIES tries."""
    for _ in range(MAX_RETRIES):
        g = _sample(spec, rng)
        if _satisfies(g, spec.require):
            return g
    raise GenerationError(
        f"no graph satisfying {spec.require!r} found in {MAX_RETRIES} tries")


def random_graph(spec: RandomGraphSpec, seed: int) -> EdgeIndexedGraph:
    """Reproducible connected multigraph; same spec and seed, same graph."""
    return random_graph_from_rng(spec, random.Random(seed))


def random_legal_move(g: EdgeIndexedGraph, rng: random.Random,
                      bounds: ExpansionBounds) -> Move | None:
    """Draw one legal move, weighting slides:collapses:expansions 2:1:1."""
    pools = [
        (enumerate_slides(g), 2),
        (enumerate_collapses(g), 1),
        (enumerate_expansions(g, bounds), 1),
    ]
    pools = [(moves, w) for moves, w in pools if moves]
    if not pools:
        return None
    chosen = rng.choices([m for m, _ in pools], weights=[w for _, w in pools])[0]
    return chosen[rng.randrange(len(chosen))]


@dataclass
class RigidityTrial:
    """One trial: the start graph, the scramble, and the reduction outcome.

    On failure the fields are the witness; replaying the moves from start
    and reducing reproduces it exactly.
    """

    passed: bool
    start: EdgeIndexedGraph
    moves: tuple[Move, ...]
    scrambled: EdgeIndexedGraph
    reduced: EdgeIndexedGraph


def rigidity_trial(spec: RandomGraphSpec, num_moves: int, seed: int,
                   bounds: ExpansionBounds = ExpansionBounds(max_n=9)) -> RigidityTrial:
    if spec.require != "strongly_slide_free":
        spec = replace(spec, require="strongly_slide_free")
    rng = random.Random(seed)
    start = random_graph_from_rng(spec, rng)
    g = start
    applied = []
    for _ in range(num_moves):
        move = random_legal_move(g, rng, bounds)
        if move is None:
            break
        g = apply_move(g, move)
        applied.append(move)
    reduced, _ = reduce_graph(g)
    return RigidityTrial(
        passed=is_isomorphic(reduced, start),
        start=start,
        moves=tuple(applied),
        scrambled=g,
        reduced=reduced,
    )
