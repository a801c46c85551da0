"""Command-line interface.

Exit codes: 0 true/equivalent/pass, 1 false/distinct/fail, 2 unknown or
inconclusive (also valid input past the certificate's vertex cap), 64 usage
error (a negative count flag included), 65 bad input data.  Output is plain
key: value text and move-script lines, byte-stable for fixed inputs, flags
and seeds.
"""

from __future__ import annotations

import argparse
import re
import sys

from .canonical import SizeCapError, canonical_certificate
from .counterexample import (
    ExampleParams,
    LadderHypothesisError,
    example_graph,
    replay_deformation,
    verify_slide_ladder,
)
from .explore import Budget, ExplorationReport, decide_equivalence, explore_class
from .graphs import dot_export, index_str, parse_graph, serialize_graph
from .invariants import MOVE_CLASSES
from .moves import (
    ExpansionBounds,
    analyze,
    apply_move,
    enumerate_collapses,
    enumerate_slides,
    format_move,
    format_script,
    parse_script,
    reduce_graph,
)
from .random_graphs import REQUIREMENTS, RandomGraphSpec, random_graph

EX_TRUE = 0
EX_FALSE = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to 64
        raise _UsageError(message)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str):
    return parse_graph(_read(path))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _int(text: str) -> int:
    """An integer flag's value, as ``int`` reads it; a text ``int`` refuses only for
    its length goes through ``decimal``, as ``parse_index`` does."""
    try:
        return int(text)
    except ValueError:
        if not re.match(r"\s*[+-]?\d+(_\d+)*\s*\Z", text):    # int's base-10 grammar
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        from decimal import Decimal
        return int(Decimal(text))


def _count(text: str) -> int:
    """A count flag's value: an integer that is at least 0."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {index_str(value)}")
    return value


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    default = Budget()
    sub.add_argument("--depth", type=_count, default=default.max_depth, help="search depth bound")
    sub.add_argument("--max-nodes", type=_count, default=default.max_nodes)
    sub.add_argument("--max-index", type=_count, default=default.max_abs_index,
                     help="drop generated graphs with a larger absolute index")
    sub.add_argument("--max-n", type=_count, default=default.expansion.max_n,
                     help="largest expansion factor enumerated")
    sub.add_argument("--max-subset", type=_count, default=default.expansion.max_subset_size,
                     help="largest moved-end subset enumerated")


def _budget(args) -> Budget:
    return Budget(
        max_depth=args.depth,
        max_nodes=args.max_nodes,
        max_abs_index=args.max_index,
        expansion=ExpansionBounds(max_n=args.max_n, max_subset_size=args.max_subset),
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="gbsdeform",
                     description="Rewriting and search on edge-indexed graphs")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", help="structural predicates for one graph")
    sub.set_defaults(run=_cmd_check)
    sub.add_argument("graph")

    sub = subs.add_parser("moves", help="list legal collapses and slides")
    sub.set_defaults(run=_cmd_moves)
    sub.add_argument("graph")

    sub = subs.add_parser("apply", help="run a move script against a graph")
    sub.set_defaults(run=_cmd_apply)
    sub.add_argument("graph")
    sub.add_argument("--script", required=True, help="move script file")
    sub.add_argument("--emit-dot", help="write the result as DOT")

    sub = subs.add_parser("canon", help="print the canonical certificate")
    sub.set_defaults(run=_cmd_canon)
    sub.add_argument("graph")

    sub = subs.add_parser("equiv", help="decide equivalence under a move class")
    sub.set_defaults(run=_cmd_equiv)
    sub.add_argument("graph")
    sub.add_argument("other")
    sub.add_argument("--moves", choices=MOVE_CLASSES, default="deform")
    _add_budget_flags(sub)
    sub.add_argument("--script", help="write the connecting path here")

    sub = subs.add_parser("explore", help="enumerate a move class around a graph")
    sub.set_defaults(run=_cmd_explore)
    sub.add_argument("graph")
    sub.add_argument("--moves", choices=MOVE_CLASSES, default="slide")
    _add_budget_flags(sub)
    sub.add_argument("--dump-visited", help="write one line per member here")
    sub.add_argument("--emit-dot", help="write the class adjacency as DOT")

    sub = subs.add_parser("reduce", help="collapse until reduced")
    sub.set_defaults(run=_cmd_reduce)
    sub.add_argument("graph")
    sub.add_argument("--script", help="write the collapse script here")
    sub.add_argument("--emit-dot", help="write the result as DOT")

    sub = subs.add_parser("random", help="generate a seeded random graph")
    sub.set_defaults(run=_cmd_random)
    sub.add_argument("--vertices", type=_count, required=True)
    sub.add_argument("--edges", type=_count, required=True)
    sub.add_argument("--min-index", type=_count, default=2)
    sub.add_argument("--max-index", type=_count, default=9)
    sub.add_argument("--require", choices=REQUIREMENTS, default="none")
    sub.add_argument("--seed", type=_int, default=0)

    sub = subs.add_parser("paper-example",
                          help="build the X/Y family, replay the deformation, "
                               "certify the slide ladder")
    sub.set_defaults(run=_cmd_paper_example)
    sub.add_argument("--m", type=_int, required=True)
    sub.add_argument("--n", type=_int, required=True)
    sub.add_argument("--r", type=_int, required=True)
    sub.add_argument("--s", type=_int, required=True)
    sub.add_argument("--ladder-depth", type=_count, default=6)
    sub.add_argument("--emit-x", help="write X in .gbs form here")
    sub.add_argument("--emit-y", help="write Y in .gbs form here")
    return parser


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    report = analyze(g)
    print(f"reduced: {_bool(report.reduced)}")
    print(f"minimal: {_bool(report.minimal)}")
    print(f"strongly_slide_free: {_bool(report.strongly_slide_free)}")
    print(f"unfolded_sufficient: {_bool(report.unfolded_sufficient)}")
    print(f"geometry: {report.geometry}")
    print(f"jsj: {report.jsj}")
    if report.jsj_reason:
        print(f"jsj_reason: {report.jsj_reason}")
    return {"QUALIFIED": EX_TRUE, "NOT_QUALIFIED": EX_FALSE, "UNKNOWN": EX_UNKNOWN}[report.jsj]


def _cmd_moves(args) -> int:
    g = _load_graph(args.graph)
    collapses = enumerate_collapses(g)
    slides = enumerate_slides(g)
    print(f"collapses: {len(collapses)}")
    for move in collapses:
        print(format_move(move))
    print(f"slides: {len(slides)}")
    for move in slides:
        print(format_move(move))
    return EX_TRUE


def _cmd_apply(args) -> int:
    g = _load_graph(args.graph)
    for move in parse_script(_read(args.script)):
        g = apply_move(g, move)
    sys.stdout.write(serialize_graph(g))
    if args.emit_dot:
        _write(args.emit_dot, dot_export(g))
    return EX_TRUE


def _cmd_canon(args) -> int:
    g = _load_graph(args.graph)
    print(canonical_certificate(g).hex())
    return EX_TRUE


def _cmd_equiv(args) -> int:
    g1 = _load_graph(args.graph)
    g2 = _load_graph(args.other)
    verdict = decide_equivalence(g1, g2, args.moves, _budget(args))
    print(f"verdict: {verdict.kind}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    if verdict.path is not None:
        print(f"path_length: {len(verdict.path)}")
        for move in verdict.path:
            print(format_move(move))
        if args.script:
            _write(args.script, format_script(verdict.path))
    return {"equivalent": EX_TRUE, "distinct": EX_FALSE, "unknown": EX_UNKNOWN}[verdict.kind]


def dump_visited(report: ExplorationReport) -> str:
    """One line per member: hex certificate, then the graph on one line."""
    lines = []
    for cert, graph in report.members.items():
        flat = serialize_graph(graph).strip().replace("\n", "; ")
        lines.append(f"{cert.hex()} {flat}")
    return "\n".join(lines) + "\n"


def adjacency_dot(report: ExplorationReport) -> str:
    """The class adjacency graph in DOT form: node ``n<i>`` is the i-th member,
    labeled with the first 12 hex digits of the SHA-256 of its certificate."""
    import hashlib  # here, not at the top: it loads OpenSSL, 3.5 MB in every process
    short = {cert: f"n{i}" for i, cert in enumerate(report.members)}
    lines = ["graph classgraph {"]
    for cert in report.members:
        lines.append(f'  {short[cert]} [label="{hashlib.sha256(cert).hexdigest()[:12]}"];')
    seen = set()
    for cert, nbrs in report.adjacency.items():
        for nb in nbrs:
            key = tuple(sorted((short[cert], short[nb])))
            if key not in seen:
                seen.add(key)
                lines.append(f"  {key[0]} -- {key[1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_explore(args) -> int:
    g = _load_graph(args.graph)
    report = explore_class(g, args.moves, _budget(args))
    print(f"members: {len(report.members)}")
    print(f"closed: {_bool(report.closed)}")
    print(f"hit_index_cap: {_bool('index' in report.caps)}")
    print(f"hit_node_cap: {_bool('node' in report.caps)}")
    if "size" in report.caps:
        print("hit_size_cap: true")
    if args.dump_visited:
        _write(args.dump_visited, dump_visited(report))
    if args.emit_dot:
        _write(args.emit_dot, adjacency_dot(report))
    return EX_TRUE if report.closed else EX_UNKNOWN


def _cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    reduced, script = reduce_graph(g)
    sys.stdout.write(serialize_graph(reduced))
    if args.script:
        _write(args.script, format_script(script))
    if args.emit_dot:
        _write(args.emit_dot, dot_export(reduced))
    return EX_TRUE


def _cmd_random(args) -> int:
    spec = RandomGraphSpec(
        num_vertices=args.vertices,
        num_edges=args.edges,
        index_range=(args.min_index, args.max_index),
        require=args.require,
    )
    g = random_graph(spec, args.seed)
    sys.stdout.write(serialize_graph(g))
    return EX_TRUE


def _cmd_paper_example(args) -> int:
    p = ExampleParams(m=args.m, n=args.n, r=args.r, s=args.s)
    report = replay_deformation(p)
    print(f"moves: {len(report.moves)}")
    for move in report.moves:
        print(format_move(move))
    for i, indices in enumerate(report.index_tuples):
        print(f"indices {i}: " + " ".join(index_str(x) for x in indices))
    print(f"endpoint_matches: {_bool(report.endpoint_matches)}")
    ok = report.endpoint_matches
    if args.emit_x:
        _write(args.emit_x, serialize_graph(example_graph("X", p)))
    if args.emit_y:
        _write(args.emit_y, serialize_graph(example_graph("Y", p)))
    try:
        ladder = verify_slide_ladder(p, args.ladder_depth)
    except LadderHypothesisError as exc:
        print(f"ladder: skipped ({exc})")
    else:
        print(f"ladder_depth: {ladder.depth}")
        for k, level in enumerate(ladder.levels):
            print(f"level {k}: index {index_str(level.index)} neighbors {level.move_count}")
        print(f"shape_ok: {_bool(ladder.shape_ok)}")
        print(f"y_absent: {_bool(ladder.y_absent)}")
        ok = ok and ladder.ok
    return EX_TRUE if ok else EX_FALSE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.run(args)
    except ValueError as exc:  # every error class of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        # valid input the certificate cannot take is unknown, not bad data
        return EX_UNKNOWN if isinstance(exc, SizeCapError) else EX_DATA


if __name__ == "__main__":
    sys.exit(main())
