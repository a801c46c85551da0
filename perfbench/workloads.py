"""Inputs, operations and correctness checks of the benchmark workloads.

Inputs come from the paper's formulas: the pair X, Y as .gbs text written
here, and ladder parameters passed to ``ExampleParams``; never from
``gbsdeform.random_graph``, so a change to that module cannot change what is
measured.  The seed picks the ladder depth; equiv-paper runs the same pair
for every seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path
from typing import Callable, NamedTuple

WORKLOADS = ("equiv-paper", "ladder")
PROBED = ("equiv-paper", "ladder")  # workloads with a known-defect probe
PAPER = (2, 3, 5, 7)                # (m, n, r, s)
# Indices of about 3,500 digits, below the 4,300-digit int->str limit; 33
# operations in a 50 s run, so the tail percentile stays near two thirds.
LADDER_DEPTHS = (4490, 4510)
LADDER_PROBE_DEPTH = 5600           # past CPython's 4300-digit int->str limit
# Seconds of a run given to each repetition, interpreter start included;
# they set how many repetitions a run makes: at 50 s, 4 of equiv-paper
# (7-13 s each on a 2-CPU Xeon VM) and 33 of ladder (0.9-1.4 s).
REP_SECONDS = {"equiv-paper": 12.5, "ladder": 1.5}


class Op(NamedTuple):
    run: Callable[[], object]                   # the timed call
    check: Callable[[object], str | None]       # error text, or None if right


Parts = tuple[tuple[str, ...], tuple[tuple[str, str, str, int, int], ...]]


def gbs_text(parts: Parts) -> str:
    verts, edges = parts
    lines = [f"vertex {v}" for v in verts]
    lines += [f"edge {eid} {a} {b} {i} {j}" for eid, a, b, i, j in edges]
    return "\n".join(lines) + "\n"


def paper_pair() -> tuple[Parts, Parts]:
    """X and Y of the counterexample family, from the formulas."""
    m, n, r, s = PAPER
    x = (("A", "B"), (("l", "A", "A", m * n * r, r), ("t", "A", "B", r * m * m, s)))
    y = (("A", "B"), (("l", "B", "B", m * n * s, s), ("t", "B", "A", s * n * n, r)))
    return x, y


def make_ops(workload: str, seed: int, gbs, entry, workdir: Path) -> list[Op]:
    """The operations of one repetition, with inputs already built.

    ``entry(fn, layer)`` returns the callable to time: ``fn`` itself, or a
    traced wrapper around it.
    """
    if workload == "equiv-paper":
        return [_equiv_op(gbs, entry, workdir)]
    if workload == "ladder":
        depth = random.Random(f"ladder:{seed}").randint(*LADDER_DEPTHS)
        return [_ladder_op(gbs, entry, depth)]
    raise ValueError(f"unknown workload {workload!r}")


def make_probe(workload: str, gbs) -> Op:
    """The known-defect probe of a workload in PROBED."""
    if workload == "ladder":
        return _ladder_op(gbs, lambda fn, layer: fn, LADDER_PROBE_DEPTH)
    if workload == "equiv-paper":
        verts = tuple(f"v{i}" for i in range(12))
        path = gbs.graph_from_parts(
            verts, [(f"e{i}", verts[i], verts[i + 1], 2, 2) for i in range(11)])
        budget = gbs.Budget(max_depth=1, max_abs_index=100)
        # The expansions reach 13 vertices, past the canonical size cap; a
        # sound answer drops them and leaves the report open.
        return Op(lambda: gbs.explore_class(path, "deform", budget),
                  lambda report: None if not report.closed else "closed despite dropped graphs")
    raise ValueError(f"no probe for workload {workload!r}")


def _equiv_op(gbs, entry, workdir: Path) -> Op:
    x, y = paper_pair()
    x_text, y_text = gbs_text(x), gbs_text(y)
    workdir.mkdir(parents=True, exist_ok=True)
    x_path, y_path = workdir / "X.gbs", workdir / "Y.gbs"
    x_path.write_text(x_text)
    y_path.write_text(y_text)
    argv = ["equiv", "--moves", "deform", "--depth", "4", "--max-n", "10",
            "--max-index", "100", str(x_path), str(y_path)]
    main = entry(gbs.cli.main, "cli")

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        lines = out.splitlines()
        if lines[:1] != ["verdict: equivalent"] or not lines[1].startswith("path_length: "):
            return f"unexpected output {out!r}"
        length = int(lines[1].split(": ", 1)[1])
        moves = gbs.parse_script("\n".join(lines[2:]))
        if length > 4 or len(moves) != length:
            return f"path of {len(moves)} moves, length line {length}, limit 4"
        g = gbs.parse_graph(x_text)
        for move in moves:
            g = gbs.apply_move(g, move)
        if gbs.canonical_certificate(g) != gbs.canonical_certificate(gbs.parse_graph(y_text)):
            return "path does not end canon-equal to Y"
        return None

    return Op(run, check)


def _ladder_op(gbs, entry, depth: int) -> Op:
    m, n, r, s = PAPER
    verify = entry(gbs.verify_slide_ladder, "counterexample")
    params = gbs.ExampleParams(m, n, r, s)

    def check(cert) -> str | None:
        if not cert.ok:
            return f"ladder certificate not ok at depth {depth}"
        if cert.depth != depth or len(cert.levels) != depth + 1:
            return f"{len(cert.levels)} levels for depth {depth}"
        index = r * m * m
        for k, level in enumerate(cert.levels):
            if level.index != index:
                return f"level {k} index differs from r*m^(k+2)*n^k"
            index *= m * n
        return None

    return Op(lambda: verify(params, depth), check)
