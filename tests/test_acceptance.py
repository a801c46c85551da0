"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is exact;
the wall-clock limits are part of the criteria.
"""

import random
import time
from collections import deque

from gbsdeform import (
    ExpansionBounds,
    RandomGraphSpec,
    analyze,
    apply_move,
    betti_number,
    canonical_certificate,
    enumerate_collapses,
    enumerate_expansions,
    enumerate_slides,
    invert_move,
    is_isomorphic,
    parse_graph,
    random_graph,
    rigidity_trial,
)
from gbsdeform.cli import main
from gbsdeform.counterexample import ExampleParams, verify_slide_ladder

from oracles import brute_force_isomorphic
from strategies import X_TEXT, Y_TEXT, assert_valid, scramble

P = ExampleParams(2, 3, 5, 7)


def _report(number: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s, limit {limit:.0f}s)")


def _connected(g) -> bool:
    if not g.vertices:
        return False
    seen = {g.vertices[0]}
    queue = deque(seen)
    adj = {v: set() for v in g.vertices}
    for e in g.edges:
        adj[e.v0].add(e.v1)
        adj[e.v1].add(e.v0)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(g.vertices)


def test_acceptance_1_deformation_replay(capsys, tmp_path):
    start = time.perf_counter()
    code = main(["paper-example", "--m", "2", "--n", "3", "--r", "5", "--s", "7"])
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    moves = lines[1:5]
    ok = (
        code == 0
        and lines[0] == "moves: 4"
        and moves[0].startswith("expand")
        and moves[1].startswith("slide")
        and moves[2].startswith("slide")
        and moves[3].startswith("collapse")
        and "indices 0: 30 5 20 7" in out
        and "indices 1: 5 3 10 1 2 7" in out
        and "indices 2: 5 3 6 1 2 7" in out
        and "indices 3: 5 3 1 21 2 7" in out
        and "indices 4: 5 63 42 7" in out
        and "endpoint_matches: true" in out
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(1, "deformation replay", ok, elapsed, 1.0)
    assert ok and elapsed < 1.0


def test_acceptance_2_slide_ladder(capsys):
    start = time.perf_counter()
    cert = verify_slide_ladder(P, 12)
    expected = [5 * 2 ** (k + 2) * 3 ** k for k in range(13)]
    ok = (
        cert.shape_ok
        and cert.y_absent
        and [lv.index for lv in cert.levels] == expected
        and cert.levels[6].index == 933120
        and cert.levels[0].move_count == 1
        and all(cert.levels[k].move_count == 2 for k in range(1, 12))
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(2, "slide ladder", ok, elapsed, 1.0)
    assert ok and elapsed < 1.0


def test_acceptance_3_deformation_equivalence(capsys, tmp_path):
    x_file = tmp_path / "X.gbs"
    y_file = tmp_path / "Y.gbs"
    x_file.write_text(X_TEXT)
    y_file.write_text(Y_TEXT)
    path_file = tmp_path / "path.txt"
    start = time.perf_counter()
    code = main(["equiv", "--moves", "deform", "--depth", "4",
                 "--max-n", "10", "--max-index", "100",
                 str(x_file), str(y_file), "--script", str(path_file)])
    out = capsys.readouterr().out
    path_len = None
    for line in out.split("\n"):
        if line.startswith("path_length: "):
            path_len = int(line.split(": ")[1])
    ok = code == 0 and "verdict: equivalent" in out and path_len is not None \
        and path_len <= 4
    if ok:
        code = main(["apply", str(x_file), "--script", str(path_file)])
        replayed = capsys.readouterr().out
        ok = code == 0 and is_isomorphic(parse_graph(replayed), parse_graph(Y_TEXT))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(3, "deformation equivalence", ok, elapsed, 60.0)
    assert ok and elapsed < 60.0


def test_acceptance_4_rigidity_fuzz(capsys):
    start = time.perf_counter()
    passed = 0
    failures = []
    for seed in range(100):
        nv = 2 + seed % 4
        ne = nv - 1 + seed % 2
        spec = RandomGraphSpec(num_vertices=nv, num_edges=ne, index_range=(2, 9),
                               require="strongly_slide_free")
        trial = rigidity_trial(spec, num_moves=8, seed=seed,
                               bounds=ExpansionBounds(max_n=9))
        if trial.passed:
            passed += 1
        else:
            failures.append(seed)
    elapsed = time.perf_counter() - start
    ok = passed == 100
    with capsys.disabled():
        _report(4, "rigidity fuzz 100/100", ok, elapsed, 120.0)
    assert ok, f"failing seeds: {failures}"
    assert elapsed < 120.0


def test_acceptance_5_canon_oracle_equivalence(capsys):
    start = time.perf_counter()
    graphs = []
    for seed in range(200):
        nv = 2 + seed % 4
        ne = nv - 1 + seed % 3
        spec = RandomGraphSpec(num_vertices=nv, num_edges=ne, index_range=(1, 9))
        graphs.append(random_graph(spec, seed))
    agree = 0
    for i, g in enumerate(graphs):
        h = scramble(g, 1000 + i)
        if is_isomorphic(g, h) and brute_force_isomorphic(g, h):
            agree += 1
    rng = random.Random(7)
    cross = 0
    for _ in range(100):
        g1 = graphs[rng.randrange(len(graphs))]
        g2 = graphs[rng.randrange(len(graphs))]
        if is_isomorphic(g1, g2) == brute_force_isomorphic(g1, g2):
            cross += 1
    elapsed = time.perf_counter() - start
    ok = agree == 200 and cross == 100
    with capsys.disabled():
        _report(5, "canon oracle agreement", ok, elapsed, 60.0)
    assert ok, f"positive agreement {agree}/200, cross agreement {cross}/100"
    assert elapsed < 60.0


def test_acceptance_6_move_invariant_suite(capsys):
    start = time.perf_counter()
    bounds = ExpansionBounds(max_n=9)
    rng = random.Random(42)
    checked = 0
    seed = 0
    while checked < 1000:
        nv = 2 + seed % 4
        ne = nv - 1 + seed % 3
        g = random_graph(
            RandomGraphSpec(num_vertices=nv, num_edges=ne, index_range=(1, 9)), seed)
        seed += 1
        moves = (enumerate_slides(g) + enumerate_collapses(g)
                 + enumerate_expansions(g, bounds))
        if not moves:
            continue
        move = moves[rng.randrange(len(moves))]
        h = apply_move(g, move)
        assert betti_number(h) == betti_number(g)
        assert _connected(h)
        assert_valid(h)
        assert all(e.i0 != 0 and e.i1 != 0 for e in h.edges)
        back = apply_move(h, invert_move(g, move))
        assert canonical_certificate(back) == canonical_certificate(g)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 1000
    with capsys.disabled():
        _report(6, "move invariants 1000/1000", ok, elapsed, 60.0)
    assert ok and elapsed < 60.0


def test_acceptance_7_predicate_table(capsys):
    start = time.perf_counter()
    x = parse_graph(X_TEXT)
    rx = analyze(x)
    ry = analyze(parse_graph(Y_TEXT))
    r_loop = analyze(parse_graph("vertex A\nedge e A A 1 1"))
    r_seg = analyze(parse_graph("vertex A\nvertex B\nedge e A B 2 2"))
    r_point = analyze(parse_graph("vertex A"))
    r_diag4 = analyze(parse_graph(
        "vertex A\nvertex B\nvertex C\n"
        "edge l C A 3 5\nedge t C B 2 7\nedge u B C 21 1"))
    ok = (
        rx.jsj == "QUALIFIED" and not rx.strongly_slide_free
        and len(enumerate_slides(x)) == 1
        and ry.jsj == "QUALIFIED"
        and r_loop.geometry == "line" and r_loop.jsj == "NOT_QUALIFIED"
        and r_seg.geometry == "line" and r_seg.jsj == "NOT_QUALIFIED"
        and r_point.jsj == "NOT_QUALIFIED"
        and not r_diag4.reduced
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(7, "predicate table", ok, elapsed, 60.0)
    assert ok
