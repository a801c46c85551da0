#!/usr/bin/env python3
"""Apply each one-line mutant of the package and check that a named test kills it.

Each row of ``ROWS`` is (name, file, old text, new text, test ids).  For each
row the script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a fresh
temporary directory, replaces the old text, which must occur exactly once in
its file, with the new, and runs the row's tests there with ``pytest -x``.  A
row is killed when a test fails, survived when every test passes, and an
error when pytest could not run them.  One line per row gives the outcome and
the seconds taken; the exit status is 1 unless every row is killed.

    python3 scripts/mutants.py

Standard library only; the tests need pytest and hypothesis, as tier-1 does.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RIGIDITY_FUZZ = "tests/test_acceptance.py::test_acceptance_4_rigidity_fuzz"

ROWS = [
    # The rigidity check compares the start graph with itself, never with the moved one.
    ("rigidity-start", "src/gbsdeform/random_graphs.py",
     "is_isomorphic(reduce_graph(g)[0], start)", "is_isomorphic(reduce_graph(start)[0], start)",
     ("tests/test_random_graphs.py::"
      "test_a_rigidity_trial_fails_when_its_moved_graph_reduces_to_another_class",)),
    # The sufficient unfoldedness test reads side 0 only.
    ("unfolded-side-0", "src/gbsdeform/moves.py",
     "all(abs(e.i0) >= 2 and abs(e.i1) >= 2 for e in g.edges)",
     "all(abs(e.i0) >= 2 for e in g.edges)",
     ("tests/test_cli.py::test_check_reads_both_sides_of_an_edge_for_unfoldedness",)),
    # M6: strongly slide-free compares each pair of ends in one direction only.
    ("M6", "src/gbsdeform/moves.py",
     "i != j and a % b == 0", "i < j and a % b == 0", (RIGIDITY_FUZZ,)),
    # M8: a slide drops the quotient's sign.
    ("M8", "src/gbsdeform/moves.py",
     "new_f = Edge(fid, f0, far_vertex, fi0, quotient * i_far)",
     "new_f = Edge(fid, f0, far_vertex, fi0, abs(quotient) * i_far)", (RIGIDITY_FUZZ,)),
    # M9: a collapse drops eps on side 0.
    ("M9", "src/gbsdeform/moves.py",
     "(m.survivor, n_surv * f.i0 * eps)", "(m.survivor, n_surv * f.i0)", (RIGIDITY_FUZZ,)),
    # M12: a loop slot ignores the pair sign.
    ("M12", "src/gbsdeform/canonical.py",
     "return min(slot(1), slot(-1), key=lambda cand: cand[0])", "return slot(1)",
     (RIGIDITY_FUZZ,)),
    # M21: ``_abs_pairs`` keeps edge order.
    ("M21", "src/gbsdeform/canonical.py",
     "    return sorted(pairs)\n", "    return pairs\n", (RIGIDITY_FUZZ,)),
    # M25: strongly slide-free skips ends with equal indices.
    ("M25", "src/gbsdeform/moves.py",
     "i != j and a % b == 0", "i != j and a != b and a % b == 0", (RIGIDITY_FUZZ,)),
    # M26: collapses miss a -1 on side 1.
    ("M26", "src/gbsdeform/moves.py",
     "if abs(e.i1) == 1:", "if e.i1 == 1:", (RIGIDITY_FUZZ,)),
    # M4: a search's names never split an invariant bucket.
    ("M4", "src/gbsdeform/explore.py",
     "name = name if cert == self.certs[name] else cert", "name = name",
     ("tests/test_explore.py::test_two_classes_in_one_invariant_bucket_keep_apart",)),
    # M7: ``minimal`` admits a leaf whose one end has a unit index.
    ("M7", "src/gbsdeform/moves.py",
     "abs(ends[0][2]) >= 2", "abs(ends[0][2]) >= 1",
     ("tests/test_moves.py::test_analyze_minimal_vs_reduced",)),
    # M10: slides skip carriers with a negative index.
    ("M10", "src/gbsdeform/moves.py",
     "if edge_a != edge_m and i_m % i_a == 0:",
     "if edge_a != edge_m and i_a > 0 and i_m % i_a == 0:",
     ("tests/test_explore.py::test_verdicts_reasons_and_paths_match_the_pinned_corpus",)),
    # M19: strongly slide-free ignores ``minimal``.
    ("M19", "src/gbsdeform/moves.py",
     "ssf = minimal and not any(", "ssf = not any(",
     ("tests/test_moves.py::test_predicate_consistency",)),
    # M23: ``class_invariant`` drops the loop flag.
    ("M23", "src/gbsdeform/canonical.py",
     "a, b, loop = abs(i0), abs(i1), v0 == v1", "a, b, loop = abs(i0), abs(i1), False",
     ("tests/test_canonical.py::test_class_invariant_reads_absolute_indices_and_loops",)),
    # M27: expansions never move all of a vertex's ends.
    ("M27", "src/gbsdeform/moves.py",
     "for size in range(1, min(len(ends), bounds.max_subset_size) + 1):",
     "for size in range(1, min(len(ends) - 1, bounds.max_subset_size) + 1):",
     ("tests/test_moves.py::test_enumerate_expansions_factors",)),
    # ``_shape`` drops the sign of the index at an edge's lower-ranked end.
    ("shape-sign", "src/gbsdeform/canonical.py",
     "tuples.append((a, b, i, j) if (a, i) <= (b, j) else (b, a, j, i))",
     "tuples.append((a, b, abs(i), j) if (a, i) <= (b, j) else (b, a, abs(j), i))",
     ("tests/test_graphs.py::test_loops_whose_index_signs_differ_have_different_shapes",)),
]


def run_row(row) -> str:
    """killed, survived or error: the row's tests run on a mutated copy."""
    _, file, old, new, tests = row
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src")
        shutil.copytree(ROOT / "tests", work / "tests")
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / file
        text = target.read_text()
        if text.count(old) != 1:
            return "error"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; other nonzero codes mean nothing ran as asked.
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    killed = 0
    for row in ROWS:
        start = time.perf_counter()
        outcome = run_row(row)
        killed += outcome == "killed"
        print(f"{row[0]}: {outcome} in {time.perf_counter() - start:.1f}s", flush=True)
    print(f"{killed}/{len(ROWS)} rows killed")
    return 0 if killed == len(ROWS) else 1


if __name__ == "__main__":
    sys.exit(main())
