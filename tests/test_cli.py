import hashlib
import subprocess
import sys

import pytest

from gbsdeform import (
    Budget,
    ExampleParams,
    apply_move,
    canonical_certificate,
    dot_export,
    RandomGraphSpec,
    example_graph,
    index_str,
    is_isomorphic,
    parse_graph,
    parse_move,
    random_graph,
    reduce_graph,
    replay_deformation,
    serialize_graph,
)
from gbsdeform.cli import _budget, build_parser, main

from strategies import X_TEXT, Y_TEXT


@pytest.fixture
def x_file(tmp_path):
    path = tmp_path / "X.gbs"
    path.write_text(X_TEXT)
    return str(path)


@pytest.fixture
def y_file(tmp_path):
    path = tmp_path / "Y.gbs"
    path.write_text(Y_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_qualified(capsys, x_file):
    code, out, _ = run(capsys, "check", x_file)
    assert code == 0
    assert "jsj: QUALIFIED" in out
    assert "strongly_slide_free: false" in out


def test_check_line_and_unknown(capsys, tmp_path):
    line = tmp_path / "line.gbs"
    line.write_text("vertex A\nedge e A A 1 1\n")
    code, out, _ = run(capsys, "check", str(line))
    assert code == 1
    assert "jsj: NOT_QUALIFIED" in out
    fuzzy = tmp_path / "fuzzy.gbs"
    fuzzy.write_text("vertex A\nedge e A A 1 3\n")
    code, out, _ = run(capsys, "check", str(fuzzy))
    assert code == 2
    assert "jsj: UNKNOWN" in out


def test_moves_lists_legal_moves(capsys, x_file):
    code, out, _ = run(capsys, "moves", x_file)
    assert code == 0
    assert "collapses: 0" in out
    assert "slides: 1" in out
    assert "slide t:0 along l:1" in out


def test_moves_lists_collapses(capsys, tmp_path):
    g = tmp_path / "g.gbs"
    g.write_text("vertex A\nvertex B\nvertex C\n"
                 "edge l C A 3 5\nedge t C B 2 7\nedge u B C 21 1\n")
    code, out, _ = run(capsys, "moves", str(g))
    assert code == 0
    assert out == ("collapses: 1\ncollapse u into B\nslides: 3\nslide l:0 along u:1\n"
                   "slide t:0 along u:1\nslide u:0 along t:1\n")


def test_canon_prints_stable_hex(capsys, x_file):
    code, out, _ = run(capsys, "canon", x_file)
    assert code == 0
    expected = canonical_certificate(parse_graph(X_TEXT)).hex()
    assert out.strip() == expected
    # byte stability across processes
    proc = subprocess.run(
        [sys.executable, "-m", "gbsdeform.cli", "canon", x_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == expected


def test_module_entry_point_passes_the_exit_code_on(tmp_path, x_file):
    # ``python -m gbsdeform.cli`` runs the module's __main__ guard, which
    # must hand main's status to the interpreter: 0 with the certificate,
    # and 65 for a file that cannot be read.
    def canon(path):
        return subprocess.run([sys.executable, "-m", "gbsdeform.cli", "canon", path],
                              capture_output=True, text=True, timeout=60)

    proc = canon(x_file)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"v2:0,0,-5,-30;0,1,-20,-7".hex() + "\n"
    proc = canon(str(tmp_path / "missing.gbs"))
    assert proc.returncode == 65
    assert proc.stdout == ""
    assert "cannot read" in proc.stderr


def test_a_byte_order_mark_at_the_start_of_a_file_is_dropped(capsys, tmp_path):
    # Editors on some systems write UTF-8 with a leading byte-order mark; the
    # graph and the script read as they would without it.  A mark anywhere
    # else is text, and the parser refuses it.
    graph, script = tmp_path / "X.gbs", tmp_path / "moves.txt"
    graph.write_bytes(b"\xef\xbb\xbf" + X_TEXT.encode())
    script.write_bytes(b"\xef\xbb\xbfslide t:0 along l:1\n")
    expected = canonical_certificate(parse_graph(X_TEXT)).hex()
    assert run(capsys, "canon", str(graph)) == (0, expected + "\n", "")
    code, out, _ = run(capsys, "apply", str(graph), "--script", str(script))
    assert code == 0 and "edge t A B 120 7" in out
    graph.write_bytes(b"vertex A\n\xef\xbb\xbfvertex B\n")
    assert run(capsys, "canon", str(graph)) == (
        65, "", "error: line 2, column 1: unknown declaration '\\ufeffvertex'\n")


def test_apply_script_round_trip(capsys, tmp_path, x_file):
    script = tmp_path / "moves.txt"
    script.write_text("slide t:0 along l:1\n")
    code, out, _ = run(capsys, "apply", x_file, "--script", str(script))
    assert code == 0
    assert "edge t A B 120 7" in out


def test_apply_emits_the_printed_graph_as_dot(capsys, tmp_path, x_file):
    script = tmp_path / "moves.txt"
    script.write_text("slide t:0 along l:1\n")
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "apply", x_file, "--script", str(script), "--emit-dot", str(dot))
    assert code == 0
    result = apply_move(parse_graph(X_TEXT), parse_move("slide t:0 along l:1"))
    assert out == serialize_graph(result)
    assert dot.read_text() == dot_export(result)


def test_apply_illegal_script(capsys, tmp_path, x_file):
    script = tmp_path / "moves.txt"
    script.write_text("collapse t into B\n")
    code, _, err = run(capsys, "apply", x_file, "--script", str(script))
    assert code == 65
    assert "error:" in err


def test_apply_script_with_bad_new_id(capsys, tmp_path, x_file):
    script = tmp_path / "moves.txt"
    script.write_text("expand A 2 as 9bad d\n")
    code, _, err = run(capsys, "apply", x_file, "--script", str(script))
    assert code == 65
    assert "bad new vertex identifier '9bad'" in err


def test_apply_script_factor_outside_the_integer_grammar(capsys, tmp_path, x_file):
    # Move scripts read integers as .gbs files do; this one used to apply as 10.
    script = tmp_path / "moves.txt"
    script.write_text("expand A 1_0 t:0 as w x\n")
    code, _, err = run(capsys, "apply", x_file, "--script", str(script))
    assert code == 65
    assert "line 1: bad integer '1_0'" in err


def test_equiv_path_with_a_factor_past_the_int_str_digit_limit(capsys, tmp_path):
    point = tmp_path / "A.gbs"
    point.write_text("vertex A\n")
    big = tmp_path / "G.gbs"
    big.write_text(f"vertex A\nvertex B\nedge e A B {'7' * 4400} 1\n")
    path_file = tmp_path / "path.txt"
    code, out, err = run(capsys, "equiv", str(point), str(big), "--script", str(path_file))
    assert (code, err) == (0, "")
    assert out.startswith("verdict: equivalent\npath_length: 1\nexpand A 7777")
    code, out, _ = run(capsys, "apply", str(point), "--script", str(path_file))
    assert code == 0
    assert canonical_certificate(parse_graph(out)) == canonical_certificate(
        parse_graph(big.read_text()))


def test_equiv_deform_path_replays_through_apply(capsys, tmp_path, x_file, y_file):
    path_file = tmp_path / "path.txt"
    code, out, _ = run(capsys, "equiv", "--moves", "deform", "--depth", "4",
                       "--max-n", "10", "--max-index", "100",
                       x_file, y_file, "--script", str(path_file))
    assert code == 0
    assert "verdict: equivalent" in out
    assert "path_length: 4" in out
    code, out, _ = run(capsys, "apply", x_file, "--script", str(path_file))
    assert code == 0
    assert is_isomorphic(parse_graph(out), parse_graph(Y_TEXT))


def test_equiv_stitched_path_is_pinned(capsys, tmp_path, x_file):
    # The second move comes from the back half of the search, transported
    # across a witness built from canonical rank orders and vertex signs.
    other = tmp_path / "G.gbs"
    other.write_text("vertex A\nvertex B\nvertex C\nvertex D\nedge d B D 7 1\n"
                     "edge l A A 30 5\nedge t C D 10 1\nedge u A C 2 1\n")
    code, out, _ = run(capsys, "equiv", "--moves", "deform", "--depth", "4", "--max-n", "10",
                       "--max-index", "100", x_file, str(other))
    assert code == 0
    assert out == ("verdict: equivalent\npath_length: 2\n"
                   "expand A 2 t:0 as w x\nexpand B 7 t:1 as w2 x2\n")


def test_equiv_path_through_a_shared_class_can_exceed_the_depth(capsys, tmp_path):
    # Both deformation classes close; they share a class only at depths 2 and 2.
    p1, p2 = tmp_path / "P1.gbs", tmp_path / "P2.gbs"
    p1.write_text("vertex v0\nvertex v1\nvertex v2\nedge e1 v0 v1 1 11\nedge e2 v1 v2 1 11\n")
    p2.write_text("vertex v0\nvertex v1\nvertex v2\nedge e1 v0 v1 1 -1\nedge e2 v1 v2 -1 13\n")
    path_file = tmp_path / "path.txt"
    code, out, _ = run(capsys, "equiv", "--moves", "deform", "--depth", "3", str(p1), str(p2),
                       "--script", str(path_file))
    assert code == 0
    assert out == ("verdict: equivalent\npath_length: 4\ncollapse e1 into v1\n"
                   "collapse e2 into v2\nexpand v2 13 as w x\nexpand w -1 x:1 as w2 x2\n")
    code, out, _ = run(capsys, "apply", str(p1), "--script", str(path_file))
    assert code == 0
    assert canonical_certificate(parse_graph(out)) == canonical_certificate(
        parse_graph(p2.read_text()))


def test_equiv_expansion_factors_stop_at_the_subset_gcd(x_file, y_file):
    # Factors above every end's gcd divide nothing, so a factor bound of
    # 10**12 enumerates what 60 does, and as fast.
    def equiv(max_n):
        return subprocess.run(
            [sys.executable, "-m", "gbsdeform.cli", "equiv", "--moves", "deform",
             "--depth", "1", "--max-n", max_n, x_file, y_file],
            capture_output=True, text=True, timeout=60)

    assert equiv("1000000000000").stdout == equiv("60").stdout


def test_equiv_slide_unknown(capsys, x_file, y_file):
    code, out, _ = run(capsys, "equiv", "--moves", "slide", "--depth", "10",
                       "--max-index", "1000000000000", x_file, y_file)
    assert code == 2
    assert "verdict: unknown" in out
    assert "reason: budget exhausted (depth)\n" in out


def test_equiv_distinct(capsys, tmp_path, x_file):
    point = tmp_path / "point.gbs"
    point.write_text("vertex A\n")
    code, out, _ = run(capsys, "equiv", x_file, str(point))
    assert code == 1
    assert "verdict: distinct" in out
    assert "betti" in out


def test_explore_dumps(capsys, tmp_path, x_file):
    dump = tmp_path / "visited.txt"
    dot = tmp_path / "class.dot"
    code, out, _ = run(capsys, "explore", x_file, "--moves", "slide",
                       "--depth", "3", "--max-index", "1000000",
                       "--dump-visited", str(dump), "--emit-dot", str(dot))
    assert code == 2  # ray never closes
    assert "members: 4" in out
    assert "closed: false" in out
    assert len(dump.read_text().strip().split("\n")) == 4
    assert dot.read_text().startswith("graph classgraph {")


def test_explore_deform_output_is_pinned(capsys, tmp_path, x_file):
    # Stdout is pinned as text; the member dump and the DOT file, 19 and 5 kB,
    # by line count and SHA-256 of their exact bytes.
    dump = tmp_path / "visited.txt"
    dot = tmp_path / "class.dot"
    code, out, _ = run(capsys, "explore", x_file, "--moves", "deform", "--depth", "2",
                       "--max-n", "5", "--max-index", "100",
                       "--dump-visited", str(dump), "--emit-dot", str(dot))
    assert code == 2
    assert out == ("members: 104\nclosed: false\nhit_index_cap: true\n"
                   "hit_node_cap: false\n")
    dump_bytes, dot_bytes = dump.read_bytes(), dot.read_bytes()
    assert dump_bytes.count(b"\n") == 104
    assert dump_bytes.startswith(b"76323a302c302c2d352c2d33303b302c312c2d32302c2d37 "
                                 b"vertex A; vertex B; edge l A A 30 5; edge t A B 20 7\n")
    assert hashlib.sha256(dump_bytes).hexdigest() == (
        "a69bbe8997b82d0801dbf3829f280407a65263fb5084035f2b137a8df0ce7000")
    assert dot_bytes.count(b"\n") == 251
    assert hashlib.sha256(dot_bytes).hexdigest() == (
        "1c2539b8527973996b5e304c76f1f94c220f95106289441fda8df393e2576154")


def test_explore_closed_class(capsys, tmp_path):
    point = tmp_path / "point.gbs"
    point.write_text("vertex A\n")
    code, out, _ = run(capsys, "explore", str(point), "--moves", "deform")
    assert code == 0
    assert "closed: true" in out


def test_explore_past_the_size_cap_is_open_not_bad_input(capsys, tmp_path):
    path = tmp_path / "path.gbs"
    path.write_text("".join(f"vertex v{i}\n" for i in range(12))
                    + "".join(f"edge e{i} v{i} v{i + 1} 2 2\n" for i in range(11)))
    code, out, err = run(capsys, "explore", str(path), "--moves", "deform", "--depth", "1",
                         "--max-index", "100")
    assert code == 2
    assert "closed: false\nhit_index_cap: false\nhit_node_cap: false\nhit_size_cap: true\n" in out
    assert err == ""


@pytest.mark.parametrize("argv", [("canon",), ("explore", "--depth", "1"), ("equiv",)])
def test_valid_input_past_the_size_cap_is_unknown_not_bad_input(capsys, tmp_path, argv):
    path = tmp_path / "path.gbs"
    path.write_text("".join(f"vertex v{i}\n" for i in range(13))
                    + "".join(f"edge e{i} v{i} v{i + 1} 2 2\n" for i in range(12)))
    files = [str(path)] * (2 if argv[0] == "equiv" else 1)
    code, out, err = run(capsys, *argv, *files)
    assert code == 2
    assert out == ""
    assert err == "error: graph has 13 vertices, cap is 12\n"


@pytest.mark.parametrize("command", ["equiv", "explore"])
@pytest.mark.parametrize("flag", ["--depth", "--max-nodes", "--max-index", "--max-n",
                                  "--max-subset"])
def test_negative_budget_flags_are_usage_errors(capsys, x_file, command, flag):
    graphs = [x_file, x_file] if command == "equiv" else [x_file]
    code, out, err = run(capsys, command, flag, "-1", *graphs)
    assert code == 64
    assert out == ""
    assert err == f"error: argument {flag}: must be at least 0, got -1\n"


def test_budget_flags_take_zero(capsys, x_file):
    code, out, _ = run(capsys, "explore", "--depth", "0", "--max-n", "0", x_file)
    assert code == 2
    assert out.startswith("members: 1\n")


def test_non_integer_budget_flag_is_a_usage_error(capsys, x_file):
    code, out, err = run(capsys, "equiv", "--depth", "x", x_file, x_file)
    assert (code, out, err) == (64, "", "error: argument --depth: invalid int value: 'x'\n")


def test_equiv_prints_its_verdict_before_an_unwritable_script_fails(capsys, tmp_path, x_file):
    target = tmp_path / "absent" / "out.txt"
    code, out, err = run(capsys, "equiv", x_file, x_file, "--script", str(target))
    assert code == 65
    assert out == "verdict: equivalent\npath_length: 0\n"
    assert err.startswith(f"error: cannot write {target}: ")


def test_budget_flag_defaults_are_the_budget_defaults():
    assert _budget(build_parser().parse_args(["explore", "g.gbs"])) == Budget()


def test_reduce_emits_graph_and_script(capsys, tmp_path):
    g = tmp_path / "g.gbs"
    g.write_text("vertex A\nvertex B\nvertex C\n"
                 "edge l C A 3 5\nedge t C B 2 7\nedge u B C 21 1\n")
    script = tmp_path / "r.txt"
    code, out, _ = run(capsys, "reduce", str(g), "--script", str(script))
    assert code == 0
    assert is_isomorphic(parse_graph(out), parse_graph(Y_TEXT))
    assert script.read_text() == "collapse u into B\n"


def test_reduce_emits_the_printed_graph_as_dot(capsys, tmp_path):
    text = "vertex A\nvertex B\nvertex C\nedge l C A 3 5\nedge t C B 2 7\nedge u B C 21 1\n"
    g = tmp_path / "g.gbs"
    g.write_text(text)
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "reduce", str(g), "--emit-dot", str(dot))
    assert code == 0
    reduced, _ = reduce_graph(parse_graph(text))
    assert out == serialize_graph(reduced)
    assert dot.read_text() == dot_export(reduced)


def test_random_deterministic(capsys):
    code, out1, _ = run(capsys, "random", "--vertices", "3", "--edges", "4",
                        "--seed", "9")
    assert code == 0
    code, out2, _ = run(capsys, "random", "--vertices", "3", "--edges", "4",
                        "--seed", "9")
    assert out1 == out2
    parse_graph(out1)


def test_random_unsatisfiable(capsys):
    code, _, err = run(capsys, "random", "--vertices", "3", "--edges", "1")
    assert code == 65
    assert "error:" in err


# The library's messages a CLI user can reach, byte for byte: a count or
# parameter the records refuse is bad data (65), not a usage error.
@pytest.mark.parametrize("argv, message", [
    ("random --vertices 0 --edges 0", "need at least one vertex"),
    ("random --vertices 3 --edges 1", "3 vertices cannot be connected by 1 edges"),
    ("random --vertices 2 --edges 1 --min-index 0", "index range must satisfy 1 <= lo <= hi"),
    ("random --vertices 2 --edges 1 --min-index 5 --max-index 3",
     "index range must satisfy 1 <= lo <= hi"),
    ("paper-example --m 0 --n 3 --r 5 --s 7", "parameter m must be nonzero"),
], ids=["no-vertex", "too-few-edges", "index-below-1", "index-range-reversed", "zero-parameter"])
def test_a_refused_record_prints_its_message_and_exits_65(capsys, argv, message):
    assert run(capsys, *argv.split()) == (65, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--vertices", "--edges", "--min-index", "--max-index"])
def test_negative_random_counts_are_usage_errors(capsys, flag):
    # argparse keeps a repeated flag's last value, so -2 replaces the 3 or 4
    code, out, err = run(capsys, "random", "--vertices", "3", "--edges", "4", flag, "-2")
    assert code == 64
    assert out == ""
    assert err == f"error: argument {flag}: must be at least 0, got -2\n"


def test_paper_example_full_run(capsys):
    code, out, _ = run(capsys, "paper-example", "--m", "2", "--n", "3",
                       "--r", "5", "--s", "7", "--ladder-depth", "6")
    assert code == 0
    assert "moves: 4" in out
    assert "endpoint_matches: true" in out
    assert "level 6: index 933120 neighbors 2" in out
    assert "shape_ok: true" in out
    assert "y_absent: true" in out


def test_paper_example_emits_the_pair(capsys, tmp_path):
    fx, fy = tmp_path / "F", tmp_path / "G"
    code, _, _ = run(capsys, "paper-example", "--m", "2", "--n", "3", "--r", "5", "--s", "7",
                     "--emit-x", str(fx), "--emit-y", str(fy))
    assert code == 0
    p = ExampleParams(2, 3, 5, 7)
    assert parse_graph(fx.read_text()) == example_graph("X", p)
    assert parse_graph(fy.read_text()) == example_graph("Y", p)


def test_paper_example_skips_ladder_without_hypotheses(capsys):
    code, out, _ = run(capsys, "paper-example", "--m", "2", "--n", "4",
                       "--r", "5", "--s", "7")
    assert code == 0
    assert "endpoint_matches: true" in out
    assert "ladder: skipped" in out


def test_paper_example_rejects_a_negative_ladder_depth(capsys, tmp_path):
    x_out = tmp_path / "x.gbs"
    code, out, err = run(capsys, "paper-example", "--m", "2", "--n", "3", "--r", "5",
                         "--s", "7", "--ladder-depth", "-3", "--emit-x", str(x_out))
    assert code == 64
    assert out == ""
    assert err == "error: argument --ladder-depth: must be at least 0, got -3\n"
    assert not x_out.exists()


# CPython's int() refuses a text past 4,300 digits; an integer flag still reads
# it, as a graph file reads an index.
BIG_TEXT, BIG = "2" + "0" * 5000, 2 * 10**5000


def test_paper_example_takes_parameters_past_the_digit_limit(capsys):
    code, out, err = run(capsys, "paper-example", "--m", BIG_TEXT, "--n", "3", "--r", "5",
                         "--s", "7", "--ladder-depth", "1")
    assert (code, err) == (0, "")
    report = replay_deformation(ExampleParams(BIG, 3, 5, 7))
    for i, indices in enumerate(report.index_tuples):
        assert f"indices {i}: {' '.join(map(index_str, indices))}\n" in out
    assert "endpoint_matches: true\n" in out and "shape_ok: true\n" in out


def test_random_takes_a_seed_past_the_digit_limit(capsys):
    code, out, err = run(capsys, "random", "--vertices", "3", "--edges", "4", "--seed", BIG_TEXT)
    assert (code, err) == (0, "")
    assert out == serialize_graph(random_graph(RandomGraphSpec(3, 4), BIG))


def test_equiv_takes_an_index_cap_past_the_digit_limit(capsys, x_file):
    args = build_parser().parse_args(["equiv", "--max-index", BIG_TEXT, x_file, x_file])
    assert _budget(args).max_abs_index == BIG
    assert run(capsys, "equiv", "--max-index", BIG_TEXT, x_file, x_file)[0] == 0


@pytest.mark.parametrize("text, value", [
    ("-3", -3), (" +1_2 ", 12), ("007", 7), (f" +{BIG_TEXT[:2]}_{BIG_TEXT[2:]} ", BIG),
], ids=["negative", "sign-and-underscore", "leading-zeros", "long"])
def test_an_integer_flag_reads_what_int_reads_at_any_length(text, value):
    assert build_parser().parse_args(["random", "--vertices", "1", "--edges", "0",
                                      "--seed", text]).seed == value


@pytest.mark.parametrize("text", [
    "1e5", "1.5", "NaN", BIG_TEXT + "e5", BIG_TEXT + ".5", BIG_TEXT + "_", "0x" + BIG_TEXT,
], ids=["exponent", "fraction", "nan", "long-exponent", "long-fraction", "long-underscore",
        "long-hex"])
def test_an_integer_flag_rejects_a_non_integer_form_at_any_length(capsys, text):
    code, out, err = run(capsys, "paper-example", "--m", text, "--n", "3", "--r", "5",
                         "--s", "7")
    assert (code, out, err) == (64, "", f"error: argument --m: invalid int value: {text!r}\n")


def test_usage_errors(capsys):
    assert main(["unknown-sub"]) == 64
    assert main(["equiv", "--moves", "wiggle", "a", "b"]) == 64
    assert main(["check"]) == 64


def test_missing_and_bad_files(capsys, tmp_path):
    assert main(["check", str(tmp_path / "absent.gbs")]) == 65
    bad = tmp_path / "bad.gbs"
    bad.write_text("vertex A\nedge e A A 0 1\n")
    assert main(["check", str(bad)]) == 65
