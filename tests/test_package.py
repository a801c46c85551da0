"""The package's public names, its input contract, what importing its CLI
loads, that its source holds no dead artifacts, that README's examples run, and
the benchmark tracer's view of its layers."""

import ast
import dataclasses
import functools
import importlib
import inspect
import re
import subprocess
import sys
import textwrap
import typing
from collections import Counter
from pathlib import Path

import pytest

import gbsdeform

from strategies import X_TEXT, Y_TEXT

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gbsdeform").glob("*.py"))
PERFBENCH = ROOT / "perfbench"
# What a public name must be used by: the package, its scripts or the benchmark.
# A name only the tests read belongs in the tests.
USERS = SOURCES + sorted((ROOT / "scripts").glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
# Every module that declares public names, found from the source so that a new
# module cannot escape the export test.
MODULES = [path.stem for path in SOURCES if re.search(r"^__all__\b", path.read_text(), re.M)]


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_every_name_in_each_module_all(name):
    module = importlib.import_module(f"gbsdeform.{name}")
    missing = [n for n in module.__all__
               if getattr(gbsdeform, n, None) is not getattr(module, n)]
    assert missing == []


def _int_inputs() -> dict[str, tuple]:
    """id -> (a call given one bad value, the name its error carries) for each
    int a caller gives the library: the ``int`` fields of every record a public
    function takes, found from its type hints (a move is checked against its
    graph by ``apply_move``), and the ladder level, ladder depth, move count and seeds."""
    moves = set(typing.get_args(gbsdeform.Move))
    records = set()
    for module in MODULES:
        for name in importlib.import_module(f"gbsdeform.{module}").__all__:
            if inspect.isfunction(fn := getattr(gbsdeform, name)):
                records |= {t for arg, hint in typing.get_type_hints(fn).items()
                            if arg != "return" for t in typing.get_args(hint) or (hint,)
                            if dataclasses.is_dataclass(t) and t not in moves}
    p = gbsdeform.ExampleParams(2, 3, 5, 7)
    counts, seeds = (2.0, True, "3", -1), (2.0, True, "3", None)    # a seed may be negative
    cases = {}
    for label, name, call, bads in [
            ("free_edge_index.k", "k", functools.partial(gbsdeform.free_edge_index, p), counts),
            ("verify_slide_ladder.depth", "depth",
             functools.partial(gbsdeform.verify_slide_ladder, p), counts),
            ("rigidity_trial.num_moves", "num_moves",
             lambda n: gbsdeform.rigidity_trial(1, 0, n, 0), counts),
            ("random_graph.seed", "seed",
             functools.partial(gbsdeform.random_graph, gbsdeform.RandomGraphSpec(1, 0)), seeds),
            ("rigidity_trial.seed", "seed", functools.partial(gbsdeform.rigidity_trial, 1, 0, 0),
             seeds)]:
        cases |= {f"{label}={bad!r}": (functools.partial(call, bad), name) for bad in bads}
    for cls in sorted(records, key=lambda cls: cls.__name__):
        hints = typing.get_type_hints(cls)
        ints = [f.name for f in dataclasses.fields(cls) if hints[f.name] is int]
        # Each case sets one int field; the others are 1, every other field
        # its default.  The paper's parameters are nonzero, other ints counts.
        make = functools.partial(cls, **dict.fromkeys(ints, 1))
        out = 0 if cls is gbsdeform.ExampleParams else -1
        cases |= {f"{cls.__name__}.{name}={bad!r}": (functools.partial(make, **{name: bad}), name)
                  for name in ints for bad in (2.0, True, "3", out)}
    return cases


INT_INPUTS = _int_inputs()


@pytest.mark.parametrize("call, name", INT_INPUTS.values(), ids=INT_INPUTS)
def test_a_bad_int_input_is_refused_by_name(call, name):
    # The one input contract (README): a record checks its own fields and a
    # function its scalar arguments, where they are given, so a float, a bool,
    # a text or a value out of range never reaches a search or the ladder.
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert name in re.findall(r"\w+", str(info.value))


def test_no_module_raises_a_type_error():
    # Every error a caller can cause is a ValueError, which the CLI reports as
    # bad data (exit 65); a TypeError would pass a caller that catches those.
    raised = [f"{path.name}:{node.lineno}" for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and node.exc is not None
              and "TypeError" in {name.id for name in ast.walk(node.exc)
                                  if isinstance(name, ast.Name)}]
    assert raised == []


def test_the_cli_imports_only_the_standard_library_and_defers_heavy_modules():
    # hashlib (OpenSSL) and decimal are imported where they are used, so a
    # process that never needs them does not pay for them in memory.
    code = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(ROOT / "src")!r})
        before = set(sys.modules)
        import gbsdeform.cli
        loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
        print(sorted(loaded - set(sys.stdlib_module_names) - {{"gbsdeform"}}))
        print(sorted({{"hashlib", "decimal"}} & set(sys.modules)))
    """)
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps the source tree free of bytecode.
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def _names_read(tree: ast.AST) -> Counter[str]:
    """How often a tree reads each name, bare or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def test_every_module_level_import_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read = _names_read(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {alias.name}" for alias in node.names
                           if alias.name != "*"
                           and (alias.asname or alias.name.partition(".")[0]) not in read]
    assert unused == []


# canonical, moves and invariants are peer layers over graphs.  For invariants:
# the tracer times canonical calls only from its layer modules, so one made
# from there would go unmeasured; and explore imports invariants.
@pytest.mark.parametrize("name", ["canonical", "moves", "invariants"])
def test_peer_layers_import_nothing_from_the_package_but_graphs(name):
    tree = ast.parse((ROOT / "src" / "gbsdeform" / f"{name}.py").read_text())
    modules = {node.module.removeprefix("gbsdeform.") for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.startswith("gbsdeform"))}
    modules |= {alias.name.removeprefix("gbsdeform.") for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names
                if alias.name.startswith("gbsdeform")}
    assert modules == {"graphs"}


def test_every_private_top_level_function_and_class_is_referenced():
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    read = set().union(*map(_names_read, trees))
    unreferenced = [node.name for tree in trees for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and node.name not in read]
    assert unreferenced == []


def test_only_the_one_search_loop_walks_a_sides_layers():
    # explore._search is every search's loop: outside it no code in src/ reads
    # _Side.advance or _Side.grow, so no second loop can walk a side's layers.
    readers = []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            readers += [(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and node.attr in ("advance", "grow")]
    assert readers == [("explore.py", "_search")] * 2


def test_a_decision_is_one_search_over_two_sides():
    # decide_equivalence has one search phase: it builds one explore._Side per
    # root and calls explore._search once, and no such call runs in a loop or a
    # comprehension, so no second search of a side can come back unnoticed.
    calls = Counter()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            loops = [node for node in ast.walk(top) if isinstance(node, (
                ast.While, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))]
            loops += [stmt for node in ast.walk(top) if isinstance(node, ast.For)
                      for stmt in node.body + node.orelse]
            repeated = {id(node) for loop in loops for node in ast.walk(loop)}
            calls += Counter((top.name, node.func.id, id(node) in repeated)
                             for node in ast.walk(top) if isinstance(node, ast.Call)
                             and getattr(node.func, "id", None) in ("_Side", "_search"))
    assert calls == {("decide_equivalence", "_Side", False): 2,
                     ("decide_equivalence", "_search", False): 1,
                     ("explore_class", "_Side", False): 1, ("explore_class", "_search", False): 1}


def test_explore_applies_a_move_only_to_grow_a_side_or_stitch_a_path():
    # explore.py applies moves only in _Side.grow, which builds a layer, and in
    # _stitch, which applies a path's transported back half.  A reduced path's
    # collapses are the steps of moves._reduction, the one walk reduce_graph
    # also reads, so no collapse is applied a second time to recover them.
    tree = ast.parse((ROOT / "src" / "gbsdeform" / "explore.py").read_text())
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    functions |= {f"{top.name}.{node.name}": node for top in tree.body
                  if isinstance(top, ast.ClassDef) for node in top.body
                  if isinstance(node, ast.FunctionDef)}
    readers = Counter({name: _names_read(fn)["apply_move"] for name, fn in functions.items()})
    assert +readers == {"_Side.grow": 1, "_stitch": 1}
    assert _names_read(tree)["apply_move"] == 2


def test_only_graph_isomorphism_compares_canonical_keys():
    # canonical.graph_isomorphism holds the one comparison rule and is_isomorphic
    # asks it, so no other function of canonical.py reads a form's key.
    tree = ast.parse((ROOT / "src" / "gbsdeform" / "canonical.py").read_text())
    readers = Counter(getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                      and node.attr == "key")
    assert readers == {"graph_isomorphism": 2}


def test_each_fact_of_a_search_or_report_is_stated_where_it_is_read():
    # A move kind's change in vertex count is stated in explore._Side.kinds,
    # beside its enumerator, and the index cap is read in _Side.grow: so a move
    # record holds only its fields and methods.  A graph is its two sorted
    # fields and defines no public function: its end table is built in moves.py,
    # the one module that reads it, and its shape in canonical.py, read only by
    # explore._Names.__call__.  index_tuple reads each edge once, off g.edges,
    # not again through a lookup.
    for cls in typing.get_args(gbsdeform.Move):
        fields = {field.name for field in dataclasses.fields(cls)}
        extra = [name for name, value in vars(cls).items() if not name.startswith("__")
                 and name not in fields and not inspect.isfunction(value)]
        assert extra == [], cls
    methods = {name for name, value in vars(gbsdeform.EdgeIndexedGraph).items()
               if not name.startswith("_") and inspect.isfunction(value)}
    assert methods == set()
    reads = {path.relative_to(ROOT).as_posix(): _names_read(ast.parse(path.read_text()))
             for path in USERS}
    assert [path for path, read in reads.items() if read["_end_table"]] == [
        "src/gbsdeform/moves.py"]
    assert [path for path, read in reads.items() if read["_shape"]] == [
        "src/gbsdeform/explore.py"]
    tree = ast.parse((ROOT / "src" / "gbsdeform" / "explore.py").read_text())
    names = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                 and node.name == "_Names")
    call = next(node for node in names.body if getattr(node, "name", None) == "__call__")
    assert _names_read(call)["_shape"] == reads["src/gbsdeform/explore.py"]["_shape"]
    assert "_require_end" not in _names_read(ast.parse(inspect.getsource(gbsdeform.index_tuple)))


def _cap_records(tree: ast.AST) -> list[int]:
    """Line of each call of a method of some ``.caps``: ``side.caps.add(...)`` and the like."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "caps"]


def test_only_a_search_side_records_a_cap():
    # explore._Side is the one place that records why a search side is not its
    # whole class: every call that changes a ``caps`` in src/ lies in one of its
    # methods.
    found = [(path.name, line) for path in SOURCES
             for line in _cap_records(ast.parse(path.read_text()))]
    tree = ast.parse((ROOT / "src" / "gbsdeform" / "explore.py").read_text())
    side = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_Side")
    in_side = [("explore.py", line) for method in side.body
               if isinstance(method, ast.FunctionDef) for line in _cap_records(method)]
    assert in_side and sorted(found) == sorted(in_side)


def _read_by_users() -> Counter[str]:
    return sum((_names_read(ast.parse(path.read_text())) for path in USERS), Counter())


def test_every_public_name_and_member_is_read_outside_its_definition():
    # Each name in a module's __all__ and each public method or property of a
    # class is read by one of USERS somewhere beyond its own definition.
    read = _read_by_users()
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        exported = set(getattr(importlib.import_module(f"gbsdeform.{path.stem}"), "__all__", ()))
        public = []         # (name, its definition, what to report)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                public += [(target.id, node, target.id) for target in node.targets
                           if isinstance(target, ast.Name) and target.id in exported]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported:
                public.append((node.name, node, node.name))
            if isinstance(node, ast.ClassDef):
                public += [(member.name, member, f"{node.name}.{member.name}")
                           for member in node.body if isinstance(member, ast.FunctionDef)
                           and not member.name.startswith("_")]
        unread += [f"{path.stem}.{label}" for name, node, label in public
                   if read[name] <= _names_read(node)[name]]
    assert unread == []


# Public fields that no user reads, each kept for a reader of its own.  By the
# rule above a field counts as read wherever its name is, so one that shares a
# name with a read field or attribute (``reduced``, ``graphs``) passes unseen.
UNREAD_FIELDS = {
    # The meeting oracle of tests/oracles.py reads it, and EXPLORE_SHA256 pins it.
    "explore.ExplorationReport.depths",
}


def test_every_public_field_is_read_outside_its_definition():
    # Each public annotated field of a class is read by one of USERS, except
    # exactly UNREAD_FIELDS: an entry that gains a reader or goes fails too.
    read = _read_by_users()
    unread = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                unread |= {f"{path.stem}.{node.name}.{field.target.id}" for field in node.body
                           if isinstance(field, ast.AnnAssign)
                           and not field.target.id.startswith("_")
                           and read[field.target.id] <= _names_read(field)[field.target.id]}
    assert unread == UNREAD_FIELDS


def test_every_dataclass_is_slotted():
    # A search stores thousands of moves and the ladder thousands of levels;
    # a slotted record carries no per-instance __dict__.
    classes = [getattr(importlib.import_module(f"gbsdeform.{path.stem}"), node.name)
               for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef) and any(
                   "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)]
    assert classes
    for cls in classes:
        assert "__slots__" in vars(cls), cls
        assert not hasattr(object.__new__(cls), "__dict__"), cls


def test_every_python_block_of_the_readme_runs():
    # Each block runs in a fresh namespace, compiled at its README line numbers.
    text = (ROOT / "README.md").read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert blocks
    for block in blocks:
        code = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})


# One operation per workload, each traced in its own interpreter: a tracer
# counts calls across operations, so a shared one would let one workload's
# calls stand in for a bucket the other never reaches.
TRACED_OPS = {
    "equiv-paper": ("gbsdeform.cli.main", "cli",
                    '["equiv", "--moves", "deform", "--depth", "2", "X.gbs", "Y.gbs"]'),
    "ladder": ("gbsdeform.verify_slide_ladder", "counterexample",
               "gbsdeform.ExampleParams(2, 3, 5, 7), 5"),
}


@pytest.mark.parametrize("workload", sorted(TRACED_OPS))
def test_benchmark_tracer_measures_every_layer(tmp_path, workload):
    # Each layer is timed through the bindings one module imports from
    # another; a refactor that reaches a layer another way hides it.
    (tmp_path / "X.gbs").write_text(X_TEXT)
    (tmp_path / "Y.gbs").write_text(Y_TEXT)
    fn, layer, args = TRACED_OPS[workload]
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        import tracer
        import gbsdeform
        import gbsdeform.cli

        spans = tracer.Tracer()
        spans.install(gbsdeform)
        op = spans.entry({fn}, {layer!r})
        spans.start()
        with contextlib.redirect_stdout(io.StringIO()):
            op({args})
        spans.stop()
        print(spans.unmeasured({workload!r}))
    """)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
