"""The package's public names, what importing its CLI loads, that its source
holds no dead artifacts, and the benchmark tracer's view of its layers."""

import ast
import importlib
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gbsdeform

from strategies import X_TEXT, Y_TEXT

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gbsdeform").glob("*.py"))
PERFBENCH = ROOT / "perfbench"
# Every module that declares public names, found from the source so that a new
# module cannot escape the export test.
MODULES = [path.stem for path in SOURCES if re.search(r"^__all__\b", path.read_text(), re.M)]


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_every_name_in_each_module_all(name):
    module = importlib.import_module(f"gbsdeform.{name}")
    missing = [n for n in module.__all__
               if getattr(gbsdeform, n, None) is not getattr(module, n)]
    assert missing == []


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


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a tree reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


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
