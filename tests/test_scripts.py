"""Smoke tests for the command-line scripts under ``scripts/``.

Each script runs in its own interpreter, importing the package from this
checkout through the ``PYTHONPATH`` that ``conftest.py`` sets; the tests of a
failing exit status load the script and run its ``main`` in this process,
with one result forced to fail.
"""

import dataclasses
import hashlib
import importlib.util
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gbsdeform import parse_graph, parse_script

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, python_flags=()):
    return subprocess.run([sys.executable, *python_flags, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


def load_script(name):
    """The script as a module, for running ``main`` in this process."""
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_table_prints_indices_past_the_int_str_limit():
    # Depth 1000 gives indices of more than 640 digits.
    proc = run_script("ladder_table.py", "--depth", "1000", "--max-param", "3",
                      python_flags=("-X", "int_max_str_digits=640"))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 4
    assert all(": ok  indices: " in row for row in rows)


# The whole stdout of `ladder_table.py --depth 40 --max-param 4`: eight
# certified rows of 41 indices each and four skipped rows.
LADDER_TABLE_SHA256 = "61ee4841af0d25b70e55f2c3a91239a0f59205a974fb513add87bebe2ee6a379"


def test_ladder_table_output_is_pinned():
    proc = run_script("ladder_table.py", "--depth", "40", "--max-param", "4")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 12
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == LADDER_TABLE_SHA256


def test_ladder_table_rejects_a_negative_depth():
    proc = run_script("ladder_table.py", "--depth", "-1")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "--depth must be at least 0" in proc.stderr


@pytest.mark.parametrize("max_param", ["1", "2"])
def test_ladder_table_rejects_a_sweep_with_no_rows(max_param):
    proc = run_script("ladder_table.py", "--max-param", max_param)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--max-param must be at least 3" in proc.stderr


def test_ladder_table_exits_1_on_a_failed_row(monkeypatch, capsys):
    script = load_script("ladder_table.py")
    real = script.verify_slide_ladder
    monkeypatch.setattr(script, "verify_slide_ladder",
                        lambda p, depth: dataclasses.replace(real(p, depth), y_absent=False))
    monkeypatch.setattr(sys, "argv", ["ladder_table.py", "--depth", "2", "--max-param", "3"])
    assert script.main() == 1
    assert ": FAILED  indices: " in capsys.readouterr().out


def test_rigidity_sweep_passes_its_trials():
    proc = run_script("rigidity_sweep.py", "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    assert "5/5 trials passed" in proc.stdout


def test_rigidity_sweep_rejects_too_few_vertices():
    proc = run_script("rigidity_sweep.py", "--max-vertices", "1")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "--max-vertices must be at least 2" in proc.stderr


def test_rigidity_sweep_rejects_more_vertices_than_the_canonical_cap():
    proc = run_script("rigidity_sweep.py", "--trials", "14", "--max-vertices", "14")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--max-vertices must be at most 12" in proc.stderr


def test_rigidity_sweep_rejects_zero_trials():
    proc = run_script("rigidity_sweep.py", "--trials", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--trials must be at least 1" in proc.stderr


def test_rigidity_sweep_rejects_a_negative_move_count():
    proc = run_script("rigidity_sweep.py", "--moves", "-3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--moves must be at least 0" in proc.stderr


def test_rigidity_sweep_exits_1_on_a_failed_trial(monkeypatch, capsys):
    script = load_script("rigidity_sweep.py")
    real = script.rigidity_trial
    trials = []

    def failing_trial(*args, **kwargs):
        trials.append(dataclasses.replace(real(*args, **kwargs), passed=False))
        return trials[-1]

    monkeypatch.setattr(script, "rigidity_trial", failing_trial)
    monkeypatch.setattr(sys, "argv", ["rigidity_sweep.py", "--trials", "2"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "FAIL seed=0" in out and "0/2 trials passed" in out
    # Each witness block, dedented, reads back: the start graph as .gbs text
    # and the moves as a move script.
    witnesses = out.split("FAIL seed=")[1:]
    assert len(witnesses) == len(trials) == 2
    for witness, trial in zip(witnesses, trials):
        _, start, moves = re.split(r"^  (?:start|moves):\n", witness, flags=re.M)
        assert parse_graph(textwrap.dedent(start)) == trial.start
        moves = "".join(line for line in moves.splitlines(True) if line.startswith("    "))
        assert parse_script(textwrap.dedent(moves)) == trial.moves
