"""Smoke tests for the command-line scripts under ``scripts/``.

Each script runs in its own interpreter, importing the package from this
checkout through the ``PYTHONPATH`` that ``conftest.py`` sets.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, python_flags=()):
    return subprocess.run([sys.executable, *python_flags, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_ladder_table_prints_indices_past_the_int_str_limit():
    # Depth 1000 gives indices of more than 640 digits.
    proc = run_script("ladder_table.py", "--depth", "1000", "--max-param", "3",
                      python_flags=("-X", "int_max_str_digits=640"))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == 4
    assert all(": ok  indices: " in row for row in rows)


def test_ladder_table_rejects_a_negative_depth():
    proc = run_script("ladder_table.py", "--depth", "-1")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "--depth must be at least 0" in proc.stderr


def test_rigidity_sweep_passes_its_trials():
    proc = run_script("rigidity_sweep.py", "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    assert "5/5 trials passed" in proc.stdout


def test_rigidity_sweep_rejects_too_few_vertices():
    proc = run_script("rigidity_sweep.py", "--max-vertices", "1")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "--max-vertices must be at least 2" in proc.stderr
