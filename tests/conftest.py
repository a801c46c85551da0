"""Subprocesses the suite starts import the package from this checkout too,
as the tests themselves do through pytest's ``pythonpath`` setting."""

import os
from pathlib import Path

import pytest

from gbsdeform import canonical

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def canonical_form_calls(monkeypatch):
    """The graphs passed to ``canonical.canonical_form`` while a test runs."""
    calls = []
    real = canonical.canonical_form

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(canonical, "canonical_form", counted)
    return calls
