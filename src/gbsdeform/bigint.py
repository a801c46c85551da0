"""Decimal text for indices of any length.

CPython refuses int<->str conversions past ``sys.get_int_max_str_digits()``
digits (4,300 by default), and slide-ladder indices grow past that.  Below
the limit these helpers are plain ``str`` and ``int``; past it they go
through ``decimal``, which converts exactly at any length and at about the
same cost.  The interpreter-wide limit is left alone, and ``decimal`` is
imported only once an index needs it.  ``parse_index`` is the one integer
grammar, for graph files and move scripts alike.
"""

from __future__ import annotations

import re

__all__ = ["index_str", "parse_index"]

_INDEX_RE = re.compile(r"-?[1-9][0-9]*\Z")


def index_str(x: int) -> str:
    """Decimal text of an index."""
    try:
        return str(x)
    except ValueError:          # longer than the interpreter's limit
        from decimal import Decimal
        return str(Decimal(x))


def parse_index(text: str) -> int:
    """The integer an ASCII ``-?[1-9][0-9]*`` text spells; ValueError otherwise."""
    if not _INDEX_RE.match(text):
        raise ValueError(f"bad integer {text!r}")
    try:
        return int(text)
    except ValueError:          # longer than the interpreter's limit
        from decimal import Decimal
        return int(Decimal(text))
