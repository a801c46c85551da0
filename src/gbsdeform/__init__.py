"""Rewriting and bounded search on edge-indexed graphs.

Edge-indexed graphs encode generalized Baumslag-Solitar graphs of groups.
The package applies and enumerates collapse, expansion and slide moves,
decides graph equivalence up to relabeling and sign flips, checks the
predicates gating JSJ qualification, and mechanically verifies the
two-vertex family whose members are deformation-equivalent but not
slide-equivalent.
"""

from .bigint import *
from .graphs import *
from .invariants import *
from .canonical import *
from .moves import *
from .explore import *
from .counterexample import *
from .random_graphs import *

__version__ = "0.1.0"
