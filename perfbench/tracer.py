"""Per-layer spans and counts for one traced repetition.

Wrappers are installed at the names each calling module uses: the modules
import functions by name, so ``gbsdeform.explore.canonical_certificate`` and
``gbsdeform.canonical.canonical_certificate`` are separate bindings and both
must be replaced.  Calls inside one module stay unwrapped; they belong to
that module's layer either way.  ``EdgeIndexedGraph.__init__`` is wrapped on
the class, because every module constructs graphs through the same class.

Each wrapped call is a span.  Its self time is its duration minus the time
of the spans it encloses, and goes to exactly one bucket.  The stitch calls
that ``explore`` makes (``graph_isomorphism``, ``transport_move``,
``invert_move``) are opaque: spans inside them are not recorded, so the whole
stitch time lands in ``explore.stitch``.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict

LAYERS = ("graphs", "moves", "canonical", "explore", "counterexample", "cli")
STITCH = frozenset({"graph_isomorphism", "transport_move", "invert_move"})
REQUESTS = frozenset({"canonical_certificate", "canonical_form"})

# Buckets each workload's operations must reach; one that never fires makes
# the layer unmeasured on that workload, not 0 s.
EXPECTED_BUCKETS = {
    "equiv-paper": ("cli", "graphs.parse", "graphs.construct", "explore",
                    "moves.enum", "moves.apply", "canonical"),
    "ladder": ("counterexample", "moves.enum", "moves.apply", "canonical",
               "graphs.construct"),
}

# (metric name, unit); the order is the order of the printed metrics.
METRICS = (
    ("canonical.requests", "count"),
    ("canonical.distinct_inputs", "count"),
    ("canonical.classes", "count"),
    ("canonical.self_s", "s"),
    ("graphs.constructed", "count"),
    ("graphs.construct_s", "s"),
    ("graphs.parse_s", "s"),
    ("moves.applied", "count"),
    ("moves.apply_s", "s"),
    ("moves.generated.collapse", "count"),
    ("moves.generated.slide", "count"),
    ("moves.generated.expansion", "count"),
    ("moves.enum_s", "s"),
    ("explore.new_ratio", "ratio"),
    ("explore.self_s", "s"),
    ("explore.stitch_s", "s"),
    ("counterexample.self_s", "s"),
    ("cli.self_s", "s"),
)


def bucket(layer: str, name: str, caller: str) -> str:
    """The bucket a call of ``layer.name`` made from ``caller`` is timed in."""
    if caller == "explore" and name in STITCH:
        return "explore.stitch"
    if layer == "graphs":
        return {"EdgeIndexedGraph": "graphs.construct",
                "parse_graph": "graphs.parse"}.get(name, "graphs.other")
    if layer == "moves":
        if name == "apply_move":
            return "moves.apply"
        return "moves.enum" if name.startswith("enumerate_") else "moves.other"
    return layer


class Tracer:
    """Spans and counts of one repetition; records only between ``start``
    and ``stop``, so correctness checks are never traced."""

    def __init__(self) -> None:
        self.recording = False
        self._opaque = 0
        self._stack: list[list[float]] = []     # child time per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.generated: Counter[str] = Counter()
        self.requests = 0
        self.inputs: set = set()                # distinct labelled graphs
        self.certs: set[bytes] = set()
        self.explore_certs: set[bytes] = set()  # current operation only
        self.explore_new = 0
        self.explore_applied = 0

    def start(self) -> None:
        self.explore_certs = set()
        self.recording = True

    def stop(self) -> None:
        self.recording = False
        self.explore_new += len(self.explore_certs)

    def wrap(self, fn, layer: str, name: str, caller: str):
        slot = bucket(layer, name, caller)
        opaque = slot == "explore.stitch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording or self._opaque:
                return fn(*args, **kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self._opaque += opaque
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._opaque -= opaque
                self._stack.pop()
                self.self_s[slot] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
            self.calls[slot] += 1
            self._count(slot, name, caller, args, kwargs, result)
            return result

        return traced

    def _count(self, slot, name, caller, args, kwargs, result) -> None:
        if slot == "canonical" and name in REQUESTS:
            cert = result if isinstance(result, bytes) else result.cert
            self.requests += 1
            self.inputs.add(args[0])
            self.certs.add(cert)
            if caller == "explore":
                self.explore_certs.add(cert)
        elif slot == "moves.enum":
            self.generated.update(type(m).__name__.lower() for m in result)
        elif slot == "moves.apply" and caller == "explore":
            self.explore_applied += 1

    def install(self, gbs) -> None:
        """Wrap every cross-module binding of a layer function, the stitch
        names in ``explore``, and graph construction."""
        modules = {layer: getattr(gbs, layer) for layer in LAYERS}
        owner = {f"gbsdeform.{layer}": layer for layer in LAYERS}
        for caller, module in modules.items():
            for name, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                layer = owner.get(obj.__module__)
                cross = layer is not None and layer != caller
                if cross or (caller == "explore" and name in STITCH):
                    setattr(module, name, self.wrap(obj, layer, name, caller))
        cls = gbs.graphs.EdgeIndexedGraph
        cls.__init__ = self.wrap(cls.__init__, "graphs", "EdgeIndexedGraph", "bench")

    def entry(self, fn, layer: str):
        """Wrap a call the benchmark itself makes into a layer."""
        return self.wrap(fn, layer, fn.__name__, "bench")

    def unmeasured(self, workload: str) -> list[str]:
        return [b for b in EXPECTED_BUCKETS[workload] if not self.calls[b]]

    def metrics(self) -> dict[str, float]:
        s = self.self_s
        return {
            "canonical.requests": self.requests,
            "canonical.distinct_inputs": len(self.inputs),
            "canonical.classes": len(self.certs),
            "canonical.self_s": s["canonical"],
            "graphs.constructed": self.calls["graphs.construct"],
            "graphs.construct_s": s["graphs.construct"],
            "graphs.parse_s": s["graphs.parse"],
            "moves.applied": self.calls["moves.apply"],
            "moves.apply_s": s["moves.apply"],
            "moves.generated.collapse": self.generated["collapse"],
            "moves.generated.slide": self.generated["slide"],
            "moves.generated.expansion": self.generated["expansion"],
            "moves.enum_s": s["moves.enum"],
            "explore.new_ratio": (self.explore_new / self.explore_applied
                                  if self.explore_applied else 0.0),
            "explore.self_s": s["explore"],
            "explore.stitch_s": s["explore.stitch"],
            "counterexample.self_s": s["counterexample"],
            "cli.self_s": s["cli"],
        }
