"""One repetition of one workload, in a fresh interpreter.

Started by run.py once per repetition, so the module-level certificate cache
starts empty every time, as it does for a command-line user.  Prints one JSON
object: the set-up time, each operation's latency and error (checked outside
the timed interval), the peak resident memory and, when traced, the
per-layer spans and counts.

Modes: ``run`` times the workload's operations; ``setup`` stops after the
inputs are built and only reports the set-up time; ``probe`` runs the
workload's known-defect probe.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".work"


def import_package():
    sys.path.insert(0, str(SRC))
    import gbsdeform
    import gbsdeform.cli  # noqa: F401  (not imported by the package itself)
    if not Path(gbsdeform.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported gbsdeform from {gbsdeform.__file__}, not {SRC}")
    return gbsdeform


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "probe"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="time.monotonic_ns() of the parent just before spawning")
    args = ap.parse_args()

    gbs = import_package()
    spans = tracer.Tracer() if args.trace else None
    if spans:
        spans.install(gbs)
    entry = spans.entry if spans else (lambda fn, layer: fn)
    if args.mode == "probe":
        ops = [workloads.make_probe(args.workload, gbs)]
    else:
        ops = workloads.make_ops(args.workload, args.seed, gbs, entry, WORKDIR)
    out = {"setup_s": (time.monotonic_ns() - args.spawned_ns) / 1e9, "ops": []}
    if args.mode != "setup":
        for op in ops:
            out["ops"].append(_time(op, spans))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans:
        out["layers"] = spans.metrics()
        out["unmeasured"] = spans.unmeasured(args.workload)
    print(json.dumps(out))


def _time(op: workloads.Op, spans: tracer.Tracer | None) -> dict:
    """Run one operation; the check runs after the clock and the trace stop."""
    raised = None
    if spans:
        spans.start()
    t0 = time.perf_counter()
    try:
        value = op.run()
    except Exception as exc:  # a failed operation is a result, not a crash
        raised = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if spans:
        spans.stop()
    if raised:
        return {"latency_s": latency, "raised": True, "error": raised[:300]}
    try:
        error = op.check(value)
    except Exception as exc:  # a check that cannot run means a wrong answer
        error = f"check raised {type(exc).__name__}: {exc}"
    return {"latency_s": latency, "raised": False, "error": error}


if __name__ == "__main__":
    main()
