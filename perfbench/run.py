"""Benchmark of gbsdeform: two workloads, cold start, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each one is there):

  equiv-paper     ``gbsdeform equiv --moves deform --depth 4 --max-n 10
                  --max-index 100 X.gbs Y.gbs`` on the paper pair
                  (m, n, r, s) = (2, 3, 5, 7), through ``cli.main``
  ladder          ``verify_slide_ladder((2, 3, 5, 7), depth)``, depth
                  4490..4510 drawn from the seed

Load model: a closed loop with one client.  This process starts one
repetition at a time, each in a fresh interpreter (worker.py), and starts the
next only after the previous one has exited.  The number of repetitions is
``--seconds`` over the workload's nominal repetition time (REP_SECONDS in
workloads.py), so runs take about ``--seconds`` on a 2-CPU Xeon VM.  No
repetition starts after 1.1 times ``--seconds``, so a slower machine makes
fewer.  Every repetition builds its inputs from the seed and checks every
answer outside the timed interval.

Metrics with ``--trace 0`` (medians over repetitions unless stated):
  setup_s      fresh interpreter to the first timed operation (interpreter
               start, ``import gbsdeform``, input build); at least 7 samples
  run_s        wall time of one repetition's operations
  op_p50_s     median latency over all operations of the run
  op_tail_s    latency at the highest percentile with >= 10 samples beyond
               it (the maximum when there are fewer than 11 operations); the
               percentile and sample count are printed on the line before
  peak_rss_mb  peak resident memory of a repetition's process

With ``--trace 1`` untraced and traced repetitions alternate, and the
metrics are the per-layer ones of tracer.py plus ``trace.overhead_s``
(traced minus untraced run_s), ``trace.unmeasured_layers`` (layers the
workload uses whose wrappers never fired; they read 0 but are unmeasured)
and ``ops_failed_frac``.

Each workload that has a known-defect probe (ladder: depth 5600, past the
4300-digit int->str limit; equiv-paper: ``explore_class`` on a 12-vertex path
at depth 1, past the canonical size cap) runs it once per invocation in its
own process, after the timed repetitions.  It is in no timing, not in
``attempted`` or ``failed``, and counts in ``ops_failed_frac``, so a fix
lowers that share without moving run_s.  A probe that returns a wrong answer
makes the run incorrect.

The last line of standard output is the result object; the line before it
records the seed and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import PROBED, REP_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_SETUP_SAMPLES = 7
TIME_LIMIT_S = 170          # the whole invocation must end within 180 s
TAIL_BEYOND = 10
SLOW_MACHINE_FACTOR = 1.1


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts workers one after another and keeps to the time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()

    def spawn(self, mode: str, trace: int = 0) -> dict:
        left = TIME_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("time limit reached")
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode,
               "--trace", str(trace), "--spawned-ns", str(time.monotonic_ns())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} repetition passed the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def repeat(self, count: int, seconds: float, unit) -> list:
        """Call ``unit(i)`` for i = 0 .. count-1, or stop early once a slow
        machine has spent SLOW_MACHINE_FACTOR times ``seconds``."""
        results = [unit(0)]
        while (len(results) < count
               and time.monotonic() - self.started < SLOW_MACHINE_FACTOR * seconds):
            results.append(unit(len(results)))
        return results


def repetitions(workload: str, seconds: float, per_rep: float = 1.0) -> int:
    """A count fixed by the workload and ``--seconds``, not by how fast this
    run happens to go, so the percentiles mean the same thing in every run."""
    return max(1, round(seconds / (per_rep * REP_SECONDS[workload])))


def run_s(rep: dict) -> float:
    return sum(op["latency_s"] for op in rep["ops"])


def failures(reps: list[dict]) -> tuple[int, int]:
    ops = [op for rep in reps for op in rep["ops"]]
    return len(ops), sum(1 for op in ops if op["error"])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    has at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    reps = runner.repeat(repetitions(runner.workload, seconds), seconds,
                         lambda i: runner.spawn("run"))
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.spawn("setup")["setup_s"])
    # A run with any failed operation is reported incorrect, so failed
    # operations need no latency rule of their own.
    latencies = [op["latency_s"] for rep in reps for op in rep["ops"]]
    tail_value, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(run_s(rep) for rep in reps), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
    }
    info = {"repetitions": len(reps), "setup_samples": len(setups),
            "operations": len(latencies), "op_tail_percentile": tail_pct,
            "op_tail_samples_beyond": beyond}
    return metrics, info, reps


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    # Every traced and untraced repetition gets the same inputs, so counts
    # must repeat exactly and the overhead compares like with like.
    pairs = runner.repeat(repetitions(runner.workload, seconds, per_rep=2.2), seconds,
                          lambda i: (runner.spawn("run"), runner.spawn("run", trace=1)))
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    metrics, varying = {}, []
    for name, unit in tracer.METRICS:
        values = [t["layers"][name] for t in traced]
        if unit == "count" and len(set(values)) > 1:
            varying.append(name)
        metrics[name] = (values[0] if unit == "count" else statistics.median(values), unit)
    metrics["trace.overhead_s"] = (
        statistics.median(map(run_s, traced)) - statistics.median(map(run_s, plain)), "s")
    # A layer whose wrappers never fired reads 0 above but is unmeasured:
    # the calls into it went through a binding the tracer does not know.
    unmeasured = traced[0]["unmeasured"]
    metrics["trace.unmeasured_layers"] = (len(unmeasured), "count")
    for name in unmeasured:
        print(f"warning: layer {name} unmeasured", file=sys.stderr)
    for name in varying:
        print(f"warning: {name} differs between traced repetitions", file=sys.stderr)
    info = {"traced_repetitions": len(traced), "untraced_repetitions": len(plain),
            "unmeasured": unmeasured, "counts_not_repeated": varying}
    return metrics, info, plain + traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gbsdeform" / "__init__.py").is_file():
        print(f"error: no gbsdeform sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, info, reps = measure(runner, args.seconds)
        probe = runner.spawn("probe")["ops"][0] if args.workload in PROBED else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = failures(reps)
    if args.trace:
        probes = int(probe is not None)
        probe_failed = int(probes and bool(probe["error"]))
        metrics["ops_failed_frac"] = ((failed + probe_failed) / (attempted + probes), "ratio")
    errors = sorted({op["error"] for rep in reps for op in rep["ops"] if op["error"]})
    probe_wrong = probe is not None and bool(probe["error"]) and not probe["raised"]
    if probe_wrong:
        errors.append(f"probe gave a wrong answer: {probe['error']}")
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                probe=None if probe is None else (probe["error"] or "passed"),
                python=sys.version.split()[0], cpus=os.cpu_count())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not probe_wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
