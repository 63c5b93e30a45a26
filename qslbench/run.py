"""Benchmark of qslkit, run from the root of a source checkout.

    python3 qslbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json):
  sweep          `qslkit falsify` on 50 random states per request
  queries        one single-state library query per request
  paper_figures  rounds of fig1, fig2 a/b/c, fig3 a/b/c and xi-check

With ``--trace 0`` the run sends requests for ``--seconds`` with tracing
off and reports the end-to-end metrics.  Times are scaled to reference
speed (see reference.py) to cancel the host's speed swings; the summary
line also gives them as wall time.  Set-up time is the median over fresh
interpreters, each importing qslkit and making one small request.  With
``--trace 1`` the run sends a fixed number of rounds untraced, then the
same rounds traced, and reports per-layer metrics from the spans (see
spans.py) plus the tracing overhead.  Every output is checked: a request
that raises, exits non-zero or fails its check counts as failed, and the
run goes on.

Standard output ends with one JSON line: correct, attempted, failed and
the metrics with their units.  The lines before it record the
environment and a summary under the names the metrics have per workload.
qslkit is imported from ``src/`` of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib.util import find_spec
from pathlib import Path

import numpy as np

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 7
SAMPLE_EVERY_S = 0.02
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 5

# Fresh interpreters start slower or faster with the host's load, by more
# than the reference computation shows (0.10 to 0.24 s within minutes).
# So set-up time is scaled by BASELINE_PROBE, a fresh interpreter that
# imports only what qslkit pulls in from outside, timed next to each
# SETUP_PROBE: setup_s is the set-up time on a host where the baseline
# takes BASELINE_S.
BASELINE_S = 0.1
BASELINE_PROBE = """
import time
t0 = time.perf_counter()
import argparse, concurrent.futures, dataclasses, numpy
print(time.perf_counter() - t0)
"""
# Prints the seconds spent importing qslkit (with its CLI) and making the
# workload's warm-up request.
SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import qslkit, qslkit.cli
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[{workload!r}].warm_up({out!r})
print(t1 - t0 + time.perf_counter() - t2)
"""


def import_qslkit():
    """Import qslkit from this checkout's src/, or exit without a result."""
    if not (SRC / "qslkit" / "__init__.py").is_file():
        sys.exit(f"qslbench: no qslkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qslkit

    if Path(qslkit.__file__).resolve().parent != SRC / "qslkit":
        sys.exit(f"qslbench: imported qslkit from {qslkit.__file__}, not {SRC}")
    return qslkit


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    labels: list = field(default_factory=list)  # request labels of a round
    # reference.timed() samples, and how many requests preceded each
    sample_after: list = field(default_factory=list)
    sample_s: list = field(default_factory=list)

    def sample_reference(self) -> None:
        self.sample_after.append(self.attempted)
        self.sample_s.append(reference.timed())

    def fail(self, label: str, exc: Exception) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"qslbench: {label} failed: {exc!r}", file=sys.stderr)


def run_rounds(source, tally: Tally, *, rounds=None, deadline=None, tracer=None):
    """Send requests one at a time until `rounds` rounds or `deadline` pass.

    The reference computation is timed before the first request, after
    every SAMPLE_EVERY_S seconds of requests, and at the end.
    """
    clock = time.perf_counter
    done = 0
    since_sample = 0.0
    tally.sample_reference()
    while (rounds is None or done < rounds) and (deadline is None or clock() < deadline):
        batch = next(source)
        tally.labels = [request.label for request in batch]
        for request in batch:
            if since_sample >= SAMPLE_EVERY_S:
                tally.sample_reference()
                since_sample = 0.0
            if request.prepare is not None:
                request.prepare()
            if tracer is not None:
                tracer.op_id = tally.attempted
            tally.attempted += 1
            error = None
            start = clock()
            try:
                result = request.call()
            except Exception as exc:  # a raising request is a failure; go on
                error = exc
            tally.latencies.append(clock() - start)
            since_sample += tally.latencies[-1]
            if error is None:
                try:
                    request.check(result)
                except Exception as exc:  # a wrong or unreadable output
                    error = exc
            if error is not None:
                tally.fail(request.label, error)
        done += 1
    tally.rounds += done
    tally.sample_reference()


def probe_s(code: str) -> float:
    """Run `code` in a fresh interpreter; return the seconds it prints."""
    probe = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(probe.stdout.split()[-1])


def measure_setup(workload: str, scratch: str):
    """Median set-up seconds, scaled to BASELINE_S; and the wall samples."""
    code = SETUP_PROBE.format(
        src=str(SRC), bench=str(BENCH_DIR), workload=workload, out=scratch
    )
    wall, baseline = [], [probe_s(BASELINE_PROBE)]
    for _ in range(SETUP_PROBES):
        wall.append(probe_s(code))
        baseline.append(probe_s(BASELINE_PROBE))
    scale = BASELINE_S / statistics.median(baseline)
    return statistics.median(wall) * scale, wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(qslkit, args) -> dict:
    kernels = getattr(qslkit, "_kernels", None)
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba_installed": find_spec("numba") is not None,
        "qslkit_using_numba": getattr(kernels, "USING_NUMBA", None),
        "QSLKIT_DISABLE_NUMBA": os.environ.get("QSLKIT_DISABLE_NUMBA"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed_run(workload, args, scratch: str):
    setup_s, setup_wall = measure_setup(workload.name, scratch)
    workload.warm_up(scratch)
    reference.timed()
    tally = Tally()
    run_rounds(
        workload.rounds(args.seed, scratch),
        tally,
        deadline=time.perf_counter() + args.seconds,
    )
    units = tally.rounds * workload.units_per_round
    wall = np.array(tally.latencies)
    scaled = reference.scaled(wall, tally.sample_after, tally.sample_s)
    # The client waits for a whole round: one request, or for
    # paper_figures the eight artifact commands.
    per_round = scaled.reshape(tally.rounds, -1).sum(axis=1)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": units / float(scaled.sum()),
        "p50_ms": float(np.percentile(per_round, 50.0)) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    summary = {
        "requests": tally.attempted,
        "rounds": tally.rounds,
        "fail_ratio": tally.failed / tally.attempted,
        "wall_setup_s": statistics.median(setup_wall),
        "reference_samples": len(tally.sample_s),
        "reference_median_ms": float(np.median(tally.sample_s)) * 1e3,
    }
    # The metrics under their per-workload names, at reference speed and
    # as wall time; for multi-request rounds also the mean round and each
    # request's median.  p90, and p99 where at least ten rounds lie beyond
    # it, move too much from run to run to gate on.
    tails = (50, 90, 99) if tally.rounds >= 1000 else (50, 90)
    round_name = tally.labels[0] if len(tally.labels) == 1 else "round"
    for label, seconds in (("", scaled), ("wall_", wall)):
        rounds_s = seconds.reshape(tally.rounds, -1)
        summary[f"{label}{workload.unit}_per_s"] = units / float(seconds.sum())
        for q in tails:
            value = float(np.percentile(rounds_s.sum(axis=1), q)) * 1e3
            summary[f"{label}{round_name}_p{q}_ms"] = value
        if len(tally.labels) > 1:
            summary[f"{label}round_s"] = float(seconds.sum()) / tally.rounds
            for column, request in enumerate(tally.labels):
                median = float(np.median(rounds_s[:, column])) * 1e3
                summary[f"{label}{request}_p50_ms"] = median
    return tally, metrics, summary


def traced_run(workload, args, scratch: str):
    from spans import Tracer, layer_metrics, traced

    rounds = max(1, round(args.seconds * workload.trace_rounds_per_s))
    workload.warm_up(scratch)
    plain = Tally()
    run_rounds(workload.rounds(args.seed, scratch), plain, rounds=rounds)
    tracer = Tracer()
    spanned = Tally()
    with traced(tracer):
        run_rounds(
            workload.rounds(args.seed, scratch), spanned, rounds=rounds, tracer=tracer
        )
    metrics = layer_metrics(tracer)
    metrics["trace.ops"] = spanned.attempted
    metrics["trace.untraced_s"] = float(sum(plain.latencies))
    # The passes run one after the other, so compare them at reference
    # speed: a host speed phase must not read as tracing cost.
    metrics["trace.overhead_ratio"] = float(
        reference.scaled(spanned.latencies, spanned.sample_after, spanned.sample_s).sum()
        / reference.scaled(plain.latencies, plain.sample_after, plain.sample_s).sum()
    )
    tracer.save(OUT / f"trace-{workload.name}.npz")
    total = Tally(
        attempted=plain.attempted + spanned.attempted,
        failed=plain.failed + spanned.failed,
    )
    summary = {
        "rounds": rounds,
        "spans": len(tracer.start),
        "absent": tracer.absent,
        "fail_ratio": total.failed / total.attempted,
    }
    return total, metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    qslkit = import_qslkit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    print(json.dumps({"env": environment(qslkit, args)}), flush=True)
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        run = traced_run if args.trace else timed_run
        tally, metrics, summary = run(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(units):
        sys.exit(f"qslbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "differ from BENCHMARK.json")
    print(json.dumps({"summary": summary}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
