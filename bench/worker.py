"""Benchmark worker: one process that sets up, runs passes and reports.

``run.py`` starts it with the BLAS thread cap in its environment and reads
the single JSON object it prints.  Set-up is everything from process start
(``--spawned-at``, a ``time.monotonic`` reading taken by the parent just
before the spawn) to the first timed op: interpreter start, importing
psokit, numpy and scipy, and generating the inputs.  Like op times it is
scaled to the reference host speed by a probe run right after it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import psokit

import oracle
import workloads
from probe import PROBE_REF_S, probe
from tracer import COUNTERS, OP_SPAN, RUNNER_SPAN, SCAN_POINTS, SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"
#: seconds of ops between two host-speed probes
PROBE_EVERY_S = 0.5

#: spans whose calls and self time the traced run reports, per op
LAYERS = (*dict.fromkeys(name for _, _, name in SPANS), RUNNER_SPAN)
#: counters reported per op; defect-cache hits are reported as a ratio
COUNTS = tuple(c for c in COUNTERS if c != "triplets.defects.hits")


def execute(op, residuals, run=workloads.run_op):
    """Run and check one op; returns (seconds, problems, outcome text).

    Exceptions are the op's failure, never the run's: they are recorded as
    problems so the op still counts as attempted.
    """
    t0 = perf_counter()
    try:
        result = run(op)
    except Exception as exc:
        return perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"], None
    seconds = perf_counter() - t0
    try:
        return seconds, oracle.check(op, result, residuals), oracle.outcome(result)
    except Exception as exc:
        return seconds, [f"unreadable result {type(exc).__name__}: {exc}"], None


class Tally:
    """Per-input op times and the failures of one run.

    Op times are scaled to the reference host speed: after at least
    ``PROBE_EVERY_S`` of ops the probe runs, and the ops since the last
    probe are scaled by ``PROBE_REF_S`` over the mean of the two probes
    around them.  ``raw_s`` keeps the unscaled total.  Medians of scaled
    times are the steadiest estimate on a shared host: minima pick the
    repeats whose probes ran slow.
    """

    def __init__(self, n_inputs: int):
        self.times = [[] for _ in range(n_inputs)]
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.raw_s = 0.0
        self.factors: list[float] = []
        self._pending: list[tuple[int, float]] = []
        self._last_probe = probe()

    def add(self, i: int, op, seconds: float, problems: list[str]) -> None:
        self._pending.append((i, seconds))
        self.attempted += 1
        self.raw_s += seconds
        if problems:
            self.failures.append((op.label, problems))
        if sum(s for _, s in self._pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Scale the ops since the last probe; call once more at the end."""
        if not self._pending:
            return
        now = probe()
        factor = PROBE_REF_S / ((self._last_probe + now) / 2)
        self._last_probe = now
        self.factors.append(factor)
        for i, seconds in self._pending:
            self.times[i].append(seconds * factor)
        self._pending = []

    def medians(self) -> list[float]:
        """Each input's median scaled time over its repeats."""
        return [statistics.median(t) for t in self.times]

    def ops_per_s(self) -> float:
        """Ops per second over one pass, each input timed by its median."""
        return len(self.times) / sum(self.medians())


def run_plain(ops, residuals, seconds: float) -> Tally:
    """Closed loop, one op at a time, until ``seconds`` have passed and
    every input has run at least once."""
    tally = Tally(len(ops))
    deadline = perf_counter() + seconds
    for n, i in enumerate(itertools.cycle(range(len(ops)))):
        if n >= len(ops) and perf_counter() >= deadline:
            break
        seconds_i, problems, _ = execute(ops[i], residuals)
        tally.add(i, ops[i], seconds_i, problems)
    tally.flush()
    return tally


def run_traced(ops, residuals, seconds: float, tracer: Tracer):
    """Alternate untraced and traced passes while another pair fits in
    ``seconds`` (at least one pair).  A traced op must return exactly what
    its untraced twin returned.  Returns the two tallies and per-op counts
    of the traced ops."""
    plain, traced = Tally(len(ops)), Tally(len(ops))
    per_op = []
    started = perf_counter()
    while True:
        pass_start = perf_counter()
        outcomes = []
        for i, op in enumerate(ops):
            seconds_i, problems, text = execute(op, residuals)
            plain.add(i, op, seconds_i, problems)
            outcomes.append(text)
        plain.flush()
        with tracer:
            run = tracer.op(workloads.run_op)
            for i, op in enumerate(ops):
                first, before = len(tracer), dict(tracer.counts)
                seconds_i, problems, text = execute(op, residuals, run)
                if text != outcomes[i]:
                    problems = problems + ["traced result differs from untraced"]
                traced.add(i, op, seconds_i, problems)
                per_op.append((op.label, op_counts(tracer, first, before)))
        traced.flush()
        now = perf_counter()
        if now - started + (now - pass_start) > seconds:
            return plain, traced, per_op


def op_counts(tracer: Tracer, first: int, before: dict) -> dict:
    """Span calls and counter increments of the op whose spans start at
    ``first``."""
    counts = {f"{name}.calls": calls
              for name, (calls, _, _) in tracer.layer_totals(first).items()}
    counts.update({k: v - before[k] for k, v in tracer.counts.items()})
    return counts


def layer_metrics(tracer: Tracer, plain: Tally, traced: Tally) -> dict:
    """Per-layer metrics, each a mean per traced op."""
    n = traced.attempted
    totals = tracer.layer_totals()
    out = {}
    for name in LAYERS:
        calls, self_s, total_s = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (self_s / n, "s")
        if name in SCAN_POINTS:
            out[f"{name}.total_s"] = (total_s / n, "s")
    out[f"{OP_SPAN}.self_s"] = (totals[OP_SPAN][1] / n, "s")
    for name in COUNTS:
        out[name] = (tracer.counts[name] / n, "count")
    lookups = tracer.counts["triplets.defects.calls"]
    hits = tracer.counts["triplets.defects.hits"]
    out["triplets.defects.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    untraced_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
    out["trace.ops_per_s_delta"] = (traced_rate - untraced_rate, "1/s")
    out["trace.overhead_share"] = (1 - traced_rate / untraced_rate, "share")
    return out


def end_to_end_metrics(tally: Tally) -> dict:
    return {
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "op_ms.p50": (1000 * statistics.median(tally.medians()), "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_op_share": (1 - len(tally.failures) / tally.attempted, "share"),
    }


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(psokit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: psokit imported from {psokit.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    seed_values = workloads.load_seed_values()
    ops = workloads.generate(args.workload, args.seed, seed_values)
    residuals = seed_values["residuals"][args.workload]
    setup = {"setup_unscaled_s": time.monotonic() - args.spawned_at}
    setup["setup_s"] = setup["setup_unscaled_s"] * PROBE_REF_S / probe()
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    report = {"env": environment(args.seed), **setup, "pass_size": len(ops)}
    if args.trace:
        tracer = Tracer()
        plain, traced, per_op = run_traced(ops, residuals, args.seconds, tracer)
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}.npz"
        tracer.save(spans, seed=args.seed)
        first_pass = json.dumps(per_op[:len(ops)], sort_keys=True).encode()
        report.update(metrics=layer_metrics(tracer, plain, traced),
                      counts_sha256=hashlib.sha256(first_pass).hexdigest(),
                      spans_file=str(spans.relative_to(ROOT)))
        tallies = (plain, traced)
    else:
        tally = run_plain(ops, residuals, args.seconds)
        report["metrics"] = end_to_end_metrics(tally)
        report["unscaled_ops_per_s"] = tally.attempted / tally.raw_s
        report["host_factor"] = statistics.median(tally.factors)
        if len(ops) >= 100:
            report["op_ms.p90"] = 1000 * statistics.quantiles(
                tally.medians(), n=10, method="inclusive")[-1]
        tallies = (tally,)
    failures = [f for t in tallies for f in t.failures]
    report.update(attempted=sum(t.attempted for t in tallies),
                  failed=len(failures), failures=failures[:20])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
