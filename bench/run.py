"""pso-kit benchmark: one command per workload, every metric by name.

    python3 bench/run.py --workload certify-12 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``certify-12``,
``dense-grid`` and ``scenario-mix``.  Each runs in a closed loop, one op at
a time, in a worker process with BLAS capped at one thread.  Every op is
checked by a fail-closed oracle (``oracle.py``).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``ops_per_s``: ops per second over one pass, each input timed by the
  median of its repeats in the run, with op times scaled to a reference
  host speed measured by a fixed probe between ops (``probe.py``; a shared
  host slows down by up to 2x in phases of seconds to minutes).  The
  unscaled rate is printed beside it;
* ``op_ms.p50``: median op time over the same per-input medians (p90 is
  printed, unbounded, where a pass holds at least 100 inputs);
* ``setup_s``: median, over several worker start-ups, of the time from
  process start to the first timed op, scaled the same way;
* ``peak_rss_mb``: peak resident memory of the measuring worker;
* ``ok_op_share``: ops that passed the oracle over ops attempted, i.e.
  1 - failed_op_share.

With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer calls, self times and counters per op from the outside-in tracer
(``tracer.py``), plus the tracing overhead.  Spans are written to
``.bench_out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
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

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
WORKLOADS = ("certify-12", "dense-grid", "scenario-mix")

#: worker start-ups timed only for set-up, besides the measuring worker
SETUP_REPEATS = 7
#: single-threaded BLAS: the matrices here are at most 192 x 192, and one
#: thread keeps runs steady on a shared two-core machine
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    # set-up is measured with Python's usual bytecode cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def spawn(args, *extra: str) -> dict:
    """Start one worker, wait for it and return the JSON it printed."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="pso-kit benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "psokit" / "__init__.py").is_file():
        print(f"error: no psokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [
            spawn(args, "--setup-only") for _ in range(SETUP_REPEATS)]
        report = spawn(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = report["metrics"]
    if not args.trace:
        setups.append(report)
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")

    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(report['env'])}")
    print(f"# ops attempted={report['attempted']} failed={report['failed']} "
          f"failed_op_share={report['failed'] / report['attempted']!r} "
          f"inputs per pass={report['pass_size']}")
    if not args.trace:
        p90 = report.get("op_ms.p90")
        p90 = "n/a: fewer than 100 inputs per pass" if p90 is None else f"{p90!r} ms"
        print(f"# op_ms.p90 {p90} (percentiles over {report['pass_size']} "
              "per-input medians)")
        print(f"# setup_s samples {[s['setup_s'] for s in setups]!r}, unscaled "
              f"{[s['setup_unscaled_s'] for s in setups]!r}")
        print(f"# unscaled ops_per_s {report['unscaled_ops_per_s']!r} (all ops, "
              f"wall time); median host-speed factor {report['host_factor']!r}")
    else:
        print(f"# per-op counts of the first traced pass: sha256 "
              f"{report['counts_sha256']}")
        print(f"# spans written to {report['spans_file']}")
    for label, problems in report["failures"]:
        print(f"# FAILED {label}: {'; '.join(problems)}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<42} {value!r} {unit}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
