"""Time ``pso-kit run`` from a cold process, one golden scenario per model kind.

Writes the momentum, nonlocal-I-4i, shift and haar scenarios of
``tests/test_golden_reports.py`` to a temporary directory, then starts
``python -m psokit run <scenario>`` on each, ``RUNS`` times, taking the
scenarios in turn within each round.  A bare ``python -c "import psokit.cli"``
takes its turn in each round as well.  For each row it prints the median and
quartiles of the wall time from spawn to exit, and the median of the child's
maximum resident set size as ``os.wait4`` reports it.  An untimed first
round fills the bytecode caches.  Each child's stdout is discarded; a child
that does not exit 0 stops the tool.

Given source trees (directories holding ``src/psokit``), it measures each of
them in the same rounds, alternating the tree that goes first, so that two
trees can be compared on one machine under the same load.  Without one it
measures the tree it is in.  Uses the standard library only.

    python3 tools/cold_start.py [TREE ...]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("momentum", "nonlocal-I-4i", "shift", "haar")
IMPORT_ROW = "import psokit.cli"
RUNS = 7  # timed runs per row


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    # with Python's usual bytecode cache, as a user's runs have it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _write_scenarios(tmp: Path) -> dict:
    """Path of each named golden scenario, written as JSON under tmp.

    The scenarios are read in a child, so this process imports no psokit."""
    env = _env(ROOT)
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "tests")
    code = "import json, test_golden_reports as g; print(json.dumps(g.SCENARIOS))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    by_name = {s["name"]: s for s in json.loads(out)}
    paths = {}
    for name in NAMES:
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(by_name[name]), encoding="utf-8")
    return paths


def _timed(argv: list[str], env: dict) -> tuple[float, float]:
    """Wall seconds and max RSS in MB of one child run of argv."""
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _summary(samples: list[tuple[float, float]]) -> str:
    walls = [1000 * w for w, _ in samples]
    q1, med, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    rss = statistics.median(r for _, r in samples)
    return f"{med:8.1f} [{q1:6.1f}-{q3:6.1f}] {rss:9.1f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT],
                        help="source trees to measure (default: this one)")
    args = parser.parse_args()
    trees = [t.resolve() for t in args.trees]
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_scenarios(Path(tmp))
        jobs = {IMPORT_ROW: ["-c", "import psokit.cli"]}
        jobs.update((name, ["-m", "psokit", "run", str(path)]) for name, path in paths.items())
        samples = {(tree, row): [] for tree in trees for row in jobs}
        for i in range(-1, RUNS):  # round -1 fills the bytecode caches, untimed
            order = trees if i % 2 == 0 else trees[::-1]
            for row, argv in jobs.items():
                for tree in order:
                    sample = _timed(argv, _env(tree))
                    if i >= 0:
                        samples[tree, row].append(sample)
    print(f"{len(trees)} tree(s), {RUNS} runs per row; wall ms median [quartiles], "
          f"max RSS MB median")
    for tree in trees:
        print(f"\n{tree}")
        print(f"  {'row':18} {'wall ms':>8} {'quartiles':>15} {'RSS MB':>9}")
        for row in jobs:
            print(f"  {row:18} {_summary(samples[tree, row])}")


if __name__ == "__main__":
    main()
