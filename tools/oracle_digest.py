"""Print the count and sha256 of every benchmark op's oracle outcome text.

Runs each op of certify-12, dense-grid and scenario-mix at seeds 7 and 8
(workload-major, seed-minor, ops in pass order) and hashes the concatenated
``oracle.outcome(workloads.run_op(op))`` texts: everything an op returns
apart from timing.  Two trees print the same line exactly when all those
texts are byte-identical.  The modules under ``bench/`` are imported, never
modified.

    python3 tools/oracle_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave bench/ as it is checked out
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import oracle  # noqa: E402
import workloads  # noqa: E402

SEEDS = (7, 8)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.generate(workload, seed):
                digest.update(oracle.outcome(workloads.run_op(op)).encode())
                count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
