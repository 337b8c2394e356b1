"""Print how often each benchmark pass asks for a closed-form integral.

For each workload at seed 7, runs two passes of its ops in this one process
and prints, per pass, the calls of ``expfun._poly_exp_integral``, the
distinct arguments among them (told apart by the bits the memo keys on) and
the raw ``expfun._closed_form`` evaluations the memo let through.  The memo
is emptied before each workload's first pass, so that pass starts cold.  The
counts depend on no timing and no hardware.  The modules under ``bench/``
are imported, never modified.

    python3 tools/closed_form_counts.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave bench/ as it is checked out
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from psokit import expfun  # noqa: E402

SEED = 7
PASSES = ("first", "second")


def main() -> None:
    memo, raw = expfun._poly_exp_integral, expfun._closed_form
    counts: Counter = Counter()
    keys: set[bytes] = set()

    def counted_memo(k, u, a, b):
        counts["calls"] += 1
        keys.add(expfun._argument_bits(k, u.real, u.imag, a, b))
        return memo(k, u, a, b)

    def counted_raw(*args):
        counts["evaluations"] += 1
        return raw(*args)

    expfun._poly_exp_integral, expfun._closed_form = counted_memo, counted_raw
    try:
        print(f"{'workload':<14}{'pass':<8}{'calls':>9}{'distinct':>10}{'raw':>8}")
        for workload in workloads.WORKLOADS:
            ops = workloads.generate(workload, SEED)
            expfun._closed_forms.clear()
            for name in PASSES:
                counts.clear()
                keys.clear()
                for op in ops:
                    workloads.run_op(op)
                print(f"{workload:<14}{name:<8}{counts['calls']:>9,}"
                      f"{len(keys):>10,}{counts['evaluations']:>8,}")
    finally:
        expfun._poly_exp_integral, expfun._closed_form = memo, raw


if __name__ == "__main__":
    main()
