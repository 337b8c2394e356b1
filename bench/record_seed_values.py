"""Write ``seed_values.json``: the alpha pool, failing residuals and work counts.

    PYTHONPATH=src python3 bench/record_seed_values.py

Run it only on the commit that defines the benchmark.  The oracle compares
failing residuals with the values recorded here, so recording them again on
a later commit would hide any change in them.

* ``alpha_pool``: 32 couplings per nonlocal case, each at least 0.5 from
  every coupling with a constant characteristic function, so its constancy
  residual lies well inside the fail band.  scenario-mix draws from it.
* ``residuals``: per workload and op label, the residual of every check
  whose expected verdict is ``fail``.
* ``work_counts``: hardware-independent counts per op (certify-12,
  dense-grid) and per pass at seed 0 (scenario-mix), from the tracer.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import oracle
import workloads
from tracer import Tracer
from worker import execute, op_counts

POOL_SIZE = 32
POOL_MIN_DISTANCE = 0.5
#: counts later changes are expected to cite
CITED = ("expfun.inner.calls", "expfun.terms_built", "expfun.pef_init.calls",
         "triplets.decompose.calls", "matops.svds", "expfun.free_resolvent.calls",
         "triplets.defects.calls", "triplets.defects.hits")


def alpha_pool() -> dict:
    rng = random.Random("alpha-pool")
    pool = {}
    for case, points in workloads.PHILLIPS_ALPHAS.items():
        centres = [workloads.parse_alpha(p) for p in points]
        alphas = []
        while len(alphas) < POOL_SIZE:
            re, im = round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 5), 3)
            text = workloads.format_alpha(re, im)
            if (min(abs(complex(re, im) - c) for c in centres) >= POOL_MIN_DISTANCE
                    and text not in alphas):
                alphas.append(text)
        pool[case] = alphas
    return pool


def record_residuals(ops, residuals: dict) -> None:
    for op in ops:
        result = workloads.run_op(op)
        for rec in oracle.records(result):
            if op.expect[rec["id"]] == workloads.FAIL:
                residuals.setdefault(op.label, {})[rec["id"]] = rec["max_residual"]
        problems = oracle.check(op, result, residuals)
        if problems:
            raise SystemExit(f"{op.label}: {problems}")


def traced_counts(ops, residuals) -> list[tuple[str, dict]]:
    tracer = Tracer()
    out = []
    with tracer:
        run = tracer.op(workloads.run_op)
        for op in ops:
            first, before = len(tracer), dict(tracer.counts)
            _, problems, _ = execute(op, residuals, run)
            if problems:
                raise SystemExit(f"{op.label}: {problems}")
            counts = op_counts(tracer, first, before)
            out.append((op.label, {k: counts.get(k, 0) for k in CITED}))
    return out


def main() -> None:
    pool = alpha_pool()
    values = {"alpha_pool": pool, "residuals": {}, "work_counts": {}}
    fixed = {"certify-12": workloads.certify_12(0),
             "dense-grid": workloads.dense_grid(0)}
    pool_ops = [workloads.nonlocal_op(case, alpha)
                for case, alphas in pool.items() for alpha in alphas]
    for name, ops in [*fixed.items(), ("scenario-mix", pool_ops)]:
        residuals = values["residuals"].setdefault(name, {})
        record_residuals(ops, residuals)
    for name, ops in fixed.items():
        counts = traced_counts(ops, values["residuals"][name])
        values["work_counts"][name] = {"per_op": dict(sorted(counts))}
    mix = workloads.scenario_mix(0, pool)
    per_kind: dict[str, Counter] = {}
    for op, (_, counts) in zip(mix, traced_counts(
            mix, values["residuals"]["scenario-mix"])):
        per_kind.setdefault(op.kind, Counter()).update(counts)
    values["work_counts"]["scenario-mix"] = {
        "seed": 0,
        "per_pass_by_kind": {kind: {k: c[k] for k in CITED}
                             for kind, c in sorted(per_kind.items())},
        "per_pass": {k: sum(c[k] for c in per_kind.values()) for k in CITED},
    }
    with open(workloads.SEED_VALUES, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
