"""Fail-closed per-op oracle.

An op is correct only when every check it ran returns the verdict the
mathematics predicts (``Op.expect``), no grid point failed, a passing
residual lies at or below its check's tolerance, a failing residual equals
the value recorded at the seed commit to ``REL_TOL``, and classify names the
class that follows from T.  Anything else, including a raised exception or
an ``error`` verdict, is a failed op.
"""

from __future__ import annotations

import json

from psokit import psocheck

from workloads import FAIL, PASS, Op

#: relative agreement required between a failing residual and its record
REL_TOL = 1e-9


def records(result) -> list[dict]:
    """Check records of a certificate or a CLI report, without timing."""
    if isinstance(result, psocheck.Certificate):
        return [{"id": c.check_id, "verdict": c.verdict,
                 "max_residual": c.max_residual, "tolerance": c.tolerance,
                 "witness": c.witness, "grid_failures": list(c.failures),
                 "notes": c.notes}
                for c in result.checks]
    return [{k: v for k, v in rec.items() if k != "wall_time_ms"}
            for rec in result["checks"]]


def outcome(result) -> str:
    """Canonical text of everything an op returns apart from timing, so
    two runs of one op can be compared digit for digit."""
    return json.dumps(records(result), sort_keys=True)


def check(op: Op, result, residuals: dict) -> list[str]:
    """Problems found in ``result``; empty when the op is correct.

    ``residuals`` maps op labels to the failing residuals recorded for the
    op's workload.
    """
    recs = records(result)
    ids = [r["id"] for r in recs]
    if ids != list(op.expect):
        return [f"ran checks {ids}, expected {list(op.expect)}"]
    problems = []
    for r in recs:
        cid, verdict, res = r["id"], r["verdict"], r["max_residual"]
        want = op.expect[cid]
        if verdict != want:
            problems.append(f"{cid}: verdict {verdict}, expected {want}")
        if r.get("grid_failures"):
            problems.append(f"{cid}: {len(r['grid_failures'])} grid points failed")
        if verdict == PASS and not res <= r["tolerance"]:
            problems.append(f"{cid}: residual {res!r} above tolerance {r['tolerance']!r}")
        if want == FAIL:
            ref = residuals.get(op.label, {}).get(cid)
            if ref is None:
                problems.append(f"{cid}: no recorded residual for {op.label}")
            elif not abs(res - ref) <= REL_TOL * abs(ref):
                problems.append(f"{cid}: residual {res!r}, recorded {ref!r}")
        if cid == "classify" and not str(r["witness"]).startswith(
                f"class={op.expect_class},"):
            problems.append(f"classify: {r['witness']!r}, expected class "
                            f"{op.expect_class}")
    if op.overall is not None and result.overall != op.overall:
        problems.append(f"overall {result.overall}, expected {op.overall}")
    return problems
