"""Golden reports: a fixed scenario set must keep producing the same bytes.

The set covers every check id and every model kind (momentum, nonlocal I
and II at Phillips and non-Phillips couplings, shift, Haar, classify with
an explicit and a certified theta).  Timing is the only field dropped.
Regenerate ``golden_reports.json`` only for an intended change of output:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import subprocess
import sys
from pathlib import Path

from psokit import cli

GOLDEN = Path(__file__).with_name("golden_reports.json")
ORACLE_DIGEST = Path(__file__).resolve().parent.parent / "tools" / "oracle_digest.py"

SMALL = {"re": [-1, 0, 2], "im": [0.5, 2]}
PHILLIPS_CHECKS = ["orthogonality", "constancy", "inclusion", "pso", "green", "mobius"]

SCENARIOS = [
    {"name": "momentum", "model": {"kind": "momentum"},
     "checks": PHILLIPS_CHECKS + ["classify"], "grid": SMALL,
     "params": {"T": "0"}},
    {"name": "nonlocal-I-4i", "model": {"kind": "nonlocal", "case": "I", "alpha": "4i"},
     "checks": PHILLIPS_CHECKS + ["classify"], "grid": SMALL,
     "params": {"T": "2", "mu": "1+2i"}},
    {"name": "nonlocal-I-1", "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
     "checks": PHILLIPS_CHECKS + ["classify"], "grid": SMALL,
     "params": {"T": "1", "theta": "0.5i"}},
    {"name": "nonlocal-II-2i", "model": {"kind": "nonlocal", "case": "II", "alpha": "2i"},
     "checks": PHILLIPS_CHECKS, "grid": SMALL},
    {"name": "nonlocal-II-3-i", "model": {"kind": "nonlocal", "case": "II", "alpha": "3-i"},
     "checks": PHILLIPS_CHECKS, "grid": SMALL},
    {"name": "shift", "model": {"kind": "shift", "d": 8, "twist": "i"},
     "checks": ["wandering", "cayley_identity"]},
    {"name": "haar", "model": {"kind": "haar", "j_range": [-1, 1], "k_range": [-2, 1]},
     "checks": ["gram"]},
]


def golden_text(scenario) -> str:
    report = cli.run_scenario_obj(scenario)
    for record in report["checks"]:
        record.pop("wall_time_ms")
    return json.dumps(report, sort_keys=True)


def test_reports_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["name"] for g in golden] == [s["name"] for s in SCENARIOS]
    for scenario, expected in zip(SCENARIOS, golden):
        assert golden_text(scenario) == expected["report"], scenario["name"]


def test_the_benchmark_outcomes_keep_their_digest():
    # the count and sha256 of every benchmark op's outcome text at two seeds;
    # the tool imports bench/ and writes nothing there
    run = subprocess.run([sys.executable, str(ORACLE_DIGEST)], capture_output=True,
                         text=True, check=True)
    assert run.stdout == "430 b37487ee357f8e4fdbabb94e9dbb9fd5e7efc3787534bc3e51b2e42335bbe133\n"


def test_golden_set_covers_every_check_and_model_kind():
    checks = {cid for s in SCENARIOS for cid in s["checks"]}
    assert checks == set(cli.CHECK_TABLE)
    kinds = {(s["model"]["kind"], s["model"].get("case")) for s in SCENARIOS}
    assert kinds == {("momentum", None), ("nonlocal", "I"), ("nonlocal", "II"),
                     ("shift", None), ("haar", None)}


if __name__ == "__main__":
    entries = [{"name": s["name"], "report": golden_text(s)} for s in SCENARIOS]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} golden reports to {GOLDEN}")
