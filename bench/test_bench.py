"""Tests of the benchmark itself: generators, oracle, tracer and entry point.

    python3 -m pytest bench
"""

import copy
import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracle
import tracer as tracer_mod
import worker
import workloads
from psokit import cli, expfun, models, psocheck, triplets
from psokit.models import NonlocalModel
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SEED_VALUES = workloads.load_seed_values()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def residuals(workload):
    return SEED_VALUES["residuals"][workload]


def op_of(workload, label=None, kind=None):
    return next(op for op in workloads.generate(workload, 0)
                if label in (None, op.label) and kind in (None, op.kind))


# -- generators --------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


def test_seed_changes_parameters_but_not_the_shape_of_a_pass():
    one, two = (workloads.generate("scenario-mix", s) for s in (1, 2))
    assert one != two
    assert (Counter(op.kind for op in one) == Counter(op.kind for op in two)
            == Counter(workloads.MIX_COUNTS))
    for workload in ("certify-12", "dense-grid"):
        one, two = (workloads.generate(workload, s) for s in (1, 2))
        assert sorted(op.label for op in one) == sorted(op.label for op in two)


def test_expected_verdicts_follow_the_phillips_set():
    passing = {op.label for op in workloads.certify_12(0) if op.overall == "pass"}
    assert passing == {"momentum", "nonlocal-I(0)", "nonlocal-I(4i)",
                       "nonlocal-II(2i)"}
    assert workloads.spectrum_class(0j, 0j) == "real-plus-upper"
    assert workloads.spectrum_class(0j, 1 + 1j) == "real-line"
    assert workloads.spectrum_class(0.5 + 0j, 2 + 0j) == "real-plus-lower"
    assert workloads.spectrum_class(1j, 1j) == "whole-plane"


# -- oracle ------------------------------------------------------------------


def test_oracle_counts_a_flipped_verdict():
    op = op_of("dense-grid", "momentum")
    report = workloads.run_op(op)
    assert oracle.check(op, report, residuals("dense-grid")) == []
    flipped = copy.deepcopy(report)
    flipped["checks"][1]["verdict"] = "fail"
    _, problems, _ = worker.execute(op, residuals("dense-grid"),
                                    run=lambda _op: flipped)
    assert problems == ["constancy: verdict fail, expected pass"]


def test_oracle_counts_a_moved_failing_residual_and_a_wrong_class():
    op = op_of("scenario-mix", kind="momentum")
    report = workloads.run_op(op)
    assert oracle.check(op, report, residuals("scenario-mix")) == []
    report["checks"][3]["witness"] = "class=whole-plane, T=0"
    assert len(oracle.check(op, report, residuals("scenario-mix"))) == 1
    op = op_of("dense-grid", "nonlocal-II(1)")
    moved = {op.label: {**residuals("dense-grid")[op.label], "constancy": 0.7}}
    problems = oracle.check(op, workloads.run_op(op), moved)
    assert len(problems) == 1 and problems[0].startswith("constancy: residual")


def test_raising_models_fail_their_ops_without_stopping_the_run(monkeypatch):
    def broken(z):
        raise ValueError("broken defect family")

    def unbuildable(self):
        raise RuntimeError("model cannot be built")

    monkeypatch.setattr(models.MomentumModel, "_defect", staticmethod(broken))
    monkeypatch.setattr(models.NonlocalModel, "__post_init__", unbuildable)
    ops = [op_of("certify-12", "momentum"), op_of("certify-12", "nonlocal-I(4i)"),
           op_of("scenario-mix", kind="momentum")]
    tally = worker.run_plain(ops, residuals("certify-12"), seconds=0)
    assert tally.attempted == 3
    certify, unbuilt, scenario = (problems for _, problems in tally.failures)
    # the scans swallow the per-point errors and report pass; the oracle
    # still fails the op because grid points failed
    assert certify == [f"{c}: {n} grid points failed" for c, n in (
        ("orthogonality", 132), ("constancy", 66), ("inclusion", 66))]
    assert unbuilt == ["raised RuntimeError: model cannot be built"]
    assert "mobius: verdict error, expected pass" in scenario


# -- tracer ------------------------------------------------------------------


def test_tracer_counts_match_cprofile_for_one_certificate():
    grid = psocheck.Grid.default()
    model = NonlocalModel("I", 1)
    tracer = Tracer()
    with tracer:
        before = dict(tracer.counts)
        tracer.op(psocheck.pso_certificate)(model, grid)
        counts = worker.op_counts(tracer, 0, before)

    profile = cProfile.Profile()
    profile.runcall(psocheck.pso_certificate, NonlocalModel("I", 1), grid)
    stats = pstats.Stats(profile).stats

    def profiled(fn):
        code = fn.__code__
        return stats[(code.co_filename, code.co_firstlineno, code.co_name)][1]

    figures = {"triplets.decompose.calls": 4356, "expfun.inner.calls": 39468,
               "expfun.pef_init.calls": 26928, "expfun.terms_built": 101964}
    assert {k: counts[k] for k in figures} == figures
    assert [profiled(triplets.decompose), profiled(expfun.inner),
            profiled(expfun.PiecewiseExpFunction.__init__),
            profiled(expfun.ExpTerm.__post_init__)] == list(figures.values())
    assert counts["matops.svds"] == counts["matops.is_singular.calls"] == 4356


def test_traced_runs_match_untraced_and_repeat_their_counts():
    ops = [op_of("scenario-mix", kind=k) for k in workloads.MIX_COUNTS]
    runs = [worker.run_traced(ops, residuals("scenario-mix"), 0, Tracer())
            for _ in range(2)]
    for plain, traced, _ in runs:
        assert plain.failures == traced.failures == []
        assert traced.attempted == len(ops)
    assert runs[0][2] == runs[1][2]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    def references():
        refs = {(m.__name__, k): v for m in tracer_mod.MODULES
                for k, v in vars(m).items()}
        for owner, attr, _ in tracer_mod.SPANS + tracer_mod.COUNTED:
            if isinstance(owner, type):
                refs[(owner.__name__, attr)] = owner.__dict__[attr]
        refs["DefectFamily.__call__"] = triplets.DefectFamily.__dict__["__call__"]
        for cid, runner in cli._RUNNERS.items():
            refs[("runner", cid)] = runner
            for i, cell in enumerate(runner.__closure__ or ()):
                refs[("cell", cid, i)] = cell.cell_contents
        return refs

    original = references()
    scan = psocheck.orthogonality_scan
    with Tracer():
        assert expfun.inner is triplets.inner is psocheck.inner is models.inner
        assert expfun.inner is not original[("psokit.expfun", "inner")]
        runner = cli._RUNNERS["orthogonality"].__wrapped__
        assert runner.__closure__[0].cell_contents is psocheck.orthogonality_scan
        assert psocheck.orthogonality_scan is not scan
    assert references() == original


# -- entry point -------------------------------------------------------------


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_run_prints_every_metric_named_in_benchmark_json(trace, section):
    proc = run_bench("--workload", "dense-grid", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_a_run_without_the_program_fails_and_prints_no_result():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", "certify-12", "--seed", "1",
                         "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
