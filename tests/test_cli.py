import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from families import degenerate_model

from psokit import cli, expfun, matops, models, psocheck, triplets
from psokit.scalars import format_complex, parse_complex
from psokit.tolerances import (CAYLEY_IDENTITY_TOL, GRAM_TOL, GREEN_TOL, MOBIUS_TOL,
                               SINGULARITY_TOL)


# -- complex literal grammar ----------------------------------------------------


@pytest.mark.parametrize("text,value", [
    ("0", 0j),
    ("2", 2 + 0j),
    ("-3.5", -3.5 + 0j),
    ("i", 1j),
    ("-i", -1j),
    ("4i", 4j),
    ("-4i", -4j),
    ("3+i", 3 + 1j),
    ("3-i", 3 - 1j),
    ("1.5-2e-3i", 1.5 - 0.002j),
    (" 2+0.5i ", 2 + 0.5j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("bad", ["", "abc", "1+2", "i5", "2 + 3i", "1+i2", "++i",
                                 "1e400", "1-1e400i", math.nan, math.inf,
                                 pytest.param(10**400, id="int-beyond-float"),
                                 None, pytest.param([1], id="list")])
def test_parse_complex_rejects(bad):
    with pytest.raises(ValueError):
        parse_complex(bad)


def test_parse_complex_rejects_a_bool():
    # True == 1 in Python, but a JSON boolean is not a number
    for flag in (True, False):
        with pytest.raises(ValueError, match="a bool is not a number"):
            parse_complex(flag)
    assert parse_complex(1) == 1 + 0j


def test_format_round_trip():
    for z in (0j, 1 + 0j, -2.5j, 3 + 1j, -0.125 - 4j, 1e-3 + 2e2j):
        assert parse_complex(format_complex(z)) == z


# -- scenario execution ----------------------------------------------------------


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_run_passing_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "name": "constancy-4i",
        "model": {"kind": "nonlocal", "case": "I", "alpha": "4i"},
        "checks": ["constancy"],
    })
    out = str(tmp_path / "report.json")
    code = cli.main(["run", path, "--out", out])
    assert code == 0
    report = json.loads(Path(out).read_text())
    assert report["scenario"] == "constancy-4i"
    record = report["checks"][0]
    assert record["id"] == "constancy"
    assert record["verdict"] == "pass"
    assert record["max_residual"] <= 1e-10
    assert set(record) >= {"id", "verdict", "max_residual", "tolerance",
                           "witness", "wall_time_ms", "statement"}


SMALL_SCENARIO = {
    "name": "small",
    "model": {"kind": "momentum"},
    "checks": ["constancy"],
    "grid": {"re": [0], "im": [1, 2]},
}


def test_run_into_a_missing_directory_is_an_error(tmp_path, capsys):
    path = write_scenario(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "missing" / "report.json"
    assert cli.main(["run", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write {out}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


def test_run_into_a_directory_is_an_error_and_leaves_no_temporary(tmp_path, capsys):
    path = write_scenario(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "reports"
    out.mkdir()
    assert cli.main(["run", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reports", "scenario.json"]
    assert not any(out.iterdir())


def test_run_failing_scenario_exit_code(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "name": "orthogonality-fail",
        "model": {"kind": "nonlocal", "case": "II", "alpha": "1"},
        "checks": ["orthogonality"],
    })
    code = cli.main(["run", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "first failing check: orthogonality" in captured.err
    report = json.loads(captured.out)
    witness = report["checks"][0]["witness"]
    assert "lambda=" in witness and "nu=" in witness


def test_raising_defect_family_exits_2(tmp_path, capsys, monkeypatch):
    def broken(z):
        raise ValueError("broken defect family")

    # the family's builder; a build that raises fails its point
    monkeypatch.setattr(models.MomentumModel, "_defect", staticmethod(broken))
    path = write_scenario(tmp_path, {
        "name": "broken-momentum",
        "model": {"kind": "momentum"},
        "checks": ["orthogonality", "constancy", "inclusion", "pso"],
        "grid": {"re": [0], "im": [1, 2]},
    })
    code = cli.main(["run", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert [c["verdict"] for c in report["checks"]] == ["error"] * 4
    assert all(c["grid_failures"] for c in report["checks"][:3])
    # nothing was evaluated, so no residual may read as a perfect 0.0
    assert all(math.isnan(c["max_residual"]) for c in report["checks"])


FAULT_MODELS = {"momentum": {"kind": "momentum"},
                "I(4i)": {"kind": "nonlocal", "case": "I", "alpha": "4i"},
                "II(2i)": {"kind": "nonlocal", "case": "II", "alpha": "2i"}}
FAULT_CHECKS = ["orthogonality", "constancy", "inclusion", "pso", "mobius"]


# the functions a fault is injected into, by fault prefix: every module
# attribute that binds one, and the checks that call it; ``is_singular`` and
# ``solve`` are the closed-form 2 x 2 kernels that test and solve every S(mu),
# and ``solve`` counts the calls of both its functions
FAULT_TARGETS = {
    "paired": ([(expfun, "paired"), (triplets, "paired")], FAULT_CHECKS),
    "gram": ([(psocheck, "gram")], ["orthogonality", "pso"]),
    "boundary_images": ([(triplets, "boundary_images")],
                        ["constancy", "inclusion", "pso", "mobius"]),
    "is_singular": ([(matops, "is_singular_2x2")], ["inclusion", "pso", "mobius"]),
    "solve": ([(matops, "solve_2x2"), (matops, "second_unknown_2x2")],
              ["inclusion", "pso", "mobius"]),
    "interspherical": ([(matops, "interspherical")], ["mobius"]),
}


def with_entry(value, pick, bad):
    """``value`` with its entry ``pick`` (modulo its size) the float ``bad``:
    an array or a scalar, or a list of (gamma_plus, gamma_minus) pairs; a
    bool becomes a float, so its other entries keep their truth."""
    if isinstance(value, list):
        flat = [x for pair in value for x in pair]
        flat[pick % len(flat)] = complex(bad)
        return list(zip(flat[::2], flat[1::2]))
    out = np.array(value, dtype=complex if np.iscomplexobj(value) else float)
    out.flat[pick % out.size] = bad
    return out if out.ndim else out.item()


def run_with_fault(spec, check, fault, at=None, pick=0):
    """The report of one check of the model ``spec`` on a 2 x 2 grid, with
    ``fault`` injected at call ``at`` (none if None) of what it patches, and
    the number of those calls.

    Faults: ``antiderivative-nan`` and ``antiderivative-inf`` make
    ``expfun._antiderivative`` return that value (calls whose branch no
    point takes are not counted: an array build takes the degenerate and the
    other branch at every point and keeps each only where it applies);
    ``raise`` makes the model's ``_defect`` raise; ``nan``, ``inf`` and
    ``-inf`` put that value into the coefficient or exponent part ``pick``
    of a term that ``_defect``'s pack holds (calls whose pack holds no term
    are not counted).  ``<target>-raise`` makes a function of
    ``FAULT_TARGETS`` raise from call ``at`` on, since a batch that raises
    once is taken again point by point, and ``<target>-nan`` and
    ``<target>-inf`` make entry ``pick`` of what it returns that value
    (calls that return nothing are not counted).
    """
    cls = models.MomentumModel if spec["kind"] == "momentum" else models.NonlocalModel
    calls = 0

    def due(counted=True):
        nonlocal calls
        calls += bool(counted)
        return bool(counted) and calls - 1 == at

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expfun, "_closed_forms", {})  # no closed form kept between runs
        target, _, how = fault.rpartition("-")
        if target in FAULT_TARGETS:
            bindings, _ = FAULT_TARGETS[target]

            def faulty(original):
                def patched(*args, **kwargs):
                    if how == "raise":
                        due()
                        if at is not None and calls > at:
                            raise RuntimeError("injected fault")
                        return original(*args, **kwargs)
                    value = original(*args, **kwargs)
                    return with_entry(value, pick, float(how)) if due(np.size(value) > 0) else value
                return patched

            for owner, name in bindings:
                mp.setattr(owner, name, faulty(getattr(owner, name)))
        elif fault.startswith("antiderivative"):
            antiderivative, bad = expfun._antiderivative, complex(fault.split("-")[1])

            def patched(k, u, coeffs, *args, **kwargs):
                value = antiderivative(k, u, coeffs, *args, **kwargs)
                degenerate = np.hypot(u.real, u.imag) < expfun.DEGENERATE_EXPONENT_TOL
                return bad if due(np.any(degenerate == (coeffs is None))) else value

            mp.setattr(expfun, "_antiderivative", patched)
        else:
            build = cls._defect

            def patched(*args):
                packed, errors = build(*args)
                held = np.flatnonzero((packed.coeff_re != 0) | (packed.coeff_im != 0))
                if due(fault == "raise" or held.size > 0):
                    if fault == "raise":
                        raise RuntimeError("injected fault")
                    part = (0, 1, 4, 5)[pick % 4]
                    packed.parts[part].flat[held[pick // 4 % held.size]] = float(fault)
                return packed, errors

            mp.setattr(cls, "_defect", staticmethod(patched))
        report = cli.run_scenario_obj({"name": "fault", "model": spec, "checks": [check],
                                       "grid": {"re": [-1, 1], "im": [0.5, 2]}})
    return report, calls


BUILD_FAULTS = ("antiderivative-nan", "antiderivative-inf", "raise", "nan", "inf", "-inf")


def faults_of(check):
    """The build faults and the faults of every target that ``check`` calls."""
    return BUILD_FAULTS + tuple(f"{target}-{how}" for target, (_, checks) in FAULT_TARGETS.items()
                                if check in checks for how in ("raise", "nan", "inf"))


@pytest.mark.parametrize("model, check, fault", [
    (model, check, fault) for model in FAULT_MODELS for check in FAULT_CHECKS
    for fault in faults_of(check)
    # momentum's constancy check takes no closed form and pairs nothing
    if not (model == "momentum" and check == "constancy"
            and fault.startswith(("antiderivative", "paired")))])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(at=st.integers(0, 10**6), pick=st.integers(0, 10**6))
def test_a_fault_injected_into_a_build_never_passes(model, check, fault, at, pick):
    spec = FAULT_MODELS[model]
    _, calls = run_with_fault(spec, check, fault)
    assert calls > 0
    report, _ = run_with_fault(spec, check, fault, at % calls, pick)
    verdict = report["checks"][0]["verdict"]
    assert verdict != "pass"
    assert cli.report_exit_code(report) == (2 if verdict == "error" else 1)


def test_an_overflowing_defect_norm_is_an_error_not_a_perfect_pairing(tmp_path, capsys):
    # the norm at -1+0.2i overflows; scaling by 1/inf used to give the zero
    # vector, whose pairings read as a perfect 0.0
    path = write_scenario(tmp_path, {
        "name": "norm-overflow",
        "model": {"kind": "nonlocal", "case": "II", "alpha": "1.2e154"},
        "checks": ["orthogonality"],
        "grid": {"re": [-1], "im": [0.2]},
    })
    code = cli.main(["run", path])
    record = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 2
    assert record["verdict"] == "error"
    assert math.isnan(record["max_residual"])
    assert record["grid_failures"] == ["lambda=-1+0.2i: defect vector norm is not finite"]


def constancy_failures(model, grid):
    """The grid failures of a constancy check, which must be an error."""
    report = cli.run_scenario_obj({"name": "build-failure", "model": model,
                                   "checks": ["constancy"], "grid": grid})
    assert cli.report_exit_code(report) == 2
    return report["checks"][0]["grid_failures"]


def test_a_point_whose_resolvent_exponent_overflows_names_the_potential_term():
    # |iz - 1| overflows at z = 1.5e308 + 1.5e308i, where the potential's
    # term of case I is exp(-x) on (0, inf)
    assert constancy_failures({"kind": "nonlocal", "case": "I", "alpha": "1"},
                              {"re": [1.5e308], "im": [1.5e308]}) == [
        "lambda=1.5e+308+1.5e+308i: term on [0, inf] with exponent -1: "
        "the modulus of iz + exponent overflows"]


def test_a_point_whose_exponential_overflows_names_the_term_it_makes(monkeypatch):
    # on a potential exp(800x) on [0, 1], exp(u) overflows at 1 for the
    # point i, so the term left of the support, exp(x) on (-inf, 0), is not
    # finite
    build = models.NonlocalModel._defect
    potential = expfun.PiecewiseExpFunction.single(1.0, 0.0, 1.0, 800.0)
    monkeypatch.setattr(models.NonlocalModel, "_defect",
                        staticmethod(lambda case, gamma, zs: build(case, potential, zs)))
    assert constancy_failures({"kind": "nonlocal", "case": "I", "alpha": "1"},
                              {"re": [0], "im": [1]}) == [
        "lambda=1i: term on [-inf, 0] with exponent 1: coefficient or exponent is not finite"]


def test_non_finite_residuals_are_errors(tmp_path, capsys):
    # every theta and every Green residual of this coupling overflows to NaN
    path = write_scenario(tmp_path, {
        "name": "overflow",
        "model": {"kind": "nonlocal", "case": "I", "alpha": "1e200"},
        "checks": ["constancy", "green"],
    })
    code = cli.main(["run", path])
    constancy, green = json.loads(capsys.readouterr().out)["checks"]
    assert code == 2
    assert constancy["verdict"] == green["verdict"] == "error"
    assert len(constancy["grid_failures"]) == 66
    assert all(f.endswith(": theta is not finite") for f in constancy["grid_failures"])
    assert math.isnan(constancy["max_residual"]) and math.isnan(green["max_residual"])


@pytest.mark.parametrize("residuals,verdict", [
    ([0.0, 1e-12], "pass"),
    ([1e-3, 0.0], "fail"),
    ([float("nan"), 0.5], "error"),
    ([0.5, float("nan")], "error"),
    ([0.0, float("inf")], "error"),
])
def test_threshold_result_fails_closed(residuals, verdict):
    result = cli._threshold_result("x", residuals, 1e-10, None)
    assert result.verdict == verdict
    assert repr(result.max_residual) == repr(float(np.max(residuals)))


@pytest.mark.parametrize("tolerance", [GREEN_TOL, MOBIUS_TOL, GRAM_TOL, SINGULARITY_TOL,
                                       CAYLEY_IDENTITY_TOL])
def test_threshold_result_passes_at_its_tolerance_and_fails_one_float_above(tolerance):
    at = cli._threshold_result("x", [0.0, tolerance], tolerance, None)
    above = cli._threshold_result("x", [math.nextafter(tolerance, math.inf)], tolerance, None)
    assert (at.verdict, above.verdict) == ("pass", "fail")


NONLOCAL = {"kind": "nonlocal", "case": "I", "alpha": "1"}
SHIFT = {"kind": "shift", "d": 8}
#: check: (model, tolerance, (owner, name) of the residual source, and the
#: source that gives every residual as r)
THRESHOLD_CHECKS = {
    "green": (NONLOCAL, GREEN_TOL, (triplets, "green_defects"),
              lambda r: lambda *args: [r] * 20),
    "mobius": (NONLOCAL, MOBIUS_TOL, (matops.KreinBlockOperator, "krein_defect"),
               lambda r: lambda self: r),
    "gram": ({"kind": "haar", "j_range": [-1, 1], "k_range": [-2, 2]}, GRAM_TOL,
             (matops, "opnorm"), lambda r: lambda a: r),
    "wandering": (SHIFT, SINGULARITY_TOL, (models, "shift_wandering_report"),
                  lambda r: lambda model: matops.WanderingReport(8, (r,) * 7 + (1.0,))),
    "cayley_identity": (SHIFT, CAYLEY_IDENTITY_TOL, (models, "shift_cayley_identity"),
                        lambda r: lambda model, xs: [r] * len(xs)),
}


@pytest.mark.parametrize("check", THRESHOLD_CHECKS)
def test_a_threshold_check_passes_at_its_tolerance_and_not_one_float_above(monkeypatch, check):
    spec, tolerance, (owner, name), source = THRESHOLD_CHECKS[check]
    verdicts = []
    for residual in (tolerance, math.nextafter(tolerance, math.inf)):
        monkeypatch.setattr(owner, name, source(residual))
        (record,) = cli.run_scenario_obj({"name": check, "model": spec, "checks": [check],
                                          "grid": {"re": [-1, 1], "im": [0.5, 2]}})["checks"]
        assert record["max_residual"] == residual  # the source gives the worst residual
        verdicts.append(record["verdict"])
    assert verdicts == ["pass", "fail"]


@pytest.mark.parametrize("defects,first", [
    ((0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 1.0), 3),  # a violation before n = d
    ((0.0,) * 8, None),  # no violation at all, not even the wrap
], ids=["early", "none"])
def test_wandering_fails_unless_its_first_violation_is_the_wrap(
        monkeypatch, tmp_path, capsys, defects, first):
    report = matops.WanderingReport(first, defects)
    monkeypatch.setattr(models, "shift_wandering_report", lambda model: report)
    path = write_scenario(tmp_path, {
        "name": "shift", "model": {"kind": "shift", "d": 8}, "checks": ["wandering"]})
    assert cli.main(["run", path]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["verdict"] == "fail"
    assert check["witness"] == f"first violation at n={first}"
    assert check["max_residual"] == (0.5 if first else 1.0)


def test_mobius_builds_the_defect_triplet_without_decompose(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(triplets, "decompose", counted("decompose", triplets.decompose))
    for name in ("is_singular", "is_singular_2x2"):
        monkeypatch.setattr(matops, name, counted(name, getattr(matops, name)))
    report = cli.run_scenario_obj({
        "name": "mobius", "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["mobius"]})
    assert report["checks"][0]["verdict"] == "pass"
    # one S(mu) test, in defect_triplet, in closed form; (0, 0, 2) while
    # change_of_basis tested the same S(mu) again, and (0, 2, 0) while each
    # test took an SVD through is_singular
    assert (calls["decompose"], calls["is_singular"], calls["is_singular_2x2"]) == (0, 0, 1)


def counted_calls(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_the_svds_of_a_shift_op_and_a_mobius_op_are_pinned(monkeypatch):
    calls = Counter()
    for name in ("min_singular_value", "opnorm", "is_singular"):
        monkeypatch.setattr(matops, name, counted_calls(calls, name, getattr(matops, name)))
    report = cli.run_scenario_obj({
        "name": "shift", "model": {"kind": "shift", "d": 192},
        "checks": ["wandering", "cayley_identity"]})
    assert [c["verdict"] for c in report["checks"]] == ["pass", "pass"]
    # the wandering check's stacked opnorm; before the Cayley solve stood in
    # for the eigenvalue-1 SVD: {"min_singular_value": 1, "opnorm": 1}
    assert calls == {"opnorm": 1}
    calls.clear()
    report = cli.run_scenario_obj({
        "name": "mobius", "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["mobius"]})
    assert report["checks"][0]["verdict"] == "pass"
    # the Krein defect's two norms once (in the constructor), and the
    # stacked map's contraction norm and denominator test; S(mu) took two
    # SVDs, through is_singular, before its tests were taken in closed form,
    # and before krein_defect() kept the constructor's value:
    # {"is_singular": 2, "opnorm": 5, "min_singular_value": 1}
    assert calls == {"opnorm": 3, "min_singular_value": 1}


def test_a_mobius_op_turns_each_defect_vector_into_a_function_once(monkeypatch):
    rows = []
    functions = expfun.PackedFunctions.functions

    def counted(self, at=None):
        rows.append(len(self) if at is None else len(at))
        return functions(self, at)

    monkeypatch.setattr(expfun.PackedFunctions, "functions", counted)
    model = cli.build_model({"kind": "nonlocal", "case": "I", "alpha": "1"})
    assert cli._run_mobius(model, psocheck.Grid.default(), {}).verdict == "pass"
    # the vectors at mu and conj(mu), once each, read by defect_triplet, and
    # its one two-row norm batch, which pairs by the scalar inner; both read
    # by defect_triplet and change_of_basis made 4 rows with two one-row norm
    # batches, and 6 when each read built its own function
    assert list(model.defects._vectors) == [1j, -1j]
    assert sum(rows) == 4


@pytest.mark.parametrize("expand_at, raise_at, note", [
    (None, (5, 0), "ValueError: no theta at lambda 5"),
    (2, (5, 1), "ValueError: no theta at lambda 5"),
    (5, (5, 1), "ValueError: no theta at lambda 5"),
    (None, (0, 0), "ValueError: no theta at lambda 0"),
    (None, (0, 1), "ValueError: no theta at lambda 0"),
    (2, None, "ValueError: ||Z|| = 2.000000 exceeds 1"),
], ids=["theta-1-raises", "earlier-map-fails", "own-error-before-own-map",
        "first-theta-1-raises", "first-theta-2-raises", "a-map-fails"])
def test_mobius_reports_the_first_failing_lambda(monkeypatch, expand_at, raise_at, note):
    # calls at one lambda: 0 gives theta_1, which is mapped, and 1 theta_2;
    # every lambda's own error comes before the map of any theta_1
    lams = list(psocheck.Grid.default().lambdas_upper)
    calls = Counter()
    char_value = triplets.char_value

    def patched(lam, gp, gm):
        at = (lams.index(lam), calls[lam])
        calls[lam] += 1
        if at == raise_at:
            raise ValueError(f"no theta at lambda {at[0]}")
        if at == (expand_at, 0):
            return 2.0
        return char_value(lam, gp, gm)

    monkeypatch.setattr(triplets, "char_value", patched)
    report = cli.run_scenario_obj({
        "name": "mobius", "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["mobius"]})
    record = report["checks"][0]
    assert (record["verdict"], record["notes"]) == ("error", note)


def test_green_builds_its_random_pairs_once_per_process(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(models, "random_maximal_domain_function", counted_calls(
        calls, "built", models.random_maximal_domain_function))
    monkeypatch.setattr(triplets, "require_maximal_domain", counted_calls(
        calls, "checked", triplets.require_maximal_domain))
    monkeypatch.setattr(models.PiecewiseExpFunction, "derivative", counted_calls(
        calls, "differentiated", models.PiecewiseExpFunction.derivative))
    packed_rows, pack_terms = [], expfun.pack_terms
    monkeypatch.setattr(expfun, "pack_terms",
                        lambda *parts: packed_rows.append(len(parts[0])) or pack_terms(*parts))
    monkeypatch.setattr(expfun, "_kind_table", counted_calls(
        calls, "kind tables", expfun._kind_table))
    cli._green_pairs.cache_clear()
    scenario = {"name": "green", "model": {"kind": "momentum"}, "checks": ["green"]}
    first, second = (cli.run_scenario_obj(scenario)["checks"][0] for _ in range(2))
    assert calls == {"built": 40, "checked": 40, "differentiated": 40}
    assert first["verdict"] == "pass"
    assert repr(first["max_residual"]) == repr(second["max_residual"])
    # the 40 functions are packed with the pairs, once; momentum maps no
    # pairing, so its checks pack nothing more and build no kind table
    assert packed_rows == [40]
    scenario["model"] = {"kind": "nonlocal", "case": "I", "alpha": "1"}
    for n in (1, 2):
        assert cli.run_scenario_obj(scenario)["checks"][0]["verdict"] == "pass"
        # each nonlocal check packs only its potential, one row, and builds
        # that pack's kind table; the 40 functions' table is built once
        assert packed_rows == [40] + [1] * n
        assert calls["kind tables"] == 1 + n
    assert calls["built"] == calls["checked"] == calls["differentiated"] == 40


@pytest.mark.parametrize("spec", [
    {"kind": "momentum"},
    *({"kind": "nonlocal", "case": case, "alpha": alpha}
      for case, phillips in (("I", "4i"), ("II", "2i"))
      for alpha in ("0", "1", phillips, "3-i")),
], ids=lambda spec: "-".join(spec.values()))
def test_green_residuals_equal_the_one_off_green_residual(monkeypatch, spec):
    seen = []
    threshold_result = cli._threshold_result

    def recorded(check_id, residuals, *args, **kwargs):
        seen.append(residuals)
        return threshold_result(check_id, residuals, *args, **kwargs)

    monkeypatch.setattr(cli, "_threshold_result", recorded)
    model = cli.build_model(spec)
    cli._run_green(model, None, {})
    rng = np.random.default_rng(20240601)
    pairs = [(models.random_maximal_domain_function(rng),
              models.random_maximal_domain_function(rng)) for _ in range(20)]
    expected = [triplets.green_residual(model.triplet, model, f, g) for f, g in pairs]
    assert [repr(r) for r in seen[0]] == [repr(r) for r in expected]
    assert [repr(r) for r in seen[0]] == [repr(scalar_green_defect(model, f, g))
                                          for f, g in pairs]


def scalar_green_defect(model, f, g):
    """The Green defect as its formula reads, by scalar inner products and
    boundary functional calls."""
    tf, tg = model.adjoint_apply(f), model.adjoint_apply(g)
    gp, gm = model.triplet.gamma_plus, model.triplet.gamma_minus
    lhs = expfun.inner(tf, g) - expfun.inner(f, tg)
    return abs(lhs - 1j * (gp(f) * gp(g).conjugate() - gm(f) * gm(g).conjugate()))


def test_a_nonlocal_green_check_pairs_each_function_with_the_potential_once(monkeypatch):
    model = cli.build_model({"kind": "nonlocal", "case": "I", "alpha": "1"})
    cli._green_pairs()  # drawn once per process, before the count
    calls, batches = Counter(), []
    for module in (expfun, triplets):
        monkeypatch.setattr(module, "inner", counted_calls(calls, "inner", expfun.inner))
    paired = triplets.paired
    monkeypatch.setattr(triplets, "paired",
                        lambda fs, gs: batches.append((len(fs), len(gs))) or paired(fs, gs))
    assert cli._run_green(model, None, {}).verdict == "pass"
    # (T f, g) and (f, T g) for the 20 pairs, by the scalar inner below
    # PAIRED_SCALAR_ROWS, then the 40 functions against the potential in one
    # batch, each once: 120 scalar calls before, 40 of them repeats, as
    # gamma_plus and gamma_minus each paired f with the potential
    assert expfun.PAIRED_SCALAR_ROWS > 20
    assert (calls["inner"], batches) == (40, [(20, 20), (20, 20), (40, 1)])


def test_mobius_takes_as_many_svds_on_the_default_grid_as_on_two_points(monkeypatch):
    calls = Counter()
    for name in ("opnorm", "min_singular_value", "is_singular"):
        monkeypatch.setattr(matops, name, counted_calls(calls, name, getattr(matops, name)))

    def svds(grid):
        calls.clear()
        report = cli.run_scenario_obj({
            "name": "mobius", "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
            "checks": ["mobius"], **grid})
        assert report["checks"][0]["verdict"] == "pass"
        return dict(calls)

    # one stacked map for the whole grid; one 1 x 1 map per lambda took two
    # SVDs each
    assert svds({"grid": {"re": [0], "im": [1, 2]}}) == svds({})


def test_mobius_with_a_singular_defect_system_is_an_error(tmp_path, capsys, monkeypatch):
    model = degenerate_model()
    monkeypatch.setattr(cli, "build_model", lambda spec: model)
    path = write_scenario(tmp_path, {
        "name": "degenerate", "model": {"kind": "momentum"}, "checks": ["mobius"]})
    code = cli.main(["run", path])
    record = json.loads(capsys.readouterr().out)["checks"][0]
    assert code == 2
    assert record["verdict"] == "error"
    assert record["notes"] == "ValueError: decomposition system is singular for this mu"


def test_run_haar_scenario(tmp_path):
    path = write_scenario(tmp_path, {
        "name": "gram",
        "model": {"kind": "haar", "j_range": [-1, 1], "k_range": [-2, 2]},
        "checks": ["gram"],
    })
    assert cli.main(["run", path]) == 0


def test_run_shift_scenario(tmp_path):
    path = write_scenario(tmp_path, {
        "name": "shift-checks",
        "model": {"kind": "shift", "d": 8, "twist": "-1"},
        "checks": ["wandering", "cayley_identity"],
    })
    assert cli.main(["run", path]) == 0


def test_unknown_check_is_parse_error(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "name": "bad",
        "model": {"kind": "momentum"},
        "checks": ["nonsense"],
    })
    assert cli.main(["run", path]) == 2
    assert "unknown check id" in capsys.readouterr().err


@pytest.mark.parametrize("cid", [["constancy"], {"x": 1}, 1], ids=["list", "object", "number"])
def test_a_check_id_that_is_not_a_string_is_a_parse_error(tmp_path, capsys, cid):
    path = write_scenario(tmp_path, {
        "name": "bad",
        "model": {"kind": "momentum"},
        "checks": [cid],
    })
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: scenario: unknown check id {cid!r}; valid ids: ")


def test_check_model_mismatch_is_parse_error(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "name": "bad",
        "model": {"kind": "momentum"},
        "checks": ["gram"],
    })
    assert cli.main(["run", path]) == 2
    assert "does not apply" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "model": }')
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_matrix_momentum_model_is_rejected(tmp_path, capsys):
    # only the JSON integer 1 is accepted; nothing is coerced to it
    for m in (2, 1.5, 1.0, "1", True):
        path = write_scenario(tmp_path, {
            "name": "bad",
            "model": {"kind": "momentum", "m": m},
            "checks": ["constancy"],
        })
        assert cli.main(["run", path]) == 2, m
        assert "model: the function-space models are scalar (m = 1)" in capsys.readouterr().err
    assert cli.build_model({"kind": "momentum", "m": 1}).describe() == "momentum(m=1)"


@pytest.mark.parametrize("spec, message", [
    ({"kind": "shift", "d": 32.7}, "d must be an integer"),
    ({"kind": "shift", "d": 32.0}, "d must be an integer"),
    ({"kind": "shift", "d": "32"}, "d must be an integer"),
    ({"kind": "shift", "d": True}, "d must be an integer"),
    ({"kind": "haar", "j_range": [0.5, 2.9], "k_range": [0, 1]},
     "j_range bound must be an integer"),
    ({"kind": "haar", "j_range": [True, True], "k_range": [0, 1]},
     "j_range bound must be an integer"),
    ({"kind": "haar", "j_range": "01", "k_range": [0, 1]},
     "j_range must be a list of two integers"),
    ({"kind": "haar", "j_range": [0, 1], "k_range": [0, 1, 2]},
     "k_range must be a list of two integers"),
    ({"kind": "haar", "j_range": [0, 1], "k_range": [1]},
     "k_range must be a list of two integers"),
    ({"kind": "nonlocal", "case": "I", "alpha": True}, "a bool is not a number"),
    ({"kind": "shift", "d": 8, "twist": False}, "a bool is not a number"),
], ids=["d-float", "d-integral-float", "d-string", "d-bool", "range-floats",
        "range-bools", "range-string", "range-three", "range-one", "alpha-bool",
        "twist-bool"])
def test_integer_and_complex_model_fields_are_not_coerced(tmp_path, capsys, spec, message):
    path = write_scenario(tmp_path, {"name": "bad", "model": spec, "checks": ["gram"]})
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model: ") and message in err


def test_integer_model_fields_accept_json_integers():
    assert cli.build_model({"kind": "shift", "d": 32}).describe() == "shift(d=32,twist=-1)"
    haar = cli.build_model({"kind": "haar", "j_range": [0, 2], "k_range": [-1, 1]})
    assert (haar.j_range, haar.k_range) == ((0, 2), (-1, 1))
    nonlocal_model = cli.build_model({"kind": "nonlocal", "case": "I", "alpha": 1})
    assert nonlocal_model.alpha == 1


def test_bad_model_parameter_is_error(tmp_path, capsys):
    path = write_scenario(tmp_path, {
        "name": "bad",
        "model": {"kind": "nonlocal", "case": "I", "alpha": "oops"},
        "checks": ["constancy"],
    })
    assert cli.main(["run", path]) == 2
    assert "complex literal" in capsys.readouterr().err


def test_report_determinism(tmp_path):
    path = write_scenario(tmp_path, {
        "name": "repeat",
        "model": {"kind": "nonlocal", "case": "II", "alpha": "2i"},
        "checks": ["orthogonality", "constancy"],
        "grid": {"re": [-1, 0, 1], "im": [0.5, 2]},
    })
    reports = []
    for _ in range(2):
        report = cli.run_scenario(path)
        for record in report["checks"]:
            record.pop("wall_time_ms")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_grid_override_is_used(tmp_path):
    path = write_scenario(tmp_path, {
        "name": "small-grid",
        "model": {"kind": "momentum"},
        "checks": ["pso"],
        "grid": {"re": [0, 1], "im": [1]},
    })
    assert cli.main(["run", path]) == 0


@pytest.mark.parametrize("grid, message", [
    ('{"re": [true], "im": [1]}', "re must be a list of numbers"),
    ('{"re": [0, 1], "im": [true]}', "im must be a list of numbers"),
    ('{"re": ["1"], "im": [1]}', "re must be a list of numbers"),
    ('{"re": [0], "im": ["1"]}', "im must be a list of numbers"),
    ('{"re": 0, "im": [1]}', "re must be a list of numbers"),
    ('{"re": [[0]], "im": [1]}', "re must be a list of numbers"),
    ('{"re": [NaN], "im": [1]}', "grid points must be finite"),
    ('{"re": [0], "im": [NaN]}', "grid points must be finite"),
    ('{"re": [Infinity], "im": [1]}', "grid points must be finite"),
    ('{"re": [0], "im": [1e400]}', "grid points must be finite"),
    ('{"re": [1' + "0" * 400 + '], "im": [1]}', "int too large to convert to float"),
], ids=["re-bool", "im-bool", "re-string", "im-string", "re-scalar", "re-nested",
        "re-nan", "im-nan", "re-infinity", "im-overflow", "re-huge-int"])
def test_grid_values_must_be_finite_json_numbers(tmp_path, capsys, grid, message):
    path = tmp_path / "bad-grid.json"
    path.write_text('{"name": "bad-grid", "model": {"kind": "momentum"}, '
                    '"checks": ["pso"], "grid": %s}' % grid)
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid: ") and message in err


@pytest.mark.parametrize("spec, message", [
    ({"im": [1]}, "grid: missing required field 're'"),
    ({"re": [0]}, "grid: missing required field 'im'"),
    ([[0], [1]], "grid: expected an object"),
], ids=["no-re", "no-im", "list"])
def test_a_grid_without_an_axis_names_the_missing_field(spec, message):
    with pytest.raises(cli.ScenarioError) as info:
        cli.build_grid(spec)
    assert str(info.value) == message


def test_repeated_grid_points_are_one_point(tmp_path, capsys):
    # four spellings of lambda = 1j: one point, so constancy compares nothing
    path = write_scenario(tmp_path, {
        "name": "repeated-points",
        "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["constancy"],
        "grid": {"re": [0, 0.0], "im": [1, -1]},
    })
    assert cli.main(["run", path]) == 2
    assert json.loads(capsys.readouterr().out)["checks"][0]["verdict"] == "error"


@pytest.mark.parametrize("params", [None, "T", ["T", "1"]], ids=["null", "string", "list"])
def test_params_must_be_an_object(tmp_path, capsys, params):
    path = write_scenario(tmp_path, {
        "name": "bad-params",
        "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["mobius", "classify"],
        "params": params,
    })
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr().err == "error: scenario: params must be an object\n"


def test_classify_requires_certificate_or_theta(tmp_path, capsys):
    refused = write_scenario(tmp_path, {
        "name": "classify-refused",
        "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["classify"],
        "params": {"T": "1"},
    }, name="refused.json")
    assert cli.main(["run", refused]) == 2
    assert "refused" in capsys.readouterr().err

    explicit = write_scenario(tmp_path, {
        "name": "classify-explicit",
        "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["classify"],
        "params": {"T": "1", "theta": "0"},
    }, name="explicit.json")
    assert cli.main(["run", explicit]) == 0

    allowed = write_scenario(tmp_path, {
        "name": "classify-momentum",
        "model": {"kind": "momentum"},
        "checks": ["classify"],
        "params": {"T": "0"},
        "grid": {"re": [0], "im": [1, 2]},
    }, name="allowed.json")
    code = cli.main(["run", allowed])
    out = capsys.readouterr().out
    assert code == 0
    assert "real-plus-upper" in out


@pytest.mark.parametrize("check, params, note", [
    ("mobius", {"mu": "1e400"}, "invalid complex literal '1e400': not finite"),
    ("classify", {"T": "1", "theta": math.nan}, "invalid complex literal nan: not finite"),
    ("mobius", {"mu": None},
     "invalid complex literal None: expected a string or a number"),
], ids=["overflow", "json-nan", "null"])
def test_a_parameter_that_is_no_finite_complex_is_an_error(tmp_path, capsys, check,
                                                           params, note):
    path = write_scenario(tmp_path, {
        "name": "bad-value",
        "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": [check],
        "params": params,
    })
    assert cli.main(["run", path]) == 2
    record = json.loads(capsys.readouterr().out)["checks"][0]
    assert (record["verdict"], record["notes"]) == ("error", f"ValueError: {note}")


# -- sweep -------------------------------------------------------------------------


def test_sweep_csv(tmp_path):
    out = str(tmp_path / "grid.csv")
    spec = json.dumps({"kind": "nonlocal", "case": "I", "alpha": "1"})
    assert cli.main(["sweep", "--model", spec, "--out", out]) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "re_lambda,im_lambda,re_theta,im_theta"
    assert len(lines) == 67
    rows = {tuple(float(v) for v in line.split(",")[:2]): line for line in lines[1:]}
    row = rows[(0.0, 1.0)].split(",")
    assert float(row[2]) == pytest.approx(-0.10820, abs=1e-4)
    assert float(row[3]) == pytest.approx(-0.20984, abs=1e-4)


def test_sweep_momentum_all_zero(tmp_path):
    out = str(tmp_path / "grid.csv")
    assert cli.main(["sweep", "--model", '{"kind": "momentum"}', "--out", out]) == 0
    for line in Path(out).read_text().strip().splitlines()[1:]:
        parts = [float(v) for v in line.split(",")]
        assert parts[2] == 0 and parts[3] == 0


def test_sweep_constant_theta_columns(tmp_path):
    out = str(tmp_path / "grid.csv")
    spec = json.dumps({"kind": "nonlocal", "case": "I", "alpha": "4i"})
    assert cli.main(["sweep", "--model", spec, "--out", out]) == 0
    for line in Path(out).read_text().strip().splitlines()[1:]:
        parts = [float(v) for v in line.split(",")]
        assert abs(complex(parts[2], parts[3])) <= 1e-10


def test_sweep_rejects_haar(tmp_path, capsys):
    spec = json.dumps({"kind": "haar", "j_range": [0, 1], "k_range": [0, 1]})
    assert cli.main(["sweep", "--model", spec, "--out", str(tmp_path / "x.csv")]) == 2


def test_sweep_into_a_missing_directory_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "grid.csv"
    spec = json.dumps({"kind": "momentum", "grid": {"re": [0], "im": [1]}})
    assert cli.main(["sweep", "--model", spec, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert captured.out == ""


def test_sweep_with_a_non_finite_theta_is_error(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    spec = json.dumps({"kind": "nonlocal", "case": "I", "alpha": "1e200",
                       "grid": {"re": [0], "im": [1]}})
    assert cli.main(["sweep", "--model", spec, "--out", str(out)]) == 2
    assert "lambda=1i: theta is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_a_raising_char_function_is_error(tmp_path, capsys, monkeypatch):
    original = triplets.char_value

    def raising(lam, gp, gm):
        if lam.real > 0:
            raise ValueError("boom")
        return original(lam, gp, gm)

    monkeypatch.setattr(triplets, "char_value", raising)
    out = tmp_path / "grid.csv"
    spec = json.dumps({"kind": "nonlocal", "case": "I", "alpha": "1",
                       "grid": {"re": [0, 1, 2], "im": [1]}})
    assert cli.main(["sweep", "--model", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: lambda=1+1i: boom\n"
    assert not out.exists()


def test_list_checks(capsys):
    assert cli.main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for cid in ("orthogonality", "constancy", "inclusion", "gram", "wandering"):
        assert cid in out


def test_console_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "psokit", "list-checks"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "constancy" in proc.stdout
