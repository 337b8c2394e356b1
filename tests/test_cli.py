import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from psokit import cli, matops, models, triplets
from psokit.triplets import BoundaryTriplet
from psokit.scalars import format_complex, parse_complex


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


@pytest.mark.parametrize("bad", ["", "abc", "1+2", "i5", "2 + 3i", "1+i2", "++i"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ValueError):
        parse_complex(bad)


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


@pytest.mark.parametrize("residuals,holds,verdict", [
    ([0.0, 1e-12], True, "pass"),
    ([0.0, 1e-12], False, "fail"),
    ([1e-3, 0.0], True, "fail"),
    ([float("nan"), 0.5], True, "error"),
    ([0.5, float("nan")], True, "error"),
    ([0.0, float("inf")], True, "error"),
])
def test_threshold_result_fails_closed(residuals, holds, verdict):
    result = cli._threshold_result("x", residuals, 1e-10, None, holds=holds)
    assert result.verdict == verdict
    assert repr(result.max_residual) == repr(float(np.max(residuals)))


def test_mobius_builds_the_defect_triplet_without_decompose(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(triplets, "decompose", counted("decompose", triplets.decompose))
    monkeypatch.setattr(matops, "is_singular", counted("is_singular", matops.is_singular))
    report = cli.run_scenario_obj({
        "name": "mobius", "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["mobius"]})
    assert report["checks"][0]["verdict"] == "pass"
    # one S(mu) test in defect_triplet, one in change_of_basis
    assert (calls["decompose"], calls["is_singular"]) == (0, 2)


def test_mobius_with_a_singular_defect_system_is_an_error(tmp_path, capsys, monkeypatch):
    model = models.MomentumModel()
    trip = model.triplet
    object.__setattr__(model, "triplet",
                       BoundaryTriplet(trip.gamma_plus, trip.gamma_plus, trip.witness))
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
        "grid": {"re": [0], "im": [1]},
    })
    assert cli.main(["run", path]) == 0


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
