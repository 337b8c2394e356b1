"""The closed-form checks give the same records on every host.

numpy's OpenBLAS picks its kernel from the CPU at run time, and numpy picks
its SIMD loops the same way.  Every S(mu) is solved and tested in closed
form, in real float64 operations, so the orthogonality, constancy, inclusion
and pso records must not depend on either choice.  Each run below is a
subprocess with one choice forced through the variable that sets it: the
OpenBLAS kernel (``OPENBLAS_CORETYPE``) or numpy's SIMD dispatch, cut to its
baseline (``NPY_DISABLE_CPU_FEATURES``).  A run reports the kernel and the
SIMD features it ran with, which shows that the variable took effect.

Left out: mobius, whose Krein defect and linear fractional map take LAPACK
and BLAS products, and the d x d shift and Haar checks.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HOST_INDEPENDENT = {"orthogonality", "constancy", "inclusion", "pso"}
VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

# the golden scenarios and the twelve criterion-04 certificates on the
# default grid, each record as (scenario or model, check, record JSON); then
# the OpenBLAS kernel, read from the loaded library, numpy's enabled SIMD
# dispatch targets and the CPU features numpy found
CHILD = r"""
import ctypes, dataclasses, json, sys
sys.dont_write_bytecode = True
sys.path[:0] = sys.argv[1:]
import numpy as np
import test_golden_reports as golden
from psokit import models, psocheck


def blas_core():
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(library, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


records = []
for scenario in golden.SCENARIOS:
    for record in json.loads(golden.golden_text(scenario))["checks"]:
        records.append([scenario["name"], record["id"], json.dumps(record, sort_keys=True)])
fixtures = [models.MomentumModel()]
fixtures += [models.NonlocalModel("I", a) for a in (0, 1, 1j, 2j, 4j, -4j, 3 + 1j)]
fixtures += [models.NonlocalModel("II", a) for a in (1, 1j, 2j, 3 - 1j)]
for model in fixtures:
    for check in psocheck.pso_certificate(model).checks:
        records.append([model.describe(), check.check_id,
                        json.dumps(dataclasses.asdict(check), sort_keys=True)])
umath = np._core._multiarray_umath
simd = sorted(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f])
cpu = sorted(f for f, on in umath.__cpu_features__.items() if on)
print(json.dumps({"core": blas_core(), "simd": simd, "cpu": cpu, "records": records}))
"""


def run_all(settings: dict[str, dict[str, str]]) -> dict[str, dict]:
    """The child's report under each setting, the runs side by side."""
    base = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    base["OPENBLAS_NUM_THREADS"] = "1"
    runs = {name: subprocess.Popen(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "tests")],
        env={**base, **changes}, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, changes in settings.items()}
    reports = {}
    for name, run in runs.items():
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, f"{name}: {err}"
        reports[name] = json.loads(out)
    return reports


@pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                    reason="the forced kernels and SIMD levels are those of x86-64 Linux")
def test_the_closed_form_records_do_not_depend_on_the_blas_kernel_or_the_simd_level():
    # the default run names the SIMD targets to disable and the CPU's features
    default = run_all({"default": {}})["default"]
    if default["core"] is None:
        pytest.skip("the loaded OpenBLAS does not name its kernel")
    settings = {"Nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
                "baseline": {"NPY_DISABLE_CPU_FEATURES": " ".join(default["simd"])}}
    if {"AVX2", "FMA3"} <= set(default["cpu"]):  # a forced kernel must run on this CPU
        settings["Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    reports = run_all(settings)

    def kept(report):
        return [r for r in report["records"] if r[1] in HOST_INDEPENDENT]

    # 5 golden scenarios with all four checks, and 12 certificates with three
    assert len(kept(default)) == 5 * 4 + 12 * 3
    for name, report in reports.items():
        # the variable took effect
        if name == "baseline":
            assert report["simd"] == [] and report["core"] == default["core"]
        else:
            assert report["core"].lower() == name.lower()
            assert report["simd"] == default["simd"]
        assert kept(report) == kept(default), name
