import os
import subprocess
import sys
import types
from pathlib import Path

import psokit

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    for name in psokit.__all__:
        assert hasattr(psokit, name), name


def test_public_attributes_are_exactly_the_exports():
    public = {name for name, value in vars(psokit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(psokit.__all__) - {"__version__"}
    assert len(psokit.__all__) == len(set(psokit.__all__))


# run in a fresh interpreter: other tests load scipy into the pytest process
SCIPY_FREE_RUN = """
import sys
import numpy as np
import psokit
from psokit import cli
from test_golden_reports import SCENARIOS
for scenario in SCENARIOS:
    cli.run_scenario_obj(scenario)
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
assert not loaded, loaded
k = psokit.random_krein_unitary(2, np.random.default_rng(9))
assert isinstance(k, psokit.KreinBlockOperator), type(k)
"""


def test_scipy_is_imported_only_by_random_krein_unitary():
    """Every model kind and check id runs without loading scipy, whose import
    costs about half of a ``pso-kit run``; random_krein_unitary still works."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
