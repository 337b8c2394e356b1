"""The names the layer tracer in bench/tracer.py binds to.

The tracer wraps library functions by name, so renaming or deleting one of
them breaks ``bench/run.py --trace 1`` without failing any other test here.
The tracer module is loaded from its file and only read and installed.
"""

import importlib.util
from pathlib import Path

import pytest

from psokit import cli, psocheck, triplets
from psokit.expfun import PiecewiseExpFunction
from psokit.models import MomentumModel, NonlocalModel
from psokit.psocheck import Grid, orthogonality_scan

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_where_the_tracer_looks():
    tracer = load_tracer()
    for owner, attr, _ in tracer.SPANS + tracer.COUNTED:
        assert attr in vars(owner), (owner.__name__, attr)
    assert "__call__" in vars(triplets.DefectFamily)
    assert set(cli._RUNNERS) == set(cli.CHECK_TABLE)


def test_the_defect_lookup_reads_a_dict_of_vectors_keyed_by_z():
    # the tracer counts a hit by testing ``complex(z) in family._cache``
    family = MomentumModel().defects
    f = family(1j)
    family.images(2j)
    assert type(family._cache) is dict
    assert family._cache == {1j: f, 2j: family(2j)}


def test_the_tracer_wraps_the_scan_runners_and_restores_them():
    tracer = load_tracer()
    runners = dict(cli._RUNNERS)
    scans = {name: getattr(psocheck, f"{name}_scan")
             for name in ("orthogonality", "constancy", "inclusion")}
    with tracer.Tracer():
        for name, scan in scans.items():
            traced = getattr(psocheck, f"{name}_scan")
            assert traced is not scan
            # the runner's closure calls the traced scan
            runner = cli._RUNNERS[name].__wrapped__
            assert runner.__closure__[0].cell_contents is traced
    assert cli._RUNNERS == runners
    for name, scan in scans.items():
        assert getattr(psocheck, f"{name}_scan") is scan
        assert runners[name].__closure__[0].cell_contents is scan


MODELS = [MomentumModel, lambda: NonlocalModel("II", 1.0)]


@pytest.mark.parametrize("make", MODELS)
def test_a_fresh_family_builds_each_vector_through_the_models_defect(monkeypatch, make):
    # the tracer times ``models.defect_build`` by wrapping the class's ``_defect``
    model_class = type(make())
    defect = vars(model_class)["_defect"].__func__
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return defect(*args)

    monkeypatch.setattr(model_class, "_defect", staticmethod(counted))
    vectors = make().defects.vectors_at([1j, 2 - 1j, -1j])
    assert calls == [1j, 2 - 1j, -1j]
    assert all(isinstance(f, PiecewiseExpFunction) for f in vectors)


@pytest.mark.parametrize("make", MODELS)
def test_a_raising_defect_makes_the_orthogonality_scan_report_error(monkeypatch, make):
    def broken(*args):
        raise ValueError("broken defect")

    monkeypatch.setattr(type(make()), "_defect", staticmethod(broken))
    result = orthogonality_scan(make(), Grid((1j, 2j), (-1j, -2j)))
    assert result.verdict == "error"
    assert result.failures
