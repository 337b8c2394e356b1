import math
from collections import Counter

import numpy as np
import pytest

from psokit import matops, triplets
from psokit.models import MomentumModel, NonlocalModel, momentum_eigen_test
from psokit.psocheck import (
    PASS_INCLUSION,
    Grid,
    SpectrumClass,
    _verdict,
    classify_spectrum,
    constancy_scan,
    inclusion_scan,
    orthogonality_scan,
    pso_certificate,
)
from psokit.scalars import format_complex
from psokit.triplets import BoundaryTriplet, DefectFamily

SMALL_GRID = Grid.from_axes([-2.0, 0.0, 3.0], [0.5, 1.0, 5.0])


# -- grid ----------------------------------------------------------------------


def test_default_grid_shape():
    grid = Grid.default()
    assert len(grid.lambdas_upper) == 66
    assert len(grid.lambdas_lower) == 66
    assert all(z.imag > 0 for z in grid.lambdas_upper)
    assert all(z.imag < 0 for z in grid.lambdas_lower)
    assert 1j in grid.lambdas_upper and -1j in grid.lambdas_lower


def test_grid_rejects_real_points():
    with pytest.raises(ValueError):
        Grid((1.0 + 0j,), (-1j,))
    with pytest.raises(ValueError):
        Grid((), (-1j,))


# -- individual scans ------------------------------------------------------------


def test_momentum_scans_all_zero():
    mom = MomentumModel()
    assert orthogonality_scan(mom, SMALL_GRID).max_residual == 0
    assert constancy_scan(mom, None, SMALL_GRID).max_residual == 0
    assert inclusion_scan(mom, SMALL_GRID).max_residual == 0


def test_orthogonality_fail_witness():
    model = NonlocalModel("II", 1.0)
    result = orthogonality_scan(model, Grid(((1j),), ((-1j),)))
    assert result.verdict == "fail"
    # |(f_i, f_-i)| / (norms) with (f_i, f_-i) = (-1+2i)/8
    assert result.max_residual >= 0.01
    assert "lambda=1i" in result.witness and "nu=-1i" in result.witness


def test_constancy_fail_for_generic_alpha():
    model = NonlocalModel("I", 1.0)
    result = constancy_scan(model, None, SMALL_GRID)
    assert result.verdict == "fail"
    assert result.max_residual >= 0.01


def test_inclusion_fail_for_generic_alpha():
    model = NonlocalModel("I", 1.0)
    result = inclusion_scan(model, SMALL_GRID)
    assert result.verdict == "fail"
    assert result.max_residual >= 1e-3


def test_scans_pass_for_pso_fixtures():
    for model in (NonlocalModel("I", 4j), NonlocalModel("II", 2j)):
        assert orthogonality_scan(model, SMALL_GRID).verdict == "pass"
        assert constancy_scan(model, None, SMALL_GRID).verdict == "pass"
        assert inclusion_scan(model, SMALL_GRID).verdict == "pass"


# -- aggregate certificate ----------------------------------------------------------


FIXTURES = [
    (MomentumModel(), True),
    (NonlocalModel("I", 0.0), True),
    (NonlocalModel("I", 4j), True),
    (NonlocalModel("I", 1.0), False),
    (NonlocalModel("I", 1j), False),
    (NonlocalModel("I", 2j), False),
    (NonlocalModel("I", -4j), False),
    (NonlocalModel("I", 3 + 1j), False),
    (NonlocalModel("II", 2j), True),
    (NonlocalModel("II", 1.0), False),
    (NonlocalModel("II", 1j), False),
    (NonlocalModel("II", 3 - 1j), False),
]


@pytest.mark.parametrize("model,is_pso", FIXTURES,
                         ids=[m.describe() for m, _ in FIXTURES])
def test_certificate_and_criterion_equivalence(model, is_pso):
    cert = pso_certificate(model, SMALL_GRID)
    verdicts = {c.verdict for c in cert.checks}
    assert len(verdicts) == 1, "the three criteria must agree"
    assert cert.overall == ("pass" if is_pso else "fail")


def test_certificate_scale_invariance():
    base = NonlocalModel("II", 1.0)

    class Scaled:
        triplet = base.triplet
        adjoint_apply = staticmethod(base.adjoint_apply)
        defects = DefectFamily(lambda z: (3.7 - 1.2j) * base.defects(z))

        @staticmethod
        def describe():
            return "scaled"

    for scan in (orthogonality_scan, inclusion_scan):
        assert scan(Scaled(), SMALL_GRID).verdict == scan(base, SMALL_GRID).verdict
    ref = constancy_scan(base, None, SMALL_GRID)
    got = constancy_scan(Scaled(), None, SMALL_GRID)
    assert got.verdict == ref.verdict
    assert got.max_residual == pytest.approx(ref.max_residual, rel=1e-9)


def test_certificate_flags_criterion_disagreement():
    from psokit.expfun import NEG_INF, PiecewiseExpFunction

    mom = MomentumModel()
    leak = PiecewiseExpFunction.single(0.5, NEG_INF, 0.0, 1.0)

    class Broken:
        # lower defect vectors polluted with a left-half-line component:
        # constancy and inclusion still pass, orthogonality cannot
        triplet = mom.triplet
        adjoint_apply = staticmethod(mom.adjoint_apply)
        defects = DefectFamily(
            lambda z: mom.defects(z) if z.imag > 0 else mom.defects(z) + leak)

        @staticmethod
        def describe():
            return "broken"

    cert = pso_certificate(Broken(), SMALL_GRID)
    assert cert.entry("constancy").verdict == "pass"
    assert cert.entry("orthogonality").verdict == "fail"
    assert cert.overall == "inconclusive"
    assert all("disagreement" in (c.notes or "") for c in cert.checks)


def test_scan_reports_per_point_failures_and_continues():
    mom = MomentumModel()

    def flaky(z):
        if z == -2j:
            raise RuntimeError("synthetic construction failure")
        return mom.defects(z)

    class Flaky:
        triplet = mom.triplet
        adjoint_apply = staticmethod(mom.adjoint_apply)
        defects = DefectFamily(flaky)

        @staticmethod
        def describe():
            return "flaky"

    grid = Grid((1j, 2j), (-1j, -2j))
    result = orthogonality_scan(Flaky(), grid)
    assert result.verdict == "inconclusive"
    assert len(result.failures) == 1
    assert "nu=-2i" in result.failures[0]


# -- failing closed and the batched inclusion scan ----------------------------------


def variant(base, name, defect=None, triplet=None):
    """``base`` with its defect family or its triplet swapped out."""

    class Variant:
        adjoint_apply = staticmethod(base.adjoint_apply)

        @staticmethod
        def describe():
            return name

    Variant.defects = DefectFamily(defect) if defect else base.defects
    Variant.triplet = triplet or base.triplet
    return Variant()


def flaky_model():
    mom = MomentumModel()

    def flaky(z):
        # one upper point on each side of a pair, one conj(mu)
        if z in (1j, -2 + 0.5j, 3 - 5j):
            raise RuntimeError(f"synthetic construction failure at {z}")
        return mom.defects(z)

    return variant(mom, "flaky", defect=flaky)


def raising_model():
    def broken(z):
        raise ValueError("broken defect family")

    return variant(MomentumModel(), "raising", defect=broken)


def degenerate_model():
    trip = MomentumModel().triplet
    same = BoundaryTriplet(trip.gamma_plus, trip.gamma_plus, trip.witness)
    return variant(MomentumModel(), "degenerate", triplet=same)


def gamma_raising_model():
    mom = MomentumModel()
    bad = mom.defects(1j)

    def gamma_plus(f, inner_product=None):
        if f == bad:
            raise ValueError("no boundary value on this vector")
        return mom.triplet.gamma_plus(f)

    trip = BoundaryTriplet(mom.triplet.gamma_minus, gamma_plus, mom.triplet.witness)
    return variant(mom, "gamma-raising", triplet=trip)


def nan_boundary_model():
    base = NonlocalModel("I", 1)
    bad = base.defects(3 + 1j)

    def gamma_plus(f, inner_product=None):
        return complex("nan") if f == bad else base.triplet.gamma_plus(f)

    trip = BoundaryTriplet(base.triplet.gamma_minus, gamma_plus, base.triplet.witness)
    return variant(base, "nan-boundary", triplet=trip)


def test_constancy_counts_a_non_finite_theta_as_a_failed_point():
    result = constancy_scan(nan_boundary_model(), None, SMALL_GRID)
    assert result.failures == ("lambda=3+1i: theta is not finite",)
    assert math.isfinite(result.max_residual)


def pairwise_inclusion(model, grid):
    """Reference inclusion scan: one ``decompose`` per (lambda, mu) pair."""
    worst, witness, failures, evaluated = 0.0, None, [], 0
    for mu in grid.lambdas_upper:
        try:
            n_conj = model.defects.norm(mu.conjugate())
        except Exception as exc:
            failures.append(f"mu={format_complex(mu)}: {exc}")
            continue
        for lam in grid.lambdas_upper:
            pair = f"lambda={format_complex(lam)}, mu={format_complex(mu)}"
            try:
                _, b, _ = triplets.decompose(model, model.defects(lam), mu)
            except Exception as exc:
                failures.append(f"{pair}: {exc}")
                continue
            evaluated += 1
            val = abs(b) * n_conj / model.defects.norm(lam)
            if val > worst:
                worst, witness = val, pair
    if not evaluated:
        worst = float("nan")
    verdict = _verdict(worst, PASS_INCLUSION, evaluated, len(failures))
    return verdict, repr(worst), witness, tuple(failures)


EQUIVALENCE_MODELS = {
    "momentum": MomentumModel,
    "I(1)": lambda: NonlocalModel("I", 1),
    "I(4i)": lambda: NonlocalModel("I", 4j),
    "II(1)": lambda: NonlocalModel("II", 1),
    "II(2i)": lambda: NonlocalModel("II", 2j),
    "flaky": flaky_model,
    "raising": raising_model,
    "degenerate": degenerate_model,
    "gamma-raising": gamma_raising_model,
    "nan-boundary": nan_boundary_model,
}


@pytest.mark.parametrize("make", EQUIVALENCE_MODELS.values(), ids=EQUIVALENCE_MODELS)
def test_batched_inclusion_matches_pairwise_decompose(make):
    model = make()
    got = inclusion_scan(model, SMALL_GRID)
    # repr compares residuals bit for bit and NaN equal to NaN
    assert (got.verdict, repr(got.max_residual), got.witness, got.failures) == \
        pairwise_inclusion(model, SMALL_GRID)


def test_inclusion_scan_solves_once_per_mu(monkeypatch):
    model = NonlocalModel("I", 1)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(triplets, "decompose", counted("decompose", triplets.decompose))
    monkeypatch.setattr(matops, "is_singular", counted("is_singular", matops.is_singular))
    inclusion_scan(model, Grid.default())
    assert calls["decompose"] == 0
    assert calls["is_singular"] == 66


def test_degenerate_triplet_is_an_error_not_a_pass():
    model = degenerate_model()
    result = inclusion_scan(model, SMALL_GRID)
    assert result.verdict == "error"
    assert len(result.failures) == 81
    assert all(f.endswith("decomposition system is singular for this mu")
               for f in result.failures)
    cert = pso_certificate(model, SMALL_GRID)
    assert cert.entry("orthogonality").verdict == "pass"
    assert cert.entry("constancy").verdict == "pass"
    assert cert.overall == "error"


def test_raising_defect_family_errors_every_check():
    cert = pso_certificate(raising_model(), SMALL_GRID)
    assert [c.verdict for c in cert.checks] == ["error"] * 3
    assert [len(c.failures) for c in cert.checks] == [18, 9, 9]
    assert all(math.isnan(c.max_residual) and c.witness is None for c in cert.checks)
    assert cert.overall == "error"


def test_partial_failures_cap_a_pass_at_inconclusive():
    cert = pso_certificate(flaky_model(), SMALL_GRID)
    assert [c.verdict for c in cert.checks] == ["inconclusive"] * 3
    assert cert.overall == "inconclusive"


# -- spectrum classification ----------------------------------------------------------


def test_classify_fixtures():
    assert classify_spectrum([[0.0]], [[1.0]]) == SpectrumClass.REAL_LINE
    assert classify_spectrum([[0.0]], [[0.0]]) == SpectrumClass.REAL_PLUS_UPPER
    assert classify_spectrum([[0.5]], [[0.5]]) == SpectrumClass.REAL_PLUS_UPPER
    assert classify_spectrum([[0.5]], [[2.0]]) == SpectrumClass.REAL_PLUS_LOWER
    theta = np.diag([0.5, 0.0])
    t = np.diag([2.0, 0.0])
    assert classify_spectrum(theta, t) == SpectrumClass.WHOLE_PLANE


def test_classify_rejects_expansive_theta():
    with pytest.raises(ValueError, match="contraction"):
        classify_spectrum([[1.5]], [[1.0]])


def test_classify_matches_eigen_test():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if rng.random() < 0.4:
            # force a kernel
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            t = t - np.outer(t @ v, v.conj()) / np.vdot(v, v)
        lam = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        label = classify_spectrum(np.zeros((n, n)), t)
        if momentum_eigen_test(t, lam):
            assert label == SpectrumClass.REAL_PLUS_UPPER
        else:
            assert label == SpectrumClass.REAL_LINE
        assert not momentum_eigen_test(t, lam.conjugate())
