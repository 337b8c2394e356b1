import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from psokit import cli, expfun, matops, models, psocheck, triplets
from psokit.expfun import inner
from psokit.models import MomentumModel, NonlocalModel, momentum_eigen_test
from psokit.psocheck import (
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
from psokit.tolerances import PASS_CONSTANCY, PASS_INCLUSION, PASS_ORTHOGONALITY
from psokit.triplets import BoundaryTriplet, DefectFamily

SMALL_GRID = Grid.from_axes([-2.0, 0.0, 3.0], [0.5, 1.0, 5.0])
DENSE_GRID = Grid.from_axes(range(-15, 16), (0.1, 0.2, 0.5, 1, 1.5, 2, 3, 5, 7, 10))


# -- grid ----------------------------------------------------------------------


def test_default_grid_shape():
    grid = Grid.default()
    assert len(grid.lambdas_upper) == 66
    assert len(grid.lambdas_lower) == 66
    assert all(z.imag > 0 for z in grid.lambdas_upper)
    assert all(z.imag < 0 for z in grid.lambdas_lower)
    assert 1j in grid.lambdas_upper and -1j in grid.lambdas_lower


def test_grid_keeps_the_first_occurrence_of_each_point():
    grid = Grid((1j, 2 + 1j, complex(-0.0, 1.0), 1j), (complex(-0.0, -1.0), -1j))
    assert grid.lambdas_upper == (1j, 2 + 1j)
    assert grid.lambdas_lower == (-1j,)
    assert math.copysign(1.0, grid.lambdas_lower[0].real) == -1.0  # the first one


def test_mirrored_and_repeated_axis_values_give_one_point():
    grid = Grid.from_axes([0, 0.0], [1, -1])
    assert (grid.lambdas_upper, grid.lambdas_lower) == ((1j,), (-1j,))
    single = Grid.from_axes([0], [1])
    model = NonlocalModel("I", 1)  # not a Phillips point
    # one point compares nothing: error, as on the one-point grid
    assert constancy_scan(model, grid).verdict == "error"
    for scan in (orthogonality_scan, inclusion_scan):
        got, want = scan(model, grid), scan(model, single)
        assert (got.verdict, repr(got.max_residual), got.witness) == \
            (want.verdict, repr(want.max_residual), want.witness)


def test_the_pinned_grids_hold_no_repeated_points():
    for grid, count in ((Grid.default(), 66), (DENSE_GRID, 310), (SMALL_GRID, 9)):
        assert len(grid.lambdas_upper) == len(grid.lambdas_lower) == count


def test_grid_rejects_real_points():
    with pytest.raises(ValueError):
        Grid((1.0 + 0j,), (-1j,))
    with pytest.raises(ValueError):
        Grid((), (-1j,))


@pytest.mark.parametrize("upper, lower", [
    ((complex(0.0, math.nan),), (-1j,)),
    ((complex(math.inf, 1.0),), (-1j,)),
    ((1j, complex(0.0, math.inf)), (-1j,)),
    ((1j,), (complex(math.nan, -1.0),)),
    ((1j,), (complex(0.0, -math.inf),)),
], ids=["upper-nan-im", "upper-inf-re", "upper-inf-im", "lower-nan-re", "lower-inf-im"])
def test_grid_rejects_points_that_are_not_finite(upper, lower):
    with pytest.raises(ValueError, match="grid points must be finite"):
        Grid(upper, lower)


@pytest.mark.parametrize("re, im", [([math.nan], [1.0]), ([0.0], [math.nan]),
                                    ([-math.inf], [1.0]), ([0.0, 1.0], [1.0, math.inf])],
                         ids=["re-nan", "im-nan", "re-minus-inf", "im-inf"])
def test_grid_from_axes_rejects_values_that_are_not_finite(re, im):
    with pytest.raises(ValueError, match="grid points must be finite"):
        Grid.from_axes(re, im)


# -- individual scans ------------------------------------------------------------


def test_momentum_scans_all_zero():
    mom = MomentumModel()
    assert orthogonality_scan(mom, SMALL_GRID).max_residual == 0
    assert constancy_scan(mom, SMALL_GRID).max_residual == 0
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
    result = constancy_scan(model, SMALL_GRID)
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
        assert constancy_scan(model, SMALL_GRID).verdict == "pass"
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
        defects = DefectFamily(lambda z: (3.7 - 1.2j) * base.defects(z), base.triplet)

        @staticmethod
        def describe():
            return "scaled"

    for scan in (orthogonality_scan, inclusion_scan):
        assert scan(Scaled(), SMALL_GRID).verdict == scan(base, SMALL_GRID).verdict
    ref = constancy_scan(base, SMALL_GRID)
    got = constancy_scan(Scaled(), SMALL_GRID)
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
            lambda z: mom.defects(z) if z.imag > 0 else mom.defects(z) + leak, mom.triplet)

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
        defects = DefectFamily(flaky, mom.triplet)

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
    """``base`` with its defect vectors or its triplet swapped out; its
    family maps the vectors through its own triplet."""

    class Variant:
        adjoint_apply = staticmethod(base.adjoint_apply)

        @staticmethod
        def describe():
            return name

    Variant.triplet = triplet or base.triplet
    Variant.defects = DefectFamily(defect or base.defects, Variant.triplet)
    return Variant()


def flaky_model():
    mom = MomentumModel()

    def flaky(z):
        # one upper point on each side of a pair, one conj(mu)
        if z in (1j, -2 + 0.5j, 3 - 5j):
            raise RuntimeError(f"synthetic construction failure at {z}")
        return mom.defects(z)

    return variant(mom, "flaky", defect=flaky)


def double_fault_model():
    """gamma_minus raises on f_mu and gamma_plus on f_conj(mu), at mu = i."""
    mom = MomentumModel()
    f_mu, f_conj = mom.defects(1j), mom.defects(-1j)

    def gamma_minus(f, inner_product=None):
        if f == f_mu:
            raise ValueError("no gamma_minus on f_mu")
        return mom.triplet.gamma_minus(f)

    def gamma_plus(f, inner_product=None):
        if f == f_conj:
            raise ValueError("no gamma_plus on f_conj(mu)")
        return mom.triplet.gamma_plus(f)

    trip = BoundaryTriplet(gamma_minus, gamma_plus, mom.triplet.witness)
    return variant(mom, "double-fault", triplet=trip)


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


def nan_boundary_model(base=None):
    base = base or NonlocalModel("I", 1)
    bad = base.defects(3 + 1j)

    def gamma_plus(f, inner_product=None):
        return complex("nan") if f == bad else base.triplet.gamma_plus(f)

    trip = BoundaryTriplet(base.triplet.gamma_minus, gamma_plus, base.triplet.witness)
    return variant(base, "nan-boundary", triplet=trip)


def test_constancy_counts_a_non_finite_theta_as_a_failed_point():
    result = constancy_scan(nan_boundary_model(), SMALL_GRID)
    assert result.failures == ("lambda=3+1i: theta is not finite",)
    assert math.isfinite(result.max_residual)


def test_a_variant_with_a_swapped_triplet_reads_its_own_images():
    base = NonlocalModel("I", 1)
    assert constancy_scan(base, SMALL_GRID).failures == ()  # caches base's images
    result = constancy_scan(nan_boundary_model(base), SMALL_GRID)
    assert result.failures == ("lambda=3+1i: theta is not finite",)


def test_mobius_names_a_non_finite_theta():
    # the map of the NaN theta at 3+i once failed inside numpy's SVD
    with pytest.raises(ValueError, match="^theta is not finite$"):
        cli._run_mobius(nan_boundary_model(), SMALL_GRID, {})


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
    "double-fault": double_fault_model,
}


@pytest.mark.parametrize("make", EQUIVALENCE_MODELS.values(), ids=EQUIVALENCE_MODELS)
def test_batched_inclusion_matches_pairwise_decompose(make):
    model = make()
    got = inclusion_scan(model, SMALL_GRID)
    # repr compares residuals bit for bit and NaN equal to NaN
    assert (got.verdict, repr(got.max_residual), got.witness, got.failures) == \
        pairwise_inclusion(model, SMALL_GRID)


def pairwise_orthogonality(model, grid):
    """Reference orthogonality scan: one scalar ``inner`` per (lambda, nu) pair."""
    worst, witness, failures, evaluated, uppers = 0.0, None, [], 0, []
    for lam in grid.lambdas_upper:
        try:
            uppers.append((lam, (1.0 / model.defects.norm(lam)) * model.defects(lam)))
        except Exception as exc:
            failures.append(f"lambda={format_complex(lam)}: {exc}")
    for nu in grid.lambdas_lower:
        try:
            g = (1.0 / model.defects.norm(nu)) * model.defects(nu)
        except Exception as exc:
            failures.append(f"nu={format_complex(nu)}: {exc}")
            continue
        evaluated += len(uppers)
        for lam, f in uppers:
            val = abs(inner(f, g))
            if val > worst:
                worst = val
                witness = f"lambda={format_complex(lam)}, nu={format_complex(nu)}"
    if not evaluated:
        worst = float("nan")
    verdict = _verdict(worst, PASS_ORTHOGONALITY, evaluated, len(failures))
    return verdict, repr(worst), witness, tuple(failures)


def pairwise_constancy(model, grid):
    """Reference constancy scan: one scalar deviation per pair i < j."""
    values, failures = [], []
    for lam in grid.lambdas_upper:
        try:
            theta = triplets.char_function(model.triplet, model.defects, lam)
        except Exception as exc:
            failures.append(f"lambda={format_complex(lam)}: {exc}")
            continue
        if np.isfinite(theta):
            values.append((lam, theta))
        else:
            failures.append(f"lambda={format_complex(lam)}: theta is not finite")
    worst, witness = 0.0, None
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            dev = abs(values[i][1] - values[j][1])
            if dev > worst:
                worst = dev
                witness = (f"lambda={format_complex(values[i][0])}, "
                           f"mu={format_complex(values[j][0])}")
    if not values:
        worst = float("nan")
    verdict = _verdict(worst, PASS_CONSTANCY, len(values), len(failures))
    return verdict, repr(worst), witness, tuple(failures)


SCAN_CASES = [(name, make, SMALL_GRID) for name, make in EQUIVALENCE_MODELS.items()] + [
    (name, EQUIVALENCE_MODELS[name], grid) for grid in (Grid.default(), DENSE_GRID)
    for name in ("I(1)", "II(1)")]


@pytest.mark.parametrize("make, grid", [case[1:] for case in SCAN_CASES],
                         ids=[f"{case[0]}-{len(case[2].lambdas_upper)}" for case in SCAN_CASES])
def test_gram_scans_match_the_scalar_pair_loops(make, grid):
    model = make()
    scans = ((orthogonality_scan, pairwise_orthogonality),
             (constancy_scan, pairwise_constancy))
    # on the dense grid the scalar orthogonality loop takes ~96k inner calls
    for scan, reference in scans[grid is DENSE_GRID:]:
        got = scan(model, grid)
        # repr compares residuals bit for bit and NaN equal to NaN
        assert (got.verdict, repr(got.max_residual), got.witness, got.failures) == \
            reference(model, grid)


def count_inner_calls(monkeypatch):
    """Count every scalar inner product, under each name it is imported as."""
    calls = Counter()
    original = expfun.inner

    def counted(*args, **kwargs):
        calls["inner"] += 1
        return original(*args, **kwargs)

    for module in (expfun, triplets, models):
        monkeypatch.setattr(module, "inner", counted)
    return calls


def count_boundary_maps(monkeypatch):
    """Count every call of a boundary functional (a native boundary map) and
    every function or row mapped by ``boundary_images``, which evaluates
    the native maps on a batch of them without calling either."""
    calls = Counter()
    original = triplets.BoundaryFunctional.__call__
    images = triplets.boundary_images

    def counted(self, *args, **kwargs):
        calls["maps"] += 1
        return original(self, *args, **kwargs)

    def mapped(triplet, fs):
        calls["batches"] += 1
        calls["mapped"] += len(fs)
        return images(triplet, fs)

    monkeypatch.setattr(triplets.BoundaryFunctional, "__call__", counted)
    monkeypatch.setattr(triplets, "boundary_images", mapped)
    return calls


def test_certificate_takes_scalar_inner_products_only_outside_the_gram(monkeypatch):
    model = NonlocalModel("I", 1)
    calls = count_inner_calls(monkeypatch)
    pso_certificate(model, Grid.default())
    # the 132 norms come from one paired call and the 264 boundary pairings
    # from two gram calls, one per half plane, so no scalar is left; the
    # norms and pairings took 396 scalars, and with the 4356 orthogonality
    # pairings 5016 in all
    assert calls["inner"] == 0


def test_dense_orthogonality_scan_takes_no_scalar_inner_product(monkeypatch):
    model = NonlocalModel("I", 4j)
    calls = count_inner_calls(monkeypatch)
    result = orthogonality_scan(model, DENSE_GRID)
    assert result.verdict == "pass"
    # the 620 norms, once scalars, come from one paired call
    assert calls["inner"] == 0


@pytest.mark.parametrize("model, grid, verdict, expected", [
    (NonlocalModel("I", 4j), DENSE_GRID, "pass", 311),
    (NonlocalModel("I", 4j), Grid.default(), "pass", 67),
    (NonlocalModel("II", 1), DENSE_GRID, "fail", 311),
], ids=["dense", "default", "dense-II(1)"])
def test_orthogonality_scan_evaluates_a_closed_form_per_kind_pair(monkeypatch, model, grid,
                                                                   verdict, expected):
    for z in (*grid.lambdas_upper, *grid.lambdas_lower):
        model.defects.norm(z)  # cached, so the scan's norms take no closed form
    closed_forms = Counter()
    original = expfun._poly_exp_integral

    def counted(*args):
        closed_forms["calls"] += 1
        return original(*args)

    monkeypatch.setattr(expfun, "_poly_exp_integral", counted)
    assert orthogonality_scan(model, grid).verdict == verdict
    # one per entry and overlapping pair of terms would be 192,200 for the
    # dense I(4i) scan and 8,712 for the default one; the vectors share the
    # potential's term kind, and the scan's one Gram call asks for each
    # overlapping pair of kinds once.  The patch replaces the memo inside
    # _poly_exp_integral, so these are calls, not raw evaluations.
    assert closed_forms["calls"] == expected


def test_a_dense_orthogonality_scan_keeps_its_temporaries_small():
    model = NonlocalModel("II", 1)
    orthogonality_scan(model, DENSE_GRID)  # builds and caches the vectors and norms
    tracemalloc.start()
    try:
        orthogonality_scan(model, DENSE_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 310 x 310 result takes 1.5 MB of the 2.5 MB; with a dense (kinds x
    # kinds) table of the pairs' bounds and positions the scan peaks at 4.0 MB
    assert peak <= 3_000_000


def test_a_dense_constancy_scan_keeps_its_temporaries_small():
    model = NonlocalModel("II", 1)
    constancy_scan(model, DENSE_GRID)  # builds and caches the vectors
    tracemalloc.start()
    try:
        constancy_scan(model, DENSE_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 310 x 310 deviations take 0.77 MB, twice that while hypot runs;
    # a fresh hypot output instead of the in-place one peaks at 2.3 MB
    assert peak <= 2_000_000


def test_an_orthogonality_scan_whose_lower_vectors_all_fail_takes_no_gram(monkeypatch):
    base = NonlocalModel("I", 1)

    def upper_only(z):
        if z.imag < 0:
            raise RuntimeError(f"synthetic construction failure at {z}")
        return base.defects(z)

    model = variant(base, "upper-only", defect=upper_only)
    calls = Counter()
    monkeypatch.setattr(psocheck, "gram", lambda *args: calls.update(["gram"]))
    result = orthogonality_scan(model, Grid.default())
    assert calls["gram"] == 0
    assert (result.verdict, repr(result.max_residual), result.witness, result.failures) == \
        pairwise_orthogonality(model, Grid.default())
    assert result.verdict == "error" and len(result.failures) == 66


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
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    inclusion_scan(model, Grid.default())
    assert calls["decompose"] == 0
    assert calls["is_singular"] == 66
    # every regular S(mu) in one stacked solve, not one solve per mu
    assert calls["solve"] == 1
    # pairs whose coefficients are not finite fail without a decompose
    result = inclusion_scan(nan_boundary_model(), SMALL_GRID)
    assert calls["decompose"] == 0
    assert sum("coefficient and exponent must be finite" in f
               for f in result.failures) == 8


def test_inclusion_scan_maps_each_upper_and_conjugate_vector_once(monkeypatch):
    calls = count_boundary_maps(monkeypatch)
    inclusion_scan(NonlocalModel("I", 1), Grid.default())
    # the rows of the 66 upper and the 66 conjugate vectors, one batch each;
    # 264 functional calls, 2 per vector, before the rows were mapped as a
    # batch, and mapping the upper vectors again for each S(mu) made 396
    assert (calls["maps"], calls["batches"], calls["mapped"]) == (0, 2, 132)


@pytest.mark.parametrize("spec", [{"kind": "nonlocal", "case": "I", "alpha": "1"},
                                  {"kind": "momentum"}], ids=["I(1)", "momentum"])
def test_mobius_maps_each_lambda_through_the_native_triplet_once(monkeypatch, spec):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    maps = count_boundary_maps(monkeypatch)
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    report = cli.run_scenario_obj({"name": "mobius", "model": spec, "checks": ["mobius"]})
    assert report["checks"][0]["verdict"] == "pass"
    # the rows of the 66 lambdas in one batch and one solve for all of them
    # (one per lambda made 70 solves), plus 10 functions in 7 batches and 4
    # solves for the defect triplet and the change of basis; 148 functional
    # calls before the maps took batches
    assert (maps["maps"], maps["batches"], maps["mapped"], calls["solve"]) == (0, 8, 76, 5)


def test_a_certificate_maps_each_defect_point_once(monkeypatch):
    calls = count_boundary_maps(monkeypatch)
    pso_certificate(NonlocalModel("I", 1), Grid.default())
    # the rows of the 66 upper and the 66 conjugate vectors, one batch each
    # (264 functional calls before); inclusion mapping the upper vectors
    # again after constancy made 396
    assert (calls["maps"], calls["batches"], calls["mapped"]) == (0, 2, 132)


def test_mobius_reads_the_images_constancy_mapped(monkeypatch):
    calls = count_boundary_maps(monkeypatch)
    report = cli.run_scenario_obj({
        "name": "mix", "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["constancy", "mobius"]})
    assert [c["verdict"] for c in report["checks"]] == ["fail", "pass"]
    # the 66 upper rows in one batch and 10 functions for the defect triplet
    # and the change of basis (148 functional calls before); mobius mapping
    # the upper vectors again made 280
    assert (calls["maps"], calls["batches"], calls["mapped"]) == (0, 8, 76)


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


def test_constancy_with_fewer_than_two_finite_values_compares_nothing():
    model = NonlocalModel("II", 1)  # not a Phillips point
    result = constancy_scan(model, Grid.from_axes([-1], [0.2]))
    assert (result.verdict, result.witness, result.failures) == ("error", None, ())
    assert math.isnan(result.max_residual)
    assert constancy_scan(model, Grid.from_axes([-1, 1], [0.2])).verdict == "fail"


def test_inclusion_scan_records_a_norm_that_overflows_as_failed_points():
    model = NonlocalModel("II", 1.2e154)
    grid = Grid.from_axes([-1], [0.2])
    result = inclusion_scan(model, grid)
    assert result.verdict == "error" and math.isnan(result.max_residual)
    assert result.failures == (
        "lambda=-1+0.2i, mu=-1+0.2i: defect vector norm is not finite",)
    assert pso_certificate(model, grid).overall == "error"


def test_no_scan_raises_at_a_defect_vector_of_norm_zero():
    model = NonlocalModel("II", 2j)
    grid = Grid.from_axes([0.0, 1e-9], [1.0, 0.5])  # 1e-9+1i has norm 0
    cert = pso_certificate(model, grid)
    for check in ("orthogonality", "inclusion"):
        entry = cert.entry(check)
        assert entry.verdict == "inconclusive"
        assert any(f.startswith("lambda=1e-09+1i") and f.endswith("norm is zero")
                   for f in entry.failures)
    assert cert.entry("constancy").verdict == "pass"


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


@pytest.mark.parametrize("theta,t", [([[np.nan]], [[0.0]]), ([[0.0]], [[np.nan]])],
                         ids=["nan-theta", "nan-T"])
def test_classify_rejects_a_non_finite_theta_or_t_first(theta, t):
    # before theta's norm, whose SVD raises LinAlgError on a NaN
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        classify_spectrum(theta, t)


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
