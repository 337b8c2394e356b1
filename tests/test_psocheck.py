import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from families import degenerate_model, pointwise_family, variant

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
from psokit.tolerances import (DECOMPOSE_SINGULAR_TOL, FAIL_THRESHOLD, PASS_CONSTANCY,
                               PASS_INCLUSION, PASS_ORTHOGONALITY)
from psokit.triplets import BoundaryTriplet

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


def test_the_default_grid_is_built_once():
    # a grid is immutable, so every caller without a grid shares one
    assert Grid.default() is Grid.default()
    assert Grid.default() == Grid.from_axes(psocheck.DEFAULT_RE, psocheck.DEFAULT_IM)


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
        defects = pointwise_family(lambda z: (3.7 - 1.2j) * base.defects(z), base.triplet)

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
        defects = pointwise_family(
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
        defects = pointwise_family(flaky, mom.triplet)

        @staticmethod
        def describe():
            return "flaky"

    grid = Grid((1j, 2j), (-1j, -2j))
    result = orthogonality_scan(Flaky(), grid)
    assert result.verdict == "inconclusive"
    assert len(result.failures) == 1
    assert "nu=-2i" in result.failures[0]


# -- failing closed and the batched inclusion scan ----------------------------------


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

    def gamma_minus(f):
        if f == f_mu:
            raise ValueError("no gamma_minus on f_mu")
        return mom.triplet.gamma_minus(f)

    def gamma_plus(f):
        if f == f_conj:
            raise ValueError("no gamma_plus on f_conj(mu)")
        return mom.triplet.gamma_plus(f)

    trip = BoundaryTriplet(gamma_minus, gamma_plus, mom.triplet.witness)
    return variant(mom, "double-fault", triplet=trip)


def raising_model():
    def broken(z):
        raise ValueError("broken defect family")

    return variant(MomentumModel(), "raising", defect=broken)


def gamma_raising_model():
    mom = MomentumModel()
    bad = mom.defects(1j)

    def gamma_plus(f):
        if f == bad:
            raise ValueError("no boundary value on this vector")
        return mom.triplet.gamma_plus(f)

    trip = BoundaryTriplet(mom.triplet.gamma_minus, gamma_plus, mom.triplet.witness)
    return variant(mom, "gamma-raising", triplet=trip)


def nan_boundary_model(base=None):
    base = base or NonlocalModel("I", 1)
    bad = base.defects(3 + 1j)

    def gamma_plus(f):
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
    """Reference inclusion scan: each point checked alone in each role, then
    one ``decompose`` per (lambda, mu) pair of points that did not fail."""
    lams, failures, lam_norms, conj_norms = grid.lambdas_upper, [], {}, {}
    for lam in lams:
        try:
            f = model.defects(lam)
            triplets.require_maximal_domain(f)
            norm = model.defects.norm(lam)
            if not np.isfinite(model.triplet.images(f)).all():
                raise ValueError("boundary images are not finite")
            lam_norms[lam] = norm
        except Exception as exc:
            failures.append(f"lambda={format_complex(lam)}: {exc}")
    for mu in lams:
        try:
            model.triplet.images(model.defects(mu))
            n_conj = model.defects.norm(mu.conjugate())
            system = model.triplet.images(model.defects(mu), model.defects(mu.conjugate()))
            triplets.require_regular_system(matops.require_finite(system))
            conj_norms[mu] = n_conj
        except Exception as exc:
            failures.append(f"mu={format_complex(mu)}: {exc}")
    worst, witness, evaluated = 0.0, None, 0
    for mu, n_conj in conj_norms.items():
        for lam, norm in lam_norms.items():
            pair = f"lambda={format_complex(lam)}, mu={format_complex(mu)}"
            try:
                _, b, _ = triplets.decompose(model, model.defects(lam), mu)
                val = abs(b) * n_conj / norm
            except ValueError as exc:  # a or b is not finite, so f - a f_mu fails
                assert str(exc) == "coefficient and exponent must be finite"
                val = math.nan
            if not math.isfinite(val):
                failures.append(f"{pair}: coefficient is not finite")
                continue
            evaluated += 1
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


def test_a_dense_scan_pair_packs_each_batch_once_and_builds_no_function(monkeypatch):
    model = NonlocalModel("II", 1)
    packed, wrapped = [], []
    pack_terms, from_row = expfun.pack_terms, vars(expfun.PiecewiseExpFunction)["from_row"]

    def counted_pack(*parts):
        packed.append(len(parts[0]))
        return pack_terms(*parts)

    def counted_wrap(cls, row):
        wrapped.append(row)
        return from_row.__func__(cls, row)

    monkeypatch.setattr(expfun, "pack_terms", counted_pack)
    monkeypatch.setattr(expfun.PiecewiseExpFunction, "from_row", classmethod(counted_wrap))
    assert orthogonality_scan(model, DENSE_GRID).verdict == "fail"
    assert constancy_scan(model, DENSE_GRID).verdict == "fail"
    # the family's one batch of 620 vectors, and the potential, which the
    # images pair with each upper vector; norms, the scaled halves and the
    # images read slices of the batch's pack, and no vector becomes a function
    assert packed == [620, 1]
    assert wrapped == []


def test_a_dense_orthogonality_scan_keeps_its_temporaries_small():
    model = NonlocalModel("II", 1)
    orthogonality_scan(model, DENSE_GRID)  # builds and caches the vectors and norms
    tracemalloc.start()
    try:
        orthogonality_scan(model, DENSE_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Gram kernel peaks at 2.5 MB, 1.5 MB of it the 310 x 310 result; the
    # reducer's blocks then take 0.65 MB beside the result, and hypot on the
    # whole result took 0.77 MB.  With a dense (kinds x kinds) table of the
    # pairs' bounds and positions the scan peaked at 4.0 MB.
    assert peak <= 2_900_000


def test_a_dense_constancy_scan_keeps_its_temporaries_small():
    model = NonlocalModel("II", 1)
    constancy_scan(model, DENSE_GRID)  # builds and caches the vectors
    tracemalloc.start()
    try:
        constancy_scan(model, DENSE_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the deviations of one block of SCAN_BLOCK pairs and their estimates
    # peak at 1.2 MB; the whole 310 x 310 deviation matrix and its hypot,
    # taken in place, peaked at 1.7 MB
    assert peak <= 1_500_000


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
    for name in ("is_singular", "is_singular_2x2", "solve_2x2", "second_unknown_2x2"):
        monkeypatch.setattr(matops, name, counted(name, getattr(matops, name)))
    for name in ("solve", "inv", "svd"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    inclusion_scan(model, Grid.default())
    assert calls["decompose"] == 0
    # every S(mu) in one closed-form singularity test of the stack, not one
    # test per mu; it was one stacked SVD, through is_singular
    assert calls["is_singular_2x2"] == 1
    # b of every regular S(mu) in one closed-form solve, not one solve per mu;
    # it was one stacked np.linalg.solve of a and b
    assert (calls["second_unknown_2x2"], calls["solve_2x2"]) == (1, 0)
    # no S(mu) reaches LAPACK
    assert calls["is_singular"] == calls["solve"] == calls["inv"] == calls["svd"] == 0
    # a point whose images are not finite fails without a decompose
    result = inclusion_scan(nan_boundary_model(), SMALL_GRID)
    assert calls["decompose"] == 0
    assert result.failures == ("lambda=3+1i: boundary images are not finite",
                               "mu=3+1i: matrix entries must be finite")


@pytest.mark.parametrize("model, moduli", [
    (NonlocalModel("I", 4j), {"orthogonality": 7, "constancy": 0}),
    (NonlocalModel("II", 1), {"orthogonality": 3, "constancy": 4}),
], ids=["I(4i)", "II(1)"])
def test_a_dense_scan_takes_the_exact_modulus_of_few_entries(monkeypatch, model, moduli):
    for scan in (orthogonality_scan, constancy_scan):
        scan(model, DENSE_GRID)  # builds and caches the vectors, norms and images
    counted = Counter()
    hypot = np.hypot

    def counting(*args, **kwargs):
        counted["moduli"] += np.broadcast(*args[:2]).size
        return hypot(*args, **kwargs)

    monkeypatch.setattr(np, "hypot", counting)
    for scan in (orthogonality_scan, constancy_scan):
        counted.clear()
        scan(model, DENSE_GRID)
        # np.hypot on every entry of the 310 x 310 matrix took 96,100 per scan
        assert counted["moduli"] == moduli[scan.__name__.split("_")[0]]


def looped_inclusion_scan(model, grid):
    """Reference: inclusion_scan as it tested each S(mu) with its own
    singularity test, one SVD per mu, point by point."""
    lams = grid.lambdas_upper
    n = len(lams)
    labels = [format_complex(lam) for lam in lams]
    family = model.defects
    norms = family.norms_at([*lams, *(lam.conjugate() for lam in lams)])
    rhs, rhs_errors = psocheck.native_images(model, lams)
    conj, conj_errors = psocheck.native_images(model, [lam.conjugate() for lam in lams])
    systems = np.stack([rhs.T, conj.T], axis=2)
    failures, lam_norms, conj_norms, regular = [], np.ones(n), np.ones(n), []
    excluded = np.zeros((n, n), dtype=bool)
    for j, domain_error in enumerate(family.domain_errors_at(lams)):
        try:
            for entry in (domain_error, norms[j], rhs_errors[j]):
                if isinstance(entry, Exception):
                    raise entry
            if not np.isfinite(rhs[:, j]).all():
                raise ValueError("boundary images are not finite")
            lam_norms[j] = norms[j]
        except Exception as exc:
            failures.append(f"lambda={labels[j]}: {exc}")
            excluded[:, j] = True
    for i in range(n):
        try:
            for entry in (rhs_errors[i], norms[n + i], conj_errors[i]):
                if isinstance(entry, Exception):
                    raise entry
            if matops.is_singular(matops.require_finite(systems[i]), DECOMPOSE_SINGULAR_TOL):
                raise ValueError("decomposition system is singular for this mu")
            conj_norms[i] = norms[n + i]
            regular.append(i)
        except Exception as exc:
            failures.append(f"mu={labels[i]}: {exc}")
            excluded[i] = True
    coeffs = np.full((n, 2, n), np.nan, dtype=complex)
    # the closed-form solve, whose bits, unlike LAPACK's, do not depend on the host
    coeffs[regular] = matops.solve_2x2(systems[regular], rhs)
    coeffs[:, 1][~np.isfinite(coeffs[:, 0])] = np.nan
    vals = np.hypot(coeffs[:, 1].real, coeffs[:, 1].imag) * conj_norms[:, None] / lam_norms
    return matrix_scan_result("inclusion", vals, PASS_INCLUSION,
                              lambda mu, lam: f"lambda={labels[lam]}, mu={labels[mu]}",
                              failures, excluded=excluded, what="coefficient")[0]


def zero_column_model():
    """I(1) with both boundary maps 0 on the defect vector at 3 - i, so S(3 + i)
    has a zero column: exactly singular."""
    base = NonlocalModel("I", 1)
    bad = base.defects(3 - 1j)

    def gamma(native):
        return lambda f: 0j if f == bad else native(f)

    trip = BoundaryTriplet(gamma(base.triplet.gamma_minus), gamma(base.triplet.gamma_plus),
                           base.triplet.witness)
    return variant(base, "zero-column", triplet=trip)


def scan_outcome(result):
    # repr compares residuals bit for bit and NaN equal to NaN
    return result.verdict, repr(result.max_residual), result.witness, result.failures


@pytest.mark.parametrize("make", [degenerate_model, nan_boundary_model, zero_column_model,
                                  lambda: NonlocalModel("I", 1), lambda: NonlocalModel("II", 2j)],
                         ids=["degenerate", "nan-boundary", "zero-column", "I(1)", "II(2i)"])
@pytest.mark.parametrize("grid", [SMALL_GRID, Grid.default()], ids=["small", "default"])
def test_the_stacked_singularity_test_fails_each_mu_as_the_loop_did(make, grid):
    got, want = inclusion_scan(make(), grid), looped_inclusion_scan(make(), grid)
    assert scan_outcome(got) == scan_outcome(want)


@pytest.mark.parametrize("make, lines", [
    (flaky_model, 5), (degenerate_model, 66), (nan_boundary_model, 2),
    (gamma_raising_model, 2), (double_fault_model, 2), (raising_model, 132)],
    ids=["flaky", "degenerate", "nan-boundary", "gamma-raising", "double-fault", "raising"])
def test_each_failed_point_is_listed_once_per_role(make, lines):
    # one line per failing pair made 259, 4356, 131, 131, 131 and 66
    failures = inclusion_scan(make(), Grid.default()).failures
    assert len(failures) == len(set(failures)) == lines
    assert all(f.startswith(("lambda=", "mu=")) and ", mu=" not in f for f in failures)


def test_each_failing_system_keeps_its_own_text():
    # S(3 + i) fails its own mu, listed once, and no other mu; the NaN image
    # also fails the vector at 3 + i as a lambda
    expected = {nan_boundary_model: ("lambda=3+1i: boundary images are not finite",
                                     "mu=3+1i: matrix entries must be finite"),
                zero_column_model: ("mu=3+1i: decomposition system is singular for this mu",)}
    for make, failures in expected.items():
        result = inclusion_scan(make(), SMALL_GRID)
        assert result.failures == failures
        assert result.verdict != "pass"


def test_a_nan_from_the_kernel_for_one_system_fails_only_that_mu(monkeypatch):
    model = NonlocalModel("I", 1)
    mu = 3 + 1j
    target = np.array([model.defects.images(mu), model.defects.images(mu.conjugate())]).T
    clean = inclusion_scan(model, SMALL_GRID)
    singular_values = matops._scaled_singular_values

    def nan_for_target(s):
        smin, smax, e = singular_values(s)
        hit = (np.asarray(s) == target).all(axis=(-2, -1)).reshape(-1)
        return np.where(hit, np.nan, smin), smax, e

    monkeypatch.setattr(matops, "_scaled_singular_values", nan_for_target)
    got = inclusion_scan(model, SMALL_GRID)
    # a NaN singular value reads as singular, in one test of the stack; the
    # other systems keep their verdicts, and the worst pair is not at mu
    assert got.failures == ("mu=3+1i: decomposition system is singular for this mu",)
    assert "mu=3+1i" not in clean.witness
    assert (got.max_residual, got.witness) == (clean.max_residual, clean.witness)
    assert clean.verdict == "fail" and got.verdict == "fail"


def test_inclusion_scan_maps_each_upper_and_conjugate_vector_once(monkeypatch):
    calls = count_boundary_maps(monkeypatch)
    inclusion_scan(NonlocalModel("I", 1), Grid.default())
    # the rows of the 66 upper and the 66 conjugate vectors in one batch (one
    # batch each made 2); 264 functional calls, 2 per vector, before the rows
    # were mapped as a batch, and mapping the upper vectors again for each
    # S(mu) made 396
    assert (calls["maps"], calls["batches"], calls["mapped"]) == (0, 1, 132)


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
    monkeypatch.setattr(matops, "solve_2x2", counted("solve_2x2", matops.solve_2x2))
    report = cli.run_scenario_obj({"name": "mobius", "model": spec, "checks": ["mobius"]})
    assert report["checks"][0]["verdict"] == "pass"
    # the rows of mu, conj(mu) and the 66 lambdas in one batch (67 rows, as
    # mu = i is a grid point); one solve maps them all into the defect
    # triplet and a second gives K.  Before: 4 batches of 72 rows and 3
    # solves while the change of basis mapped and solved mu's vectors
    # itself; 70 solves with one per lambda; 148 functional calls before the
    # maps took batches; 8 batches of 76 rows and 5 LAPACK solves while the
    # change of basis mapped its vectors through the defect triplet one map
    # and vector at a time and took K by an inverse
    assert (maps["maps"], maps["batches"], maps["mapped"]) == (0, 1, 67)
    assert (calls["solve"], calls["solve_2x2"]) == (0, 2)


def test_a_certificate_maps_each_defect_point_once(monkeypatch):
    calls = count_boundary_maps(monkeypatch)
    pso_certificate(NonlocalModel("I", 1), Grid.default())
    # the rows of the 66 upper and the 66 conjugate vectors in one batch,
    # mapped by inclusion, whose images constancy reads; constancy's batch of
    # the upper rows, then inclusion's of the conjugate ones, made 2 batches,
    # 264 functional calls before them, and inclusion mapping the upper
    # vectors again after constancy 396
    assert (calls["maps"], calls["batches"], calls["mapped"]) == (0, 1, 132)


@pytest.mark.parametrize("make", EQUIVALENCE_MODELS.values(), ids=EQUIVALENCE_MODELS)
def test_a_certificate_gives_each_scan_the_record_it_gives_alone(make):
    # inclusion runs before constancy and maps both half planes in one batch;
    # check by check, the records are those of each scan on a fresh model
    cert = pso_certificate(make(), SMALL_GRID)
    alone = [scan(make(), SMALL_GRID)
             for scan in (orthogonality_scan, constancy_scan, inclusion_scan)]
    assert [c.check_id for c in cert.checks] == ["orthogonality", "constancy", "inclusion"]
    assert [scan_outcome(c) for c in cert.checks] == [scan_outcome(r) for r in alone]


def test_mobius_reads_the_images_constancy_mapped(monkeypatch):
    calls = count_boundary_maps(monkeypatch)
    report = cli.run_scenario_obj({
        "name": "mix", "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
        "checks": ["constancy", "mobius"]})
    assert [c["verdict"] for c in report["checks"]] == ["fail", "pass"]
    # constancy's batch of the 66 upper rows, among them mu = i, and
    # mobius's of conj(mu), the one row it does not find in the table.
    # Before: 4 batches of 72 rows with 6 functions in 3 batches for the
    # defect triplet and the change of basis; 148 functional calls before
    # the maps took batches; 280 with mobius mapping the upper vectors
    # again; 8 batches of 76 rows with the change of basis mapping its
    # vectors through the defect triplet one per map and vector
    assert (calls["maps"], calls["batches"], calls["mapped"]) == (0, 2, 67)


def test_degenerate_triplet_is_an_error_not_a_pass():
    model = degenerate_model()
    result = inclusion_scan(model, SMALL_GRID)
    assert result.verdict == "error"
    # every mu fails, once, and no lambda does
    assert result.failures == tuple(
        f"mu={format_complex(mu)}: decomposition system is singular for this mu"
        for mu in SMALL_GRID.lambdas_upper)
    cert = pso_certificate(model, SMALL_GRID)
    assert cert.entry("orthogonality").verdict == "pass"
    assert cert.entry("constancy").verdict == "pass"
    assert cert.overall == "error"


def test_raising_defect_family_errors_every_check():
    cert = pso_certificate(raising_model(), SMALL_GRID)
    assert [c.verdict for c in cert.checks] == ["error"] * 3
    # each point fails as a lambda and as a nu or mu, once each
    assert [len(c.failures) for c in cert.checks] == [18, 9, 18]
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
        "lambda=-1+0.2i: defect vector norm is not finite",
        "mu=-1+0.2i: decomposition system is singular for this mu")
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


@pytest.mark.parametrize("entries, verdict", [((3, 5), "inconclusive"), ((), "error")],
                         ids=["one-entry", "every-entry"])
def test_a_pairing_that_is_not_finite_is_a_failed_pair(monkeypatch, entries, verdict):
    grid = Grid.default()
    gram = psocheck.gram

    def poisoned(*args):
        out = gram(*args)
        out[entries or ...] = complex(np.nan, np.nan)  # rows lambda, columns nu
        return out

    monkeypatch.setattr(psocheck, "gram", poisoned)
    result = orthogonality_scan(NonlocalModel("I", 4j), grid)
    assert result.verdict == verdict
    if entries:
        lam, nu = grid.lambdas_upper[3], grid.lambdas_lower[5]
        assert result.failures == (
            f"lambda={format_complex(lam)}, nu={format_complex(nu)}: pairing is not finite",)
        assert 0 < result.max_residual <= PASS_ORTHOGONALITY
    else:
        assert len(result.failures) == 66 * 66
        assert math.isnan(result.max_residual) and result.witness is None


def test_a_deviation_that_is_not_finite_is_a_failed_pair(monkeypatch):
    # theta values near the largest float: their difference overflows
    values = [complex(1e308, 0.0), complex(-1e308, 0.0), 0j]
    monkeypatch.setattr(psocheck, "char_values",
                        lambda model, lams: (list(lams[:3]), values, []))
    grid = Grid.default()
    result = constancy_scan(NonlocalModel("I", 4j), grid)
    lams = [format_complex(lam) for lam in grid.lambdas_upper[:3]]
    assert result.failures == (f"lambda={lams[0]}, mu={lams[1]}: deviation is not finite",)
    assert result.verdict == "fail" and result.max_residual == 1e308


# -- the worst-entry reducer ------------------------------------------------------------


def matrix_scan_result(check_id, residuals, tolerance, name, failures, excluded=None,
                       what="residual"):
    """Reference worst-entry rule: the scans' rule when each formed its whole
    matrix of moduli, ``np.hypot`` on every entry, in witness order.

    ``excluded`` masks the entries the scan leaves out; every other entry
    that is not finite is a failed entry; the worst evaluated entry is the
    first strictly largest one in C order.  Returns the result and the
    number of entries evaluated.
    """
    left_out = ~np.isfinite(residuals)
    if excluded is not None:
        left_out &= ~excluded
    failures = failures + [f"{name(*entry)}: {what} is not finite"
                           for entry in np.argwhere(left_out).tolist()]
    if excluded is not None:
        left_out |= excluded
    residuals[left_out] = np.nan
    evaluated = residuals.size - int(np.count_nonzero(left_out))
    worst = float(np.fmax.reduce(residuals, axis=None, initial=0.0))
    witness = None
    if worst > 0:
        first = int(np.argmax(residuals == worst))
        witness = name(*np.unravel_index(first, residuals.shape))
    if not evaluated:
        worst = float("nan")
    verdict = _verdict(worst, tolerance, evaluated, len(failures))
    return psocheck.CheckResult(check_id, verdict, worst, tolerance, witness,
                                tuple(failures)), evaluated


#: parts of moduli 25 and 5 exactly, whose estimates differ in the last bits
PYTHAGOREAN = ((15.0, 20.0), (20.0, 15.0), (7.0, 24.0), (24.0, 7.0), (25.0, 0.0), (0.0, 25.0),
               (3.0, 4.0), (5.0, 0.0))


def random_parts(rng, size, regime):
    """The real and imaginary parts of ``size`` entries of one regime: a
    spread of magnitudes from 1e-320 to 1e308, a pool of a few parts (exact
    ties), parts a few units of roundoff apart, points of a circle (moduli a
    few units apart, whose estimates order them otherwise), Pythagorean
    parts times a power of two (exact ties of different parts), only zeros,
    or only subnormals; signs and zeros of either sign mixed in."""
    if regime == "circle":  # moduli a few units of roundoff apart, parts far apart
        angle = rng.uniform(0, 2 * np.pi, size)
        radius = 10.0 ** rng.uniform(-300, 300) * (1 + rng.integers(-2, 3, size) * 2.0 ** -52)
        return radius * np.cos(angle), radius * np.sin(angle)
    if regime == "pythagorean":
        parts = np.array(PYTHAGOREAN)[rng.integers(len(PYTHAGOREAN), size=size)]
        parts *= rng.choice([-1.0, 1.0], (size, 2)) * 2.0 ** rng.integers(-1070, 1020)
        return parts[:, 0].copy(), parts[:, 1].copy()
    return tuple(random_part(rng, size, regime) for _ in range(2))


def random_part(rng, size, regime):
    if regime == "zeros":
        return rng.choice([0.0, -0.0], size)
    if regime == "subnormal":  # a few to 2**52 units of the smallest subnormal
        most = 2 ** int(rng.integers(1, 53))
        return rng.integers(-most, most + 1, size) * np.finfo(float).smallest_subnormal
    if regime == "close":
        ulps = rng.integers(-4, 5, size) * np.finfo(float).eps
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300) * (1 + ulps)
    low, high = sorted(rng.uniform(-320, 308.2, 2))
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(low, high, size)
    if regime == "pool":
        values = rng.choice(values[:rng.integers(1, 4)] if size else values, size)
    values[rng.random(size) < 0.1] = rng.choice([0.0, -0.0])
    return values


def spoil(rng, re, im, share):
    """Put a NaN, an inf or a part whose modulus overflows into about
    ``share`` of the entries, in either part."""
    for at in np.flatnonzero(rng.random(re.size) < share):
        kind = rng.integers(4)
        target = re if rng.integers(2) else im
        if kind < 3:
            target.flat[at] = (np.nan, np.inf, -np.inf)[kind]
        else:
            re.flat[at], im.flat[at] = 1.5e308, -1.5e308


def complex_of(re, im):
    """The complex array with these parts, an inf part kept as it is."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def reducer_case(seed, mode, shape, regime, share):
    """The reference result and the reducer's, with the evaluated counts,
    for one residual matrix of a scan mode: rows (row-major), columns
    (orthogonality's transposed order), pairs (constancy's i < j of
    differences of finite values) or scales (inclusion's norm scales, with
    left-out rows and columns)."""
    rng = np.random.default_rng(seed)
    rows, cols = shape
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "pairs":
            values = random_parts(rng, rows, regime)
            for part in values:  # values near the largest float, whose differences overflow
                big = rng.random(rows) < share
                part[big] = rng.choice([1e308, -1e308], np.count_nonzero(big))
            re, im = (v[:, None] - v for v in values)
            excluded = np.tri(rows, dtype=bool)
            name = lambda i, j: f"{i},{j}"  # noqa: E731
            got = psocheck.worst_entry((rows, rows), lambda r, c: complex_of(re, im)[r, c],
                                       pairs=True)
            want = matrix_scan_result("c", np.hypot(re, im), PASS_CONSTANCY, name, [],
                                      excluded=excluded)
        else:
            re, im = (part.reshape(shape) for part in random_parts(rng, rows * cols, regime))
            spoil(rng, re, im, share)
            if mode == "scales":
                lo, hi = sorted(rng.uniform(-300, 300, 2) if rng.integers(4) == 0
                                else rng.uniform(-3, 3, 2))
                row_scale, col_scale = (10.0 ** rng.uniform(lo, hi, n) for n in shape)
                kept_rows = np.flatnonzero(rng.random(rows) < 0.8)
                kept_cols = np.flatnonzero(rng.random(cols) < 0.8)
                excluded = np.ones(shape, dtype=bool)
                excluded[np.ix_(kept_rows, kept_cols)] = False
                cut = np.ix_(kept_rows, kept_cols)
                sub = complex_of(re[cut], im[cut])
                got = psocheck.worst_entry(sub.shape, lambda r, c: sub[r, c],
                                           scales=(row_scale[kept_rows], col_scale[kept_cols]))
                at = lambda r, c: (int(kept_rows[r]), int(kept_cols[c]))  # noqa: E731
                got = psocheck.WorstEntry(tuple(at(*entry) for entry in got.failed),
                                          got.evaluated, got.worst,
                                          got.witness and at(*got.witness))
                name = lambda i, j: f"{i},{j}"  # noqa: E731
                moduli = np.hypot(re, im) * np.where(excluded.all(axis=1), 1.0, row_scale)[:, None]
                moduli /= np.where(excluded.all(axis=0), 1.0, col_scale)
                want = matrix_scan_result("i", moduli, PASS_INCLUSION, name, [], excluded=excluded)
            elif mode == "columns":
                got = psocheck.worst_entry(shape, lambda r, c: complex_of(re, im)[r, c],
                                           by_column=True)
                name = lambda nu, lam: f"{lam},{nu}"  # noqa: E731
                want = matrix_scan_result("o", np.hypot(re, im).T, PASS_ORTHOGONALITY, name, [])
            else:
                got = psocheck.worst_entry(shape, lambda r, c: complex_of(re, im)[r, c])
                name = lambda i, j: f"{i},{j}"  # noqa: E731
                want = matrix_scan_result("o", np.hypot(re, im), PASS_ORTHOGONALITY, name, [])
    flip = (lambda r, c: name(c, r)) if mode == "columns" else name
    result = psocheck._scan_result(want[0].check_id, want[0].tolerance, got, flip, [],
                                   "residual")
    return scan_outcome(want[0]) + (want[1],), scan_outcome(result) + (got.evaluated,)


REDUCER_MODES = ("rows", "columns", "pairs", "scales")
REDUCER_REGIMES = ("spread", "pool", "close", "circle", "pythagorean", "zeros", "subnormal")


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (1, 1), (66, 66), (310, 310), (7, 3)],
                         ids=["0x4", "4x0", "1x1", "66x66", "310x310", "7x3"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(REDUCER_MODES),
       regime=st.sampled_from(REDUCER_REGIMES), share=st.sampled_from([0.0, 0.0, 0.001, 0.2]))
@example(seed=1, mode="pairs", regime="pool", share=0.0)
@example(seed=2, mode="columns", regime="pool", share=0.0)
@example(seed=3, mode="scales", regime="subnormal", share=0.2)
@example(seed=4, mode="pairs", regime="spread", share=0.2)
@example(seed=10, mode="scales", regime="spread", share=0.0)  # norm scales 1e-300 to 1e300
def test_the_reducer_finds_what_the_whole_matrix_rule_finds(shape, seed, mode, regime, share):
    if mode == "pairs":
        shape = (shape[0], shape[0])
    want, got = reducer_case(seed, mode, shape, regime, share)
    assert got == want


@pytest.mark.parametrize("by_column", [False, True], ids=["rows", "columns"])
def test_a_tie_across_blocks_goes_to_the_first_entry_in_scan_order(by_column):
    rows = psocheck.SCAN_BLOCK // 41 + 1  # the last row is a block of its own
    entries = np.full((rows, 41), 0.5 + 0j)
    entries[0, 5] = entries[rows - 1, 0] = 1j
    got = psocheck.worst_entry(entries.shape, lambda r, c: entries[r, c], by_column=by_column)
    first = (rows - 1, 0) if by_column else (0, 5)
    assert got == psocheck.WorstEntry((), rows * 41, 1.0, first)


@pytest.mark.parametrize("mode", REDUCER_MODES)
def test_a_part_whose_modulus_overflows_stays_a_failed_entry(mode):
    # finite parts (1.5e308, 1.5e308), whose modulus overflows, at (1, 2)
    entries = np.zeros((3, 3), dtype=complex)
    entries[1, 2], entries[2, 0] = complex(1.5e308, 1.5e308), 0.5
    failed, witness = ((1, 2),), (2, 0)
    if mode == "pairs":  # v_0 - v_2 and v_1 - v_2 overflow, and so do their mirrors
        v = np.array([0, 0.5, complex(-1.3e308, -1.3e308)])
        entries = v[:, None] - v
        failed, witness = ((0, 2), (1, 2)), (0, 1)
    got = psocheck.worst_entry((3, 3), lambda r, c: entries[r, c],
                               by_column=mode == "columns", pairs=mode == "pairs",
                               scales=(np.ones(3), np.ones(3)) if mode == "scales" else None)
    assert got == psocheck.WorstEntry(failed, (3 if mode == "pairs" else 9) - len(failed), 0.5,
                                      witness)


# -- the scan verdict rule at its boundaries ---------------------------------------------


@pytest.mark.parametrize("pass_tol", [PASS_ORTHOGONALITY, PASS_CONSTANCY, PASS_INCLUSION])
@pytest.mark.parametrize("failed", [0, 3])
def test_the_scan_verdict_at_each_boundary(pass_tol, failed):
    capped = "inconclusive" if failed else "pass"  # a failed point caps a pass
    table = [
        (pass_tol, capped),
        (math.nextafter(pass_tol, math.inf), "inconclusive"),
        (math.nextafter(FAIL_THRESHOLD, -math.inf), "inconclusive"),
        (FAIL_THRESHOLD, "fail"),
        (0.05, "fail"),
        (math.nan, "inconclusive"),
        (math.inf, "fail"),
        # a residual is a modulus, never negative; the rule reads -inf as
        # below every tolerance
        (-math.inf, capped),
    ]
    assert [(r, _verdict(r, pass_tol, 66, failed)) for r in dict(table)] == table


# -- spectrum classification ----------------------------------------------------------


def test_classify_fixtures():
    assert classify_spectrum([[0.0]], [[1.0]]) == SpectrumClass.REAL_LINE
    assert classify_spectrum([[0.0]], [[0.0]]) == SpectrumClass.REAL_PLUS_UPPER
    assert classify_spectrum([[0.5]], [[0.5]]) == SpectrumClass.REAL_PLUS_UPPER
    assert classify_spectrum([[0.5]], [[2.0]]) == SpectrumClass.REAL_PLUS_LOWER
    theta = np.diag([0.5, 0.0])
    t = np.diag([2.0, 0.0])
    assert classify_spectrum(theta, t) == SpectrumClass.WHOLE_PLANE


def test_classify_takes_the_adjoint_of_a_complex_theta():
    # I - conj(0.5i) 2i = 0 is singular; without the conjugate, I - 0.5i 2i = 2
    assert classify_spectrum(0.5j, 2j) == SpectrumClass.REAL_PLUS_LOWER
    assert classify_spectrum(0.5j, 0.5j) == SpectrumClass.REAL_PLUS_UPPER


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
