import math
from collections import Counter

import numpy as np
import pytest
from families import degenerate_model, pointwise_family
from hypothesis import given, settings
from hypothesis import strategies as st

from psokit import expfun, matops, triplets
from psokit.expfun import (
    NEG_INF,
    POS_INF,
    PiecewiseExpFunction,
    inner_quadrature,
)
from psokit.models import MomentumModel, NonlocalModel, random_maximal_domain_function
from psokit.psocheck import Grid
from psokit.triplets import (
    BoundaryFunctional,
    BoundaryTriplet,
    change_of_basis,
    char_function,
    char_value,
    decompose,
    defect_triplet,
    green_residual,
    require_maximal_domain,
    triplet_convert,
)

UPPER_GRID = [complex(re, im) for re in range(-5, 6)
              for im in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)]


def left_exp(c=1.0, s=1.0):
    return PiecewiseExpFunction.single(c, NEG_INF, 0.0, s)


def right_exp(c=1.0, s=-1.0):
    return PiecewiseExpFunction.single(c, 0.0, POS_INF, s)


# -- Green identity -----------------------------------------------------------


def test_green_momentum_basic_pair():
    mom = MomentumModel()
    assert green_residual(mom.triplet, mom, left_exp(), left_exp()) <= 1e-12


def test_green_zero_pair():
    mom = MomentumModel()
    z = PiecewiseExpFunction.zero()
    assert green_residual(mom.triplet, mom, z, z) == 0


@pytest.mark.parametrize("model", [
    MomentumModel(),
    NonlocalModel("I", 1.0),
    NonlocalModel("I", 4j),
    NonlocalModel("II", 2j),
    NonlocalModel("II", 0.5 - 1j),
])
def test_green_randomized_pairs(model):
    rng = np.random.default_rng(42)
    for _ in range(20):
        f = random_maximal_domain_function(rng)
        g = random_maximal_domain_function(rng)
        assert green_residual(model.triplet, model, f, g) <= 1e-10


def test_green_rejects_outside_maximal_domain():
    mom = MomentumModel()
    bad = PiecewiseExpFunction.single(1.0, 1.0, 2.0, 0.0)  # jumps at 1 and 2
    with pytest.raises(ValueError, match="maximal domain"):
        green_residual(mom.triplet, mom, bad, left_exp())


def test_require_maximal_domain_allows_origin_jump():
    require_maximal_domain(left_exp() - right_exp())


def step_at_one(jump):
    """1 on [0, 1], 1 + jump on [1, 2]; the jumps at 0 and 2 are skipped."""
    return PiecewiseExpFunction([(1.0, 0.0, 1.0, 0.0), (1.0 + jump, 1.0, 2.0, 0.0)])


def test_continuity_tolerances_of_derivative_and_maximal_domain():
    ends = (0.0, 2.0)
    assert step_at_one(0.0).first_jump(0.0, ends) == (None, 0.0)
    x, jump = step_at_one(5e-13).first_jump(0.0, ends)
    assert x == 1.0 and jump == pytest.approx(5e-13, rel=1e-3)
    # derivative: absolute JUMP_TOL = 1e-13; maximal domain: 1e-12 (1 + |c|)
    with pytest.raises(ValueError, match=r"at x=1\.0; piecewise derivative rejected"):
        step_at_one(5e-13).derivative(jump_ok_at=ends)
    require_maximal_domain(step_at_one(5e-13), jump_at=ends)
    with pytest.raises(ValueError, match=r"not in the maximal domain: jump .* at x=1\.0"):
        require_maximal_domain(step_at_one(5e-12), jump_at=ends)


# -- characteristic function ---------------------------------------------------


def test_momentum_char_function_vanishes():
    mom = MomentumModel()
    for lam in (1j, 2j, 3 + 0.5j, -4 + 10j):
        assert char_function(mom.triplet, mom.defects, lam) == 0


def test_nonlocal_theta_at_i():
    model = NonlocalModel("I", 1.0)
    th = char_function(model.triplet, model.defects, 1j)
    assert th == pytest.approx((-33 - 64j) / 305, abs=1e-12)
    assert th == pytest.approx(-0.10820 - 0.20984j, abs=1e-4)


def test_nonlocal_theta_quadrature_route():
    model = NonlocalModel("I", 1.0)
    f = model.defects(1j)
    gp, gm = (m.combine(f.limit(0.0, "-"), f.limit(0.0, "+"),
                        [inner_quadrature(f, h, 1e-9) for _, h in m.pairings])
              for m in (model.triplet.gamma_plus, model.triplet.gamma_minus))
    th = char_value(1j, gp, gm)
    assert th == pytest.approx((-33 - 64j) / 305, abs=1e-7)


def test_nonlocal_theta_constant_for_4i():
    model = NonlocalModel("I", 4j)
    values = [char_function(model.triplet, model.defects, lam) for lam in UPPER_GRID]
    assert max(abs(v) for v in values) <= 1e-10


def test_closed_form_theta_on_grid():
    # theta(lambda) = -1 + 2/(2 + i a (1 - i conj(a)/4)/(1 - i lambda))
    for a in (1.0, 2j, 3 + 1j):
        model = NonlocalModel("I", a)
        for lam in UPPER_GRID[::7]:
            w = 1j * a * (1 - 1j * np.conj(a) / 4) / (1 - 1j * lam)
            expected = -1 + 2 / (2 + w)
            got = char_function(model.triplet, model.defects, lam)
            assert got == pytest.approx(expected, abs=1e-10)


def test_theta_strict_contraction_on_grid():
    for model in (MomentumModel(), NonlocalModel("I", 1.0),
                  NonlocalModel("II", 3 - 1j), NonlocalModel("I", -4j)):
        for lam in UPPER_GRID:
            assert abs(char_function(model.triplet, model.defects, lam)) < 1.0


def test_adjoint_convention():
    # the lower-half-plane value equals the conjugate of the upper one
    for model in (MomentumModel(), NonlocalModel("I", 1.0), NonlocalModel("II", 1j)):
        for lam in (1j, 2 + 0.5j, -1 + 3j):
            up = char_function(model.triplet, model.defects, lam)
            # gamma_plus / gamma_minus on the defect vector at conj(lam)
            f = model.defects(lam.conjugate())
            low = model.triplet.gamma_plus(f) / model.triplet.gamma_minus(f)
            assert low == pytest.approx(up.conjugate(), abs=1e-10)


def test_char_function_rejects_lower_argument():
    mom = MomentumModel()
    with pytest.raises(ValueError, match="upper half plane"):
        char_function(mom.triplet, mom.defects, -1j)


# -- decomposition ---------------------------------------------------------------


def test_decompose_momentum_defect():
    mom = MomentumModel()
    f = mom.defects(2j)
    a, b, res = decompose(mom, f, 1j)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert abs(b) <= 1e-12
    assert res <= 1e-12


def test_decompose_conjugate_defect():
    mom = MomentumModel()
    f = mom.defects(-1j)
    a, b, _ = decompose(mom, f, 1j)
    assert abs(a) <= 1e-12
    assert b == pytest.approx(1.0, abs=1e-12)


def test_decompose_nonlocal_pso_has_no_conjugate_component():
    model = NonlocalModel("I", 4j)
    f = model.defects(2j)
    _, b, _ = decompose(model, f, 1j)
    assert abs(b) <= 1e-10


def test_decompose_reassembles_exactly():
    rng = np.random.default_rng(9)
    model = NonlocalModel("II", 1.0)
    for _ in range(10):
        f = random_maximal_domain_function(rng)
        a, b, _ = decompose(model, f, 1j)
        u = f - a * model.defects(1j) - b * model.defects(-1j)
        rebuilt = u + a * model.defects(1j) + b * model.defects(-1j)
        assert (rebuilt - f).coefficient_norm() <= 1e-12 * (1 + f.coefficient_norm())
        # u is in the minimal domain: both boundary maps vanish
        assert abs(model.triplet.gamma_plus(u)) <= 1e-10 * (1 + f.coefficient_norm())
        assert abs(model.triplet.gamma_minus(u)) <= 1e-10 * (1 + f.coefficient_norm())


# -- triplet conversion ------------------------------------------------------------


def momentum_symmetric_pair():
    # g0 = f(0+) - f(0-), g1 = -(i/2)(f(0+) + f(0-)) satisfy the symmetric
    # Green identity for the momentum maximal operator
    g0 = BoundaryFunctional(left=-1.0, right=1.0)
    g1 = BoundaryFunctional(left=-0.5j, right=-0.5j)
    return g0, g1


def test_triplet_convert_momentum():
    mom = MomentumModel()
    g0, g1 = momentum_symmetric_pair()
    converted = triplet_convert(g0, g1, mom)
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_maximal_domain_function(rng)
        g = random_maximal_domain_function(rng)
        assert green_residual(converted, mom, f, g) <= 1e-10


def test_triplet_convert_applies_t_once_per_witness(monkeypatch):
    mom = MomentumModel()
    calls = []
    adjoint_apply = MomentumModel.adjoint_apply

    def counted(model, f):
        calls.append(f)
        return adjoint_apply(model, f)

    monkeypatch.setattr(MomentumModel, "adjoint_apply", counted)
    triplet_convert(*momentum_symmetric_pair(), mom)
    assert [id(f) for f in calls] == [id(w) for w in mom.triplet.witness]


def test_triplet_convert_round_trip():
    mom = MomentumModel()
    g0, g1 = momentum_symmetric_pair()
    converted = triplet_convert(g0, g1, mom)
    # the inverse of the conversion: g1 = (plus + minus) / sqrt(2) and
    # g0 = -i (plus - minus) / sqrt(2)
    gm, gp = converted.gamma_minus, converted.gamma_plus
    inv_sqrt2 = 1 / math.sqrt(2)
    back1 = inv_sqrt2 * (gp + gm)
    back0 = (-1j * inv_sqrt2) * (gp + (-1.0) * gm)
    rng = np.random.default_rng(23)
    for _ in range(5):
        f = random_maximal_domain_function(rng)
        assert back0(f) == pytest.approx(g0(f), abs=1e-12)
        assert back1(f) == pytest.approx(g1(f), abs=1e-12)


def test_triplet_convert_rejects_zero_maps():
    mom = MomentumModel()
    zero = BoundaryFunctional()
    with pytest.raises(ValueError):
        triplet_convert(zero, zero, mom)


def test_triplet_convert_rejects_wrong_normalization():
    mom = MomentumModel()
    g0, g1 = momentum_symmetric_pair()
    with pytest.raises(ValueError, match="Green"):
        triplet_convert(2.0 * g0, g1, mom)


# -- change of boundary system -------------------------------------------------------


def test_change_of_basis_identity():
    model = NonlocalModel("I", 1.0)
    k = change_of_basis(model.triplet, model.triplet, model, mu=1j)
    assert np.linalg.norm(k.matrix - np.eye(2)) <= 1e-12


def test_change_of_basis_momentum_zero_offdiagonal():
    # both characteristic functions vanish identically, so K must fix 0
    mom = MomentumModel()
    t2 = defect_triplet(mom, 2j)
    k = change_of_basis(mom.triplet, t2, mom, mu=2j)
    assert matops.opnorm(k.k21) <= 1e-10
    assert k.krein_defect() <= 1e-10


def test_mobius_relation_on_grid():
    model = NonlocalModel("I", 1.0)
    t2 = defect_triplet(model, 1j)
    k = change_of_basis(model.triplet, t2, model, mu=1j)
    assert k.krein_defect() <= 1e-10
    for lam in UPPER_GRID:
        th1 = char_function(model.triplet, model.defects, lam)
        th2 = char_function(t2, model.defects, lam)
        assert abs(th2 - matops.interspherical(k, th1)) <= 1e-8


def test_defect_triplet_satisfies_green_identity():
    model = NonlocalModel("I", 1.0)
    t2 = defect_triplet(model, 1j)
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = random_maximal_domain_function(rng)
        g = random_maximal_domain_function(rng)
        assert green_residual(t2, model, f, g) <= 1e-10


DEFECT_TRIPLET_MODELS = {
    "momentum": MomentumModel,
    "I(1)": lambda: NonlocalModel("I", 1),
    "I(4i)": lambda: NonlocalModel("I", 4j),
    "II(2i)": lambda: NonlocalModel("II", 2j),
    "II(3-i)": lambda: NonlocalModel("II", 3 - 1j),
}


@pytest.mark.parametrize("mu", [1j, 2j, 1 + 2j])
@pytest.mark.parametrize("make", DEFECT_TRIPLET_MODELS.values(), ids=DEFECT_TRIPLET_MODELS)
def test_defect_triplet_maps_are_the_scaled_decompose_coefficients(make, mu):
    model = make()
    t2 = defect_triplet(model, mu)
    scale = math.sqrt(2 * mu.imag)
    rng = np.random.default_rng(53)
    for _ in range(4):
        f = random_maximal_domain_function(rng)
        a, b, _ = decompose(model, f, mu)
        # repr compares bit for bit
        assert repr(t2.gamma_plus(f)) == repr(scale * model.defects.norms_at([mu])[0] * a)
        assert repr(t2.gamma_minus(f)) == repr(
            scale * model.defects.norms_at([mu.conjugate()])[0] * b)


@pytest.mark.parametrize("make", DEFECT_TRIPLET_MODELS.values(), ids=DEFECT_TRIPLET_MODELS)
def test_shared_native_images_give_both_char_functions_bit_for_bit(make):
    model = make()
    t2 = defect_triplet(model, 1 + 2j)
    lams = UPPER_GRID[::5]
    natives = [model.defects.images(lam) for lam in lams]
    # one stacked solve against the coordinate maps' one solve per call
    for lam, native, gp, gm in zip(lams, natives, *t2.from_native(np.transpose(natives))):
        assert repr(char_value(lam, *native)) == \
            repr(char_function(model.triplet, model.defects, lam))
        assert repr(char_value(lam, gp, gm)) == repr(char_function(t2, model.defects, lam))


@pytest.mark.parametrize("make", DEFECT_TRIPLET_MODELS.values(), ids=DEFECT_TRIPLET_MODELS)
def test_char_function_is_char_value_of_the_images_and_the_old_ratio(make):
    model = make()
    native = model.triplet
    # a symmetric-form pair whose conversion is the native triplet again,
    # with other weights, and a triplet whose maps are not functionals
    inv_sqrt2 = 1 / math.sqrt(2)
    g1 = inv_sqrt2 * (native.gamma_plus + native.gamma_minus)
    g0 = (-1j * inv_sqrt2) * (native.gamma_plus + (-1.0) * native.gamma_minus)
    others = [triplet_convert(g0, g1, model), defect_triplet(model, 1 + 2j)]
    for lam in Grid.default().lambdas_upper:
        # repr compares bit for bit
        assert repr(char_function(native, model.defects, lam)) == \
            repr(char_value(lam, *model.defects.images(lam)))
        f = model.defects(lam)
        for trip in others:
            assert repr(char_function(trip, model.defects, lam)) == \
                repr(trip.gamma_minus(f) / trip.gamma_plus(f))


def test_a_defect_vector_norm_that_overflows_is_an_error():
    model = NonlocalModel("II", 1.2e154)
    # normalizing by an infinite norm would give the zero vector
    with pytest.raises(ValueError, match="defect vector norm is not finite"):
        triplets.unwrap(model.defects.norms_at([-1 + 0.2j])[0])
    assert math.isfinite(model.defects.norms_at([-1 - 0.2j])[0])


def test_a_defect_vector_norm_of_zero_is_an_error():
    model = NonlocalModel("II", 2j)
    # near resonance the closed form cancels to 0j; dividing by it would raise
    # ZeroDivisionError wherever the vector is normalized
    with pytest.raises(ValueError, match="defect vector norm is zero"):
        triplets.unwrap(model.defects.norms_at([1e-9 + 1j])[0])


# -- the defect family's per-point contract ------------------------------------


def counting_family(fail_at=()):
    """A momentum family whose builder records each z it is called with and
    raises at the points of ``fail_at``."""
    calls = []
    model = MomentumModel()

    def build(z):
        calls.append(z)
        if z in fail_at:
            raise RuntimeError(f"synthetic construction failure at {z}")
        return model.defects(z)

    return pointwise_family(build, MomentumModel().triplet), calls


def test_a_point_asked_twice_in_one_batch_is_built_once():
    family, calls = counting_family()
    f, g, again = family.vectors_at([1j, 2 - 1j, 1j])
    assert calls == [1j, 2 - 1j]
    assert again == f
    # norms, images and the call read the vectors already built
    family.norms_at([1j, 2 - 1j])
    family.images(1j)
    assert family(2 - 1j) == g
    assert calls == [1j, 2 - 1j]


def test_a_real_point_is_an_error_and_is_never_built():
    family, calls = counting_family()
    real, f, zero = family.vectors_at([1.0, 1j, 0])
    for entry in (real, zero):
        assert isinstance(entry, ValueError)
        assert str(entry) == "defect vectors exist only for non-real z"
    assert f == family(1j)
    for ask in (family, lambda z: triplets.unwrap(family.norms_at([z])[0]), family.images):
        with pytest.raises(ValueError, match="defect vectors exist only for non-real z"):
            ask(-3.0)
    assert calls == [1j]
    assert list(family._cache) == [1j]


def test_a_point_whose_build_raised_is_built_again_and_raises_again():
    family, calls = counting_family(fail_at={2j})
    f, failed = family.vectors_at([1j, 2j])
    assert isinstance(failed, RuntimeError)
    assert str(failed) == "synthetic construction failure at 2j"
    assert list(family._cache) == [1j]
    for ask in (family, lambda z: triplets.unwrap(family.norms_at([z])[0]), family.images):
        with pytest.raises(RuntimeError, match="synthetic construction failure at 2j"):
            ask(2j)
    assert calls == [1j, 2j, 2j, 2j, 2j]
    assert list(family._cache) == [1j]


def test_defect_triplet_rejects_a_singular_system_at_construction():
    model = degenerate_model()
    with pytest.raises(ValueError, match="decomposition system is singular for this mu"):
        defect_triplet(model, 1j)


def test_a_vanishing_gamma_plus_is_measured_against_gamma_minus():
    # 1e-9 is far above BOUNDARY_SINGULAR_TOL alone, and vanishes beside 1e6
    with pytest.raises(ValueError, match="gamma_plus vanishes"):
        char_value(1j, 1e-9, 1e6)
    assert char_value(1j, 1e-9, 1e-6) == 1e-6 / 1e-9


def test_an_infinite_gamma_plus_is_an_error_not_a_zero_theta():
    # a finite gamma_minus over an infinite gamma_plus divides to a finite 0,
    # which once passed a constancy check whose theta is 0 everywhere
    assert 1.0 / complex("inf") == 0
    with pytest.raises(ValueError, match="^boundary images are not finite$"):
        char_value(1j, complex("inf"), 1.0)
    # a NaN gamma_plus keeps its text
    with pytest.raises(ValueError, match="^theta is not finite$"):
        char_value(1j, complex("nan"), 1.0)


@pytest.mark.parametrize("gp, gm", [(1.0, complex("inf")), (complex("inf"), complex("inf"))])
def test_an_infinite_gamma_minus_is_not_named_a_vanishing_gamma_plus(gp, gm):
    # beside an infinite gamma_minus any gamma_plus reads as vanishing
    with pytest.raises(ValueError, match="^boundary images are not finite$"):
        char_value(1j, gp, gm)


@pytest.mark.parametrize("case", ["I", "II"])
def test_a_triplet_packs_each_pairing_function_once(monkeypatch, case):
    model = NonlocalModel(case, 1)
    points = Grid.from_axes(range(-4, 4), [0.5, 1.0, 2.0, 5.0]).lambdas_upper  # 32 rows
    model.defects.norms_at(points)
    packed = model.defects.packed_at(points)
    calls = Counter()
    pack = expfun.pack

    def counted(fs):
        calls["pack"] += 1
        return pack(fs)

    for module in (expfun, triplets):
        monkeypatch.setattr(module, "pack", counted)
    first = triplets.boundary_images(model.triplet, packed)
    again = triplets.boundary_images(model.triplet, packed)
    # both maps pair with the one potential, packed on the first batch only
    assert calls["pack"] == 1
    want = [(model.triplet.gamma_plus(f), model.triplet.gamma_minus(f))
            for f in packed.functions()]
    assert repr(first) == repr(again) == repr(want)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(43)),
       sorted_first=st.booleans())
def test_images_lists_gamma_plus_then_gamma_minus(seed, order, sorted_first):
    model = NonlocalModel("II", 1)
    fs = (model.defects(1j), model.defects(2 - 1j), left_exp())
    trip = model.triplet
    images = trip.images(*fs)
    assert images.shape == (2, 3)
    assert images.tolist() == [[trip.gamma_plus(f) for f in fs],
                               [trip.gamma_minus(f) for f in fs]]
    # boundary_images of a list, its pack and a slice of a larger pack, on
    # both sides of PAIRED_SCALAR_ROWS, against the scalar maps, its one
    # independent reference
    rng = np.random.default_rng(seed)
    pool = [random_maximal_domain_function(rng) for _ in range(43)]
    whole = expfun.pack([pool[k] for k in order])
    if sorted_first:
        whole.kinds  # a slice then cuts the parent's kind table
    for name in ("momentum", "I(1)", "I(4i)", "II(2i)"):
        trip = DEFECT_TRIPLET_MODELS[name]().triplet
        want = [(trip.gamma_plus(f), trip.gamma_minus(f)) for f in pool[:40]]
        for n in (1, 31, 32, 40):
            forms = (pool[:n], expfun.pack(pool[:n]),
                     expfun.select(whole, [order.index(k) for k in range(n)]))
            for form in forms:
                assert repr(triplets.boundary_images(trip, form)) == repr(want[:n]), (name, n)


def test_images_maps_each_function_by_both_maps_before_the_next():
    f, g = left_exp(), right_exp()
    calls = []

    def recording(name):
        def gamma(h):
            calls.append((name, "f" if h is f else "g"))
            return complex(len(calls))
        return gamma

    trip = BoundaryTriplet(recording("minus"), recording("plus"), (f, g))
    # the k-th call returns k, so the layout shows the order too
    assert trip.images(f, g).tolist() == [[1, 3], [2, 4]]
    assert calls == [("plus", "f"), ("minus", "f"), ("plus", "g"), ("minus", "g")]
