import cmath
import functools
import gc
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psokit import expfun, models
from psokit.expfun import (
    NEG_INF,
    POS_INF,
    ExpTerm,
    PiecewiseExpFunction,
    coefficient_distance,
    free_resolvent,
    gram,
    inner,
    inner_quadrature,
    norm,
    pack,
    select,
)
from psokit.models import (
    HaarSystem,
    MomentumModel,
    NonlocalModel,
    ShiftModel,
    continuous_bump,
    haar_gram,
    momentum_eigen_test,
    restriction_pairing,
    shift_cayley_identity,
    shift_defect,
    shift_orthogonality_defect,
    shift_t_parameter,
    shift_wandering_report,
    similarity_conjugation_check,
    weyl_relation_check,
)
from psokit.psocheck import Grid, constancy_scan


def left_exp(c=1.0, s=1.0):
    return PiecewiseExpFunction.single(c, NEG_INF, 0.0, s)


def right_exp(c=1.0, s=-1.0):
    return PiecewiseExpFunction.single(c, 0.0, POS_INF, s)


# -- momentum model -----------------------------------------------------------


def test_momentum_defects_are_one_sided_exponentials():
    mom = MomentumModel()
    assert mom.defects(1j) == left_exp(1.0, 1.0)
    assert mom.defects(-1j) == right_exp(1.0, -1.0)
    # z = 1 + 2i: exponent -iz = 2 - i, supported on the left half line
    assert mom.defects(1 + 2j) == PiecewiseExpFunction.single(
        1.0, NEG_INF, 0.0, 2 - 1j)


def test_momentum_defect_normalization():
    mom = MomentumModel()
    f = (1.0 / mom.defects.norm(2j)) * mom.defects(2j)
    assert norm(f) == pytest.approx(1.0, abs=1e-14)


def test_momentum_defect_satisfies_defect_equation():
    mom = MomentumModel()
    for z in (1j, -2j, 3 + 0.5j):
        f = mom.defects(z)
        residual = (mom.adjoint_apply(f) - z * f).coefficient_norm()
        assert residual <= 1e-12


def test_momentum_defect_subspaces_orthogonal():
    mom = MomentumModel()
    assert inner(mom.defects(2j), mom.defects(-3j)) == 0


def test_momentum_eigen_test():
    assert not momentum_eigen_test([[1.0]], 2j)
    assert momentum_eigen_test([[0.0]], 2j)
    assert not momentum_eigen_test([[0.0]], -2j)
    assert not momentum_eigen_test([[1.0]], -2j)
    with pytest.raises(ValueError):
        momentum_eigen_test([[1.0]], 1.0)


# -- similarity of real-spectrum extensions ------------------------------------


def boundary_sample(t1, rng, m=1):
    """Random sample satisfying T1 f(0-) = f(0+): prescribe the left value."""
    t1 = np.atleast_2d(np.asarray(t1, dtype=complex))
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    w = t1 @ v
    comps = []
    for j in range(m):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        comps.append(left_exp(v[j], a) + right_exp(w[j], -b))
    return comps if m > 1 else comps[0]


def test_similarity_identity_pair():
    rng = np.random.default_rng(1)
    samples = [boundary_sample([[1.0]], rng) for _ in range(3)]
    assert similarity_conjugation_check([[1.0]], [[1.0]], samples) <= 1e-14


def test_similarity_phase_pair():
    rng = np.random.default_rng(2)
    phase = cmath.exp(1j * math.pi / 3)
    samples = [boundary_sample([[1.0]], rng) for _ in range(4)]
    assert similarity_conjugation_check([[1.0]], [[phase]], samples) <= 1e-12


def test_similarity_scaling_pair():
    rng = np.random.default_rng(3)
    samples = [boundary_sample([[2.0]], rng) for _ in range(4)]
    assert similarity_conjugation_check([[2.0]], [[1.0]], samples) <= 1e-12


def test_similarity_matrix_case():
    rng = np.random.default_rng(4)
    t1 = np.array([[1.0, 0.5], [0.0, -1.0]], dtype=complex)
    t2 = np.array([[0.5j, 0.0], [1.0, 2.0]], dtype=complex)
    samples = [boundary_sample(t1, rng, m=2) for _ in range(5)]
    assert similarity_conjugation_check(t1, t2, samples) <= 1e-12


def test_similarity_rejects_singular_t1():
    with pytest.raises(ValueError, match="invertible"):
        similarity_conjugation_check([[0.0]], [[1.0]], [])


@pytest.mark.parametrize("t2", [[[complex("nan")]], [[complex("inf")]]], ids=["nan", "inf"])
def test_similarity_rejects_a_non_finite_t2_before_using_it(t2):
    sample = boundary_sample([[1.0]], np.random.default_rng(6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's matmul warning on inf came first
        for samples in ([sample], []):
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                similarity_conjugation_check([[1.0]], t2, samples)


def test_similarity_refuses_an_empty_sample_list():
    # a perfect 0.0 from nothing evaluated would read as a pass
    with pytest.raises(ValueError, match="at least one sample"):
        similarity_conjugation_check([[1.0]], [[2.0]], [])


def test_similarity_rejects_bad_sample():
    rng = np.random.default_rng(5)
    sample = boundary_sample([[1.0]], rng)
    with pytest.raises(ValueError, match="boundary condition"):
        similarity_conjugation_check([[2.0]], [[1.0]], [sample])


def test_similarity_rejects_a_sample_whose_boundary_values_overflow():
    # both one-sided limits overflow to inf, so the boundary defect is NaN,
    # which read as a met condition and then as a perfect 0.0
    huge = 0.9e308
    sample = (left_exp(huge, 1.0) + left_exp(huge, 0.5)
              + right_exp(huge, -1.0) + right_exp(huge, -0.5))
    with pytest.raises(ValueError, match="^sample violates the T1 boundary condition by nan$"):
        similarity_conjugation_check([[1.0]], [[1.0]], [sample])


def test_similarity_keeps_a_nan_defect(monkeypatch):
    rng = np.random.default_rng(7)
    samples = [boundary_sample([[1.0]], rng) for _ in range(2)]
    calls, norm = [], models.norm

    def first_nan(f):
        calls.append(f)
        return math.nan if len(calls) == 1 else norm(f)

    monkeypatch.setattr(models, "norm", first_nan)
    # the builtin max dropped the first sample's NaN for the second's defect
    assert math.isnan(similarity_conjugation_check([[1.0]], [[1.0]], samples))


# -- Weyl commutation relation ---------------------------------------------------


def weyl_fixtures():
    two_sided = left_exp(1.0, 1.0) + right_exp(1.0, -1.0)  # exp(-|x|)
    matched = left_exp(1.0, 2.0) + right_exp(1.0, -3.0)  # continuous at 0
    bumped = two_sided + continuous_bump(-0.5, 1.5, 0.8, 2.1, 0.7 - 0.2j)
    return [two_sided, matched, bumped]


@pytest.mark.parametrize("t", [-2.0, 0.5, 1.0])
def test_weyl_relation_exact(t):
    for f in weyl_fixtures():
        assert weyl_relation_check(t, f) <= 1e-14


def test_weyl_relation_trivial_at_zero():
    assert weyl_relation_check(0.0, weyl_fixtures()[0]) == 0


def test_weyl_rejects_discontinuous():
    f = left_exp() - right_exp()
    with pytest.raises(ValueError, match="jump"):
        weyl_relation_check(1.0, f)


# -- shift model -------------------------------------------------------------------


def test_shift_defect_at_i_is_shifted_basis_vector():
    model = ShiftModel(d=8)
    assert shift_t_parameter(1j) == 0
    for method in ("direct", "series"):
        v = shift_defect(model, 1j, method)
        expected = np.zeros(8, dtype=complex)
        expected[1] = 1.0
        np.testing.assert_allclose(v, expected, atol=1e-12)


def test_shift_defect_methods_agree():
    model = ShiftModel(d=16)
    assert abs(shift_t_parameter(2j)) == pytest.approx(1 / 3)
    direct = shift_defect(model, 2j, "direct")
    series = shift_defect(model, 2j, "series")
    np.testing.assert_allclose(direct, series, atol=1e-12)


def test_shift_defect_at_minus_i_spans_generator():
    model = ShiftModel(d=8)
    v = shift_defect(model, -1j, "direct")
    e0 = np.zeros(8)
    e0[0] = 1.0
    overlap = abs(np.vdot(e0, v)) / np.linalg.norm(v)
    assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("method", ["direct", "series"])
def test_shift_defect_rejects_a_non_finite_z(method):
    with pytest.raises(ValueError, match=r"finite non-real z, got z=\(nan\+1j\)$"):
        shift_defect(ShiftModel(d=8), complex("nan+1j"), method)


def test_shift_series_rejects_lower_half_plane():
    model = ShiftModel(d=8)
    with pytest.raises(ValueError, match="series"):
        shift_defect(model, -2j, "series")


def test_shift_cayley_identity():
    model = ShiftModel(d=8)
    e0 = np.zeros(8)
    e0[0] = 1.0
    assert shift_cayley_identity(model, e0) <= 1e-12
    assert shift_cayley_identity(model, np.zeros(8)) == 0
    rng = np.random.default_rng(6)
    big = ShiftModel(d=32)
    for _ in range(5):
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert shift_cayley_identity(big, x) <= 1e-11


def cayley_identity_of_one_vector(model, x):
    """The residual of one vector, as shift_cayley_identity computed it
    before it took a stack."""
    x = np.asarray(x, dtype=complex)
    u = (model.u - np.eye(model.d)) @ x
    return float(np.linalg.norm((model.a - 1j * np.eye(model.d)) @ u - 2j * x))


@pytest.mark.parametrize("d", [4, 8, 33, 192])
def test_a_stacked_cayley_identity_is_the_per_vector_residual_bit_for_bit(d):
    model = ShiftModel(d)
    rng = np.random.default_rng(d)
    xs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(6)] + [np.zeros(d)]
    expected = [float.hex(cayley_identity_of_one_vector(model, x)) for x in xs]
    stacked = shift_cayley_identity(model, xs)
    assert stacked.shape == (len(xs),)
    assert [float.hex(r) for r in stacked.tolist()] == expected
    alone = [shift_cayley_identity(model, x) for x in xs]
    assert all(type(r) is float for r in alone)
    assert [float.hex(r) for r in alone] == expected
    assert expected[-1] == float.hex(0.0)


def test_shift_wandering_report():
    model = ShiftModel(d=8)
    report = shift_wandering_report(model)
    assert report.first_violation == 8
    assert max(report.defect_per_n[:7]) <= 1e-12


def test_shift_orthogonality_decay_law():
    defects = {d: shift_orthogonality_defect(ShiftModel(d), 2j) for d in (10, 16, 22, 28)}
    for d, value in defects.items():
        ratio = value / 3.0 ** (-(d - 1))
        assert 0.1 <= ratio <= 10.0
    for d in (10, 16, 22):
        step = defects[d + 6] / defects[d]
        assert 0.1 <= step / 3.0**-6 <= 10.0


def test_shift_model_validation():
    with pytest.raises(ValueError, match="at least 4"):
        ShiftModel(d=3)
    with pytest.raises(ValueError, match="unimodular"):
        ShiftModel(d=8, twist=2.0)
    # abs(abs(nan) - 1) > tol is False, so the test fails closed instead
    with pytest.raises(ValueError, match="unimodular"):
        ShiftModel(d=4, twist=float("nan"))
    # twist +1 makes 1 an eigenvalue of U, so no inverse Cayley exists
    with pytest.raises(ValueError, match="eigenvalue 1"):
        ShiftModel(d=8, twist=1.0)


# -- nonlocal models -------------------------------------------------------------


def test_nonlocal_defect_equation_residual_on_grid():
    for model in (NonlocalModel("I", 1.0), NonlocalModel("I", 4j),
                  NonlocalModel("II", 2j), NonlocalModel("II", 3 - 1j)):
        for z in (1j, -1j, 2 + 0.5j, -3 - 5j):
            # coefficient-level residual of (S* - z) f_z = 0
            f = model.defects(z)
            assert coefficient_distance(model.adjoint_apply(f), z * f) <= 1e-12


def test_nonlocal_case_i_pso_has_vanishing_gamma_minus():
    model = NonlocalModel("I", 4j)
    f = model.defects(1j)
    assert abs(model.triplet.gamma_minus(f)) <= 1e-13
    assert abs(model.triplet.gamma_plus(f)) > 0.1


def test_nonlocal_case_ii_pairing_values():
    # (f_lam, f_nu) = conj(a) (2i - a) / (2 (1 - i lam)(1 - i conj(nu)))
    m2i = NonlocalModel("II", 2j)
    assert abs(inner(m2i.defects(1j), m2i.defects(-1j))) <= 1e-13

    m1 = NonlocalModel("II", 1.0)
    val = inner(m1.defects(1j), m1.defects(-1j))
    assert val == pytest.approx((-1 + 2j) / 8, abs=1e-12)
    # independent quadrature route agrees
    quad = inner_quadrature(m1.defects(1j), m1.defects(-1j), 1e-9)
    assert quad == pytest.approx((-1 + 2j) / 8, abs=1e-8)


def test_nonlocal_case_ii_closed_form_grid():
    lams = [complex(re, im) for re in (-5, -1, 0, 2, 5) for im in (0.1, 1.0, 10.0)]
    for a in (1.0, 1j, 2j, 3 - 1j):
        model = NonlocalModel("II", a)
        for lam in lams:
            for nu in (np.conj(l) for l in lams):
                got = inner(model.defects(lam), model.defects(complex(nu)))
                expected = (np.conj(a) * (2j - a)
                            / (2 * (1 - 1j * lam) * (1 - 1j * np.conj(nu))))
                assert got == pytest.approx(expected, abs=1e-10)


def test_nonlocal_zero_alpha_reduces_to_momentum_like():
    model = NonlocalModel("I", 0.0)
    assert model.gamma.is_zero
    f = model.defects(1j)
    assert abs(model.triplet.gamma_minus(f)) == 0


def test_nonlocal_rejects_unknown_case():
    with pytest.raises(ValueError, match="case"):
        NonlocalModel("III", 1.0)


def test_nonlocal_defect_normalized():
    model = NonlocalModel("II", 1.0)
    assert norm((1.0 / model.defects.norm(1j)) * model.defects(1j)) == pytest.approx(1.0)


@pytest.mark.parametrize("case", ["I", "II"])
def test_the_nonlocal_adjoint_merges_once_with_the_bits_of_the_function_algebra(case):
    # couplings of every zero sign, the Phillips points, and ones whose
    # coupling term overflows or whose sum with the free part does
    rng = np.random.default_rng(20240601)
    fs = [models.random_maximal_domain_function(rng) for _ in range(20)]
    for alpha in (0, -0.0, complex(-0.0, -0.0), 4j, 2j, 1, 1e200, 1.2e154, 1.7e308):
        model = NonlocalModel(case, alpha)
        for f in fs:
            free = models.free_part(f)
            coupling = ((f.limit(0.0, "+") + f.limit(0.0, "-")) / 2 if case == "I"
                        else f.limit(0.0, "+") - f.limit(0.0, "-"))
            assert (term_bits(model.adjoint_from, f, free)
                    == term_bits(lambda: free + coupling * model.gamma))


@pytest.mark.parametrize("make", [MomentumModel, lambda: NonlocalModel("I", 1)],
                         ids=["momentum", "I(1)"])
def test_a_dropped_model_is_freed_without_the_cyclic_collector(make):
    model = make()
    assert constancy_scan(model, Grid.default()).verdict in ("pass", "fail")
    assert model.defects._images  # the family holds the vectors and their images
    ref = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        gc.enable()


def object_resolvent(z, gamma):
    """free_resolvent as the object algebra builds it: every term an ExpTerm,
    validated, and their sum one PiecewiseExpFunction."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("resolvent requires non-real z")
    upper, ez, out = z.imag > 0, -1j * z, []
    for t in gamma.terms:
        u, k = 1j * z + t.exponent, t.power
        coeffs = (None if abs(u) < expfun.DEGENERATE_EXPONENT_TOL
                  else expfun._antiderivative_coeffs(k, u))

        def antiderivative(x):
            return expfun._antiderivative(k, u, coeffs, x)

        if upper:
            Gb = 0j if t.hi == POS_INF else antiderivative(t.hi)
            if t.lo != NEG_INF:
                c = 1j * t.coeff * (Gb - antiderivative(t.lo))
                if c != 0:
                    out.append(ExpTerm(c, NEG_INF, t.lo, ez))
            homogeneous = 1j * t.coeff * Gb
        else:
            Ga = 0j if t.lo == NEG_INF else antiderivative(t.lo)
            if t.hi != POS_INF:
                c = -1j * t.coeff * (antiderivative(t.hi) - Ga)
                if c != 0:
                    out.append(ExpTerm(c, t.hi, POS_INF, ez))
            homogeneous = 1j * t.coeff * Ga
        sign = -1j * t.coeff
        if coeffs is None:
            if homogeneous != 0:
                out.append(ExpTerm(homogeneous, t.lo, t.hi, t.exponent))
            out.append(ExpTerm(sign / (k + 1), t.lo, t.hi, t.exponent, k + 1))
        else:
            if homogeneous != 0:
                out.append(ExpTerm(homogeneous, t.lo, t.hi, ez))
            for j, c in enumerate(coeffs):
                out.append(ExpTerm(sign * c, t.lo, t.hi, t.exponent, k - j))
    return PiecewiseExpFunction(out)


@st.composite
def resolvent_case_st(draw):
    """A point z and a potential of 1-3 terms on half lines and finite
    pieces, with powers 0-2; a finite piece may be resonant at z (exponent
    -iz, or within 1e-15 of it, which the closed form treats as zero) or
    near it (3e-14 off), where a coefficient of 1e307 overflows."""
    z = draw(defect_point_st)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.one_of(st.complex_numbers(min_magnitude=0.01, max_magnitude=1e3,
                                              allow_nan=False, allow_infinity=False),
                           st.sampled_from([1e307, complex(-0.0, 1e307), complex(2.0, -0.0)])))
        power, im = draw(st.integers(0, 2)), draw(st.floats(-3, 3))
        end = draw(st.sampled_from([-1.5, -0.0, 0.0, 2.0]))
        side = draw(st.integers(0, 3))
        if side == 0:
            terms.append(ExpTerm(c, NEG_INF, end, complex(draw(st.floats(0.25, 2)), im), power))
        elif side == 1:
            terms.append(ExpTerm(c, end, POS_INF, complex(-draw(st.floats(0.25, 2)), im), power))
        else:
            exponent = -1j * z + draw(st.sampled_from([0j, 4e-16, complex(0.0, -3e-16), 3e-14])) \
                if side == 2 else complex(draw(st.floats(-2, 2)), im)
            terms.append(ExpTerm(c, end, end + draw(st.sampled_from([0.5, 3.0])), exponent,
                                 power))
    return z, PiecewiseExpFunction(terms)


@settings(max_examples=300, deadline=None)
@given(resolvent_case_st())
def test_the_resolvent_rows_are_bit_identical_to_the_object_build(case):
    z, gamma = case
    assert term_bits(free_resolvent, z, gamma) == reference_bits(object_resolvent, z, gamma)


def test_a_batch_fails_each_point_where_the_object_build_raises():
    # on [-1e200, 1] the antiderivative overflows at both ends, exp(u) at 1
    # and (-1e200)**2 at -1e200, so the first term an upper point holds, left
    # of the support, and the first a lower point holds, right of it, are
    # not finite
    gamma = PiecewiseExpFunction.single(1.0, -1e200, 1.0, 800.0, 2)
    zs = [1j, -1j, 2 + 0.5j, -3 - 0.5j, -1j, 1j]
    for z in zs:
        with pytest.raises(OverflowError):
            object_resolvent(z, gamma)
    packed, errors = free_resolvent(zs, gamma)
    left, right = "term on [-inf, -1e+200] with exponent {}", "term on [1, inf] with exponent {}"
    assert [failure(e) for e in errors] == [
        ("ValueError", f"{where.format(exponent)}: coefficient or exponent is not finite")
        for where, exponent in ((left, "1"), (right, "-1"), (left, "0.5-2i"),
                                (right, "-0.5+3i"), (right, "-1"), (left, "1"))]
    assert not packed.parts.any()


def reference_defect(model, z):
    """The defect vector as g - 2 (1 + g0) bump (case I) or g +- bump (case II)."""
    g = object_resolvent(z, model.gamma) if not model.gamma.is_zero \
        else PiecewiseExpFunction.zero()
    g0 = (g.limit(0.0, "+") + g.limit(0.0, "-")) / 2
    bump = left_exp(1.0, -1j * z) if z.imag > 0 else right_exp(1.0, -1j * z)
    if model.case == "I":
        return g - 2 * (1 + g0) * bump
    return g + bump if z.imag > 0 else g - bump


#: the error of a point that an array build fails: the term, named by its
#: interval and exponent, and the cause
BUILD_FAILURE = re.compile(r"term on \[\S+, \S+\] with exponent \S+: (coefficient or exponent "
                           r"is not finite|the modulus of iz \+ exponent overflows)")


FAILED = "failed"


def build_failure(exc):
    """FAILED for an error that names a term and a cause, as the array
    builds' errors do, else the type and text of the error."""
    if type(exc) is ValueError and BUILD_FAILURE.fullmatch(str(exc)):
        return FAILED
    return failure(exc)


def term_bits(build, *args):
    """Every part of every term as float.hex, or the ``build_failure`` of
    the error raised instead."""
    try:
        f = build(*args)
    except (ValueError, OverflowError) as exc:
        return build_failure(exc)
    return row_bits(f)


def reference_bits(build, *args):
    """Every part of every term as float.hex, or FAILED if the object build
    raises, whatever its error."""
    try:
        f = build(*args)
    except (ValueError, OverflowError):
        return FAILED
    return row_bits(f)


def row_bits(f):
    """Every part of every term of f's row as float.hex."""
    return [(coeff.real.hex(), coeff.imag.hex(), lo.hex(), hi.hex(),
             exponent.real.hex(), exponent.imag.hex(), power)
            for coeff, lo, hi, exponent, power in f.row]


signed_zero_st = st.sampled_from([0.0, -0.0])
alpha_st = st.one_of(
    # zero of every sign, and the Phillips points of both cases
    st.sampled_from([0, 0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
                     4j, -4j, 2j, -2j]),
    st.builds(complex, st.floats(-1e3, 1e3), signed_zero_st),
    st.builds(complex, signed_zero_st, st.floats(-1e3, 1e3)),
    st.builds(cmath.rect, st.floats(-300, 154).map(lambda e: 10.0 ** e),
              st.floats(-math.pi, math.pi)),
)
defect_point_st = st.builds(
    lambda re, im, upper: complex(re, im if upper else -im),
    st.one_of(signed_zero_st, st.floats(-1e3, 1e3)),
    st.floats(1e-6, 1e3), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["I", "II"]), alpha_st, defect_point_st)
# couplings beyond the drawn range, whose defect vectors overflow and raise
@example("I", 1e308j, 0.1j)
@example("I", 1.7e308, complex(-0.0, -0.1))
@example("II", 1.7e308, 0.1j)
# the resonant points, where the flat monomial sits beside the origin
@example("I", 1, -1j)
@example("II", 2j, 1j)
# no potential and a point that is not finite: only the bump's check fails it
@example("I", 0, complex(math.inf, 1.0))
def test_defect_vectors_are_bit_identical_to_the_algebra_expression(case, alpha, z):
    model = NonlocalModel(case, alpha)
    assert (term_bits(defect_alone, model.case, model.gamma, z)
            == reference_bits(reference_defect, model, z))


def defect_alone(case, gamma, z):
    """The defect vector the model's batch builder makes at z in a batch of
    its own, or the error it holds there, raised."""
    packed, errors = NonlocalModel._defect(case, gamma, [z])
    if errors[0] is not None:
        raise errors[0]
    return packed.functions()[0]


@pytest.mark.parametrize("case, alpha", [("I", 4j), ("II", 1)])
def test_a_dense_defect_family_builds_no_term_object_and_runs_no_constructor(
        monkeypatch, case, alpha):
    calls = {"validations": 0, "canonicalisations": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # the one term validator, which an ExpTerm runs too
    monkeypatch.setattr(expfun, "_term", counted("validations", expfun._term))
    monkeypatch.setattr(PiecewiseExpFunction, "__init__",
                        counted("canonicalisations", PiecewiseExpFunction.__init__))
    model = NonlocalModel(case, alpha)
    uppers = [complex(re, im) for re in range(-15, 16)
              for im in (0.1, 0.2, 0.5, 1, 1.5, 2, 3, 5, 7, 10)]
    points = uppers + [z.conjugate() for z in uppers]
    family = model.defects
    for batch in (family.vectors_at, family.norms_at, family.images_at):
        assert not any(isinstance(entry, Exception) for entry in batch(points))
    # only the model takes its 4 validations and 4 canonicalisations: each of
    # the 620 vectors wraps the canonical row of its resolvent and bump, with
    # no term object and no run of the constructor.  Built term by term, each
    # vector validated its two resolvent terms and its bump and canonicalised
    # the resolvent and itself, 1859 validations and 1240 canonicalisations
    assert calls == {"validations": 4, "canonicalisations": 4}
    # the call reads the row the batch built
    assert row_bits(family(uppers[0])) == row_bits(family.vectors_at(uppers[:1])[0])
    assert calls == {"validations": 4, "canonicalisations": 4}


NEAR_RESONANCE_GRID = Grid.from_axes([0.0, 1e-6, 1e-9, 1e-12], [1.0, 1 + 1e-9, 0.5])
DENSE_GRID = Grid.from_axes(range(-15, 16), [0.1, 0.2, 0.5, 1, 1.5, 2, 3, 5, 7, 10])
#: the momentum model and both nonlocal cases at the Phillips points, at
#: alpha = 0, 1 and 3 - i, and at couplings whose vectors overflow
TABLE_MODELS = {"momentum": MomentumModel, **{
    f"{case}({alpha})": functools.partial(NonlocalModel, case, alpha)
    for case in ("I", "II") for alpha in (4j, 2j, 0, 1, 3 - 1j, 1.2e154, 1.7e308)}}


def reference_vector(model, z):
    if isinstance(model, MomentumModel):
        return left_exp(1.0, -1j * z) if z.imag > 0 else right_exp(1.0, -1j * z)
    return reference_defect(model, z)


def failure(exc):
    return type(exc).__name__, str(exc)


def reference_entries(model, z):
    """The bits of the defect vector at z, its norm by ``expfun.norm`` and
    its images by the boundary functionals, each on the object built from
    the algebra expression, or the failure that stands for it: FAILED for
    all three where the build raises."""
    try:
        f = reference_vector(model, z)
    except (ValueError, OverflowError):
        return (FAILED,) * 3
    n = norm(f)
    if not math.isfinite(n):
        n = failure(ValueError("defect vector norm is not finite"))
    elif n == 0:
        n = failure(ValueError("defect vector norm is zero"))
    else:
        n = n.hex()
    try:
        images = [bit for v in (model.triplet.gamma_plus(f), model.triplet.gamma_minus(f))
                  for bit in (v.real.hex(), v.imag.hex())]
    except (ValueError, OverflowError) as exc:
        images = failure(exc)
    return row_bits(f), n, images


@pytest.mark.parametrize("grid", [Grid.default(), DENSE_GRID, NEAR_RESONANCE_GRID],
                         ids=["default", "dense", "near-resonance"])
@pytest.mark.parametrize("make", TABLE_MODELS.values(), ids=TABLE_MODELS)
def test_the_table_rows_norms_and_images_match_the_reference_vectors(make, grid):
    model = make()
    points = [*grid.lambdas_upper, *grid.lambdas_lower]
    family = model.defects
    got = [tuple(build_failure(e) if isinstance(e, Exception) else bits(e) for e, bits in
                 zip(entries, (row_bits, float.hex,
                               lambda v: [b for z in v for b in (z.real.hex(), z.imag.hex())])))
           for entries in zip(family.vectors_at(points), family.norms_at(points),
                              family.images_at(points))]
    assert got == [reference_entries(model, z) for z in points]


#: the points of both half planes in turn: the resonant points i (case II)
#: and -i (case I), -i twice, and three points where abs(iz - 1) and
#: abs(iz + 1) overflow
INTERLEAVED = [1j, -1j, complex(1.5e308, 1.5e308), complex(1.5e308, -1.5e308),
               *(z for pair in zip(DENSE_GRID.lambdas_upper[::7], DENSE_GRID.lambdas_lower[::5])
                 for z in pair),
               complex(-1.5e308, -1.5e308), 2j, -1j]


def one_point_builds(make, points):
    """The pack of the vectors a fresh family builds at the points, each as
    a batch of one, a failed point's row empty, and each point's error as
    (type, text) or None."""
    family = make().defects
    fs, errors = [], []
    for z in points:
        try:
            fs.append(family(z))
            errors.append(None)
        except Exception as exc:
            fs.append(PiecewiseExpFunction.zero())
            errors.append(failure(exc))
    return pack(fs), errors


@pytest.mark.parametrize("make", [MomentumModel, functools.partial(NonlocalModel, "I", 1),
                                  functools.partial(NonlocalModel, "I", 4j),
                                  functools.partial(NonlocalModel, "II", 2j)],
                         ids=["momentum", "I(1)", "I(4i)", "II(2i)"])
def test_a_batch_build_packs_the_bits_of_its_one_point_vectors(make):
    halves = [*DENSE_GRID.lambdas_upper, *DENSE_GRID.lambdas_lower,
              *NEAR_RESONANCE_GRID.lambdas_upper, *NEAR_RESONANCE_GRID.lambdas_lower]
    for points in (halves, INTERLEAVED):
        packed, errors = make().defects._build(points)
        want, want_errors = one_point_builds(make, points)
        assert [None if e is None else failure(e) for e in errors] == want_errors
        # compare bytes: all seven parts, signed zeros and last bits included
        assert packed.parts.shape == want.parts.shape
        assert packed.parts.tobytes() == want.parts.tobytes()


@pytest.mark.parametrize("make", [functools.partial(NonlocalModel, "I", 1),
                                  functools.partial(NonlocalModel, "I", 4j),
                                  functools.partial(NonlocalModel, "II", 2j),
                                  functools.partial(NonlocalModel, "II", 0)],
                         ids=["I(1)", "I(4i)", "II(2i)", "II(0)"])
def test_a_nonlocal_build_merges_its_terms_once_per_batch(monkeypatch, make):
    merged = []
    canonical_terms = expfun.canonical_terms

    def counted(cols):
        merged.append(cols.shape[1])
        return canonical_terms(cols)

    for module in (expfun, models):
        monkeypatch.setattr(module, "canonical_terms", counted)
    dense = [*DENSE_GRID.lambdas_upper, *DENSE_GRID.lambdas_lower]
    for points in (dense, INTERLEAVED):
        merged.clear()
        make().defects._build(points)
        assert merged == [len(points)]


def test_the_interleaved_batch_meets_resonance_and_overflow():
    for make, resonant in ((functools.partial(NonlocalModel, "I", 1), -1j),
                           (functools.partial(NonlocalModel, "II", 2j), 1j)):
        model = make()
        packed, errors = model.defects._build(INTERLEAVED)
        failed = {z for z, e in zip(INTERLEAVED, errors) if e is not None}
        assert failed == {complex(1.5e308, 1.5e308), complex(1.5e308, -1.5e308),
                          complex(-1.5e308, -1.5e308)}
        # the points where the object build raises
        assert failed == {z for z in INTERLEAVED
                          if reference_bits(reference_defect, model, z) == FAILED}
        assert {build_failure(e) for e in errors if e is not None} == {FAILED}
        # the resonant vector holds the monomial x exp(-izx) of the flat term
        powers = packed.parts[6][INTERLEAVED.index(resonant)]
        assert 1.0 in powers.tolist()


# -- Haar system -------------------------------------------------------------------


def test_haar_mother_is_normalized():
    psi = HaarSystem.mother()
    assert inner(psi, psi) == pytest.approx(1.0)


def test_haar_gram_small_block():
    system = HaarSystem(j_range=(0, 1), k_range=(0, 1))
    labels = system.labels()
    gram = haar_gram(system)
    np.testing.assert_allclose(gram, np.eye(len(labels)), atol=1e-14)
    # the specific classical cancellations
    assert inner(system.element(0, 0), system.element(0, 1)) == 0
    assert inner(system.element(0, 0), system.element(1, 0)) == 0


def scalar_haar_gram(system):
    """Reference: the upper triangle by scalar inner products, mirrored."""
    elements = [system.element(j, k) for j, k in system.labels()]
    n = len(elements)
    out = np.zeros((n, n), dtype=complex)
    for p in range(n):
        for q in range(p, n):
            val = inner(elements[p], elements[q])
            out[p, q] = val
            out[q, p] = val.conjugate()
    return out


@pytest.mark.parametrize("j_range, k_range", [
    ((0, 1), (0, 1)), ((-2, 1), (-4, 2)), ((-1, -1), (-3, 5)), ((0, 2), (1, 1))])
def test_haar_gram_is_the_mirrored_scalar_upper_triangle(j_range, k_range):
    system = HaarSystem(j_range=j_range, k_range=k_range)
    got, want = haar_gram(system), scalar_haar_gram(system)
    # compare bytes: signed zeros and last bits included
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", [MomentumModel(), NonlocalModel("I", 4j),
                                   NonlocalModel("II", 1)], ids=str)
def test_gram_of_normalized_defect_vectors_is_bit_identical(model):
    # the 31 x 10 upper grid and its mirror, as a dense orthogonality scan pairs them
    uppers = [complex(re, im) for re in range(-15, 16)
              for im in (0.1, 0.2, 0.5, 1, 1.5, 2, 3, 5, 7, 10)]
    lowers = [z.conjugate() for z in uppers]
    packed = [select(pack([model.defects(z) for z in zs]), range(len(zs)),
                     [1.0 / model.defects.norm(z) for z in zs]) for zs in (uppers, lowers)]
    fs, gs = ([(1.0 / model.defects.norm(z)) * model.defects(z) for z in zs]
              for zs in (uppers, lowers))
    want = np.array([[inner(f, g) for g in gs] for f in fs])
    # compare bytes: signed zeros and last bits included
    assert gram(*packed).tobytes() == want.tobytes()


def test_haar_element_shape():
    system = HaarSystem(j_range=(-1, 1), k_range=(-1, 1))
    e = system.element(-1, 1)
    lo, hi = e.support()
    assert (lo, hi) == (2.0, 4.0)
    assert norm(e) == pytest.approx(1.0)


def test_haar_range_validation():
    with pytest.raises(ValueError, match="nonempty"):
        HaarSystem(j_range=(2, 1), k_range=(0, 0))


# -- subspace conditions carving restrictions out of the free momentum operator ----


def witness_family(p, q, r):
    u1 = left_exp(1.0, 1.0) + right_exp(1.0, -1.0)
    u2 = left_exp(1.0, 2.0) + right_exp(1.0, -3.0)
    u3 = continuous_bump(-1.5, 2.0, 0.7, 1.9)
    return p * u1 + q * u2 + r * u3


@pytest.mark.parametrize("coeffs", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                    (0.3 - 1j, 2.0, -0.7 + 0.4j)])
def test_right_exponential_subspace_gives_point_condition(coeffs):
    # pairing against chi_(0,inf) exp(-x) is -i * u(0): the condition
    # "pairing = 0" is exactly the one-point restriction u(0) = 0
    u = witness_family(*coeffs)
    gamma = right_exp(1.0, -1.0)
    pairing = restriction_pairing(u, gamma)
    expected = -1j * u.limit(0.0, "-")
    assert pairing == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("coeffs", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                    (-1.1, 0.25j, 1.5)])
def test_left_exponential_subspace_gives_integral_condition(coeffs):
    # pairing against chi_(-inf,0) exp(x) is i*(u(0) - 2 integral of u e^x),
    # the nonlocal restriction condition
    u = witness_family(*coeffs)
    gamma = left_exp(1.0, 1.0)
    pairing = restriction_pairing(u, gamma)
    expected = 1j * (u.limit(0.0, "-") - 2 * inner(u, gamma))
    assert pairing == pytest.approx(expected, abs=1e-12)


def test_restriction_pairing_rejects_discontinuous():
    with pytest.raises(ValueError, match="jump"):
        restriction_pairing(left_exp() - right_exp(), right_exp())
