import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psokit import matops
from psokit.tolerances import (DECOMPOSE_SINGULAR_TOL, HERMITIAN_TOL, SINGULARITY_TOL,
                               UNITARY_TOL)
from psokit.matops import (
    KreinBlockOperator,
    SubspaceBasis,
    cayley,
    interspherical,
    inverse_cayley,
    is_singular,
    opnorm,
    random_krein_unitary,
    wandering_check,
)


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def twisted_shift(d, twist=-1.0):
    u = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        u[k + 1, k] = 1.0
    u[0, d - 1] = twist
    return u


# -- Cayley transform --------------------------------------------------------


def test_cayley_scalar_fixtures():
    assert cayley([[0.0]]) == pytest.approx(np.array([[-1.0]]))
    assert cayley([[1.0]]) == pytest.approx(np.array([[1j]]))
    assert inverse_cayley([[-1.0]]) == pytest.approx(np.array([[0.0]]))
    assert inverse_cayley([[1j]]) == pytest.approx(np.array([[1.0]]))


def test_cayley_round_trip_random():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        a = random_hermitian(rng, n)
        u = cayley(a)
        assert opnorm(u.conj().T @ u - np.eye(n)) <= 1e-10
        back = inverse_cayley(u)
        assert opnorm(back - a) <= 1e-9 * (1 + opnorm(a))
        assert opnorm(back - back.conj().T) <= 1e-10 * (1 + opnorm(a))


def test_cayley_rejects_non_hermitian():
    # the spectral norm of A - A*; its Frobenius norm is 1.414
    with pytest.raises(ValueError, match=r"not hermitian: \|\|A - A\*\|\| = 1\.000e\+00$"):
        cayley([[0.0, 1.0], [0.0, 0.0]])


def test_inverse_cayley_rejects_eigenvalue_one():
    with pytest.raises(ValueError, match="eigenvalue 1"):
        inverse_cayley(np.eye(3))


def inverse_cayley_by_svd(u):
    """inverse_cayley as it was before the solve stood in for the SVD: the
    smallest singular value of U - I decides, then the solve runs."""
    u = matops._as_matrix(u)
    eye = np.eye(u.shape[0])
    udef = u.conj().T @ u - eye
    if matops._exceeds(udef, UNITARY_TOL):
        raise ValueError(f"matrix is not unitary: ||U*U - I|| = {opnorm(udef):.3e}")
    smin = matops.min_singular_value(u - eye)
    if smin <= UNITARY_TOL:
        raise ValueError(
            f"U has (numerically) the eigenvalue 1: min sv of U - I is {smin:.3e}"
        )
    return 1j * np.linalg.solve(u - eye, u + eye)


def hex_entries(a):
    return [float.hex(x) for x in np.asarray(a).view(float).ravel().tolist()]


def outcome(fn, u):
    """The entries of fn(u) by float.hex, or the type and text of its error."""
    try:
        return hex_entries(fn(u))
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, str(exc)


def counted_calls(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("d", [8, 192])
def test_inverse_cayley_of_a_twisted_shift_takes_no_svd(monkeypatch, d):
    u = twisted_shift(d)
    expected = hex_entries(inverse_cayley_by_svd(u))
    calls = []
    for name in ("min_singular_value", "opnorm", "is_singular"):
        monkeypatch.setattr(matops, name, counted_calls(calls, name, getattr(matops, name)))
    assert hex_entries(inverse_cayley(u)) == expected
    # before the solve stood in for it: ["min_singular_value"]
    assert calls == []


@pytest.mark.parametrize("u, value", [
    (np.eye(3), "0.000e+00"),
    # U - I = diag(0, -2, -1 + i): its LU has an exact zero pivot
    (np.diag([1, -1, 1j]), "0.000e+00"),
    # the untwisted cyclic shift fixes the all-ones vector
    (twisted_shift(6, twist=1.0), None),
], ids=["identity", "diagonal", "cyclic-shift"])
def test_an_eigenvalue_1_keeps_its_error_text_and_value(u, value):
    with pytest.raises(ValueError, match="eigenvalue 1") as raised:
        inverse_cayley(u)
    assert outcome(inverse_cayley, u) == outcome(inverse_cayley_by_svd, u)
    if value is not None:
        assert str(raised.value).endswith(f"min sv of U - I is {value}")


@st.composite
def unitaries_near_eigenvalue_1(draw):
    """Q diag(e^(i theta)) Q* for a random unitary Q; with a distance drawn,
    one eigenvalue sits that far from 1 and the others anywhere."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    angles = rng.uniform(-np.pi, np.pi, size=n)
    exponent = draw(st.none() | st.floats(6, 14))
    if exponent is not None:
        angles[0] = draw(st.sampled_from([-1, 1])) * 10.0 ** -exponent
    return (q * np.exp(1j * angles)) @ q.conj().T


@settings(max_examples=400, deadline=None)
@given(unitaries_near_eigenvalue_1())
def test_inverse_cayley_equals_the_svd_version_bit_for_bit_or_by_its_error(u):
    assert outcome(inverse_cayley, u) == outcome(inverse_cayley_by_svd, u)


def test_the_solve_bound_is_not_taken_below_the_tolerance_plus_its_allowance(monkeypatch):
    # one eigenvalue 1.5e-10 from 1: the SVD clears U - I, the bound
    # 2 / ||X - I||_F does not clear UNITARY_TOL + CAYLEY_SOLVE_TOL
    u = np.diag([np.exp(1.5e-10j), -1, 1j])
    calls = []
    monkeypatch.setattr(matops, "min_singular_value", counted_calls(
        calls, "min_singular_value", matops.min_singular_value))
    got = inverse_cayley(u)
    assert calls == ["min_singular_value"]
    assert hex_entries(got) == hex_entries(inverse_cayley_by_svd(u))


def test_inverse_cayley_of_twisted_shift_is_hermitian():
    a = inverse_cayley(twisted_shift(8))
    assert opnorm(a - a.conj().T) <= 1e-11


def test_the_tolerance_tests_take_an_svd_only_where_the_frobenius_norm_does_not_settle(
        monkeypatch):
    # every |u_j|^2 - 1 is 0.9e-10: ||U*U - I|| = 0.9e-10 is within the
    # tolerance, the Frobenius norm 1.8e-10 is not
    u = np.sqrt(1 + 0.9e-10) * np.diag([-1, 1j, -1j, np.exp(2j)])
    udef = u.conj().T @ u - np.eye(4)
    assert np.linalg.norm(udef) > UNITARY_TOL >= opnorm(udef)
    # likewise ||A - A*|| = 0.8e-12 against the hermitian tolerance 1e-12
    a = np.diag([1.0, 2.0, -1.0, 0.5]) + 0.4e-12j * np.eye(4)
    skew = a - a.conj().T
    assert np.linalg.norm(skew) > HERMITIAN_TOL >= opnorm(skew)
    calls = []
    monkeypatch.setattr(matops, "opnorm", lambda m: calls.append(m) or opnorm(m))
    inverse_cayley(u)
    cayley(a)
    assert len(calls) == 2
    calls.clear()
    inverse_cayley(twisted_shift(8))
    cayley(random_hermitian(np.random.default_rng(5), 4))
    assert calls == []
    # wandering_check sizes its reported defects in one stacked call beside
    # the unitarity test
    wandering_check(u, SubspaceBasis.coordinate(4, 0), 3)
    wandering_check(twisted_shift(8), SubspaceBasis.coordinate(8, 0), 8)
    assert [c.ndim for c in calls] == [2, 3, 3]


@pytest.mark.parametrize("m", [[[np.nan]], np.full((2, 2), np.nan), [[np.inf]]],
                         ids=["nan", "nan-2x2", "inf"])
def test_the_norm_of_a_non_finite_matrix_is_nan_without_an_svd(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the SVD raised LinAlgError on a NaN and returned nan on an inf
        assert math.isnan(opnorm(m))
        assert matops._exceeds(np.asarray(m, dtype=complex), 1.0)


def test_the_norm_of_a_stack_is_nan_for_each_non_finite_matrix():
    stack = np.array([np.eye(2), np.full((2, 2), np.nan), 2 * np.eye(2),
                      [[np.inf, 0.0], [0.0, 1.0]]], dtype=complex)
    got = opnorm(stack)
    assert got.shape == (4,)
    assert got[[0, 2]].tolist() == [1.0, 2.0] and np.isnan(got[[1, 3]]).all()
    assert opnorm(stack[[0, 2]]).tolist() == [1.0, 2.0]


def test_inverse_cayley_rejects_a_non_unitary_matrix():
    # the spectral norm of U*U - I; its Frobenius norm is 3.162
    with pytest.raises(ValueError, match=r"not unitary: \|\|U\*U - I\|\| = 3\.000e\+00$"):
        inverse_cayley(np.diag([2.0, 0.0, -1.0, 1j]))
    # U*U overflows to inf - inf = nan off the diagonal, and a nan norm fails
    u = np.array([[1e200, 1e200], [1e200, -1e200]])
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="not unitary: .* = nan"):
            inverse_cayley(u)
        with pytest.raises(ValueError, match="U is not unitary"):
            wandering_check(u, SubspaceBasis.coordinate(2, 0), 2)


# -- Krein block operators and the linear fractional transform ---------------


def test_identity_transform_is_identity():
    k = KreinBlockOperator.identity(3)
    rng = np.random.default_rng(1)
    z = rng.normal(size=(3, 3)) * 0.2
    np.testing.assert_array_equal(interspherical(k, z), z)


def test_hyperbolic_fixture():
    r = math.log(2)
    k = KreinBlockOperator([[math.cosh(r)]], [[math.sinh(r)]],
                           [[math.sinh(r)]], [[math.cosh(r)]])
    assert interspherical(k, 0.0) == pytest.approx(0.6, abs=1e-12)


def test_krein_unitarity_required():
    with pytest.raises(ValueError, match="Krein"):
        KreinBlockOperator([[2.0]], [[0.0]], [[0.0]], [[1.0]])
    # the products overflow, so the defect is NaN, which must fail closed
    for k in ([[1e160, 0], [0, 1]], [[1e200, 0], [0, 1e200]]):
        with pytest.raises(ValueError, match="not Krein unitary: defect nan"):
            KreinBlockOperator.from_matrix(k)


def test_the_krein_defect_is_the_one_the_constructor_measured(monkeypatch):
    k = random_krein_unitary(2, np.random.default_rng(9))
    j = np.diag([1.0, 1.0, -1.0, -1.0])
    m = k.matrix
    expected = max(opnorm(m.conj().T @ j @ m - j), opnorm(m @ j @ m.conj().T - j))
    calls = []
    monkeypatch.setattr(matops, "opnorm", counted_calls(calls, "opnorm", opnorm))
    assert float.hex(k.krein_defect()) == float.hex(expected)
    # before the constructor kept it: ["opnorm", "opnorm"]
    assert calls == []


def test_random_krein_unitary_properties():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        k = random_krein_unitary(m, rng)
        assert k.krein_defect() <= 1e-10
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        z *= 0.9 / max(opnorm(z), 1e-9)
        phi = interspherical(k, z)
        assert opnorm(np.atleast_2d(phi)) <= 1 + 1e-10


def test_composition_law():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        k1 = random_krein_unitary(m, rng)
        k2 = random_krein_unitary(m, rng)
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        z *= rng.uniform(0, 0.9) / max(opnorm(z), 1e-9)
        composite = k2.compose(k1)
        assert composite.krein_defect() <= 1e-10
        lhs = np.atleast_2d(interspherical(composite, z))
        rhs = np.atleast_2d(interspherical(k2, np.atleast_2d(interspherical(k1, z))))
        assert opnorm(lhs - rhs) <= 1e-10


def test_interspherical_rejects_expansions():
    k = KreinBlockOperator.identity(1)
    with pytest.raises(ValueError, match="exceeds 1"):
        interspherical(k, 1.5)


def random_contractions(rng, n, m):
    z = rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m))
    return z * (rng.uniform(0, 0.95, size=(n, 1, 1)) / opnorm(z)[:, None, None])


@pytest.mark.parametrize("m", [1, 2])
def test_a_stacked_transform_is_the_per_element_transform_bit_for_bit(m):
    rng = np.random.default_rng(17 + m)
    for _ in range(40):
        k = random_krein_unitary(m, rng)
        zs = random_contractions(rng, int(rng.integers(1, 30)), m)
        stacked = interspherical(k, zs)
        assert stacked.shape == zs.shape
        for z, got in zip(zs, stacked):
            # the one-matrix formula is the reference
            ref = (k.k21 + k.k22 @ z) @ np.linalg.inv(k.k11 + k.k12 @ z)
            one = interspherical(k, complex(z[0, 0]) if m == 1 else z)
            assert repr(got.tolist()) == repr(ref.tolist())
            assert repr(np.atleast_2d(one).tolist()) == repr(ref.tolist())


def test_a_stack_is_rejected_by_finiteness_then_contraction_then_denominator():
    k = KreinBlockOperator.identity(1)
    object.__setattr__(k, "k12", np.ones((1, 1)))  # broken: K11 + K12 Z = 1 + Z
    zs = np.zeros((6, 1, 1), dtype=complex)
    zs[1, 0, 0] = -1.0  # a contraction with a singular denominator
    zs[3, 0, 0] = 1.25
    zs[4, 0, 0] = 1.5
    zs[5, 0, 0] = complex("nan")
    # an entry that is not finite anywhere comes first, then the first
    # expansion, named, then any singular denominator
    with pytest.raises(ValueError, match="^contraction entries must be finite$"):
        interspherical(k, zs)
    with pytest.raises(ValueError, match=r"^\|\|Z\|\| = 1\.250000 exceeds 1$"):
        interspherical(k, zs[:5])
    with pytest.raises(ValueError, match="^K11 \\+ K12 Z is numerically singular; "
                                         "K is not Krein unitary$"):
        interspherical(k, zs[:3])
    assert interspherical(k, zs[:1]).tolist() == [[[0j]]]


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"),
                               [[complex("nan"), 0], [0, 0]],
                               [[0, 0], [0, float("inf")]]])
def test_interspherical_rejects_a_non_finite_contraction_first(z):
    m = np.atleast_2d(z).shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        for k in (KreinBlockOperator.identity(m),
                  random_krein_unitary(m, np.random.default_rng(31))):
            with pytest.raises(ValueError, match="^contraction entries must be finite$"):
                interspherical(k, z)


def test_an_empty_stack_maps_to_an_empty_stack():
    k = random_krein_unitary(2, np.random.default_rng(29))
    out = interspherical(k, np.zeros((0, 2, 2)))
    assert out.shape == (0, 2, 2) and out.dtype == complex


# -- wandering subspaces ------------------------------------------------------


def test_twisted_shift_wanders_until_full_period():
    for d in (8, 16):
        u = twisted_shift(d)
        basis = SubspaceBasis.coordinate(d, 0)
        report = wandering_check(u, basis, n_max=d + 2)
        assert report.first_violation == d
        assert all(v <= 1e-12 for v in report.defect_per_n[: d - 1])
        assert report.defect_per_n[d - 1] == pytest.approx(1.0)


def test_identity_violates_immediately():
    report = wandering_check(np.eye(4), SubspaceBasis.coordinate(4, 0), 3)
    assert report.first_violation == 1
    assert not report.is_wandering


def test_rotation_block_violates_immediately():
    th = 0.7
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    u = np.kron(np.eye(2), rot)
    report = wandering_check(u, SubspaceBasis.coordinate(4, 0), 5)
    assert report.first_violation == 1
    assert report.defect_per_n[0] == pytest.approx(abs(math.cos(th)))


def test_wandering_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(4)
    d = 8
    u = twisted_shift(d)
    basis = SubspaceBasis.coordinate(d, 0)
    w, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u2 = w @ u @ w.conj().T
    basis2 = SubspaceBasis(w @ basis.vectors)
    r1 = wandering_check(u, basis, d)
    r2 = wandering_check(u2, basis2, d)
    assert r1.first_violation == r2.first_violation
    np.testing.assert_allclose(r1.defect_per_n, r2.defect_per_n, atol=1e-10)


def loop_wandering_check(u, basis, n_max):
    """wandering_check's defects and first violation as its loop took them
    with L* formed anew for every n."""
    ell, blocks, current = basis.vectors, [], basis.vectors
    for _ in range(n_max):
        current = u @ current
        blocks.append(ell.conj().T @ current)
    defects = opnorm(np.stack(blocks))
    over = np.flatnonzero(defects > matops.SINGULARITY_TOL)
    return int(over[0]) + 1 if over.size else None, defects.tolist()


@pytest.mark.parametrize("d", [4, 8, 192])
def test_wandering_check_equals_its_loop_with_l_star_formed_each_time(d):
    rng = np.random.default_rng(d)
    w, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = w @ twisted_shift(d) @ w.conj().T
    # a two-dimensional basis that is not a set of coordinate vectors
    basis = SubspaceBasis.span(w[:, :2] + 0.5 * w[:, 2:4])
    report = wandering_check(u, basis, d + 2)
    first, defects = loop_wandering_check(u, basis, d + 2)
    assert report.first_violation == first
    assert [v.hex() for v in report.defect_per_n] == [v.hex() for v in defects]


def test_wandering_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        wandering_check(np.diag([0.5, 1.0]), SubspaceBasis.coordinate(2, 0), 2)


# -- singularity test ----------------------------------------------------------


def test_is_singular_fixtures():
    assert is_singular([[0.0]])
    assert not is_singular(np.eye(2))
    assert is_singular([[1.0, 0.0], [0.0, 1e-14]], tol=1e-10)


entry_st = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


@st.composite
def singularity_stack_st(draw):
    """A stack of 1-6 matrices, all 2x2 or all 3x3: each has random entries
    or is exactly singular (a zero row, or a column 0, 1 or 2 times another,
    an exact multiple), and is scaled by a power of ten from 1e-150 to
    1e150."""
    d = draw(st.sampled_from([2, 3]))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        m = np.array(draw(st.lists(entry_st, min_size=d * d, max_size=d * d)),
                     dtype=complex).reshape(d, d)
        kind = draw(st.sampled_from(["random", "zero-row", "multiple-column"]))
        if kind == "zero-row":
            m[draw(st.integers(0, d - 1))] = 0
        elif kind == "multiple-column":
            m[:, 1] = draw(st.sampled_from([0.0, 1.0, 2.0])) * m[:, 0]
        stack.append(m * 10.0 ** draw(st.sampled_from([-150, -8, 0, 8, 150])))
    return np.array(stack)


@settings(max_examples=300, deadline=None)
@given(singularity_stack_st(),
       st.sampled_from([SINGULARITY_TOL, DECOMPOSE_SINGULAR_TOL, 1e-3]))
def test_a_stacked_singularity_test_equals_the_test_of_each_matrix(stack, tol):
    got = is_singular(stack, tol)
    assert got.shape == (len(stack),) and got.dtype == bool
    assert got.tolist() == [is_singular(m, tol) for m in stack]


def test_a_stack_with_an_entry_that_is_not_finite_is_rejected():
    stack = np.array([np.eye(2), [[1.0, np.nan], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        is_singular(stack)


# -- closed-form 2 x 2 kernels, against exact Gaussian rationals ---------------
#
# Each float is a Fraction exactly, so the exact solve and the exact singular
# values of a float matrix are Gaussian-rational arithmetic, with square roots
# bracketed to 200 bits.

Q = Fraction
#: unit roundoff of float64
UNIT = 2.0 ** -53
#: the solve's stated bound: ||x - x_exact|| <= SOLVE_C * UNIT * cond(S) * ||x_exact||;
#: the largest ratio over 3000 draws, scales 2**-900 to 2**900, was 1.43
SOLVE_C = 8
#: the band of the singular decision: it equals the exact one wherever
#: |smin - tol (1 + smax)| exceeds BAND_C * UNIT * smax (exact values)
BAND_C = 16


def gaussian(z) -> tuple:
    z = complex(z)
    return Q(z.real), Q(z.imag)


def g_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def g_sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def g_div(a, b):
    d = b[0] ** 2 + b[1] ** 2
    return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d


def g_abs2(a):
    return a[0] ** 2 + a[1] ** 2


def exact_entries(s):
    """a, b, c, d of the float matrix [[a, b], [c, d]], exactly, and det."""
    a, b, c, d = (gaussian(s[i, j]) for i in (0, 1) for j in (0, 1))
    return (a, b, c, d), g_sub(g_mul(a, d), g_mul(b, c))


def exact_solve(s, r):
    (a, b, c, d), det = exact_entries(s)
    r0, r1 = gaussian(r[0]), gaussian(r[1])
    return [g_div(g_sub(g_mul(d, r0), g_mul(b, r1)), det),
            g_div(g_sub(g_mul(a, r1), g_mul(c, r0)), det)]


def exact_condition(s) -> float:
    """smax / smin of s, from t = 4 |det|**2 / F**4, a scale-free ratio."""
    (a, b, c, d), det = exact_entries(s)
    t = float(4 * g_abs2(det) / sum(g_abs2(x) for x in (a, b, c, d)) ** 2)
    return (1 + math.sqrt(1 - t)) / math.sqrt(t)


def sqrt_bracket(q: Fraction) -> tuple[Fraction, Fraction]:
    """Fractions lo <= sqrt(q) <= hi, 200 bits apart relative to sqrt(q)."""
    if q == 0:
        return q, q
    root = math.isqrt(q.numerator * q.denominator * 4 ** 200)
    den = q.denominator * 2 ** 200
    return Q(root, den), Q(root + 1, den)


def exact_singular_margin(s, tol) -> tuple[Fraction, Fraction, Fraction]:
    """Brackets lo <= smin - tol (1 + smax) <= hi of s, exactly, and an upper
    bound of smax."""
    (a, b, c, d), det = exact_entries(s)
    frob2, det2 = sum(g_abs2(x) for x in (a, b, c, d)), g_abs2(det)
    det_lo, det_hi = sqrt_bracket(det2)
    gap_lo, gap_hi = sqrt_bracket(frob2 ** 2 - 4 * det2)
    smax_lo, smax_hi = sqrt_bracket((frob2 + gap_lo) / 2)[0], sqrt_bracket((frob2 + gap_hi) / 2)[1]
    tol = Q(tol)
    if smax_lo == 0:  # the zero matrix
        return -tol, -tol, smax_hi
    return det_lo / smax_hi - tol * (1 + smax_hi), det_hi / smax_lo - tol * (1 + smax_lo), smax_hi


def random_system(rng, cond_exp: float, scale: int) -> np.ndarray:
    """A complex 2 x 2 matrix of condition about 10**cond_exp: a rank-one
    matrix plus a random one of relative size 10**-cond_exp, times
    2**scale."""
    u, v, g = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
               for shape in (2, 2, (2, 2)))
    m = np.outer(u, v) + 10.0 ** -cond_exp * g
    return np.ldexp(m.real, scale) + 1j * np.ldexp(m.imag, scale)


def test_the_solve_is_within_its_stated_bound_of_the_exact_solution():
    rng = np.random.default_rng(20)
    for _ in range(300):
        scale = int(rng.choice([-900, -300, 0, 300, 900]))
        s = random_system(rng, rng.uniform(0, 15), scale)
        r = rng.normal(size=2) + 1j * rng.normal(size=2)
        # the solution lies within 2**+-900 of 1
        r = np.ldexp(r.real, scale) + 1j * np.ldexp(r.imag, scale) if scale else r
        x, exact = matops.solve_2x2(s, r), exact_solve(s, r)
        err2 = sum(g_abs2(g_sub(gaussian(xi), e)) for xi, e in zip(x, exact))
        rel = math.sqrt(float(err2 / sum(g_abs2(e) for e in exact)))
        assert rel <= SOLVE_C * UNIT * exact_condition(s)


@pytest.mark.parametrize("tol", [DECOMPOSE_SINGULAR_TOL, SINGULARITY_TOL])
def test_the_singular_decision_is_exact_outside_its_band(tol):
    rng = np.random.default_rng(21)
    decided = 0
    for _ in range(400):
        # a smallest singular value near tol (1 + the largest), on either side
        scale = int(rng.choice([-900, -40, 0, 40, 900]))
        smax = math.ldexp(rng.uniform(0.5, 4), scale)
        smin = tol * (1 + smax) * (1 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-17, -1))
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        s = (u * [smax, min(smin, smax)]) @ v.conj().T
        lo, hi, smax_hi = exact_singular_margin(s, tol)
        band = BAND_C * Q(UNIT) * smax_hi
        if lo > band or hi < -band:
            decided += 1
            assert matops.is_singular_2x2(s, tol) == (hi < 0)
    assert decided > 100


def test_a_matrix_far_from_the_threshold_is_decided_as_exactly():
    rng = np.random.default_rng(22)
    cases = [np.zeros((2, 2)), np.eye(2), [[1.0, 2.0], [2.0, 4.0]], [[0, 1e-300], [0, 0]]]
    for _ in range(200):
        cases.append(random_system(rng, rng.uniform(0, 16), int(rng.choice([-900, 0, 900]))))
    for s in cases:
        s = np.asarray(s, dtype=complex)
        lo, hi, smax_hi = exact_singular_margin(s, DECOMPOSE_SINGULAR_TOL)
        band = BAND_C * Q(UNIT) * smax_hi
        assert lo > band or hi < -band
        assert matops.is_singular_2x2(s, DECOMPOSE_SINGULAR_TOL) == (hi < 0)


def test_a_stack_and_each_system_alone_give_the_same_bits():
    rng = np.random.default_rng(23)
    stack = np.array([random_system(rng, k, e) for k, e in
                      [(0, 0), (6, 0), (12, 900), (3, -900), (0, 40), (9, -40)]])
    rhs = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    x = matops.solve_2x2(stack, rhs)
    assert x.shape == (6, 2, 5)
    scaled = matops._scaled_singular_values(stack)
    for i, s in enumerate(stack):
        assert matops.solve_2x2(s, rhs).tobytes() == x[i].tobytes()
        for j in range(rhs.shape[1]):
            assert matops.solve_2x2(s, rhs[:, j]).tobytes() == x[i, :, j].tobytes()
            assert matops.solve_2x2(stack[i:i + 1], rhs[:, j:j + 1]).tobytes() == \
                x[i:i + 1, :, j:j + 1].tobytes()
        assert [x.tobytes() for x in matops._scaled_singular_values(s)] == \
            [x[i:i + 1].tobytes() for x in scaled]
        assert matops.is_singular_2x2(s, 1e-3) == matops.is_singular_2x2(stack, 1e-3)[i]
    # the second unknown alone has the solve's bits
    assert matops.second_unknown_2x2(stack, rhs).tobytes() == \
        np.ascontiguousarray(x[:, 1]).tobytes()


def test_the_second_unknown_is_nan_where_the_first_is_not_finite():
    # x = (3e308, 1) overflows in its first unknown only
    s = np.array([[[0.5, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    rhs = np.array([[1.5e308, 1.0], [1.0, 2.0]])
    x = matops.solve_2x2(s, rhs)
    assert np.isinf(x[0, 0, 0]) and x[0, 1, 0] == 1
    y = matops.second_unknown_2x2(s, rhs)
    assert np.isnan(y[0, 0])
    assert y[0, 1] == x[0, 1, 1] and y[1].tolist() == x[1, 1].tolist()


def test_the_2x2_kernels_neither_warn_nor_reach_lapack(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK reached")

    for name in ("solve", "inv", "svd", "det", "norm"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    stack = np.array([np.zeros((2, 2)), [[1e-300, 0], [0, 1e300]], [[np.nan, 0], [0, 1]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matops.is_singular_2x2(stack, DECOMPOSE_SINGULAR_TOL).tolist() == [True, True, True]
        x = matops.solve_2x2(stack, [1.0, 1.0])
    assert np.isnan(x[0]).all() and np.isnan(x[2]).all()


def test_subspace_basis_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        SubspaceBasis(np.array([[1.0], [1.0]]))
    b = SubspaceBasis.span(np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]]))
    assert b.dim == 2 and b.ambient_dim == 3


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
def test_subspace_basis_rejects_a_non_finite_column_first(entry):
    # before its Gram product (an inf column warns there) and its SVD
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        SubspaceBasis(np.array([[entry], [0.0]]))


def test_a_transposed_complex_matrix_passes_the_finiteness_test():
    # its last axis is not contiguous, so no float view of it can be taken
    a = np.array([[2.0, 1j], [3.0, 4.0]]).T
    assert matops.min_singular_value(a) == matops.min_singular_value(a.copy())
