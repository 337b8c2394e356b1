import cmath
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psokit import cli, expfun
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
)


def half_line_left(coeff=1.0, exponent=1.0):
    # coeff * exp(exponent*x) on (-inf, 0]
    return PiecewiseExpFunction.single(coeff, NEG_INF, 0.0, exponent)


def half_line_right(coeff=1.0, exponent=-1.0):
    return PiecewiseExpFunction.single(coeff, 0.0, POS_INF, exponent)


# -- term invariants -------------------------------------------------------


def test_term_rejects_empty_interval():
    with pytest.raises(ValueError):
        ExpTerm(1.0, 1.0, 1.0, 0.0)


def test_term_rejects_nonintegrable_tails():
    with pytest.raises(ValueError):
        ExpTerm(1.0, NEG_INF, 0.0, -1.0)
    with pytest.raises(ValueError):
        ExpTerm(1.0, 0.0, POS_INF, 0.5)
    with pytest.raises(ValueError):
        ExpTerm(1.0, 0.0, POS_INF, 1j)  # Re = 0 is still not integrable


def test_canonicalization_merges_and_drops_zeros():
    t = ExpTerm(1.5, 0.0, 1.0, 2.0)
    f = PiecewiseExpFunction([t, t, ExpTerm(-3.0, 0.0, 1.0, 2.0)])
    assert f.is_zero
    assert f == PiecewiseExpFunction.zero()


def test_a_merge_that_overflows_is_rejected():
    big = PiecewiseExpFunction.single(1e308, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="coefficient and exponent must be finite"):
        big + big
    with pytest.raises(ValueError, match="coefficient and exponent must be finite"):
        PiecewiseExpFunction(big.terms + big.terms)


@pytest.mark.parametrize("scalar", [1e300, -1e300j, float("inf"), complex("nan")],
                         ids=repr)
def test_a_scalar_multiple_that_is_not_finite_is_rejected(scalar):
    f = PiecewiseExpFunction.single(1e10, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="coefficient and exponent must be finite"):
        f * scalar
    with pytest.raises(ValueError, match="coefficient and exponent must be finite"):
        scalar * f


@pytest.mark.parametrize("term, message", [
    ((1.0, 1.0, 1.0, 0.0), "empty interval"),
    ((1.0, 1.0, 0.0, 0.0), "empty interval"),
    ((1.0, float("nan"), 1.0, 0.0), "empty interval"),
    ((1.0, NEG_INF, 0.0, -1.0), "need Re\\(exponent\\) > 0 at -inf"),
    ((1.0, 0.0, POS_INF, 1j), "need Re\\(exponent\\) < 0 at \\+inf"),
    ((float("inf"), 0.0, 1.0, 0.0), "coefficient and exponent must be finite"),
    ((1.0, 0.0, 1.0, complex("nan")), "coefficient and exponent must be finite"),
    ((1.0, 0.0, 1.0, 0.0, -1), "power must be a nonnegative integer"),
    ((1.0, 0.0, 1.0, 0.0, 1.5), "power must be a nonnegative integer"),
], ids=["empty", "reversed", "nan-end", "left-tail", "right-tail", "coeff",
        "exponent", "negative-power", "fractional-power"])
def test_tuple_terms_are_fully_validated(term, message):
    with pytest.raises(ValueError, match=message):
        PiecewiseExpFunction([term])
    # also behind a term of another kind that is already validated
    with pytest.raises(ValueError, match=message):
        PiecewiseExpFunction([ExpTerm(1.0, 0.0, 1.0, 2.0), term])


@pytest.mark.parametrize("power", [1.5, -1, float("inf"), float("nan"), "2"],
                         ids=["fractional", "negative", "inf", "nan", "string"])
def test_a_power_that_is_not_a_nonnegative_integer_is_rejected_everywhere(power):
    message = "power must be a nonnegative integer, got "
    with pytest.raises(ValueError, match=message):
        ExpTerm(1.0, 0.0, 1.0, 0.0, power)
    # the JSON form carries the power as given: not truncated, not parsed
    obj = [{"coeff_re": 1.0, "coeff_im": 0.0, "lo": 0.0, "hi": 1.0,
            "exp_re": 0.0, "exp_im": 0.0, "power": power}]
    with pytest.raises(ValueError, match=message):
        PiecewiseExpFunction.from_json_obj(obj)


def test_merged_negated_and_scaled_terms_equal_fully_built_ones():
    f = PiecewiseExpFunction([(1.5, -1.0, 1.0, 2j, 1), (-0.5, NEG_INF, 0.0, 1 + 1j),
                              (0.25, -1.0, 1.0, 2j, 1)])
    for g, scale in ((f, 1), (-f, -1), (f * (2 - 1j), 2 - 1j), (f + f, 2)):
        assert g.terms == tuple(
            ExpTerm(c * scale, lo, hi, s, p)
            for c, lo, hi, s, p in ((-0.5, NEG_INF, 0.0, 1 + 1j, 0),
                                    (1.75, -1.0, 1.0, 2j, 1)))
        assert all(type(t.coeff) is complex and type(t.power) is int for t in g.terms)


# -- closed-form inner product --------------------------------------------


@pytest.mark.parametrize("lo,hi", [(float("nan"), 1.0), (0.0, float("nan"))])
def test_restrict_rejects_a_nan_bound(lo, hi):
    # max(t.lo, nan) and min(t.hi, nan) keep the term's own ends, so a NaN
    # bound would leave the function unrestricted on that side
    f = PiecewiseExpFunction.single(1.0, 0.0, 2.0, 0.5)
    with pytest.raises(ValueError, match="^restriction bounds must not be NaN"):
        f.restrict(lo, hi)


def test_inner_half_line_left():
    f = half_line_left()
    assert inner(f, f) == pytest.approx(0.5)


def test_inner_disjoint_supports():
    assert inner(half_line_left(), half_line_right()) == 0


def test_inner_right_pair():
    f = half_line_right(exponent=-1.0)
    g = half_line_right(exponent=-2.0)
    assert inner(f, g) == pytest.approx(1.0 / 3.0)


def test_inner_oscillatory_closed_form():
    # int_0^inf exp((-1+3i)x) exp(-x) dx = 1/(2-3i)
    f = half_line_right(exponent=-1 + 3j)
    g = half_line_right(exponent=-1.0)
    expected = 1 / (2 - 3j)
    assert inner(f, g) == pytest.approx(expected, abs=1e-14)
    # cross-check by the quadrature oracle
    assert inner_quadrature(f, g, 1e-10) == pytest.approx(expected, abs=1e-9)


def test_inner_degenerate_exponent_uses_length():
    f = PiecewiseExpFunction.indicator(0.0, 1.0)
    assert inner(f, f) == pytest.approx(1.0)
    g = PiecewiseExpFunction.single(1.0, -2.0, 3.0, 1j)  # |exp(ix)|^2 = 1
    assert inner(g, g) == pytest.approx(5.0)


def test_inner_with_power_terms():
    # int_0^inf x^2 exp(-2x) dx = 2/8
    f = PiecewiseExpFunction.single(1.0, 0.0, POS_INF, -1.0, power=1)
    assert inner(f, f) == pytest.approx(0.25)
    assert inner_quadrature(f, f, 1e-10) == pytest.approx(0.25, abs=1e-9)


# -- quadrature oracle ------------------------------------------------------


def test_quadrature_simple_fixtures():
    f = half_line_left()
    assert inner_quadrature(f, f, 1e-8) == pytest.approx(0.5, abs=1e-8)
    box = PiecewiseExpFunction.indicator(0.0, 1.0)
    assert inner_quadrature(box, box, 1e-8) == pytest.approx(1.0, abs=1e-8)


def test_quadrature_agrees_with_closed_form_randomized():
    rng = np.random.default_rng(7)
    rel_tol = 1e-9
    for _ in range(200):
        f = random_function(rng)
        g = random_function(rng)
        exact = inner(f, g)
        quad = inner_quadrature(f, g, rel_tol)
        assert abs(exact - quad) <= 1e-8 * (1 + abs(exact))


def test_quadrature_rejects_bad_tolerance():
    f = half_line_left()
    with pytest.raises(ValueError):
        inner_quadrature(f, f, 0.0)


def random_function(rng, max_terms=3):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        kind = rng.integers(0, 3)
        c = complex(rng.normal(), rng.normal())
        im = rng.uniform(-3, 3)
        if kind == 0:  # left tail
            terms.append(ExpTerm(c, NEG_INF, rng.uniform(-1, 1),
                                 complex(rng.uniform(0.3, 2.0), im)))
        elif kind == 1:  # right tail
            terms.append(ExpTerm(c, rng.uniform(-1, 1), POS_INF,
                                 complex(rng.uniform(-2.0, -0.3), im)))
        else:  # finite piece, occasionally with a monomial factor
            a = rng.uniform(-2, 1)
            terms.append(ExpTerm(c, a, a + rng.uniform(0.5, 2.0),
                                 complex(rng.uniform(-1, 1), im),
                                 power=int(rng.integers(0, 2))))
    return PiecewiseExpFunction(terms)


# -- inner product properties (conjugate symmetry, positivity, sesquilinearity)


complex_st = st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0,
                                allow_nan=False, allow_infinity=False)


@st.composite
def functions_st(draw):
    n = draw(st.integers(1, 3))
    terms = []
    for _ in range(n):
        c = draw(complex_st)
        re_s = draw(st.floats(-2.0, 2.0))
        im_s = draw(st.floats(-3.0, 3.0))
        choice = draw(st.integers(0, 2))
        if choice == 0:
            terms.append(ExpTerm(c, NEG_INF, 0.0, complex(abs(re_s) + 0.2, im_s)))
        elif choice == 1:
            terms.append(ExpTerm(c, 0.0, POS_INF, complex(-abs(re_s) - 0.2, im_s)))
        else:
            a = draw(st.floats(-2.0, 1.0))
            w = draw(st.floats(0.25, 2.0))
            terms.append(ExpTerm(c, a, a + w, complex(re_s, im_s)))
    return PiecewiseExpFunction(terms)


@settings(max_examples=60, deadline=None)
@given(functions_st(), functions_st())
def test_inner_conjugate_symmetry(f, g):
    assert inner(f, g) == pytest.approx(inner(g, f).conjugate(), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(functions_st())
def test_inner_positive(f):
    v = inner(f, f)
    assert v.real >= -1e-12
    assert abs(v.imag) <= 1e-12 * (1 + v.real)


@settings(max_examples=40, deadline=None)
@given(functions_st(), functions_st(), complex_st)
def test_inner_sesquilinear(f, g, a):
    lhs = inner(a * f, g)
    assert lhs == pytest.approx(a * inner(f, g), abs=1e-9)
    rhs = inner(f, a * g)
    assert rhs == pytest.approx(a.conjugate() * inner(f, g), abs=1e-9)


def test_inner_zero_only_for_zero_function():
    f = half_line_left() - half_line_left()
    assert f.is_zero and inner(f, f) == 0


# -- the batched Gram kernel ---------------------------------------------------


def bits(z):
    return float(z.real).hex(), float(z.imag).hex()


#: small pools, so that term kinds repeat across the functions drawn; each
#: holds zeros of both signs, which make kinds that differ only there
GRAM_ENDS = (-1.5, -0.0, 0.0, 1.0, 2.5)
GRAM_INTERVALS = tuple((a, b) for a in GRAM_ENDS for b in GRAM_ENDS if a < b)
GRAM_DECAY = (0.25, 1.0)
GRAM_EXP_RE = (-1.0, -0.0, 0.0, 0.5)
GRAM_EXP_IM = (-2.0, -0.0, 0.0, 1.5)
GRAM_TINY = (-3e-15, -0.0, 0.0, 4e-15)  # pairs to a degenerate exponent


@st.composite
def gram_functions_st(draw, coeffs=complex_st):
    """Functions on finite and half-infinite intervals whose endpoints,
    exponents and powers (0-3) come from the shared pools above, with
    exponents that pair to a degenerate one on finite pieces, and the zero
    function (no terms)."""
    def pick(pool):
        return draw(st.sampled_from(pool))

    terms = []
    for _ in range(draw(st.integers(0, 3))):
        c = draw(coeffs)
        power = draw(st.integers(0, 3))
        im_s = pick(GRAM_EXP_IM)
        kind = draw(st.integers(0, 3))
        if kind == 0:
            s = complex(pick(GRAM_DECAY), im_s)
            terms.append(ExpTerm(c, NEG_INF, pick(GRAM_ENDS), s, power))
        elif kind == 1:
            s = complex(-pick(GRAM_DECAY), im_s)
            terms.append(ExpTerm(c, pick(GRAM_ENDS), POS_INF, s, power))
        else:
            if kind == 2:
                s = complex(pick(GRAM_EXP_RE), im_s)
            else:
                s = complex(pick(GRAM_TINY), pick(GRAM_TINY))
            terms.append(ExpTerm(c, *pick(GRAM_INTERVALS), s, power))
    return PiecewiseExpFunction(terms)


@settings(max_examples=100, deadline=None)
@given(st.lists(gram_functions_st(), min_size=1, max_size=6),
       st.lists(gram_functions_st(), min_size=1, max_size=6))
def test_gram_equals_inner_bit_for_bit(fs, gs):
    g = gram(fs, gs)
    assert g.shape == (len(fs), len(gs))
    for a, f in enumerate(fs):
        for b, h in enumerate(gs):
            assert bits(g[a, b]) == bits(inner(f, h)), (a, b)


#: coefficients with zero parts of either sign, and ones whose products with
#: each other overflow to inf (a merge of three still fits a float)
PAIRED_COEFFS = st.one_of(complex_st, st.sampled_from(
    [complex(2.0, -0.0), complex(-0.0, -1.5), 1e300, complex(-0.0, 1e300),
     complex(1e155, -1e155)]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.lists(
           st.tuples(gram_functions_st(PAIRED_COEFFS), gram_functions_st(PAIRED_COEFFS)),
           min_size=n, max_size=n)))
def test_paired_equals_inner_bit_for_bit(pairs):
    # rows of different lengths leave padding slots; the zero function has none
    fs = [f for f, _ in pairs]
    gs = [g for _, g in pairs]
    want = [bits(inner(f, g)) for f, g in pairs]
    # a short list or pack takes the scalar inner, a long one the kernel
    long = expfun.PAIRED_SCALAR_ROWS
    for got, count in ((expfun.paired(expfun.pack(fs), expfun.pack(gs)), 1),
                       (expfun.paired(fs, gs), 1),
                       (expfun.paired(expfun.pack(fs * long), expfun.pack(gs * long)), long)):
        assert got.shape == (len(pairs) * count,)
        assert [bits(v) for v in got.tolist()] == want * count


def inner_by_builtins(f, g):
    """``inner`` with its overlap taken by the builtin ``max`` and ``min``,
    kept as the reference whose bits ``inner`` must return."""
    total = 0j
    for f_coeff, f_lo, f_hi, f_exp, f_power in f.row:
        for g_coeff, g_lo, g_hi, g_exp, g_power in g.row:
            lo = max(f_lo, g_lo)
            hi = min(f_hi, g_hi)
            if lo >= hi:
                continue
            u = f_exp + g_exp.conjugate()
            total += (
                f_coeff
                * g_coeff.conjugate()
                * expfun._poly_exp_integral(f_power + g_power, u, lo, hi)
            )
    return total


#: ends that pieces share, with zeros of both signs, so that overlaps meet
#: in ties of equal and of signed-zero ends
INNER_ENDS = (NEG_INF, -1.5, -0.0, 0.0, 0.5, POS_INF)
INNER_INTERVALS = tuple((a, b) for a in INNER_ENDS for b in INNER_ENDS
                        if a < b and (a, b) != (NEG_INF, POS_INF))
#: exponents of finite pieces, among them zeros of both signs and tiny ones,
#: whose pairs integrate as degenerate, to a float
INNER_FINITE_EXPONENTS = (0j, complex(-0.0, -0.0), complex(0.5, -2.0), 1.5j,
                          complex(-3e-15, 4e-15), complex(4e-15, -0.0))


@st.composite
def inner_functions_st(draw):
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        lo, hi = draw(st.sampled_from(INNER_INTERVALS))
        if lo == NEG_INF:
            s = complex(draw(st.sampled_from(GRAM_DECAY)), draw(st.sampled_from(GRAM_EXP_IM)))
        elif hi == POS_INF:
            s = complex(-draw(st.sampled_from(GRAM_DECAY)), draw(st.sampled_from(GRAM_EXP_IM)))
        else:
            s = draw(st.sampled_from(INNER_FINITE_EXPONENTS))
        terms.append(ExpTerm(draw(PAIRED_COEFFS), lo, hi, s, draw(st.integers(0, 2))))
    return PiecewiseExpFunction(terms)


@settings(max_examples=200, deadline=None)
@given(inner_functions_st(), inner_functions_st())
@example(PiecewiseExpFunction.single(1.0, -1.5, -0.0, 0j),  # a degenerate integral
         PiecewiseExpFunction.single(2j, -1.5, 0.0, complex(-0.0, -0.0)))
@example(PiecewiseExpFunction.single(1.0, -1.5, -0.0, 0j),  # ends meet as -0.0 and 0.0
         PiecewiseExpFunction.single(1.0, 0.0, 0.5, 0j))
def test_inner_equals_the_builtin_max_min_loop_bit_for_bit(f, g):
    for a, b in ((f, g), (g, f), (f, f)):
        assert bits(inner(a, b)) == bits(inner_by_builtins(a, b))


def test_paired_takes_the_kernel_from_paired_scalar_rows_on(monkeypatch):
    fs = block_family(np.random.default_rng(24), expfun.PAIRED_SCALAR_ROWS + 1)
    h = fs[1]
    want = [bits(inner(f, h)) for f in fs]
    calls = Counter()
    monkeypatch.setattr(expfun, "inner", lambda f, g: calls.update(["inner"]) or 0j)
    # a gs of one function pairs it with every f
    assert [bits(v) for v in expfun.paired(fs, [h]).tolist()] == want
    assert calls["inner"] == 0
    expfun.paired(fs[2:], [h])
    assert calls["inner"] == expfun.PAIRED_SCALAR_ROWS - 1


def test_paired_takes_each_kind_pair_that_meets_in_a_row_once(monkeypatch):
    f = PiecewiseExpFunction.single(1.0, 0.0, 2.0, 0.5) + half_line_right(2j, -1.0)
    g = half_line_right(1.0, complex(-1.0, 3.0))
    # enough rows to take the kernel
    repeat = expfun.PAIRED_SCALAR_ROWS // 3 + 1
    want = ([bits(inner(f, g))] * 2 + [bits(inner(g, f))]) * repeat
    calls = Counter()
    original = expfun._poly_exp_integral

    def counted(*args):
        calls[args] += 1
        return original(*args)

    monkeypatch.setattr(expfun, "_poly_exp_integral", counted)
    got = expfun.paired(expfun.pack([f, f, g] * repeat), expfun.pack([g, g, f] * repeat))
    assert [bits(v) for v in got.tolist()] == want
    # two overlapping kind pairs per (f, g) row and two per (g, f) row, once each
    assert sorted(calls.values()) == [1, 1, 1, 1]
    with pytest.raises(ValueError, match="equally many"):
        expfun.paired([f], [f, g])


def test_norms_equal_norm_bit_for_bit():
    fs = block_family(np.random.default_rng(23), 12)
    assert [n.hex() for n in expfun.norms(fs)] == [expfun.norm(f).hex() for f in fs]


def test_gram_of_scaled_functions_equals_inner_of_the_products():
    rng = np.random.default_rng(11)
    fs = [random_function(rng) for _ in range(6)] + [PiecewiseExpFunction.zero()]
    scales = [float(rng.uniform(0.1, 5.0)) for _ in fs]
    g = gram(expfun.select(expfun.pack(fs), range(len(fs)), scales), fs)
    for a, f in enumerate(fs):
        for b, h in enumerate(fs):
            assert bits(g[a, b]) == bits(inner(scales[a] * f, h))
    with pytest.raises(ValueError, match="must be finite"):
        expfun.select(expfun.pack(fs[:1]), [0], [1e308 * 1e10])


def test_gram_rejects_a_degenerate_exponent_on_a_half_line_as_inner_does():
    f = PiecewiseExpFunction.single(1.0, 0.0, POS_INF, complex(-1e-15, 1.0))
    with pytest.raises(ValueError, match="zero exponent on infinite interval"):
        inner(f, f)
    with pytest.raises(ValueError, match="zero exponent on infinite interval"):
        gram([f], [f])


def test_gram_takes_its_integrals_from_the_closed_form_of_inner(monkeypatch):
    fs = [
        # a degenerate exponent on a finite piece, and half lines on both sides
        PiecewiseExpFunction.single(1.5 - 0.5j, 0.0, 2.0, complex(3e-15, 0.0), 1)
        + half_line_right(0.5j, complex(-1.0, 2.0)),
        half_line_left(2.0, complex(0.5, -1.0)) + half_line_right(1.0, -0.25),
    ]
    exact = [[inner(f, h) for h in fs] for f in fs]
    # the patch replaces the memo too, so every call, warm or cold, is perturbed
    original = expfun._poly_exp_integral

    def perturbed(*args):
        return original(*args) * (1 + 1e-3)

    monkeypatch.setattr(expfun, "_poly_exp_integral", perturbed)
    g = gram(fs, fs)
    for a, f in enumerate(fs):
        for b, h in enumerate(fs):
            assert bits(g[a, b]) == bits(inner(f, h)), (a, b)
            assert g[a, b] != exact[a][b], (a, b)


def test_pack_tells_kinds_apart_bit_for_bit():
    # kinds that differ only in the sign of a zero endpoint or exponent part
    fs = [PiecewiseExpFunction.single(1.0, lo, 1.0, complex(0.5, im))
          for lo in (-0.0, 0.0) for im in (-0.0, 0.0)]
    fs.append(PiecewiseExpFunction.single(2.0 - 1j, -0.0, 1.0, complex(0.5, -0.0)))
    kind = expfun.pack(fs).kind[:, 0].tolist()
    assert len(set(kind[:4])) == 4
    assert kind[4] == kind[0]  # the coefficient is not part of the kind


def block_family(rng, count):
    """count functions over the pools of gram_functions_st: a left tail, a
    finite piece whose exponent pairs to a degenerate one, a finite piece
    and a right tail, with endpoints of both zero signs.  Every fourth one
    lacks the left tail, so its other terms sit one slot further left, and
    every ninth one is zero."""
    def pick(pool):
        return pool[rng.integers(len(pool))]

    def coeff():
        return complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))

    fs = []
    for i in range(count):
        terms = [
            ExpTerm(coeff(), *pick(GRAM_INTERVALS), complex(pick(GRAM_TINY), pick(GRAM_TINY)),
                    int(rng.integers(0, 3))),
            ExpTerm(coeff(), *pick(GRAM_INTERVALS),
                    complex(pick(GRAM_EXP_RE), pick(GRAM_EXP_IM)), int(rng.integers(0, 2))),
            ExpTerm(coeff(), pick(GRAM_ENDS), POS_INF, complex(-pick(GRAM_DECAY), pick(GRAM_EXP_IM))),
        ]
        if i % 4:
            terms.append(ExpTerm(coeff(), NEG_INF, pick(GRAM_ENDS),
                                 complex(pick(GRAM_DECAY), pick(GRAM_EXP_IM))))
        fs.append(PiecewiseExpFunction(terms if i % 9 else ()))
    return fs


def test_gram_equals_inner_across_row_blocks():
    block = expfun.GRAM_BLOCK
    rng = np.random.default_rng(21)
    fs = block_family(rng, 2 * block + 9)
    gs = block_family(rng, block + 3)
    rows = slice(4, 4 + 2 * block + 5)
    # slot 0 holds a left tail in some rows and a finite piece in others
    assert {f.terms[0].lo == NEG_INF for f in fs[rows] if f.terms} == {True, False}
    g = gram(expfun.pack(fs[rows]), gs)
    assert g.shape == (2 * block + 5, block + 3)
    for a, f in enumerate(fs[rows]):
        for b, h in enumerate(gs):
            assert bits(g[a, b]) == bits(inner(f, h)), (a, b)


def test_gram_of_an_empty_side_is_an_empty_matrix():
    fs = block_family(np.random.default_rng(22), 3)
    assert gram(fs, []).shape == (3, 0)
    assert gram([], fs).shape == (0, 3)
    assert gram(expfun.pack([]), fs).shape == (0, 3)


# -- the closed-form memo ------------------------------------------------------


@pytest.fixture
def evaluations(monkeypatch):
    """An empty memo for the test, and a count of the raw closed forms the
    memo lets through."""
    count = Counter()
    raw = expfun._closed_form

    def counted(*args):
        count["raw"] += 1
        return raw(*args)

    monkeypatch.setattr(expfun, "_closed_forms", {})
    monkeypatch.setattr(expfun, "_closed_form", counted)
    return count


def value_bits(v):
    return type(v).__name__, bits(v)


def test_the_memo_keeps_signed_zeros_apart_and_returns_the_raw_bits(evaluations):
    # zeros of either sign in an endpoint and in each exponent part.  The
    # closed form returns equal values for these pairs today; keyed on bits,
    # each is still its own entry.  A degenerate exponent returns a float,
    # which the memo keeps as a float.
    args = [(k, complex(re, im), lo, hi)
            for k, re, im, lo, hi in ((0, 0.0, -1.5, -0.0, 2.0), (0, 0.0, -1.5, 0.0, 2.0),
                                      (1, -0.0, 0.0, -1.0, 0.0), (1, 0.0, 0.0, -1.0, 0.0),
                                      (1, 0.0, -0.0, -1.0, 0.0), (2, 0.75, 0.0, -0.0, 1.0),
                                      (2, 0.75, -0.0, -0.0, 1.0))]
    raw = [value_bits(expfun._closed_form(*a)) for a in args]
    evaluations.clear()
    for _ in range(2):
        assert [value_bits(expfun._poly_exp_integral(*a)) for a in args] == raw
    assert {kind for kind, _ in raw} == {"complex", "float"}
    # each argument is its own entry, evaluated once
    assert len(expfun._closed_forms) == len(args)
    assert evaluations["raw"] == len(args)


def test_a_divergent_integral_raises_on_every_call_and_is_not_stored(evaluations):
    for args, message in (((0, 0j, 0.0, POS_INF), "zero exponent on infinite interval"),
                          ((1, complex(0.5, 1.0), 0.0, POS_INF), "divergent integral at \\+inf"),
                          ((0, complex(-0.5, 1.0), NEG_INF, 0.0), "divergent integral at -inf")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                expfun._poly_exp_integral(*args)
    assert expfun._closed_forms == {}
    assert evaluations["raw"] == 6


def test_the_memo_never_holds_more_than_its_bound(monkeypatch, evaluations):
    monkeypatch.setattr(expfun, "CLOSED_FORM_MEMO_SIZE", 8)
    args = [(k, complex(-0.25 * n, 1.0), 0.0, 1.0 + n) for n in range(10) for k in range(3)]
    for a in args * 2:
        assert value_bits(expfun._poly_exp_integral(*a)) == value_bits(expfun._closed_form(*a))
        assert 1 <= len(expfun._closed_forms) <= 8


def test_a_repeated_run_takes_every_closed_form_from_the_memo(evaluations):
    scenario = {"name": "memo", "model": {"kind": "nonlocal", "case": "I", "alpha": "1"},
                "checks": ["constancy", "green"]}
    first = cli.run_scenario_obj(scenario)
    cold = evaluations["raw"]
    second = cli.run_scenario_obj(scenario)
    assert cold > 0
    assert evaluations["raw"] == cold
    assert [(c["verdict"], repr(c["max_residual"])) for c in first["checks"]] == \
        [(c["verdict"], repr(c["max_residual"])) for c in second["checks"]]


def test_gram_equals_inner_bit_for_bit_on_a_warm_memo(evaluations):
    fs = block_family(np.random.default_rng(23), 12)
    cold = gram(fs, fs)
    evaluated = evaluations["raw"]
    warm = gram(fs, fs)
    for a, f in enumerate(fs):
        for b, h in enumerate(fs):
            assert bits(warm[a, b]) == bits(cold[a, b]) == bits(inner(f, h)), (a, b)
    assert evaluations["raw"] == evaluated


# -- boundary values ---------------------------------------------------------


def test_boundary_left_exponential():
    f = half_line_left()
    assert f.limit(0.0, "-") == pytest.approx(1.0)
    assert f.limit(0.0, "+") == 0


def test_boundary_scaled_right():
    f = PiecewiseExpFunction.single(5.0, 0.0, POS_INF, -2.0)
    assert f.limit(0.0, "-") == 0
    assert f.limit(0.0, "+") == pytest.approx(5.0)


def test_boundary_jump():
    f = half_line_left() - half_line_right()
    assert f.limit(0.0, "-") == pytest.approx(1.0)
    assert f.limit(0.0, "+") == pytest.approx(-1.0)


# -- transforms --------------------------------------------------------------


def test_dilate_indicator():
    f = PiecewiseExpFunction.indicator(0.0, 1.0)
    d = f.dilate()
    assert d == PiecewiseExpFunction.indicator(0.0, 0.5, math.sqrt(2))


def test_modulate_shifts_exponent():
    f = half_line_right(exponent=-1.0)
    m = f.modulate(1.0)
    assert m == PiecewiseExpFunction.single(1.0, 0.0, POS_INF, -1 - 1j)


def test_derivative_of_two_sided_exponential():
    f = half_line_left(1.0, 1.0) + half_line_right(1.0, -1.0)  # exp(-|x|)
    df = f.derivative()
    expected = half_line_left(1.0, 1.0) - half_line_right(1.0, -1.0)
    assert coefficient_distance(df, expected) <= 1e-13


def test_derivative_rejects_jump():
    f = half_line_left() - half_line_right()
    with pytest.raises(ValueError, match="x=0"):
        f.derivative()
    # a jump can be explicitly allowed at a named point
    df = f.derivative(jump_ok_at=(0.0,))
    assert coefficient_distance(df, half_line_left() + half_line_right()) <= 1e-13


def test_translate_with_power():
    f = PiecewiseExpFunction.single(1.0, 0.0, 1.0, -0.5, power=2)
    g = f.translate(2.0)
    xs = np.array([2.3, 2.9])
    np.testing.assert_allclose(g.eval_at(xs), f.eval_at(xs - 2.0), atol=1e-14)


def test_unitarity_of_transforms():
    rng = np.random.default_rng(11)
    for _ in range(25):
        f = random_function(rng)
        g = random_function(rng)
        base = inner(f, g)
        assert inner(f.modulate(0.7), g.modulate(0.7)) == pytest.approx(base, abs=1e-12)
        assert inner(f.translate(1.3), g.translate(1.3)) == pytest.approx(base, abs=1e-12)
        assert inner(f.dilate(), g.dilate()) == pytest.approx(base, abs=1e-12)


def reference_sum(terms):
    """The function of the validated ``terms``, written out term by term:
    terms of one (lo, hi, exponent, power) merge into the first one's kind
    with coefficients summed from 0j, an exact-zero sum is dropped, and the
    rest, each validated again, are sorted by (lo, hi, exponent, power)."""
    acc = {}
    for t in terms:
        key = (t.lo, t.hi, t.exponent, t.power)
        acc[key] = acc.get(key, 0j) + t.coeff
    merged = [ExpTerm(c, *key) for key, c in acc.items() if c != 0]
    return sorted(merged, key=lambda t: (t.lo, t.hi, t.exponent.real, t.exponent.imag,
                                         t.power))


def reference_transform(name, f, g, arg):
    """The terms of the transform ``name`` of f, built from f's terms (and
    g's) as validated ExpTerms, one by one."""
    if name == "neg":
        out = [ExpTerm(-t.coeff, t.lo, t.hi, t.exponent, t.power) for t in f.terms]
    elif name == "mul":
        out = [ExpTerm(arg * t.coeff, t.lo, t.hi, t.exponent, t.power) for t in f.terms]
    elif name == "add":
        out = [*f.terms, *g.terms]
    elif name == "sub":
        out = [*f.terms, *(ExpTerm(-t.coeff, t.lo, t.hi, t.exponent, t.power)
                           for t in g.terms)]
    elif name == "conjugate":
        out = [ExpTerm(t.coeff.conjugate(), t.lo, t.hi, t.exponent.conjugate(), t.power)
               for t in f.terms]
    elif name == "restrict":
        lo, hi = arg
        out = [ExpTerm(t.coeff, max(t.lo, lo), min(t.hi, hi), t.exponent, t.power)
               for t in f.terms if max(t.lo, lo) < min(t.hi, hi)]
    elif name == "translate":
        out = []
        for t in f.terms:
            base = t.coeff * cmath.exp(-t.exponent * arg)
            for j in range(t.power + 1):
                c = base * math.comb(t.power, j) * (-arg) ** (t.power - j)
                out.append(ExpTerm(c, t.lo + arg, t.hi + arg, t.exponent, j))
    elif name == "scale":
        out = [ExpTerm(math.sqrt(arg) * t.coeff * arg**t.power, t.lo / arg, t.hi / arg,
                       arg * t.exponent, t.power) for t in f.terms]
    elif name == "modulate":
        out = [ExpTerm(t.coeff, t.lo, t.hi, t.exponent + -1j * arg, t.power)
               for t in f.terms]
    else:  # the piecewise derivative, jumps allowed at every breakpoint
        out = []
        for t in f.terms:
            if t.power > 0:
                out.append(ExpTerm(t.coeff * t.power, t.lo, t.hi, t.exponent, t.power - 1))
            if t.exponent != 0:
                out.append(ExpTerm(t.coeff * t.exponent, t.lo, t.hi, t.exponent, t.power))
    return reference_sum(out)


TRANSFORMS = {
    "neg": lambda f, g, arg: -f,
    "mul": lambda f, g, arg: arg * f,
    "add": lambda f, g, arg: f + g,
    "sub": lambda f, g, arg: f - g,
    "conjugate": lambda f, g, arg: f.conjugate(),
    "restrict": lambda f, g, arg: f.restrict(*arg),
    "translate": lambda f, g, arg: f.translate(arg),
    "scale": lambda f, g, arg: f.scale(arg),
    "modulate": lambda f, g, arg: f.modulate(arg),
    "derivative": lambda f, g, arg: f.derivative(jump_ok_at=f.breakpoints()),
}

#: values with zero parts of either sign, and ones whose products with each
#: other overflow (a merge of three still fits a float)
TRANSFORM_COEFFS = st.one_of(complex_st, st.sampled_from(
    [complex(2.0, -0.0), complex(-0.0, -1.5), complex(-0.0, 1e300), 1e300]))
RESTRICT_ENDS = (NEG_INF, -1.0, -0.0, 0.0, 0.7, 2.5, POS_INF)


@st.composite
def transform_case_st(draw):
    """A transform, its argument, and the two functions it may read."""
    name = draw(st.sampled_from(sorted(TRANSFORMS)))
    arg = {
        "mul": TRANSFORM_COEFFS,
        "restrict": st.tuples(st.sampled_from(RESTRICT_ENDS), st.sampled_from(RESTRICT_ENDS)),
        "translate": st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3)),
        "scale": st.one_of(st.just(2.0), st.floats(0.1, 4)),
        "modulate": st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3)),
    }.get(name, st.none())
    return (name, draw(gram_functions_st(TRANSFORM_COEFFS)),
            draw(gram_functions_st(TRANSFORM_COEFFS)), draw(arg))


def outcome(build, *args):
    """Every part of every term as float.hex, or the error raised instead."""
    try:
        terms = build(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return [(t.coeff.real.hex(), t.coeff.imag.hex(), t.lo.hex(), t.hi.hex(),
             t.exponent.real.hex(), t.exponent.imag.hex(), t.power) for t in terms]


@settings(max_examples=400, deadline=None)
@given(transform_case_st())
def test_every_transform_equals_its_term_by_term_build_bit_for_bit(case):
    name, f, g, arg = case
    got = outcome(lambda: TRANSFORMS[name](f, g, arg).terms)
    assert got == outcome(reference_transform, name, f, g, arg)


# -- free resolvent -----------------------------------------------------------


def test_resolvent_rejects_real_z():
    with pytest.raises(ValueError):
        free_resolvent(1.0, half_line_right())
    with pytest.raises(ValueError, match="non-real"):
        free_resolvent([1j, 2.0], half_line_right())


def test_resolvent_of_zero_is_zero():
    assert free_resolvent(1j, PiecewiseExpFunction.zero()).is_zero


def test_resolvent_right_potential_upper_z():
    # gamma = a*exp(-x) on (0,inf), z in the upper half plane:
    # g(x) = (i*a/(1-i*z)) * (exp(-x) on x>0, exp(-i*z*x) on x<0)
    a = 0.8 - 0.3j
    z = 0.4 + 1.7j
    gamma = half_line_right(a, -1.0)
    g = free_resolvent(z, gamma)
    c = 1j * a / (1 - 1j * z)
    expected = (PiecewiseExpFunction.single(c, NEG_INF, 0.0, -1j * z)
                + PiecewiseExpFunction.single(c, 0.0, POS_INF, -1.0))
    assert coefficient_distance(g, expected) <= 1e-13


def test_resolvent_left_potential_upper_z():
    # gamma = a*exp(x) on (-inf,0): g = (i*a/(1+i*z)) * (exp(-izx) - exp(x)) on x<0
    a = 1.0
    z = 0.9 + 0.8j
    gamma = half_line_left(a, 1.0)
    g = free_resolvent(z, gamma)
    c = 1j * a / (1 + 1j * z)
    expected = (PiecewiseExpFunction.single(c, NEG_INF, 0.0, -1j * z)
                + PiecewiseExpFunction.single(-c, NEG_INF, 0.0, 1.0))
    assert coefficient_distance(g, expected) <= 1e-13


def test_resolvent_defect_identity_randomized():
    rng = np.random.default_rng(3)
    for _ in range(40):
        gamma = random_function(rng)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3) * rng.choice([-1, 1]))
        g = free_resolvent(z, gamma)
        scale = 1 + gamma.coefficient_norm()
        assert expfun.resolvent_residual(z, gamma, g) <= 1e-12 * scale


def test_resolvent_resonant_upper():
    # gamma = exp(x) on (-inf,0) at z=i resonates: the output picks up x*exp(x)
    g = free_resolvent(1j, half_line_left(1.0, 1.0))
    assert any(t.power == 1 for t in g.terms)
    assert expfun.resolvent_residual(1j, half_line_left(1.0, 1.0), g) <= 1e-12
    # pointwise: g(x) = -i x exp(x) for x < 0
    xs = np.array([-2.0, -0.5])
    np.testing.assert_allclose(g.eval_at(xs), -1j * xs * np.exp(xs), atol=1e-14)


def test_resolvent_resonant_lower():
    # gamma = exp(-x) on (0,inf) at z=-i resonates on the lower side
    gamma = half_line_right(1.0, -1.0)
    g = free_resolvent(-1j, gamma)
    assert any(t.power == 1 for t in g.terms)
    assert expfun.resolvent_residual(-1j, gamma, g) <= 1e-12


def test_resolvent_is_continuous():
    rng = np.random.default_rng(5)
    for _ in range(20):
        gamma = random_function(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2) * rng.choice([-1, 1]))
        g = free_resolvent(z, gamma)
        for b in g.breakpoints():
            assert abs(g.limit(b, "+") - g.limit(b, "-")) <= 1e-12 * (
                1 + g.coefficient_norm()
            )


@st.composite
def resolvent_batch_st(draw):
    """A potential of 1-3 terms, on half lines and on finite pieces, with
    powers 0-2, and a batch of 1-8 non-real points of both half planes; the
    batch may hold a point resonant with a finite piece (exponent -iz) and
    one where an exponential overflows."""
    terms, resonant = [], []
    for _ in range(draw(st.integers(1, 3))):
        c, power, im = draw(complex_st), draw(st.integers(0, 2)), draw(st.floats(-3, 3))
        end = draw(st.sampled_from([-1.5, -0.0, 0.0, 2.0]))
        side = draw(st.integers(0, 2))
        if side == 0:
            terms.append(ExpTerm(c, NEG_INF, end, complex(draw(st.floats(0.25, 2)), im), power))
        elif side == 1:
            terms.append(ExpTerm(c, end, POS_INF, complex(-draw(st.floats(0.25, 2)), im), power))
        else:
            exponent = complex(draw(st.floats(-2, 2)), im)
            terms.append(ExpTerm(c, end, end + draw(st.sampled_from([0.5, 3.0])), exponent,
                                 power))
            if exponent.real != 0:
                resonant.append(1j * exponent)
    point_st = st.builds(complex, st.floats(-5, 5),
                         st.one_of(st.floats(0.1, 5), st.floats(-5, -0.1)))
    zs = draw(st.lists(point_st, min_size=1, max_size=8))
    for extra in (resonant[:1], [draw(st.sampled_from([1e3j, -1e3j]))]):
        if extra and len(zs) < 8 and draw(st.booleans()):
            zs.insert(draw(st.integers(0, len(zs))), extra[0])
    return PiecewiseExpFunction(terms), zs


@settings(max_examples=200, deadline=None)
@given(resolvent_batch_st())
# both half planes, a resonant point of the finite piece, and one whose
# exponential overflows
@example((PiecewiseExpFunction.single(0.5 - 1j, -1.5, 2.0, complex(0.3, 1.0), 1)
          + half_line_right(2.0, complex(-1.0, 0.5)),
          [1j, 0.5 - 2j, complex(1.0, 0.3), -3 + 0.1j, complex(-1.0, -0.3), 1e3j]))
def test_a_batch_of_points_holds_the_one_point_resolvents_row_by_row(case):
    gamma, zs = case
    packed, errors = free_resolvent(zs, gamma)
    for z, f, error in zip(zs, packed.functions(), errors):
        want = outcome(lambda: free_resolvent(z, gamma).terms)
        if error is None:
            assert outcome(lambda: f.terms) == want
        else:
            assert (type(error).__name__, str(error)) == want
            assert f.is_zero  # a failed point's row holds no term


# -- CPython's complex arithmetic, replayed on arrays ----------------------------------


def part_hex(pair):
    return tuple(float(x).hex() for x in pair)


#: zeros of both signs and magnitudes from 1e-300 to 1e300 of both signs
replay_part_st = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


@settings(max_examples=1000, deadline=None)
@given(st.tuples(replay_part_st, replay_part_st), st.tuples(replay_part_st, replay_part_st))
def test_the_product_and_quotient_replays_equal_cpython_bit_for_bit(a, b):
    x, y, s = complex(*a), complex(*b), b[0]

    def arrays(*parts):
        return [np.array([p]) for p in parts]

    with np.errstate(all="ignore"):
        # complex by complex, and a float operand as CPython promotes it
        pairs = [(expfun._mul(*arrays(*a, *b)), x * y),
                 (expfun._mul(*arrays(*a, s, 0.0)), x * s),
                 (expfun._mul(*arrays(s, 0.0, *a)), s * x)]
    if y != 0:
        pairs.append((expfun._quot(*arrays(*a, *b)), x / y))
    if s != 0:
        pairs.append((expfun._quot(*arrays(*a, s, 0.0)), x / s))
    if x != 0:
        pairs.append((expfun._quot(*arrays(s, 0.0, *a)), s / x))
    for got, want in pairs:
        assert part_hex(v[0] for v in got) == part_hex((want.real, want.imag))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(700.0, 710.0), st.floats(-800.0, 700.0)),
       st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 5e-324, -1e-310])))
def test_the_exp_replay_equals_cmath_exp_and_is_nan_where_it_raises(re, im):
    with np.errstate(all="ignore"):  # as every array build runs it
        got = expfun._exp(expfun.SplitComplex(np.array([re]), np.array([im])))
    try:
        want = cmath.exp(complex(re, im))
    except OverflowError:
        want = complex(math.nan, math.nan)  # not finite, so the point fails
    assert part_hex((got.real[0], got.imag[0])) == part_hex((want.real, want.imag))


# -- serialization ------------------------------------------------------------


def test_json_round_trip():
    f = (half_line_left(1 + 2j, 0.5 + 1j)
         + PiecewiseExpFunction.single(-0.25j, 0.0, POS_INF, -1.0, power=1))
    obj = f.to_json_obj()
    assert obj[0]["lo"] == "-inf"
    assert "power" not in obj[0]
    assert obj[1]["power"] == 1
    back = PiecewiseExpFunction.from_json_obj(obj)
    assert back == f


def test_eval_matches_limits():
    f = half_line_left(2.0, 0.5)
    x = np.array([-1.0])
    np.testing.assert_allclose(f.eval_at(x), [2.0 * math.exp(-0.5)])
    assert f.limit(-1.0, "-") == pytest.approx(2.0 * cmath.exp(-0.5))
