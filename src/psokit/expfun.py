"""Exact algebra of piecewise exponential functions on the real line.

A function here is a finite sum of terms ``coeff * x**power * exp(s*x)``
supported on an interval ``[lo, hi]`` (either end may be infinite).  This
class is closed under addition, scalar multiplication, conjugation,
translation, dilation, modulation, restriction to half-lines, piecewise
differentiation, and the resolvent of the free momentum operator ``i d/dx``.
Inner products are evaluated in closed form, each distinct closed-form
integral once per process, and an independent composite Gauss-Legendre
quadrature is provided as a cross-checking oracle.

A term's kind (interval, exponent, power) is validated once, when the term
is built from raw values; merging, negation and scalar multiples reuse it
and check only the new coefficient.

A function holds its terms as one *row*: tuples of the raw values, merged
and sorted, with no object per term; ``terms`` gives ExpTerm views of it.

A function's values are Python complex scalars; numpy enters for
vectorized pointwise evaluation inside the quadrature oracle, for the
batched kernels, ``gram`` (all pairs of two lists) and ``paired`` (row by
row), which read functions packed into arrays, take their integrals from
the same closed form as the scalar inner product and reproduce that inner
product bit for bit, and for the array builds of the free resolvent, which
fill the rows of a whole batch of points at once, each bit for bit the row
the scalar formula gives.  An array build fails a point by one rule, where
the scalar formula raises: a term the point holds, unmerged or merged, has
a coefficient or exponent part that is not finite, or the modulus of a
resolvent exponent iz + s overflows; the point's error names the term.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .scalars import format_complex
from .tolerances import DEGENERATE_EXPONENT_TOL, JUMP_TOL, QUADRATURE_TOL, TAIL_CUTOFF

NEG_INF = float("-inf")
POS_INF = float("inf")

#: closed-form integrals the memo of ``_poly_exp_integral`` holds before it
#: starts over; at about 150 B an entry, 0.6 MB
CLOSED_FORM_MEMO_SIZE = 4096


class QuadratureBudgetError(RuntimeError):
    """The quadrature oracle failed to converge within its panel budget.

    Raised so that a misbehaving oracle is distinguishable from an oracle
    that converged to a value disagreeing with the closed form.
    """


@dataclass(frozen=True)
class ExpTerm:
    """One term ``coeff * x**power * exp(exponent*x)`` on ``[lo, hi]``.

    Invariants guarantee square integrability: an infinite left end needs
    ``Re(exponent) > 0`` and an infinite right end needs ``Re(exponent) < 0``.
    The constructor validates the term with :func:`_term`.
    """

    coeff: complex
    lo: float
    hi: float
    exponent: complex
    power: int = 0

    def __post_init__(self):
        for name, value in zip(("coeff", "lo", "hi", "exponent", "power"), _term(*self)):
            object.__setattr__(self, name, value)

    def __iter__(self):
        """The raw values (coeff, lo, hi, exponent, power): a term unpacks as
        the term tuples of a row do."""
        return iter((self.coeff, self.lo, self.hi, self.exponent, self.power))


def _term(coeff, lo, hi, exponent, power=0) -> tuple:
    """The raw term (coeff, lo, hi, exponent, power) as a row holds it:
    complex, float, float, complex, int, checked as :class:`ExpTerm` states
    its invariants.  The one validator of a term."""
    coeff, lo, hi, exponent = complex(coeff), float(lo), float(hi), complex(exponent)
    if not (isinstance(power, numbers.Real) and math.isfinite(power) and power >= 0
            and power == int(power)):
        raise ValueError(f"power must be a nonnegative integer, got {power!r}")
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if not (cmath.isfinite(coeff) and cmath.isfinite(exponent)):
        raise ValueError(_NOT_FINITE)
    if lo == NEG_INF and exponent.real <= 0:
        raise ValueError(
            f"term exp({exponent}*x) on ({lo}, {hi}] is not "
            "square integrable: need Re(exponent) > 0 at -inf"
        )
    if hi == POS_INF and exponent.real >= 0:
        raise ValueError(
            f"term exp({exponent}*x) on [{lo}, {hi}) is not "
            "square integrable: need Re(exponent) < 0 at +inf"
        )
    return coeff, lo, hi, exponent, int(power)


# ---------------------------------------------------------------------------
# rows: the terms of a function as raw tuples
# ---------------------------------------------------------------------------
#
# A function holds its terms as its *row*: tuples (coeff, lo, hi, exponent,
# power) of the values an ExpTerm holds, merged and in canonical order,
# without an object per term.  An ExpTerm unpacks as a row's tuple does.

_NOT_FINITE = "coefficient and exponent must be finite"


def _finite(coeff: complex) -> complex:
    if not cmath.isfinite(coeff):
        raise ValueError(_NOT_FINITE)
    return coeff


def _row_sort_key(t: tuple):
    return (t[1], t[2], t[3].real, t[3].imag, t[4])


def canonical_row(terms) -> tuple:
    """The canonical row of the sum of validated terms, as the function
    ``PiecewiseExpFunction(terms)`` holds it.

    Terms of one (lo, hi, exponent, power) merge into the kind of the first,
    their coefficients summed from 0j; an exact-zero sum is dropped and one
    that is not finite is rejected; the rest are sorted by (lo, hi,
    exponent, power).
    """
    acc: dict[tuple, complex] = {}
    for coeff, lo, hi, exponent, power in terms:
        key = (lo, hi, exponent, power)
        # a dict keeps the first of equal keys, so the kind's bits are the first term's
        acc[key] = acc.get(key, 0j) + coeff
    merged = []
    for (lo, hi, exponent, power), c in acc.items():
        if c != 0:
            merged.append((_finite(c), lo, hi, exponent, power))
    if len(merged) > 1:
        merged.sort(key=_row_sort_key)
    return tuple(merged)


@dataclass(frozen=True, init=False)
class PiecewiseExpFunction:
    """Finite sum of terms, held as one canonical row; the zero function has
    no terms.

    Construction validates each raw term with :func:`_term` and
    canonicalizes: terms of one (lo, hi, exponent, power) merge into the
    kind of the first and exact-zero coefficients are dropped, so equal
    functions built the same way compare equal term by term.
    """

    row: tuple = ()

    def __init__(self, terms=()):
        object.__setattr__(self, "row", canonical_row(_term(*t) for t in terms))

    @property
    def terms(self) -> tuple[ExpTerm, ...]:
        """The terms of the row as ExpTerms, built on each read."""
        return tuple(ExpTerm(*t) for t in self.row)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_row(cls, row) -> "PiecewiseExpFunction":
        """The function whose terms are those of a canonical row, such as
        ``canonical_row`` returns; nothing is merged or checked again."""
        f = object.__new__(cls)
        object.__setattr__(f, "row", tuple(row))
        return f

    @classmethod
    def zero(cls) -> "PiecewiseExpFunction":
        return cls(())

    @classmethod
    def single(cls, coeff, lo, hi, exponent, power=0) -> "PiecewiseExpFunction":
        return cls(((coeff, lo, hi, exponent, power),))

    @classmethod
    def indicator(cls, lo, hi, coeff=1.0) -> "PiecewiseExpFunction":
        """Characteristic function of [lo, hi], scaled by coeff."""
        return cls.single(coeff, lo, hi, 0.0)

    # -- linear structure --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.row

    def __add__(self, other):
        if not isinstance(other, PiecewiseExpFunction):
            return NotImplemented
        return PiecewiseExpFunction.from_row(canonical_row(self.row + other.row))

    def __neg__(self):
        return PiecewiseExpFunction.from_row(canonical_row(
            (-coeff, lo, hi, exponent, power) for coeff, lo, hi, exponent, power in self.row))

    def __sub__(self, other):
        if not isinstance(other, PiecewiseExpFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, PiecewiseExpFunction):
            return NotImplemented
        c = complex(scalar)
        return PiecewiseExpFunction.from_row(canonical_row(
            (c * coeff, lo, hi, exponent, power) for coeff, lo, hi, exponent, power in self.row))

    __rmul__ = __mul__

    def conjugate(self) -> "PiecewiseExpFunction":
        """Complex conjugate (x stays real, so only coeff and exponent flip)."""
        return PiecewiseExpFunction(
            (coeff.conjugate(), lo, hi, exponent.conjugate(), power)
            for coeff, lo, hi, exponent, power in self.row
        )

    def restrict(self, lo, hi) -> "PiecewiseExpFunction":
        """Restriction to the interval [lo, hi] (zero outside)."""
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"restriction bounds must not be NaN, got lo={lo}, hi={hi}")
        out = []
        for coeff, t_lo, t_hi, exponent, power in self.row:
            a, b = max(t_lo, lo), min(t_hi, hi)
            if a < b:
                out.append((coeff, a, b, exponent, power))
        return PiecewiseExpFunction(out)

    # -- transforms --------------------------------------------------------

    def translate(self, y: float) -> "PiecewiseExpFunction":
        """x -> f(x - y)."""
        y = float(y)
        out = []
        for coeff, lo, hi, exponent, power in self.row:
            base = coeff * cmath.exp(-exponent * y)
            # (x - y)**k expands into monomials in x
            for j in range(power + 1):
                c = base * math.comb(power, j) * (-y) ** (power - j)
                out.append((c, lo + y, hi + y, exponent, j))
        return PiecewiseExpFunction(out)

    def scale(self, a: float) -> "PiecewiseExpFunction":
        """Unitary scaling x -> sqrt(a) * f(a*x) for a > 0."""
        a = float(a)
        if a <= 0:
            raise ValueError("scaling factor must be positive")
        root = math.sqrt(a)
        return PiecewiseExpFunction(
            (root * coeff * a**power, lo / a, hi / a, a * exponent, power)
            for coeff, lo, hi, exponent, power in self.row
        )

    def dilate(self) -> "PiecewiseExpFunction":
        """The dyadic dilation x -> sqrt(2) * f(2x)."""
        return self.scale(2.0)

    def modulate(self, t: float) -> "PiecewiseExpFunction":
        """x -> exp(-i*t*x) * f(x); shifts every exponent by -i*t."""
        shift = -1j * float(t)
        return PiecewiseExpFunction(
            (coeff, lo, hi, exponent + shift, power)
            for coeff, lo, hi, exponent, power in self.row
        )

    def derivative(self, jump_ok_at: tuple[float, ...] = ()) -> "PiecewiseExpFunction":
        """Piecewise derivative; rejects functions with jumps.

        Jumps at the points listed in ``jump_ok_at`` are tolerated (model
        maximal domains allow a jump at the interaction point); everywhere
        else the one-sided limits must agree to within JUMP_TOL, otherwise
        the symbolic piecewise derivative would not be the weak derivative.
        """
        x, jump = self.first_jump(JUMP_TOL, jump_ok_at)
        if x is not None:
            raise ValueError(
                f"function has a jump of {jump:.3e} at x={x}; "
                "piecewise derivative rejected"
            )
        out = []
        for coeff, lo, hi, exponent, power in self.row:
            if power > 0:
                out.append((coeff * power, lo, hi, exponent, power - 1))
            if exponent != 0:
                out.append((coeff * exponent, lo, hi, exponent, power))
        return PiecewiseExpFunction(out)

    # -- pointwise structure -----------------------------------------------

    def breakpoints(self) -> tuple[float, ...]:
        """Sorted finite interval endpoints appearing in any term."""
        pts = set()
        for _, lo, hi, _, _ in self.row:
            if lo != NEG_INF:
                pts.add(lo)
            if hi != POS_INF:
                pts.add(hi)
        return tuple(sorted(pts))

    def limit(self, x0: float, side: str) -> complex:
        """One-sided limit at x0; side is '+' or '-'."""
        if side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        val = 0j
        for coeff, lo, hi, exponent, power in self.row:
            if (lo < x0 <= hi) if side == "-" else (lo <= x0 < hi):
                val += coeff * x0**power * cmath.exp(exponent * x0)
        return val

    def first_jump(self, tol: float, skip: tuple[float, ...] = ()
                   ) -> tuple[float | None, float]:
        """First breakpoint outside ``skip`` where the one-sided limits differ
        by more than tol, with the size of that jump; (None, 0.0) if none."""
        for b in self.breakpoints():
            if b in skip:
                continue
            jump = abs(self.limit(b, "+") - self.limit(b, "-"))
            if jump > tol:
                return b, jump
        return None, 0.0

    def eval_at(self, x) -> np.ndarray:
        """Pointwise values on an array of interior points (endpoints have
        measure zero and are attributed to neither side)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for coeff, lo, hi, exponent, power in self.row:
            mask = (x > lo) & (x < hi)
            if mask.any():
                xm = x[mask]
                out[mask] += coeff * xm**power * np.exp(exponent * xm)
        return out

    def coefficient_norm(self) -> float:
        return max((abs(coeff) for coeff, _, _, _, _ in self.row), default=0.0)

    def support(self) -> tuple[float, float]:
        if not self.row:
            return (0.0, 0.0)
        return (min(t[1] for t in self.row), max(t[2] for t in self.row))

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        def enc(v):
            if v == NEG_INF:
                return "-inf"
            if v == POS_INF:
                return "+inf"
            return v

        out = []
        for coeff, lo, hi, exponent, power in self.row:
            d = {
                "coeff_re": coeff.real,
                "coeff_im": coeff.imag,
                "lo": enc(lo),
                "hi": enc(hi),
                "exp_re": exponent.real,
                "exp_im": exponent.imag,
            }
            if power:
                d["power"] = power
            out.append(d)
        return out

    @classmethod
    def from_json_obj(cls, obj) -> "PiecewiseExpFunction":
        def dec(v):
            if v == "-inf":
                return NEG_INF
            if v == "+inf":
                return POS_INF
            return float(v)

        return cls(
            (
                complex(d["coeff_re"], d["coeff_im"]),
                dec(d["lo"]),
                dec(d["hi"]),
                complex(d["exp_re"], d["exp_im"]),
                d.get("power", 0),
            )
            for d in obj
        )


# ---------------------------------------------------------------------------
# closed-form integration
# ---------------------------------------------------------------------------


def _antiderivative_coeffs(k: int, u):
    """Coefficients c_j of the antiderivative exp(u*x) * sum_j c_j * x**(k-j)
    of x**k * exp(u*x), for u a complex number or a :class:`SplitComplex`
    array of them."""
    coeffs = []
    c = 1.0 / u
    fall = 1.0
    for j in range(k + 1):
        coeffs.append((-1) ** j * fall * c)
        if j < k:
            fall *= k - j
            c /= u
    return coeffs


def _antiderivative(k: int, u, coeffs, x: float, exp=cmath.exp, power=pow):
    """Value at finite x of the antiderivative of x**k * exp(u*x), with
    ``coeffs = _antiderivative_coeffs(k, u)``, or None for a degenerate u,
    whose antiderivative is x**(k+1) / (k+1).

    ``exp(w)`` and ``power(x, n)`` take exp(w) and x**n; an array build
    passes ones that give a value that is not finite where these raise.
    """
    if coeffs is None:
        return power(x, k + 1) / (k + 1)
    p = 0j
    for j, c in enumerate(coeffs):
        p += c * power(x, k - j)
    return exp(u * x) * p


def _closed_form(k: int, u: complex, a: float, b: float) -> complex:
    """Integral of x**k * exp(u*x) over [a, b] in closed form, evaluated.

    An exponent with |u| below DEGENERATE_EXPONENT_TOL is degenerate: it is
    treated as exactly zero, which avoids catastrophic cancellation.  A
    degenerate exponent can only arise on a finite interval for
    square-integrable terms.
    """
    coeffs = None if abs(u) < DEGENERATE_EXPONENT_TOL else _antiderivative_coeffs(k, u)
    if coeffs is None and (a == NEG_INF or b == POS_INF):
        raise ValueError("divergent integral: zero exponent on infinite interval")
    if b == POS_INF:
        if u.real >= 0:
            raise ValueError("divergent integral at +inf")
        vb = 0j
    else:
        vb = _antiderivative(k, u, coeffs, b)
    if a == NEG_INF:
        if u.real <= 0:
            raise ValueError("divergent integral at -inf")
        va = 0j
    else:
        va = _antiderivative(k, u, coeffs, a)
    return vb - va


_argument_bits = struct.Struct("<qdddd").pack
_closed_forms: dict[bytes, complex | float] = {}


def _poly_exp_integral(k: int, u: complex, a: float, b: float) -> complex:
    """Integral of x**k * exp(u*x) over [a, b] in closed form, memoised.

    The memo is keyed on the bits of (k, u, a, b), so -0.0 and 0.0 stay
    apart, and holds each value as ``_closed_form`` returned it (a float
    from the degenerate branch).  A divergent integral raises on every call
    and is not stored.  The table holds at most CLOSED_FORM_MEMO_SIZE
    entries and is emptied when full.
    """
    key = _argument_bits(k, u.real, u.imag, a, b)
    value = _closed_forms.get(key)
    if value is None:
        value = _closed_form(k, u, a, b)
        if len(_closed_forms) >= CLOSED_FORM_MEMO_SIZE:
            _closed_forms.clear()
        _closed_forms[key] = value
    return value


def inner(f: PiecewiseExpFunction, g: PiecewiseExpFunction) -> complex:
    """L2 inner product, linear in f and conjugate linear in g, closed form."""
    total = 0j
    for f_coeff, f_lo, f_hi, f_exp, f_power in f.row:
        for g_coeff, g_lo, g_hi, g_exp, g_power in g.row:
            # the operand max(f_lo, g_lo) and min(f_hi, g_hi) return, ties,
            # signed zeros and NaN alike, without the builtin calls
            lo = g_lo if g_lo > f_lo else f_lo
            hi = g_hi if g_hi < f_hi else f_hi
            if lo >= hi:
                continue
            u = f_exp + g_exp.conjugate()
            total += (
                f_coeff
                * g_coeff.conjugate()
                * _poly_exp_integral(f_power + g_power, u, lo, hi)
            )
    return total


def norm(f: PiecewiseExpFunction) -> float:
    return _root(inner(f, f))


def _root(square: complex) -> float:
    return math.sqrt(max(square.real, 0.0))


def coefficient_distance(f: PiecewiseExpFunction, g: PiecewiseExpFunction) -> float:
    """Largest merged-coefficient magnitude of f - g (term-level distance)."""
    return (f - g).coefficient_norm()


# ---------------------------------------------------------------------------
# the batched Gram kernel
# ---------------------------------------------------------------------------
#
# The kernel evaluates ``inner`` for many pairs at once and must agree with
# it bit for bit.  It takes each integral from ``_poly_exp_integral``, the
# closed form ``inner`` uses, so the only arithmetic it replays is CPython's
# complex product (through 3.13), spelled out in real float64 operations,
# which numpy rounds exactly as C does.
#
# The integral of a pair of terms depends only on their kinds, (exponent,
# lo, hi, power), and families of functions share kinds heavily: every
# defect vector of a nonlocal model carries the potential's term.  So a
# pack builds, on first use by a kernel, a table of the distinct kinds of
# its terms, told apart bit for bit, and an index into it per term; ``gram``
# evaluates the closed form once
# per call for each overlapping pair of kinds of its two packs, in
# Python, and leaves each entry only a gather, two complex products and
# the accumulation.  Those per-entry steps run GRAM_BLOCK rows of the output
# at a time, which bounds their temporaries and lets a block skip a slot
# pair whose terms overlap nowhere in its rows.

#: rows of the output whose per-entry products the kernel takes at once; a
#: 310 x 310 Gram peaks at about 1 MB of temporaries beside its result
GRAM_BLOCK = 24

#: ``paired`` evaluates fewer rows than this by the scalar ``inner``.  For
#: the norms of I(1) defect vectors (2-vCPU x86-64 host, BLAS 1 thread,
#: closed forms memoised, timeit minima of two runs) the faster path depends
#: on the input: on a fresh pack slice, whose rows the scalar path first
#: reads back as functions, the scalar loop is ahead at 32 rows (0.15
#: against 0.18 ms) and the kernel from 64 (0.23 against 0.28 ms); on a
#: list of functions the scalar loop is ahead through 256 rows (0.40
#: against 0.62 ms).
PAIRED_SCALAR_ROWS = 32


@dataclass(frozen=True, eq=False)
class PackedFunctions:
    """Functions as padded (count, width) arrays of their terms.

    Row i holds the terms of function i in their canonical order; a slot
    that holds no term holds a padding term, every part zero, so its
    coefficient is zero and its interval [0, 0] empty.  ``parts`` is the
    (7, count, width) float array of the parts of the terms: the
    coefficient split into real and imaginary parts, lo, hi, the exponent
    split likewise, and the power; ``coeff_re``, ``coeff_im``, ``lo`` and
    ``hi`` name the first four.  The rest of a term besides its
    coefficient is its kind; ``kinds`` is the table
    (lo, hi, exp_re, exp_im, power) of the distinct kinds of the slots, the
    padding kind first, and ``kind[i, p]`` indexes it.  Kinds are told apart
    bit for bit, so -0.0 and 0.0 are different kinds.  The table is built
    when a kernel first asks for it, so a pack read only row by row, or
    only at the origin, never builds one.
    """

    parts: np.ndarray

    coeff_re = property(lambda self: self.parts[0])
    coeff_im = property(lambda self: self.parts[1])
    lo = property(lambda self: self.parts[2])
    hi = property(lambda self: self.parts[3])

    def __len__(self) -> int:
        return self.parts.shape[1]

    @functools.cached_property
    def _table(self) -> tuple:
        return _kind_table(*self.parts[2:].reshape(5, -1))

    @property
    def kinds(self) -> tuple[np.ndarray, ...]:
        return self._table[0]

    @property
    def kind(self) -> np.ndarray:
        return self._table[1].reshape(self.parts.shape[1:])

    def rows(self, at=None) -> list[tuple]:
        """The canonical rows of the functions at the row indices ``at`` (of
        all of them by default), with the bits the pack holds."""
        parts = self.parts if at is None else self.parts[:, np.asarray(at, dtype=np.intp)]
        return [tuple((complex(cr, ci), lo, hi, complex(er, ei), power)
                      for cr, ci, lo, hi, er, ei, power in zip(*row) if cr != 0 or ci != 0)
                for row in zip(*parts[:6].tolist(), parts[6].astype(np.int64).tolist())]

    def functions(self, at=None) -> list["PiecewiseExpFunction"]:
        """The functions at the row indices ``at``, each wrapping its row."""
        return [PiecewiseExpFunction.from_row(row) for row in self.rows(at)]


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def _kind_table(lo, hi, exp_re, exp_im, power):
    """The table (lo, hi, exp_re, exp_im, power) of the distinct kinds among
    flat arrays of term kinds, told apart by their bits, with the padding
    kind first and the others in the order of their first terms, and the
    index of each term's kind in that table."""
    keys = np.zeros((5, np.size(lo) + 1), dtype=np.int64)  # the padding kind first
    for key, x in zip(keys, (lo, hi, exp_re, exp_im)):
        key[1:] = _bits(x)
    keys[4, 1:] = power
    # a stable sort puts equal keys side by side, each run led by its first term
    order = np.lexsort(keys)
    runs = np.empty(order.size, dtype=bool)
    runs[0] = True
    np.any(keys[:, order[1:]] != keys[:, order[:-1]], axis=0, out=runs[1:])
    first = order[runs]
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    at = np.empty(order.size, dtype=np.intp)
    at[order] = rank[np.cumsum(runs) - 1]
    table = keys[:, np.sort(first)]
    return (*(x.view(np.float64) for x in table[:4]), table[4]), at[1:]


def pack_terms(coeff_re, coeff_im, lo, hi, exp_re, exp_im, power) -> PackedFunctions:
    """The pack of functions given as (count, width) arrays of the parts of
    their terms, each row in canonical order, with zeros in every part of a
    slot that holds no term."""
    return PackedFunctions(np.array([coeff_re, coeff_im, lo, hi, exp_re, exp_im, power],
                                    dtype=float))


def pack(fs) -> PackedFunctions:
    """Pack functions for :func:`gram` and :func:`paired`."""
    rows = [f.row for f in fs]
    n = len(rows)
    width = max(map(len, rows), default=0)
    pad = ((0j, 0.0, 0.0, 0j, 0),)
    slots = [t for row in rows for t in (*row, *pad * (width - len(row)))]
    coeff, lo, hi, exponent, power = (
        np.array(column, dtype=dtype).reshape(n, width) for column, dtype in
        zip(list(zip(*slots)) or [()] * 5, (complex, float, float, complex, float)))
    return pack_terms(coeff.real, coeff.imag, lo, hi, exponent.real, exponent.imag, power)


def select(f: PackedFunctions, rows, scales=None) -> PackedFunctions:
    """The rows ``rows`` of f as their own pack, bit for bit the pack that
    :func:`pack` makes of those functions, each scaled by ``scales[i]`` if
    given.

    Each coefficient is multiplied as ``complex(scale) * coeff``, then added
    to 0j as ``canonical_row`` merges it; one that is not finite is rejected
    as :class:`ExpTerm` rejects it, and a term whose coefficient is exactly
    zero becomes padding.  Trailing slots that hold no term in any row are
    cut.  The slice builds its own kind table, of the kinds its rows use, so
    a kernel takes no closed form for a kind the rows never meet.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if scales is None and rows.size == len(f) and (rows == np.arange(rows.size)).all():
        return f  # every row, in order: the pack itself
    parts = f.parts[:, rows]
    if scales is not None:
        term = (parts[0] != 0) | (parts[1] != 0)
        scale = np.asarray(scales, dtype=float)[:, None]
        with np.errstate(all="ignore"):  # a product that overflows is rejected below
            re, im = _mul(scale, 0.0, parts[0], parts[1])
        parts[0], parts[1] = 0.0 + re, 0.0 + im
        if not (np.isfinite(parts[0][term]).all() and np.isfinite(parts[1][term]).all()):
            raise ValueError(_NOT_FINITE)
        parts = np.where((parts[0] != 0) | (parts[1] != 0), parts, 0.0)
    held = (parts[0] != 0) | (parts[1] != 0)
    width = int(np.flatnonzero(held.any(axis=0))[-1]) + 1 if held.any() else 0
    sliced = PackedFunctions(parts[:, :, :width])
    if "_table" in vars(f):
        # f's table, cut to the kinds the slice uses, spares the slice a sort
        kind = np.where(held, f.kind[rows], 0)[:, :width]
        used = np.zeros(f.kinds[0].size, dtype=bool)
        used[0] = True
        used[kind] = True
        vars(sliced)["_table"] = (tuple(column[used] for column in f.kinds),
                                  (np.cumsum(used) - 1)[kind].ravel())
    return sliced


def join(f: PackedFunctions, g: PackedFunctions) -> PackedFunctions:
    """The rows of f, then those of g, as one pack."""
    n, fw, gw = len(f), f.parts.shape[2], g.parts.shape[2]
    both = np.zeros((7, n + len(g), max(fw, gw)))
    both[:, :n, :fw] = f.parts
    both[:, n:, :gw] = g.parts
    return PackedFunctions(both)


def origin_limits(f: PackedFunctions) -> tuple["SplitComplex", "SplitComplex"]:
    """``[h.limit(0.0, "-") for h in fs]`` and the same from the right, bit
    for bit, for the functions fs packed in f.

    At the origin ``x0**power`` is 1.0 for power 0 and 0.0 otherwise, and
    ``cmath.exp(exponent * x0)`` is exactly (1.0, the imaginary part of
    ``exponent * 0.0``).
    """
    cr, ci, lo, hi, er, ei, power = f.parts
    c = _mul(cr, ci, np.where(power == 0, 1.0, 0.0), 0.0)
    c = np.array(_mul(*c, 1.0, er * 0.0 + ei * 0.0))
    on = np.array([(lo < 0.0) & (0.0 <= hi), (lo <= 0.0) & (0.0 < hi)])[:, None]
    out = np.zeros((2, 2, len(f)))  # each sum from 0j, in row order
    for p in range(cr.shape[1]):
        np.add(out, c[:, :, p], out=out, where=on[..., p])
    return SplitComplex(*out[0]), SplitComplex(*out[1])


def _kind_integrals(f: PackedFunctions, g: PackedFunctions, a: np.ndarray,
                    b: np.ndarray):
    """``_poly_exp_integral`` once for each candidate pair (a[n], b[n]) of a
    kind of f and a kind of g whose intervals overlap.

    Returns the mask of the candidates that overlap and the integrals' real
    and imaginary parts at positions 1, 2, ..., in the order of those
    candidates (position 0 holds zeros).  The overlap test is inner's strict
    one, which also rejects the padding kind [0, 0].
    """
    flo, fhi, fre, fim, fpow = f.kinds
    glo, ghi, gre, gim, gpow = g.kinds
    lo = np.where(glo[b] > flo[a], glo[b], flo[a])  # max(tf.lo, tg.lo)
    hi = np.where(ghi[b] < fhi[a], ghi[b], fhi[a])  # min(tf.hi, tg.hi)
    on = lo < hi
    a, b, lo, hi = a[on], b[on], lo[on], hi[on]
    pairs = zip((fpow[a] + gpow[b]).tolist(), (fre[a] + gre[b]).tolist(),
                (fim[a] + -gim[b]).tolist(), lo.tolist(), hi.tolist())
    # a degenerate integral is a float: widened to complex(v, 0.0), as
    # inner's product widens it
    integrals = np.array([0j, *(_poly_exp_integral(k, complex(ur, ui), x, y)
                                for k, ur, ui, x, y in pairs)], dtype=complex)
    return on, integrals.real, integrals.imag


def _packed(fs) -> PackedFunctions:
    return fs if isinstance(fs, PackedFunctions) else pack(fs)


def _functions(fs) -> list[PiecewiseExpFunction]:
    return fs.functions() if isinstance(fs, PackedFunctions) else list(fs)


def _accumulate(total_re, total_im, f_re, f_im, g_re, g_conj_im, pos, ir, ii) -> None:
    """Add coefficient product times integral where ``pos`` is not 0, as
    ``inner`` adds one overlapping pair of terms."""
    on = pos != 0
    if on.any():
        cr, ci = _mul(f_re, f_im, g_re, g_conj_im)
        cr, ci = _mul(cr, ci, ir.take(pos), ii.take(pos))
        np.add(total_re, cr, out=total_re, where=on)
        np.add(total_im, ci, out=total_im, where=on)


def gram(fs, gs) -> np.ndarray:
    """The matrix ``inner(f, g)`` over f in fs (rows) and g in gs (columns).

    fs and gs are sequences of functions, or their :func:`pack` forms or
    pack slices.  Every entry equals the scalar ``inner`` bit for bit.  The
    closed form of ``inner``, ``_poly_exp_integral``, runs once per call
    for each overlapping pair of a term kind of fs and a term kind of gs.
    Then, GRAM_BLOCK rows at a time and for each pair of term slots (p
    outer, q inner, as in ``inner``), each entry whose terms overlap
    gathers its integral, multiplies its coefficient product by it and
    accumulates.
    """
    f, g = _packed(fs), _packed(gs)
    out = np.zeros((len(f), len(g)), dtype=complex)
    g_re, g_conj_im = g.coeff_re, -g.coeff_im
    with np.errstate(all="ignore"):
        # the candidates include every overlapping pair of kinds
        flo, fhi, glo, ghi = f.kinds[0], f.kinds[1], g.kinds[0], g.kinds[1]
        a, b = np.nonzero((glo < fhi[:, None]) & (flo[:, None] < ghi))
        on, ir, ii = _kind_integrals(f, g, a, b)
        position = np.zeros((flo.size, glo.size), dtype=np.int32)
        position[a[on], b[on]] = np.arange(1, np.count_nonzero(on) + 1)
        # entry (i, j) of slot pair (p, q) takes position.flat[fi[i, p] + gi[j, q]]
        fi, gi = f.kind * position.shape[1], g.kind
        for start in range(0, len(f), GRAM_BLOCK):
            rows = slice(start, start + GRAM_BLOCK)
            total_re, total_im = out[rows].real, out[rows].imag
            f_re, f_im, f_at = f.coeff_re[rows], f.coeff_im[rows], fi[rows]
            for p in range(fi.shape[1]):
                for q in range(gi.shape[1]):
                    _accumulate(total_re, total_im, f_re[:, p, None], f_im[:, p, None],
                                g_re[:, q], g_conj_im[:, q],
                                position.take(f_at[:, p, None] + gi[:, q]), ir, ii)
    return out


def paired(fs, gs) -> np.ndarray:
    """The array ``[inner(f, g) for f, g in zip(fs, gs)]``, row by row.

    fs and gs are equally long sequences of functions, or their
    :func:`pack` forms or pack slices; a gs of one function pairs it with
    every f.  Every value equals the scalar ``inner`` bit for bit.  Fewer
    than PAIRED_SCALAR_ROWS rows are evaluated by ``inner`` itself, a packed
    row read back as its function.  Otherwise ``_poly_exp_integral`` runs
    once per call for each distinct overlapping pair of a term kind of f
    and a term kind of g that meet within one row, so rows that share no
    kinds build no cross table.  Then, for each pair of term slots (p
    outer, q inner, as in ``inner``), every row whose terms overlap gathers
    its integral, multiplies its coefficient product by it and accumulates.
    """
    if len(gs) != len(fs) and len(gs) != 1:
        raise ValueError(f"paired needs equally many functions, got {len(fs)} and {len(gs)}")
    if len(fs) < PAIRED_SCALAR_ROWS:
        same = gs is fs
        fs = _functions(fs)
        gs = fs if same else _functions(gs)
        pairs = zip(fs, gs if len(gs) == len(fs) else gs * len(fs))
        return np.array([inner(f, g) for f, g in pairs], dtype=complex)
    f = _packed(fs)
    g = f if gs is fs else _packed(gs)
    out = np.zeros(len(f), dtype=complex)
    total_re, total_im = out.real, out.imag
    n_g = g.kinds[0].size
    with np.errstate(all="ignore"):
        # the kind pair of every slot pair (p, q) of every row, as one code
        codes = f.kind[:, :, None] * n_g + g.kind[:, None, :]
        candidates, at = np.unique(codes.ravel(), return_inverse=True)
        on, ir, ii = _kind_integrals(f, g, *np.divmod(candidates, n_g))
        position = (np.cumsum(on) * on)[at].reshape(codes.shape)
        f_re, f_im, g_re, g_conj_im = f.coeff_re, f.coeff_im, g.coeff_re, -g.coeff_im
        for p in range(codes.shape[1]):
            for q in range(codes.shape[2]):
                _accumulate(total_re, total_im, f_re[:, p], f_im[:, p],
                            g_re[:, q], g_conj_im[:, q], position[:, p, q], ir, ii)
    return out


def norms(fs) -> list[float]:
    """``[norm(f) for f in fs]``, bit for bit, from one :func:`paired` call."""
    return [_root(square) for square in paired(fs, fs).tolist()]


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_PANEL_WIDTH = 0.5
_MAX_PANELS = 40000


def _tail_cutoff(f: PiecewiseExpFunction, g: PiecewiseExpFunction,
                 start: float, direction: int) -> float:
    """Point beyond which the integrand envelope stays below TAIL_CUTOFF."""

    def envelope(func, x):
        total = 0.0
        for coeff, lo, hi, exponent, power in func.row:
            if (direction > 0 and hi == POS_INF) or (direction < 0 and lo == NEG_INF):
                total += abs(coeff) * abs(x) ** power * math.exp(exponent.real * x)
        return total

    x = start + direction
    for _ in range(200):
        if envelope(f, x) * envelope(g, x) < TAIL_CUTOFF:
            return x
        x += direction * max(abs(x), 1.0)
    raise QuadratureBudgetError("integrand tail does not decay below cutoff")


def inner_quadrature(f: PiecewiseExpFunction, g: PiecewiseExpFunction,
                     rel_tol: float = QUADRATURE_TOL) -> complex:
    """Inner product by composite 32-point Gauss-Legendre panels.

    Independent of the closed form: panels are laid between the breakpoints
    of f and g (width at most 0.5) with infinite tails truncated where the
    integrand envelope falls below TAIL_CUTOFF.  The value is accepted only if a
    refined pass with half-width panels agrees to rel_tol; otherwise
    QuadratureBudgetError is raised (non-convergence, not a wrong value).
    """
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    if f.is_zero or g.is_zero:
        return 0j

    flo, fhi = f.support()
    glo, ghi = g.support()
    lo, hi = max(flo, glo), min(fhi, ghi)
    if lo >= hi:
        return 0j

    cuts = sorted({b for b in f.breakpoints() + g.breakpoints() if lo < b < hi})
    left = _tail_cutoff(f, g, min(cuts, default=0.0), -1) if lo == NEG_INF else lo
    right = _tail_cutoff(f, g, max(cuts, default=0.0), +1) if hi == POS_INF else hi
    edges = [left, *cuts, right]

    def integrate(panel_width: float) -> complex:
        total = 0j
        n_panels = 0
        for a, b in zip(edges[:-1], edges[1:]):
            count = max(1, math.ceil((b - a) / panel_width))
            n_panels += count
            if n_panels > _MAX_PANELS:
                raise QuadratureBudgetError("panel budget exceeded")
            bounds = np.linspace(a, b, count + 1)
            half = (bounds[1:] - bounds[:-1])[:, None] / 2
            mid = (bounds[1:] + bounds[:-1])[:, None] / 2
            x = (mid + half * _GL_NODES).ravel()
            w = (half * _GL_WEIGHTS).ravel()
            vals = f.eval_at(x) * np.conj(g.eval_at(x))
            total += np.dot(w, vals)
        return total

    coarse = integrate(_PANEL_WIDTH)
    fine = integrate(_PANEL_WIDTH / 2)
    if abs(fine - coarse) > rel_tol * (1 + abs(fine)):
        raise QuadratureBudgetError(
            f"quadrature did not converge: coarse={coarse}, fine={fine}"
        )
    return fine


# ---------------------------------------------------------------------------
# CPython's complex arithmetic, replayed on arrays
# ---------------------------------------------------------------------------
#
# The kernels and the array builders give every value the bits the scalar
# code gives it.  numpy's complex product and quotient round differently
# from CPython's (through 3.11), so both are spelled out in real float64
# operations, which numpy rounds exactly as C does.  A float operand of a
# complex operation is the complex (x, 0.0), as CPython promotes it.

#: Re z above which ``cmath.exp`` takes exp(Re z - 1) * e for its modulus
#: (from 708.4 on), where numpy's complex exp takes exp(Re z)
EXP_SCALED = 708.0


def _mul(ar, ai, br, bi):
    """CPython's complex product (ar + i ai) * (br + i bi)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi):
    """CPython's complex quotient (ar + i ai) / (br + i bi), Smith's method
    as ``_Py_c_quot`` writes it, for a divisor that is not zero; a NaN part
    of the divisor gives NaN, as there."""
    br, bi = np.asarray(br, dtype=float), np.asarray(bi, dtype=float)
    by_re = abs(br) >= abs(bi)
    with np.errstate(all="ignore"):
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        return (np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
                np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


def _split(c: complex) -> tuple[float, float]:
    return c.real, c.imag


class SplitComplex:
    """Complex values held as two float arrays, ``real`` and ``imag``, whose
    sum, difference, product and quotient with each other and with Python
    numbers give every element the bits CPython's complex arithmetic gives
    it; a number operand is promoted to complex as CPython promotes it."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    @staticmethod
    def _parts(x) -> tuple:
        return (x.real, x.imag) if isinstance(x, SplitComplex) else _split(complex(x))

    def __add__(self, other):
        re, im = self._parts(other)
        return SplitComplex(self.real + re, self.imag + im)

    def __radd__(self, other):
        re, im = self._parts(other)
        return SplitComplex(re + self.real, im + self.imag)

    def __sub__(self, other):
        re, im = self._parts(other)
        return SplitComplex(self.real - re, self.imag - im)

    def __rsub__(self, other):
        re, im = self._parts(other)
        return SplitComplex(re - self.real, im - self.imag)

    def __mul__(self, other):
        return SplitComplex(*_mul(self.real, self.imag, *self._parts(other)))

    def __rmul__(self, other):
        return SplitComplex(*_mul(*self._parts(other), self.real, self.imag))

    def __truediv__(self, other):
        return SplitComplex(*_quot(self.real, self.imag, *self._parts(other)))

    def __rtruediv__(self, other):
        return SplitComplex(*_quot(*self._parts(other), self.real, self.imag))

    @staticmethod
    def choose(mask, x, y) -> "SplitComplex":
        """x where ``mask`` holds and y elsewhere; each a SplitComplex or a
        number."""
        (xr, xi), (yr, yi) = SplitComplex._parts(x), SplitComplex._parts(y)
        return SplitComplex(np.where(mask, xr, yr), np.where(mask, xi, yi))

    @staticmethod
    def nonzero(x):
        """Where x, a SplitComplex or a number, is not 0, as ``x != 0``
        tells it: NaN is not 0."""
        re, im = SplitComplex._parts(x)
        return (re != 0) | (im != 0)


def _exp(w: "SplitComplex") -> "SplitComplex":
    """``cmath.exp`` of each value of w, or NaN where that raises.

    numpy's complex exp takes exp(re) * (cos(im), sin(im)) as ``cmath.exp``
    does where re <= EXP_SCALED and both parts are finite; every other value
    goes through ``cmath.exp`` itself.
    """
    z = np.empty(np.shape(w.real), dtype=complex)
    z.real, z.imag = w.real, w.imag
    out = np.exp(z)  # where np.exp overflows, cmath.exp decides
    for i in np.flatnonzero(~((z.real <= EXP_SCALED) & np.isfinite(z.real)
                              & np.isfinite(z.imag))).tolist():
        try:
            out[i] = cmath.exp(z[i])
        except (OverflowError, ValueError):
            out[i] = complex(math.nan, math.nan)
    return SplitComplex(out.real, out.imag)


def _power(x: float, n: int) -> float:
    """``x ** n`` as Python takes it, or inf where that overflows."""
    try:
        return x ** n
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# array builds: the canonical rows of a batch, one per point
# ---------------------------------------------------------------------------
#
# A build fills the pack of a batch, one row per point.  A build of several
# terms collects them as the unmerged slots of ``_columns`` and merges them
# once, by ``canonical_terms``; ``single_terms`` fills a row of one term
# directly, since a merge of one slot costs the momentum build about three
# times its whole time (34 -> 107 us at one point, 38 -> 154 us at 66).
# Every build ends with one classification, ``finish_batch``, by one rule:
# a point fails where a term it holds, unmerged or merged, has a
# coefficient or exponent part that is not finite, or where the modulus of
# a resolvent exponent iz + s overflows.  Those are the points where the
# scalar build raises: an exp or a power that overflows gives a value that
# is not finite, and every value a point computes feeds a term it holds.
# A failed point's row is emptied, and its error names the term.

_TERM = "term on [{lo}, {hi}] with exponent {exponent}: "
_TERM_NOT_FINITE = _TERM + "coefficient or exponent is not finite"
_MODULUS_OVERFLOWS = _TERM + "the modulus of iz + exponent overflows"


def single_terms(coeff, lo, hi, exponent) -> tuple[PackedFunctions, list]:
    """One term (coeff, lo, hi, exponent, 0) per row, as ``canonical_row``
    makes it of that term alone, and each point's error or None, by
    :func:`finish_batch`: its coefficient 0j + coeff, and no term where
    that is zero.  coeff and exponent are numbers or :class:`SplitComplex`
    values; the exponent's parts are arrays over the points, the other
    parts numbers or such arrays."""
    (cr, ci), (er, ei) = SplitComplex._parts(coeff), SplitComplex._parts(exponent)
    cols = _columns([(0.0 + cr, 0.0 + ci, lo, hi, er, ei, 0, True)], np.shape(er)[0])
    return finish_batch(cols, PackedFunctions(np.where((cols[0] != 0) | (cols[1] != 0),
                                                       cols[:7], 0.0)))


def _columns(slots, n: int) -> np.ndarray:
    """Terms as the (8, n, len(slots)) columns of :func:`canonical_terms`:
    each slot is (coeff_re, coeff_im, lo, hi, exp_re, exp_im, power, on),
    each part a number or an array over the n points, ``on`` where a point
    holds the term."""
    cols = np.empty((8, n, len(slots)))
    for s, slot in enumerate(slots):
        for col, value in zip(cols, slot):
            col[:, s] = value
    return cols


def canonical_terms(cols: np.ndarray) -> PackedFunctions:
    """The canonical row at each point of the terms in ``cols``, as
    ``canonical_row`` makes it of the row's tuples.

    ``cols`` holds the slots of :func:`_columns`, in term order.  Terms of
    one (lo, hi, exponent, power), compared by value, merge into the first,
    whose bits they keep, their coefficients summed from 0j in term order;
    an exact-zero sum is dropped, and one that is not finite is kept for
    :func:`finish_batch` to fail its point; the rest are stable-sorted by
    (lo, hi, exponent, power).
    """
    n, count = cols.shape[1:]
    if not count:
        return PackedFunctions(np.zeros((7, n, 0)))
    on = cols[7] != 0
    kind = cols[2:7]
    same = (kind[:, :, :, None] == kind[:, :, None, :]).all(axis=0)
    same &= on[:, :, None] & on[:, None, :]
    first = same.argmax(axis=1)  # each term's first term of its kind, point by point
    acc = np.zeros((2, n, count))
    points = np.arange(n)
    values = np.where(on, cols[:2], 0.0)
    for t in range(count):  # each sum from 0j, in term order
        acc[:, points, first[:, t]] += values[:, :, t]
    kept = on & (first == np.arange(count)) & (acc != 0).any(axis=0)
    width = int(kept.sum(axis=1).max(initial=0))
    order = np.lexsort((*kind[::-1], ~kept), axis=-1)[:, :width]
    points = points[:, None]
    return PackedFunctions(np.where(kept[points, order],
                                    np.concatenate((acc, kind))[:, points, order], 0.0))


def finish_batch(cols: np.ndarray, merged: PackedFunctions,
                 overflow: np.ndarray | None = None) -> tuple[PackedFunctions, list]:
    """The batch's one pack, ``merged`` with each failed point's row
    emptied, and each point's error or None: the one classification of the
    array builds.

    A point fails where a slot of ``cols`` it holds, an unmerged term, or
    a term of ``merged``, their canonical row, has a coefficient or
    exponent part that is not finite.  It also fails where it holds a slot
    of ``overflow``: the terms of a potential, each held where the modulus
    of its resolvent exponent iz + s overflows.  The error is a ValueError
    that names the first such term, looked for in ``overflow``, then
    ``cols``, then ``merged``.
    """
    def not_finite(parts):  # per slot: a coefficient or exponent part is not finite
        return ~np.isfinite(parts[[0, 1, 4, 5]]).all(axis=0)

    causes = [(cols, _TERM_NOT_FINITE, (cols[7] != 0) & not_finite(cols)),
              (merged.parts, _TERM_NOT_FINITE, not_finite(merged.parts))]
    if overflow is not None:
        causes.insert(0, (overflow, _MODULUS_OVERFLOWS, overflow[7] != 0))
    failed = np.zeros(len(merged), dtype=bool)
    errors: list = [None] * len(merged)
    for parts, text, bad in causes:
        for i in np.flatnonzero(bad.any(axis=1) & ~failed).tolist():
            lo, hi, re, im = parts[2:6, i, bad[i].argmax()].tolist()
            errors[i] = ValueError(text.format(lo=format_complex(lo), hi=format_complex(hi),
                                               exponent=format_complex(complex(re, im))))
        failed |= bad.any(axis=1)
    return pack_terms(*np.where(failed[:, None], 0.0, merged.parts)), errors


# ---------------------------------------------------------------------------
# the free resolvent
# ---------------------------------------------------------------------------


def free_resolvent(z, gamma: PiecewiseExpFunction):
    """Resolvent of the free momentum operator applied to gamma.

    Returns g = (i d/dx - z)^(-1) gamma for non-real z, computed per term:

        Im z > 0:  g(x) =  i exp(-izx) * integral_x^inf  exp(iz t) gamma(t) dt
        Im z < 0:  g(x) = -i exp(-izx) * integral_-inf^x exp(iz t) gamma(t) dt

    The result is again piecewise exponential; a resonant term (input
    exponent equal to -iz on a finite interval) raises the monomial power by
    one instead of leaving the algebra.  For one point z the result is a
    :class:`PiecewiseExpFunction`; for a 1-D array of points it is the
    pack of their rows, with each point's error or None, by the rule of
    :func:`finish_batch`.  Either way every point, of both half planes,
    goes through one pass of the array build, :func:`half_plane_resolvent`,
    whose terms are merged by one :func:`canonical_terms` call.  Not
    memoised.
    """
    if np.ndim(z) == 0:
        packed, errors = free_resolvent([complex(z)], gamma)
        if errors[0] is not None:
            raise errors[0]
        return packed.functions()[0]
    z = np.asarray(z, dtype=complex).ravel()
    if (z.imag == 0).any():
        raise ValueError("resolvent requires non-real z")
    with np.errstate(all="ignore"):
        cols, overflow = half_plane_resolvent(z, z.imag > 0, gamma)
        return finish_batch(cols, canonical_terms(cols), overflow)


def half_plane_resolvent(z: np.ndarray, upper: np.ndarray,
                         gamma: PiecewiseExpFunction) -> tuple[np.ndarray, np.ndarray]:
    """The terms of ``free_resolvent(z_i, gamma)`` at non-real points z,
    unmerged, as the slots of :func:`_columns`, with ``upper`` the mask of
    those in the upper half plane, and the ``overflow`` slots of
    :func:`finish_batch`: gamma's terms, each held where its u = iz + s is
    finite and its modulus overflows, where the scalar ``abs(u)`` raises.

    The build replays the scalar arithmetic of the formula term by term,
    bit for bit, for every point at once: the antiderivative is the scalar
    ``_antiderivative`` itself, on :class:`SplitComplex` values, with
    ``_exp`` and ``_power``, which give a value that is not finite where
    ``cmath.exp`` and ``pow`` raise.  Both half planes go through one pass,
    and both branches of the antiderivative, degenerate or not, are taken
    at each finite end of a term for every point, each kept where it
    applies.  The term left of the support is held only at upper points and
    the one right of it only at lower points; a slot that no point holds is
    not built.  Of ExpTerm's checks of a term only finiteness can fail
    here, which :func:`finish_batch` applies: the intervals come from
    gamma's terms and their complements, and each homogeneous term decays
    on the side where it is kept.  A value that overflows fails its point
    or is never read, so the caller silences array warnings.
    """
    lower = ~upper
    z = SplitComplex(z.real, z.imag)
    ez = -1j * z  # exponent of the homogeneous solution exp(-izx)
    slots, overflow = [], []
    for coeff, lo, hi, exponent, k in gamma.row:
        u = 1j * z + exponent
        size = np.hypot(u.real, u.imag)  # abs(u)
        overflow.append((*_split(coeff), lo, hi, *_split(exponent), k,
                         np.isinf(size) & np.isfinite(u.real) & np.isfinite(u.imag)))
        # a resonant term (degenerate u) keeps the input's exponent so
        # cancellations against gamma stay exact at the term level
        flat = size < DEGENERATE_EXPONENT_TOL
        live = ~flat
        coeffs = _antiderivative_coeffs(k, u)

        def antiderivative(x):
            # a degenerate u's float value is taken as complex(value, 0.0)
            return SplitComplex.choose(flat, _antiderivative(k, u, None, x, power=_power),
                                       _antiderivative(k, u, coeffs, x, _exp, _power))

        # the antiderivative at each end, 0j at an infinite one (Re u < 0 is
        # guaranteed at an infinite right end of an upper point, Re u > 0 at
        # an infinite left end of a lower one)
        Gb = antiderivative(hi) if hi != POS_INF else 0j
        Ga = antiderivative(lo) if lo != NEG_INF else 0j
        # the output terms, (coeff, lo, hi, exponent, power, where held), in
        # the order the scalar build appends them
        terms = []
        if lo != NEG_INF and upper.any():
            # left of the support: a pure multiple of exp(-izx)
            c = 1j * coeff * (Gb - Ga)
            terms.append((c, NEG_INF, lo, ez, 0, upper & SplitComplex.nonzero(c)))
        if hi != POS_INF and lower.any():
            c = -1j * coeff * (Gb - Ga)
            terms.append((c, hi, POS_INF, ez, 0, lower & SplitComplex.nonzero(c)))
        # on the support: a homogeneous part plus the particular part
        homogeneous = 1j * coeff * SplitComplex.choose(upper, Gb, Ga)
        sign = -1j * coeff
        terms.append((homogeneous, lo, hi, SplitComplex.choose(flat, exponent, ez), 0,
                      SplitComplex.nonzero(homogeneous)))
        terms.append((sign / (k + 1), lo, hi, exponent, k + 1, flat))
        terms += [(sign * c, lo, hi, exponent, k - j, live) for j, c in enumerate(coeffs)]
        slots += [(*SplitComplex._parts(c), lo, hi, *SplitComplex._parts(e), power, on)
                  for c, lo, hi, e, power, on in terms if on.any()]
    return _columns(slots, upper.size), _columns(overflow, upper.size)


def resolvent_residual(z: complex, gamma: PiecewiseExpFunction,
                       g: PiecewiseExpFunction) -> float:
    """Coefficient-level residual of (i d/dx - z) g - gamma on open pieces."""
    lhs = 1j * g.derivative() - complex(z) * g
    return coefficient_distance(lhs, gamma)
