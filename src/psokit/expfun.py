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

All values are Python complex scalars; numpy enters for vectorized
pointwise evaluation inside the quadrature oracle and for the batched Gram
kernel, which packs many functions into arrays, takes its integrals from
the same closed form as the scalar inner product and reproduces that inner
product bit for bit.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass, field

import numpy as np

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
    The constructor validates the kind; ``_with_coeff`` reuses a validated one.
    """

    coeff: complex
    lo: float
    hi: float
    exponent: complex
    power: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "exponent", complex(self.exponent))
        if self.power != int(self.power) or self.power < 0:
            raise ValueError(f"power must be a nonnegative integer, got {self.power}")
        object.__setattr__(self, "power", int(self.power))
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if not (cmath.isfinite(self.coeff) and cmath.isfinite(self.exponent)):
            raise ValueError("coefficient and exponent must be finite")
        if self.lo == NEG_INF and self.exponent.real <= 0:
            raise ValueError(
                f"term exp({self.exponent}*x) on ({self.lo}, {self.hi}] is not "
                "square integrable: need Re(exponent) > 0 at -inf"
            )
        if self.hi == POS_INF and self.exponent.real >= 0:
            raise ValueError(
                f"term exp({self.exponent}*x) on [{self.lo}, {self.hi}) is not "
                "square integrable: need Re(exponent) < 0 at +inf"
            )

    def _key(self):
        return (self.lo, self.hi, self.exponent, self.power)

    def _with_coeff(self, coeff: complex) -> "ExpTerm":
        """This validated kind with a new complex coefficient, checked finite."""
        if not cmath.isfinite(coeff):
            raise ValueError("coefficient and exponent must be finite")
        term = object.__new__(ExpTerm)
        # field by field: copying __dict__ would give each term its own dict
        object.__setattr__(term, "coeff", coeff)
        for name in ("lo", "hi", "exponent", "power"):
            object.__setattr__(term, name, getattr(self, name))
        return term


def _sort_key(t: ExpTerm):
    return (t.lo, t.hi, t.exponent.real, t.exponent.imag, t.power)


@dataclass(frozen=True, init=False)
class PiecewiseExpFunction:
    """Finite sum of :class:`ExpTerm`; the zero function has no terms.

    Construction canonicalizes: terms of one (lo, hi, exponent, power) merge
    into the validated kind of the first and exact-zero coefficients are
    dropped, so equal functions built the same way compare equal term by term.
    """

    terms: tuple[ExpTerm, ...] = field(default=())

    def __init__(self, terms=()):
        acc: dict[tuple, complex] = {}
        kinds: dict[tuple, ExpTerm] = {}
        for t in terms:
            if not isinstance(t, ExpTerm):
                t = ExpTerm(*t)
            key = t._key()
            acc[key] = acc.get(key, 0j) + t.coeff
            kinds.setdefault(key, t)
        merged = [kinds[key]._with_coeff(c) for key, c in acc.items() if c != 0]
        merged.sort(key=_sort_key)
        object.__setattr__(self, "terms", tuple(merged))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PiecewiseExpFunction":
        return cls(())

    @classmethod
    def single(cls, coeff, lo, hi, exponent, power=0) -> "PiecewiseExpFunction":
        return cls((ExpTerm(coeff, lo, hi, exponent, power),))

    @classmethod
    def indicator(cls, lo, hi, coeff=1.0) -> "PiecewiseExpFunction":
        """Characteristic function of [lo, hi], scaled by coeff."""
        return cls.single(coeff, lo, hi, 0.0)

    # -- linear structure --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, PiecewiseExpFunction):
            return NotImplemented
        return PiecewiseExpFunction(self.terms + other.terms)

    def __neg__(self):
        return PiecewiseExpFunction(t._with_coeff(-t.coeff) for t in self.terms)

    def __sub__(self, other):
        if not isinstance(other, PiecewiseExpFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, PiecewiseExpFunction):
            return NotImplemented
        c = complex(scalar)
        return PiecewiseExpFunction(t._with_coeff(c * t.coeff) for t in self.terms)

    __rmul__ = __mul__

    def conjugate(self) -> "PiecewiseExpFunction":
        """Complex conjugate (x stays real, so only coeff and exponent flip)."""
        return PiecewiseExpFunction(
            ExpTerm(t.coeff.conjugate(), t.lo, t.hi, t.exponent.conjugate(), t.power)
            for t in self.terms
        )

    def restrict(self, lo, hi) -> "PiecewiseExpFunction":
        """Restriction to the interval [lo, hi] (zero outside)."""
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"restriction bounds must not be NaN, got lo={lo}, hi={hi}")
        out = []
        for t in self.terms:
            a, b = max(t.lo, lo), min(t.hi, hi)
            if a < b:
                out.append(ExpTerm(t.coeff, a, b, t.exponent, t.power))
        return PiecewiseExpFunction(out)

    # -- transforms --------------------------------------------------------

    def translate(self, y: float) -> "PiecewiseExpFunction":
        """x -> f(x - y)."""
        y = float(y)
        out = []
        for t in self.terms:
            base = t.coeff * cmath.exp(-t.exponent * y)
            # (x - y)**k expands into monomials in x
            for j in range(t.power + 1):
                c = base * math.comb(t.power, j) * (-y) ** (t.power - j)
                out.append(ExpTerm(c, t.lo + y, t.hi + y, t.exponent, j))
        return PiecewiseExpFunction(out)

    def scale(self, a: float) -> "PiecewiseExpFunction":
        """Unitary scaling x -> sqrt(a) * f(a*x) for a > 0."""
        a = float(a)
        if a <= 0:
            raise ValueError("scaling factor must be positive")
        root = math.sqrt(a)
        return PiecewiseExpFunction(
            ExpTerm(root * t.coeff * a**t.power, t.lo / a, t.hi / a,
                    a * t.exponent, t.power)
            for t in self.terms
        )

    def dilate(self) -> "PiecewiseExpFunction":
        """The dyadic dilation x -> sqrt(2) * f(2x)."""
        return self.scale(2.0)

    def modulate(self, t: float) -> "PiecewiseExpFunction":
        """x -> exp(-i*t*x) * f(x); shifts every exponent by -i*t."""
        shift = -1j * float(t)
        return PiecewiseExpFunction(
            ExpTerm(term.coeff, term.lo, term.hi, term.exponent + shift, term.power)
            for term in self.terms
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
        for t in self.terms:
            if t.power > 0:
                out.append(ExpTerm(t.coeff * t.power, t.lo, t.hi, t.exponent,
                                   t.power - 1))
            if t.exponent != 0:
                out.append(ExpTerm(t.coeff * t.exponent, t.lo, t.hi, t.exponent,
                                   t.power))
        return PiecewiseExpFunction(out)

    # -- pointwise structure -----------------------------------------------

    def breakpoints(self) -> tuple[float, ...]:
        """Sorted finite interval endpoints appearing in any term."""
        pts = set()
        for t in self.terms:
            if t.lo != NEG_INF:
                pts.add(t.lo)
            if t.hi != POS_INF:
                pts.add(t.hi)
        return tuple(sorted(pts))

    def limit(self, x0: float, side: str) -> complex:
        """One-sided limit at x0; side is '+' or '-'."""
        if side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        val = 0j
        for t in self.terms:
            if side == "-":
                active = t.lo < x0 <= t.hi
            else:
                active = t.lo <= x0 < t.hi
            if active:
                val += t.coeff * x0**t.power * cmath.exp(t.exponent * x0)
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
        for t in self.terms:
            mask = (x > t.lo) & (x < t.hi)
            if mask.any():
                xm = x[mask]
                out[mask] += t.coeff * xm**t.power * np.exp(t.exponent * xm)
        return out

    def coefficient_norm(self) -> float:
        return max((abs(t.coeff) for t in self.terms), default=0.0)

    def support(self) -> tuple[float, float]:
        if not self.terms:
            return (0.0, 0.0)
        return (min(t.lo for t in self.terms), max(t.hi for t in self.terms))

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        def enc(v):
            if v == NEG_INF:
                return "-inf"
            if v == POS_INF:
                return "+inf"
            return v

        out = []
        for t in self.terms:
            d = {
                "coeff_re": t.coeff.real,
                "coeff_im": t.coeff.imag,
                "lo": enc(t.lo),
                "hi": enc(t.hi),
                "exp_re": t.exponent.real,
                "exp_im": t.exponent.imag,
            }
            if t.power:
                d["power"] = t.power
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
            ExpTerm(
                complex(d["coeff_re"], d["coeff_im"]),
                dec(d["lo"]),
                dec(d["hi"]),
                complex(d["exp_re"], d["exp_im"]),
                int(d.get("power", 0)),
            )
            for d in obj
        )


# ---------------------------------------------------------------------------
# closed-form integration
# ---------------------------------------------------------------------------


def _antiderivative_coeffs(k: int, u: complex) -> list[complex] | None:
    """Coefficients c_j of the antiderivative exp(u*x) * sum_j c_j * x**(k-j)
    of x**k * exp(u*x).

    None for a degenerate exponent (|u| below DEGENERATE_EXPONENT_TOL): it is
    treated as exactly zero, which avoids catastrophic cancellation, and the
    antiderivative is x**(k+1) / (k+1).
    """
    if abs(u) < DEGENERATE_EXPONENT_TOL:
        return None
    coeffs = []
    c = 1.0 / u
    fall = 1.0
    for j in range(k + 1):
        coeffs.append((-1) ** j * fall * c)
        fall *= k - j
        c /= u
    return coeffs


def _antiderivative(k: int, u: complex, coeffs: list[complex] | None,
                    x: float) -> complex:
    """Value at finite x of the antiderivative of x**k * exp(u*x), with
    ``coeffs = _antiderivative_coeffs(k, u)``."""
    if coeffs is None:
        return x ** (k + 1) / (k + 1)
    p = 0j
    for j, c in enumerate(coeffs):
        p += c * x ** (k - j)
    return cmath.exp(u * x) * p


def _closed_form(k: int, u: complex, a: float, b: float) -> complex:
    """Integral of x**k * exp(u*x) over [a, b] in closed form, evaluated.

    A degenerate exponent can only arise on a finite interval for
    square-integrable terms.
    """
    coeffs = _antiderivative_coeffs(k, u)
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
    for tf in f.terms:
        for tg in g.terms:
            lo = max(tf.lo, tg.lo)
            hi = min(tf.hi, tg.hi)
            if lo >= hi:
                continue
            u = tf.exponent + tg.exponent.conjugate()
            total += (
                tf.coeff
                * tg.coeff.conjugate()
                * _poly_exp_integral(tf.power + tg.power, u, lo, hi)
            )
    return total


def norm(f: PiecewiseExpFunction) -> float:
    return math.sqrt(max(inner(f, f).real, 0.0))


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
# defect vector of a nonlocal model carries the potential's term.  So
# ``pack`` stores a table of the distinct kinds, told apart bit for bit,
# and an index into it per term; ``gram`` evaluates the closed form once
# per call for each overlapping pair of kinds of its two packs, in
# Python, and leaves each entry only a gather, two complex products and
# the accumulation.  Those per-entry steps run GRAM_BLOCK rows of the output
# at a time, which bounds their temporaries and lets a block skip a slot
# pair whose terms overlap nowhere in its rows.

#: rows of the output whose per-entry products the kernel takes at once; a
#: 310 x 310 Gram peaks at about 1 MB of temporaries beside its result
GRAM_BLOCK = 24


@dataclass(frozen=True, eq=False)
class PackedFunctions:
    """Functions as padded (count, width) arrays of their terms.

    Row i holds the terms of function i in their canonical order; a slot
    past the end of a row holds a padding term with coefficient zero on the
    empty interval [0, 0].  Coefficients are stored per term, split into
    real and imaginary parts.  The rest of a term is its kind: exponent,
    lo, hi and power.  ``kinds`` is the table (lo, hi, exp_re, exp_im,
    power) of the distinct kinds, and ``kind[i, p]`` indexes it.  Kinds are
    told apart bit for bit, so -0.0 and 0.0 are different kinds.
    """

    coeff_re: np.ndarray
    coeff_im: np.ndarray
    kind: np.ndarray
    kinds: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.kind.shape[0]


def pack(fs, scales=None) -> PackedFunctions:
    """Pack functions for :func:`gram`, with the table of their term kinds.

    With ``scales``, row i holds ``scales[i] * fs[i]`` with the coefficients
    that product would have, without building it: a coefficient that is not
    finite is rejected as :class:`ExpTerm` rejects it, and one that is
    exactly zero drops its term.
    """
    rows = []
    for i, f in enumerate(fs):
        terms = [(t.coeff, t.lo, t.hi, t.exponent, t.power) for t in f.terms]
        if scales is not None:
            scale = complex(scales[i])
            scaled = []
            for coeff, *rest in terms:
                coeff = scale * coeff
                if not cmath.isfinite(coeff):
                    raise ValueError("coefficient and exponent must be finite")
                coeff = 0j + coeff  # the merge in PiecewiseExpFunction.__init__
                if coeff != 0:
                    scaled.append((coeff, *rest))
            terms = scaled
        rows.append(terms)
    n = len(rows)
    width = max(map(len, rows), default=0)
    pad = (0j, 0.0, 0.0, 0j, 0)
    slots = [t for row in rows for t in row + [pad] * (width - len(row))]

    def column(i, dtype):
        return np.array([t[i] for t in slots], dtype=dtype)

    coeff, exponent = column(0, complex), column(3, complex)
    parts = (column(1, float), column(2, float), exponent.real, exponent.imag,
             column(4, np.int64))
    # a term's key is the 40 bytes of its kind; at[i] is the first term with
    # the key of term i, and those first terms make up the table
    keys = np.stack([x.view(np.int64) for x in parts], axis=1)
    keys = keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel().tolist()
    first = {}
    at = np.array([first.setdefault(key, i) for i, key in enumerate(keys)], dtype=np.intp)
    own = at == np.arange(at.size)
    index = np.zeros(at.size, dtype=np.intp)
    index[own] = np.arange(np.count_nonzero(own))
    kind = index[at]
    return PackedFunctions(coeff.real.reshape(n, width), coeff.imag.reshape(n, width),
                           kind.reshape(n, width), tuple(x[own] for x in parts))


def _mul(ar, ai, br, bi):
    """CPython's complex product (ar + i ai) * (br + i bi)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _kind_integrals(f: PackedFunctions, g: PackedFunctions):
    """``_poly_exp_integral`` once per overlapping pair of a kind of f and a
    kind of g.

    Returns the integrals' real and imaginary parts at positions 1, 2, ...
    (position 0 holds zeros) and the (kinds of f, kinds of g) table of the
    position of each pair, 0 for a pair whose intervals do not overlap.
    """
    flo, fhi, fre, fim, fpow = f.kinds
    glo, ghi, gre, gim, gpow = g.kinds
    # the candidates include every overlapping pair; the strict test on
    # them is inner's, which also rejects the padding kind [0, 0]
    a, b = np.nonzero((glo < fhi[:, None]) & (flo[:, None] < ghi))
    lo = np.where(glo[b] > flo[a], glo[b], flo[a])  # max(tf.lo, tg.lo)
    hi = np.where(ghi[b] < fhi[a], ghi[b], fhi[a])  # min(tf.hi, tg.hi)
    on = lo < hi
    a, b, lo, hi = a[on], b[on], lo[on], hi[on]
    position = np.zeros((flo.size, glo.size), dtype=np.int32)
    position[a, b] = np.arange(1, a.size + 1)
    integrals = np.zeros(a.size + 1, dtype=complex)
    pairs = zip((fpow[a] + gpow[b]).tolist(), (fre[a] + gre[b]).tolist(),
                (fim[a] + -gim[b]).tolist(), lo.tolist(), hi.tolist())
    for n, (k, ur, ui, x, y) in enumerate(pairs, 1):
        # a degenerate integral is a float: widened to complex(v, 0.0), as
        # inner's product widens it
        integrals[n] = complex(_poly_exp_integral(k, complex(ur, ui), x, y))
    return integrals.real, integrals.imag, position


def gram(fs, gs) -> np.ndarray:
    """The matrix ``inner(f, g)`` over f in fs (rows) and g in gs (columns).

    fs and gs are sequences of functions or their :func:`pack` forms.  Every
    entry equals the scalar ``inner`` bit for bit.  The closed form of
    ``inner``, ``_poly_exp_integral``, runs once per call for each
    overlapping pair of a term kind of fs and a term kind of gs.  Then, GRAM_BLOCK
    rows at a time and for each pair of term slots (p outer, q inner, as in
    ``inner``), each entry whose terms overlap gathers its integral,
    multiplies its coefficient product by it and accumulates.
    """
    f = fs if isinstance(fs, PackedFunctions) else pack(fs)
    g = gs if isinstance(gs, PackedFunctions) else pack(gs)
    out = np.zeros((len(f), len(g)), dtype=complex)
    g_conj_im = -g.coeff_im
    with np.errstate(all="ignore"):
        ir, ii, position = _kind_integrals(f, g)
        # entry (i, j) of slot pair (p, q) takes position.flat[fi[i, p] + gi[j, q]]
        fi, gi = f.kind * position.shape[1], g.kind
        for start in range(0, len(f), GRAM_BLOCK):
            rows = slice(start, start + GRAM_BLOCK)
            total_re, total_im = out[rows].real, out[rows].imag
            f_re, f_im, f_at = f.coeff_re[rows], f.coeff_im[rows], fi[rows]
            for p in range(fi.shape[1]):
                for q in range(gi.shape[1]):
                    pos = position.take(f_at[:, p, None] + gi[:, q])
                    on = pos != 0
                    if not on.any():
                        continue
                    cr, ci = _mul(f_re[:, p, None], f_im[:, p, None],
                                  g.coeff_re[:, q], g_conj_im[:, q])
                    cr, ci = _mul(cr, ci, ir.take(pos), ii.take(pos))
                    np.add(total_re, cr, out=total_re, where=on)
                    np.add(total_im, ci, out=total_im, where=on)
    return out


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
        for t in func.terms:
            if (direction > 0 and t.hi == POS_INF) or (direction < 0 and t.lo == NEG_INF):
                total += abs(t.coeff) * abs(x) ** t.power * math.exp(t.exponent.real * x)
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
# the free resolvent
# ---------------------------------------------------------------------------


def free_resolvent(z: complex, gamma: PiecewiseExpFunction) -> PiecewiseExpFunction:
    """Resolvent of the free momentum operator applied to gamma.

    Returns g = (i d/dx - z)^(-1) gamma for non-real z, computed per term:

        Im z > 0:  g(x) =  i exp(-izx) * integral_x^inf  exp(iz t) gamma(t) dt
        Im z < 0:  g(x) = -i exp(-izx) * integral_-inf^x exp(iz t) gamma(t) dt

    The result is again piecewise exponential; a resonant term (input
    exponent equal to -iz on a finite interval) raises the monomial power by
    one instead of leaving the algebra.
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("resolvent requires non-real z")
    upper = z.imag > 0
    ez = -1j * z  # exponent of the homogeneous solution exp(-izx)
    out: list[ExpTerm] = []

    for t in gamma.terms:
        u = 1j * z + t.exponent
        k = t.power
        # a resonant term (degenerate u, coeffs None) keeps the input's
        # exponent so cancellations against gamma stay exact at the term level
        coeffs = _antiderivative_coeffs(k, u)
        if upper:
            # Re u < 0 is guaranteed at an infinite right end
            Gb = 0j if t.hi == POS_INF else _antiderivative(k, u, coeffs, t.hi)
            # left of the support: a pure multiple of exp(-izx)
            if t.lo != NEG_INF:
                c = 1j * t.coeff * (Gb - _antiderivative(k, u, coeffs, t.lo))
                if c != 0:
                    out.append(ExpTerm(c, NEG_INF, t.lo, ez))
            # on the support: a homogeneous part plus the particular part
            homogeneous = 1j * t.coeff * Gb
        else:
            # Re u > 0 is guaranteed at an infinite left end
            Ga = 0j if t.lo == NEG_INF else _antiderivative(k, u, coeffs, t.lo)
            if t.hi != POS_INF:
                c = -1j * t.coeff * (_antiderivative(k, u, coeffs, t.hi) - Ga)
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


def resolvent_residual(z: complex, gamma: PiecewiseExpFunction,
                       g: PiecewiseExpFunction) -> float:
    """Coefficient-level residual of (i d/dx - z) g - gamma on open pieces."""
    lhs = 1j * g.derivative() - complex(z) * g
    return coefficient_distance(lhs, gamma)
