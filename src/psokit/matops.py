"""Finite-dimensional complex-matrix kernel.

Cayley transforms between hermitian and unitary matrices, block operators
that are unitary for the indefinite form [x, y] = (x0, y0) - (x1, y1),
the induced linear fractional transform on contractions, wandering-subspace
detection for a unitary, a shared relative singularity test, and the
closed-form solve and singularity test of the 2 x 2 systems S(mu).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expfun import _mul
from .tolerances import (CAYLEY_SOLVE_TOL, CONTRACTION_BOUND, HERMITIAN_TOL, KREIN_DENOMINATOR_TOL,
                         KREIN_TOL, ORTHONORMAL_TOL, RANK_TOL, SINGULARITY_TOL, UNITARY_TOL)


#: the error text of a matrix with an entry that is not finite
NOT_FINITE = "matrix entries must be finite"


def require_finite(m: np.ndarray) -> np.ndarray:
    """m, a complex array, unless one of its entries is not finite."""
    if not np.isfinite(m).all():
        raise ValueError(NOT_FINITE)
    return m


def _as_matrix(a, stacked: bool = False) -> np.ndarray:
    """a as a finite square complex matrix; with ``stacked`` as a stack of
    them along the first axis."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.ndim != 2 + stacked or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return require_finite(m)


def opnorm(a) -> float | np.ndarray:
    """Spectral norm; for a stack, the norm of each matrix along the last
    two axes.  A matrix with an entry that is not finite has norm NaN, and
    its SVD is not run."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    finite = np.isfinite(m).all(axis=(-2, -1))
    if finite.all():
        norms = np.linalg.norm(m, 2, axis=(-2, -1))
    else:
        norms = np.full(finite.shape, np.nan)
        norms[finite] = np.linalg.norm(m[finite], 2, axis=(-2, -1))
    return float(norms) if m.ndim == 2 else norms


def _exceeds(m: np.ndarray, tol: float) -> bool:
    """True unless ``opnorm(m) <= tol``, so a NaN norm exceeds every tol; the
    SVD is skipped where the Frobenius norm, an upper bound of the spectral
    norm, is at most tol."""
    return not (np.linalg.norm(m) <= tol or opnorm(m) <= tol)


def min_singular_value(a) -> float | np.ndarray:
    """Smallest singular value; for a stack (ndim 3), that of each matrix."""
    m = _as_matrix(a, stacked=np.ndim(a) == 3)
    smin = np.linalg.svd(m, compute_uv=False)[..., -1]
    return float(smin) if m.ndim == 2 else smin


def is_singular(m, tol: float = SINGULARITY_TOL) -> bool | np.ndarray:
    """True iff the smallest singular value is below tol * (1 + ||m||); for
    a stack (ndim 3), one bool per matrix, from one SVD of the stack."""
    m = _as_matrix(m, stacked=np.ndim(m) == 3)
    s = np.linalg.svd(m, compute_uv=False)
    singular = s[..., -1] <= tol * (1 + s[..., 0])
    return bool(singular) if m.ndim == 2 else singular


# ---------------------------------------------------------------------------
# 2 x 2 matrices in closed form
# ---------------------------------------------------------------------------
#
# Every S(mu) of a defect-dimension-one triplet is 2 x 2.  Its solve and its
# singularity test are written out in real float64 operations, elementwise
# over a stack, which round alike on every host and SIMD level, where the
# LAPACK calls and numpy's complex product do not; a stack of one matrix and
# a matrix alone give the same bits.  Each matrix is scaled by the power of
# two that brings its largest part into [0.5, 1), so no product of two
# entries overflows, and the result is scaled back once.


def _scaled_2x2(s):
    """The parts of each matrix [[a, b], [c, d]] of the stack s, shape
    (..., 2, 2), as the rows of an (8, m) array, (a.real, a.imag, b.real,
    ..., d.imag), the m matrices in order, each scaled by 2**-e; and e, per
    matrix the exponent of its largest part, 0 where a part is not finite."""
    parts = np.ascontiguousarray(s, dtype=complex).reshape(-1, 4).view(float)
    big = abs(parts).max(axis=1)
    e = np.where(np.isfinite(big), np.frexp(big)[1], 0)
    return np.ldexp(parts, -e[:, None]).T, e


#: rows of ``_scaled_2x2``'s parts: those of (a, b), of (d, c), and of the
#: adjugate [[d, -b], [-c, a]] with its signs
_AB, _DC = [0, 1, 2, 3], [6, 7, 4, 5]
_ADJUGATE = [6, 7, 2, 3, 4, 5, 0, 1]
_ADJUGATE_SIGN = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0])[:, None]
#: a bound on the products of parts under which a row of a solve, a sum of
#: two differences of two such products, cannot overflow
_SAFE_PRODUCT = float(np.finfo(float).max) / 8


def _det(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ad - bc from ``_scaled_2x2``'s parts, as CPython's complex arithmetic
    takes it, a d and b c as one product of pairs."""
    ab, dc = parts[_AB], parts[_DC]
    re, im = _mul(ab[0::2], ab[1::2], dc[0::2], dc[1::2])
    return re[0] - re[1], im[0] - im[1]


def _scaled_singular_values(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The smallest and the largest singular value of each matrix of the
    stack s, shape (..., 2, 2), scaled by 2**-e, and e: smax from the
    Frobenius norm F and |det| as smax**2 = (F**2 + sqrt(F**4 - 4 |det|**2))
    / 2, then smin = |det| / smax.  A zero matrix has smin NaN."""
    parts, e = _scaled_2x2(s)
    with np.errstate(all="ignore"):
        det_re, det_im = _det(parts)
        absdet = np.sqrt(det_re * det_re + det_im * det_im)
        square = parts * parts
        entry = square[0::2] + square[1::2]
        frob2 = (entry[0] + entry[1]) + (entry[2] + entry[3])
        # (F**2 - 2|det|)(F**2 + 2|det|) = (smax**2 - smin**2)**2, negative only by rounding
        twice = 2 * absdet
        gap = np.sqrt(np.maximum((frob2 - twice) * (frob2 + twice), 0.0))
        smax = np.sqrt((frob2 + gap) / 2)
        return absdet / smax, smax, e


def is_singular_2x2(s, tol: float) -> bool | np.ndarray:
    """True iff the smallest singular value is at most tol * (1 + the
    largest), the test of ``is_singular``, for a 2 x 2 matrix; for a stack,
    shape (..., 2, 2), one bool per matrix.  A matrix whose singular values
    are not finite, or NaN as a zero one's smallest, is singular.  The test
    is taken on the scaled values, smin <= tol * (2**-e + smax), which
    rounds as the unscaled test would where that does not overflow."""
    smin, smax, e = _scaled_singular_values(s)
    with np.errstate(all="ignore"):
        singular = ~(smin > tol * (np.ldexp(1.0, -e) + smax))
    return bool(singular[0]) if np.ndim(s) == 2 else singular.reshape(np.shape(s)[:-2])


def _inverse_2x2(s) -> np.ndarray:
    """adj(S) / det S of each matrix S of the stack s, shape (..., 2, 2), as
    a (2, 4, m) array: the real, then the imaginary parts of its entries
    (0, 0), (0, 1), (1, 0) and (1, 1), each over the m matrices in order."""
    parts, e = _scaled_2x2(s)
    with np.errstate(all="ignore"):
        det_re, det_im = _det(parts)
        # 1 / det, with det scaled so its squared modulus cannot underflow
        g = np.frexp(np.maximum(abs(det_re), abs(det_im)))[1]
        det = np.ldexp([det_re, -det_im], -g)
        det /= det[0] * det[0] + det[1] * det[1]
        adjugate = parts[_ADJUGATE] * _ADJUGATE_SIGN
        return np.ldexp(_mul(adjugate[0::2], adjugate[1::2], det[0], det[1]), -e - g)


#: (re, im) pairs times this, reversed, are (-im, re)
_TURN = np.array([-1.0, 1.0])


def _pairs(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (re, im) pairs of the complex ``columns``, shape (..., 2), and
    the pairs (-im, re)."""
    pairs = np.ascontiguousarray(columns).view(float).reshape(*np.shape(columns), 2)
    return pairs, pairs[..., ::-1] * _TURN


def _row(c: np.ndarray, pairs: np.ndarray, turned: np.ndarray) -> np.ndarray:
    """c0 r0 + c1 r1 for a row (c0, c1) of ``_inverse_2x2``, c[:, t] the
    parts of c_t, and the columns (r0, r1) as ``_pairs`` gives them; the
    trailing axes of c and the columns broadcast together.

    On (re, im) pairs a product c r is c.real (r.real, r.imag) + c.imag
    (-r.imag, r.real), which rounds as CPython's complex product, so each
    pass over the pairs takes both parts at once; the passes write to three
    arrays, as a temporary per pass would cost more than the pass.
    """
    c = c[..., None]
    x = np.multiply(c[0, 0], pairs[0])
    term = np.multiply(c[0, 1], pairs[1])
    product = np.multiply(c[1, 0], turned[0])
    x += product
    term += np.multiply(c[1, 1], turned[1], out=product)
    x += term
    return x.view(complex)[..., 0]


def solve_2x2(s, rhs) -> np.ndarray:
    """x with S x = r, by Cramer's rule, for each matrix S of the stack s,
    shape (..., 2, 2), and each column r of rhs, shape (2,) or (2, n); x
    has shape s.shape[:-2] + rhs.shape.

    Per matrix the coefficients adj(S) / det S are formed once, so a row of
    x is a rank-2 form in the columns.  Cramer's rule is forward stable for
    n = 2 (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., section 1.10.1).  A singular S gives NaN or inf, not an error.
    """
    inverse = _inverse_2x2(s)[..., None]  # a coefficient per matrix, across the columns
    pairs, turned = _pairs(np.asarray(rhs, dtype=complex).reshape(2, -1))
    x = np.empty((inverse.shape[2], 2, pairs.shape[1]), dtype=complex)
    with np.errstate(all="ignore"):
        x[:, 0] = _row(inverse[:, 0:2], pairs, turned)
        x[:, 1] = _row(inverse[:, 2:4], pairs, turned)
    return x.reshape(np.shape(s)[:-2] + np.shape(rhs))


def second_unknown_2x2(s, rhs) -> np.ndarray:
    """y[i, j], the second unknown of S_i x = r_j for the m matrices S_i of
    the stack s, shape (m, 2, 2), and the n columns r_j of rhs, shape
    (2, n), with the bits ``solve_2x2`` gives it, or NaN where the first
    unknown is not finite: the second row of the solves, and of the first
    only what can fail.

    A row of a solve cannot overflow where every part of its coefficients
    times every part of the column is at most _SAFE_PRODUCT.  So the first
    unknown is computed only for the matrices and the columns whose largest
    part, times the other side's largest, exceeds that or is NaN: for
    finite images of a regular S(mu), none.
    """
    inverse = _inverse_2x2(s)
    columns = np.asarray(rhs, dtype=complex)
    pairs, turned = _pairs(columns)
    with np.errstate(all="ignore"):
        y = _row(inverse[:, 2:4, :, None], pairs, turned)
        coeff_big = abs(inverse[:, :2]).max(axis=(0, 1))
        column_big = abs(pairs).max(axis=(0, 2))
        matrices = np.flatnonzero(~(coeff_big * column_big.max(initial=0) <= _SAFE_PRODUCT))
        cols = np.flatnonzero(~(column_big * coeff_big.max(initial=0) <= _SAFE_PRODUCT))
        if matrices.size and cols.size:
            first = _row(inverse[:, :2, matrices, None], pairs[:, cols], turned[:, cols])
            at = np.ix_(matrices, cols)
            y[at] = np.where(np.isfinite(first.real) & np.isfinite(first.imag), y[at], np.nan)
    return y


def cayley(a) -> np.ndarray:
    """U = (A + iI)(A - iI)^(-1) for hermitian A; U is unitary without
    eigenvalue 1."""
    a = _as_matrix(a)
    skew = a - a.conj().T
    if _exceeds(skew, HERMITIAN_TOL):
        raise ValueError(f"matrix is not hermitian: ||A - A*|| = {opnorm(skew):.3e}")
    eye = np.eye(a.shape[0])
    # (A+iI) and (A-iI)^(-1) commute, so a single left solve suffices
    return np.linalg.solve(a - 1j * eye, a + 1j * eye)


def inverse_cayley(u) -> np.ndarray:
    """A = i(U + I)(U - I)^(-1) for unitary U without eigenvalue 1.

    The solve X = (U - I)^(-1)(U + I) = I + 2(U - I)^(-1) comes first: the
    smallest singular value of U - I is at least 2 / ||X - I||_F, and where
    that bound clears UNITARY_TOL + CAYLEY_SOLVE_TOL, A = iX is returned
    without an SVD.  The allowance keeps the computed bound below that sum
    wherever the singular value is at most UNITARY_TOL and the solve's
    backward error is under half the allowance.  Otherwise (a small bound,
    an X that is not finite, or a solve that raised) the SVD decides, as if
    the solve had not been run.
    """
    u = _as_matrix(u)
    eye = np.eye(u.shape[0])
    udef = u.conj().T @ u - eye
    if _exceeds(udef, UNITARY_TOL):
        raise ValueError(f"matrix is not unitary: ||U*U - I|| = {opnorm(udef):.3e}")
    shifted = u - eye
    try:
        x = np.linalg.solve(shifted, u + eye)
    except np.linalg.LinAlgError as exc:
        x, failed = None, exc
    else:
        # the bound 2 / ||X - I||_F clears the sum, tested without a division; a NaN fails
        if np.linalg.norm(x - eye) * (UNITARY_TOL + CAYLEY_SOLVE_TOL) < 2:
            return 1j * x
    smin = min_singular_value(shifted)
    if smin <= UNITARY_TOL:
        raise ValueError(
            f"U has (numerically) the eigenvalue 1: min sv of U - I is {smin:.3e}"
        )
    if x is None:
        raise failed
    return 1j * x


@dataclass(frozen=True)
class KreinBlockOperator:
    """2x2 block operator, unitary for the form [x, y] = (x0,y0) - (x1,y1).

    Blocks are m x m; the constructor verifies K*JK = J and KJK* = J with
    J = diag(I, -I) to within KREIN_TOL.
    """

    k11: np.ndarray
    k12: np.ndarray
    k21: np.ndarray
    k22: np.ndarray
    _defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = [_as_matrix(b) for b in (self.k11, self.k12, self.k21, self.k22)]
        m = blocks[0].shape[0]
        if any(b.shape != (m, m) for b in blocks):
            raise ValueError("all four blocks must be square with equal size")
        for name, b in zip(("k11", "k12", "k21", "k22"), blocks):
            object.__setattr__(self, name, b)
        k, j = self.matrix, _fundamental_symmetry(m)
        # a product that is not finite has norm NaN, which np.maximum keeps and the test rejects
        with np.errstate(over="ignore", invalid="ignore"):
            res = float(np.maximum(opnorm(k.conj().T @ j @ k - j),
                                   opnorm(k @ j @ k.conj().T - j)))
        if not res <= KREIN_TOL:
            raise ValueError(f"block operator is not Krein unitary: defect {res:.3e}")
        object.__setattr__(self, "_defect", res)

    @property
    def m(self) -> int:
        return self.k11.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.k11, self.k12], [self.k21, self.k22]])

    @classmethod
    def from_matrix(cls, k) -> "KreinBlockOperator":
        k = _as_matrix(k)
        if k.shape[0] % 2:
            raise ValueError("full matrix must have even size")
        m = k.shape[0] // 2
        return cls(k[:m, :m], k[:m, m:], k[m:, :m], k[m:, m:])

    @classmethod
    def identity(cls, m: int) -> "KreinBlockOperator":
        eye = np.eye(m)
        zero = np.zeros((m, m))
        return cls(eye, zero, zero, eye)

    def krein_defect(self) -> float:
        """max(||K*JK - J||, ||KJK* - J||), as the constructor measured it."""
        return self._defect

    def compose(self, other: "KreinBlockOperator") -> "KreinBlockOperator":
        """Block product self @ other (apply other first)."""
        return KreinBlockOperator.from_matrix(self.matrix @ other.matrix)


def _fundamental_symmetry(m: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(m), -np.ones(m)]))


def interspherical(k: KreinBlockOperator, z) -> np.ndarray | complex:
    """Linear fractional transform (K21 + K22 Z)(K11 + K12 Z)^(-1).

    Defined for finite contractions Z (||Z|| <= 1), and a Z that is not
    finite is rejected before its norm is taken; the denominator is invertible
    for every Krein-unitary K, so a singular denominator signals a broken K
    and is rejected.  A scalar z is accepted and a scalar is returned.  A
    stack of contractions, shape (n, m, m), is mapped element by element
    into a stack.  It is rejected if any entry is not finite, else if any
    element is not a contraction (the first is named), else if any
    denominator is singular.
    """
    zs = np.atleast_2d(np.asarray(z, dtype=complex))
    if zs.ndim > 3 or zs.shape[-2:] != (k.m, k.m):
        raise ValueError(f"contraction has shape {zs.shape}, expected {(k.m, k.m)}")
    stack = zs.reshape(-1, k.m, k.m)
    if not np.isfinite(stack).all():
        raise ValueError("contraction entries must be finite")
    norms = opnorm(stack)
    over = np.flatnonzero(norms > CONTRACTION_BOUND)
    if over.size:
        raise ValueError(f"||Z|| = {norms[over[0]]:.6f} exceeds 1")
    den = k.k11 + k.k12 @ stack
    if (min_singular_value(den) <= KREIN_DENOMINATOR_TOL).any():
        raise ValueError("K11 + K12 Z is numerically singular; K is not Krein unitary")
    out = (k.k21 + k.k22 @ stack) @ np.linalg.inv(den)
    if zs.ndim == 3:
        return out
    return complex(out[0, 0, 0]) if np.ndim(z) == 0 else out[0]


def random_krein_unitary(m: int, rng: np.random.Generator,
                         scale: float = 0.5) -> KreinBlockOperator:
    """Random Krein-unitary block operator as exp(X) with JX* = -XJ.

    X = [[iA, C], [C*, iB]] with hermitian A, B is J-skew-hermitian, so the
    exponential lies exactly (up to roundoff) in the Krein-unitary group.
    """
    def herm(n):
        g = rng.normal(scale=scale, size=(n, n)) + 1j * rng.normal(scale=scale, size=(n, n))
        return (g + g.conj().T) / 2

    a, b = herm(m), herm(m)
    c = rng.normal(scale=scale, size=(m, m)) + 1j * rng.normal(scale=scale, size=(m, m))
    x = np.block([[1j * a, c], [c.conj().T, 1j * b]])
    import scipy.linalg  # nothing else uses scipy, and importing it doubles start-up
    return KreinBlockOperator.from_matrix(scipy.linalg.expm(x))


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace, stored as matrix columns."""

    vectors: np.ndarray

    def __post_init__(self):
        v = require_finite(np.atleast_2d(np.asarray(self.vectors, dtype=complex)))
        if v.ndim != 2 or v.shape[1] == 0:
            raise ValueError("basis must contain at least one column")
        gram = v.conj().T @ v
        if _exceeds(gram - np.eye(v.shape[1]), ORTHONORMAL_TOL):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "vectors", v)

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def span(cls, columns) -> "SubspaceBasis":
        """Orthonormalize the given (full-rank) columns."""
        v = np.atleast_2d(np.asarray(columns, dtype=complex))
        q, r = np.linalg.qr(v)
        if min_singular_value(r) <= RANK_TOL * max(1.0, opnorm(r)):
            raise ValueError("columns are rank deficient")
        return cls(q)

    @classmethod
    def coordinate(cls, ambient_dim: int, index: int = 0) -> "SubspaceBasis":
        e = np.zeros((ambient_dim, 1), dtype=complex)
        e[index, 0] = 1.0
        return cls(e)


@dataclass(frozen=True)
class WanderingReport:
    first_violation: int | None
    defect_per_n: tuple[float, ...]

    @property
    def is_wandering(self) -> bool:
        return self.first_violation is None


def wandering_check(u, basis: SubspaceBasis, n_max: int) -> WanderingReport:
    """Sizes ||L* U^n L|| for n = 1..n_max and the first n above SINGULARITY_TOL.

    A subspace is wandering when all its images under positive powers of U
    stay orthogonal to it.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    u = _as_matrix(u)
    if _exceeds(u.conj().T @ u - np.eye(u.shape[0]), UNITARY_TOL):
        raise ValueError("U is not unitary")
    ell = basis.vectors
    ell_h = ell.conj().T
    blocks = []
    current = ell
    for _ in range(n_max):
        current = u @ current
        blocks.append(ell_h @ current)
    defects = opnorm(np.stack(blocks))
    over = np.flatnonzero(defects > SINGULARITY_TOL)
    first = int(over[0]) + 1 if over.size else None
    return WanderingReport(first, tuple(defects.tolist()))
