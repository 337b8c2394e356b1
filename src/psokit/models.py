"""Concrete operator models.

* the momentum operator i d/dx with a one-point restriction at the origin,
* a finite twisted-shift surrogate of the doubly infinite shift,
* two nonlocal one-point interactions of the momentum operator driven by an
  exponential potential on a half line,
* the dyadic dilation/translation system generated by the Haar function.

Each function-space model exposes a maximal-operator action, a native
boundary triplet, and the family of canonical defect vectors; the matrix
model exposes its unitary, its inverse Cayley transform, and the generating
subspace.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matops
from .expfun import (
    NEG_INF,
    POS_INF,
    PiecewiseExpFunction,
    canonical_row,
    coefficient_distance,
    free_resolvent,
    gram,
    inner,
    norm,
    pack,
    row_term,
)
from .scalars import format_complex
from .tolerances import BOUNDARY_CONDITION_TOL, DECOMPOSE_SINGULAR_TOL, SERIES_TAIL_TOL, TWIST_TOL
from .triplets import (
    BoundaryFunctional,
    BoundaryTriplet,
    DefectFamily,
    require_maximal_domain,
)


def _half_line(coeff, exponent, side) -> PiecewiseExpFunction:
    if side == "-":
        return PiecewiseExpFunction.single(coeff, NEG_INF, 0.0, exponent)
    return PiecewiseExpFunction.single(coeff, 0.0, POS_INF, exponent)


def free_part(f: PiecewiseExpFunction) -> PiecewiseExpFunction:
    """i f', the free momentum operator on f, with a jump allowed at the
    origin; the models' maximal operators add their coupling to it."""
    return 1j * f.derivative(jump_ok_at=(0.0,))


def _defect_exponential(coeff: complex, z: complex) -> tuple:
    """The term coeff * exp(-izx) on (-inf, 0) for Im z > 0, on (0, inf) for
    Im z < 0; it decays on its half line."""
    lo, hi = (NEG_INF, 0.0) if z.imag > 0 else (0.0, POS_INF)
    return row_term(complex(coeff), lo, hi, -1j * complex(z))




# ---------------------------------------------------------------------------
# momentum operator with a one-point restriction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentumModel:
    """i d/dx restricted to functions vanishing at the origin.

    The restriction has defect dimension one on either half plane; the
    defect vector at z is a one-sided exponential, so the upper and lower
    defect subspaces live on opposite half lines and are orthogonal at
    machine zero.
    """

    triplet: BoundaryTriplet = field(init=False, repr=False)
    defects: DefectFamily = field(init=False, repr=False)

    def __post_init__(self):
        trip = BoundaryTriplet(
            gamma_minus=BoundaryFunctional(right=1.0),
            gamma_plus=BoundaryFunctional(left=1.0),
            witness=(_half_line(1.0, 1.0, "-"), _half_line(1.0, -1.0, "+")),
        )
        object.__setattr__(self, "triplet", trip)
        object.__setattr__(self, "defects", DefectFamily(self._defect, trip))

    @staticmethod
    def _defect(z: complex) -> PiecewiseExpFunction:
        return PiecewiseExpFunction.from_row(canonical_row((_defect_exponential(1.0, z),)))

    def adjoint_apply(self, f: PiecewiseExpFunction) -> PiecewiseExpFunction:
        return self.adjoint_from(f, free_part(f))

    @staticmethod
    def adjoint_from(f: PiecewiseExpFunction,
                     free: PiecewiseExpFunction) -> PiecewiseExpFunction:
        """T f from f and its free part ``free_part(f)``."""
        return free

    def describe(self) -> str:
        return "momentum(m=1)"


def momentum_eigen_test(t, lam: complex) -> bool:
    """Eigenvalue test for the extension with boundary condition
    T f(0-) = f(0+).

    An upper candidate eigenfunction is a left exponential with f(0+) = 0,
    so the condition kills it unless T is singular; a lower candidate forces
    the vector itself to vanish, so no lower eigenvalues exist.
    """
    lam = complex(lam)
    if lam.imag == 0:
        raise ValueError("test applies to non-real lambda only")
    if lam.imag < 0:
        return False
    return matops.is_singular(t)


def _as_components(sample, m: int):
    if isinstance(sample, PiecewiseExpFunction):
        sample = [sample]
    comps = list(sample)
    if len(comps) != m:
        raise ValueError(f"sample has {len(comps)} components, expected {m}")
    return comps


def _apply_half_line_multiplier(f_matrix, comps):
    """Multiply the x > 0 part of a component vector by a matrix, keep x < 0."""
    m = len(comps)
    left = [c.restrict(NEG_INF, 0.0) for c in comps]
    right = [c.restrict(0.0, POS_INF) for c in comps]
    out = []
    for j in range(m):
        acc = left[j]
        for k in range(m):
            if f_matrix[j, k] != 0:
                acc = acc + f_matrix[j, k] * right[k]
        out.append(acc)
    return out


def similarity_conjugation_check(t1, t2, samples) -> float:
    """Residual of the intertwining U_F A_{T1} = A_{T2} U_F with F = T2 T1^(-1).

    U_F multiplies the positive half line by F and leaves the negative one
    alone.  Each sample must satisfy the T1 boundary condition; the returned
    value is the largest commutation-plus-membership defect over the
    samples.
    """
    t1 = np.atleast_2d(np.asarray(t1, dtype=complex))
    t2 = np.atleast_2d(np.asarray(t2, dtype=complex))
    m = t1.shape[0]
    if t1.shape != (m, m) or t2.shape != (m, m):
        raise ValueError("boundary parameters must be square matrices of equal size")
    matops.require_finite(t1)
    matops.require_finite(t2)
    if matops.is_singular(t1, DECOMPOSE_SINGULAR_TOL):
        raise ValueError("T1 must be invertible (real-spectrum extensions only)")
    f_matrix = t2 @ np.linalg.inv(t1)
    samples = list(samples)
    if not samples:
        raise ValueError("the similarity check needs at least one sample")

    worst = 0.0
    for sample in samples:
        comps = _as_components(sample, m)
        for c in comps:
            require_maximal_domain(c)
        v_minus = np.array([c.limit(0.0, "-") for c in comps])
        v_plus = np.array([c.limit(0.0, "+") for c in comps])
        bc = float(np.linalg.norm(t1 @ v_minus - v_plus))
        if bc > BOUNDARY_CONDITION_TOL * (1 + float(np.linalg.norm(v_minus))):
            raise ValueError(
                f"sample violates the T1 boundary condition by {bc:.3e}"
            )
        derivs = [free_part(c) for c in comps]
        uf_of_deriv = _apply_half_line_multiplier(f_matrix, derivs)
        uf_sample = _apply_half_line_multiplier(f_matrix, comps)
        deriv_of_uf = [free_part(c) for c in uf_sample]
        commutation = max(
            norm(a - b) for a, b in zip(uf_of_deriv, deriv_of_uf)
        )
        w_minus = np.array([c.limit(0.0, "-") for c in uf_sample])
        w_plus = np.array([c.limit(0.0, "+") for c in uf_sample])
        membership = float(np.linalg.norm(t2 @ w_minus - w_plus))
        worst = max(worst, commutation + membership)
    return worst


def weyl_relation_check(t: float, f: PiecewiseExpFunction) -> float:
    """Term-level distance between V_t (i d/dx) V_{-t} f and (i d/dx - t) f.

    V_t is multiplication by exp(-itx); the relation is symbolically exact,
    so the distance is roundoff only.  f must be continuous (a member of the
    unrestricted momentum domain).
    """
    t = float(t)
    conjugated = f.modulate(-t).derivative().modulate(t) * 1j
    straight = 1j * f.derivative() - t * f
    return coefficient_distance(conjugated, straight)


def restriction_pairing(u: PiecewiseExpFunction,
                        gamma: PiecewiseExpFunction) -> complex:
    """The pairing ((A - iI)u, gamma) for the free momentum operator A.

    Vanishing of this pairing for all gamma in a subspace is what carves a
    symmetric restriction out of A; u must be continuous everywhere.
    """
    au = 1j * u.derivative()
    return inner(au - 1j * u, gamma)


def continuous_bump(a: float, width: float, p: float, q: float,
                    coeff=1.0) -> PiecewiseExpFunction:
    """Compactly supported combination of two exponentials vanishing at both
    interval ends, hence continuous on the whole line."""
    if width <= 0 or p == q:
        raise ValueError("need positive width and distinct rates")
    b = a + width
    beta = (math.expm1(p * width)) / (math.expm1(q * width))
    c = complex(coeff)
    return PiecewiseExpFunction(
        [
            (c * cmath.exp(-p * a), a, b, p),
            (-c, a, b, 0.0),
            (-c * beta * cmath.exp(-q * a), a, b, q),
            (c * beta, a, b, 0.0),
        ]
    )


def random_maximal_domain_function(rng: np.random.Generator) -> PiecewiseExpFunction:
    """Random maximal-domain element: decaying oscillatory tails on each
    half line (independent, so a jump at the origin is generic) plus a
    compact continuous bump."""
    f = PiecewiseExpFunction.zero()
    for _ in range(int(rng.integers(1, 3))):
        c = complex(rng.normal(), rng.normal())
        s = complex(rng.uniform(0.4, 2.2), rng.uniform(-3, 3))
        f = f + _half_line(c, s, "-")
    for _ in range(int(rng.integers(1, 3))):
        c = complex(rng.normal(), rng.normal())
        s = complex(-rng.uniform(0.4, 2.2), rng.uniform(-3, 3))
        f = f + _half_line(c, s, "+")
    a = rng.uniform(-2.5, 1.5)
    p, q = rng.uniform(0.3, 1.5), rng.uniform(1.6, 2.8)
    f = f + continuous_bump(a, rng.uniform(0.5, 2.0), p, q,
                            complex(rng.normal(), rng.normal()))
    return f


# ---------------------------------------------------------------------------
# finite twisted-shift surrogate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftModel:
    """Cyclic shift with a twisted wrap-around entry and its inverse Cayley.

    U e_k = e_{k+1} for k < d-1 and U e_{d-1} = twist * e_0.  With the
    default twist -1 the eigenvalues are odd roots of -1, never 1, so the
    inverse Cayley transform A exists; e_0 spans a subspace that wanders for
    exactly d - 1 steps, a finite surrogate of a genuinely wandering
    subspace whose error decays geometrically in d.
    """

    d: int
    twist: complex = -1.0
    u: np.ndarray = field(init=False, repr=False)
    a: np.ndarray = field(init=False, repr=False)
    basis: matops.SubspaceBasis = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 4:
            raise ValueError("shift dimension must be at least 4")
        twist = complex(self.twist)
        if not abs(abs(twist) - 1) <= TWIST_TOL:  # a NaN twist fails
            raise ValueError("twist must be unimodular")
        object.__setattr__(self, "twist", twist)
        u = np.zeros((self.d, self.d), dtype=complex)
        for k in range(self.d - 1):
            u[k + 1, k] = 1.0
        u[0, self.d - 1] = twist
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "a", matops.inverse_cayley(u))
        object.__setattr__(self, "basis", matops.SubspaceBasis.coordinate(self.d, 0))

    def describe(self) -> str:
        return f"shift(d={self.d},twist={format_complex(self.twist)})"


def shift_t_parameter(z: complex) -> complex:
    """Contraction parameter t = (iz + 1)/(iz - 1); |t| < 1 iff Im z > 0."""
    z = complex(z)
    return (1j * z + 1) / (1j * z - 1)


def shift_defect(model: ShiftModel, z: complex, method: str = "direct") -> np.ndarray:
    """Defect vector (A + iI)(A - zI)^(-1) e_0 of the restriction cut out
    by the generating subspace.

    method 'direct' solves with A; method 'series' (upper half plane only)
    sums 2U/(1 - iz) * sum_n t^n U^n e_0 with the tail truncated below
    SERIES_TAIL_TOL.  The two agree to machine precision.
    """
    z = complex(z)
    if not cmath.isfinite(z) or z.imag == 0:
        raise ValueError(f"defect vectors exist only for finite non-real z, got z={z}")
    e0 = model.basis.vectors[:, 0]
    if method == "direct":
        eye = np.eye(model.d)
        return (model.a + 1j * eye) @ np.linalg.solve(model.a - z * eye, e0)
    if method == "series":
        if z.imag <= 0:
            raise ValueError("the geometric series converges only for Im z > 0")
        t = shift_t_parameter(z)
        if t == 0:
            n_cut = 0
        else:
            n_cut = max(0, math.ceil(math.log(SERIES_TAIL_TOL) / math.log(abs(t))))
        acc = np.zeros(model.d, dtype=complex)
        vec = e0.astype(complex)
        coeff = 1.0 + 0j
        for _ in range(n_cut + 1):
            acc += coeff * vec
            vec = model.u @ vec
            coeff *= t
        # one more shift turns sum t^n U^n e0 into U * (...)
        return (2 / (1 - 1j * z)) * (model.u @ acc)
    raise ValueError(f"unknown method {method!r}")


def shift_orthogonality_defect(model: ShiftModel, z: complex,
                               method: str = "direct") -> float:
    """Normalized overlap |(T_z e0, e0)| / ||T_z e0|| of the defect vector
    with the generating subspace; decays like |t|^(d-1)."""
    v = shift_defect(model, z, method)
    e0 = model.basis.vectors[:, 0]
    return float(abs(np.vdot(e0, v)) / np.linalg.norm(v))


def shift_cayley_identity(model: ShiftModel, x) -> float:
    """Residual of (A - iI)(U - I)x = 2ix, exact in the Cayley calculus."""
    x = np.asarray(x, dtype=complex)
    u = (model.u - np.eye(model.d)) @ x
    return float(np.linalg.norm((model.a - 1j * np.eye(model.d)) @ u - 2j * x))


def shift_wandering_report(model: ShiftModel):
    return matops.wandering_check(model.u, model.basis, model.d)


# ---------------------------------------------------------------------------
# nonlocal one-point interactions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonlocalModel:
    """Momentum operator with a nonlocal one-point interaction.

    Case I couples through the mean boundary value (f(0+) + f(0-))/2 and the
    potential alpha * chi_(0,inf) exp(-x); case II couples through the jump
    f(0+) - f(0-) and the potential alpha * chi_(-inf,0) exp(x).  Boundary
    maps (case I):

        gamma_plus(f)  = f(0-) + (i/2)(f, gamma)
        gamma_minus(f) = f(0+) - (i/2)(f, gamma)

    and (case II):

        gamma_plus(f)  = f(0-) - i (f, gamma)
        gamma_minus(f) = f(0+) - i (f, gamma)
    """

    case: str
    alpha: complex
    gamma: PiecewiseExpFunction = field(init=False, repr=False)
    triplet: BoundaryTriplet = field(init=False, repr=False)
    defects: DefectFamily = field(init=False, repr=False)

    def __post_init__(self):
        case = str(self.case).upper()
        if case not in ("I", "II"):
            raise ValueError(f"case must be 'I' or 'II', got {self.case!r}")
        object.__setattr__(self, "case", case)
        alpha = complex(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        # witness functions are chosen orthogonal to the potential, so their
        # boundary images are (1, 0) and (0, 1) for every alpha
        if case == "I":
            gamma = _half_line(alpha, -1.0, "+") if alpha else PiecewiseExpFunction.zero()
            gp = BoundaryFunctional(left=1.0, pairings=((0.5j, gamma),))
            gm = BoundaryFunctional(right=1.0, pairings=((-0.5j, gamma),))
            witness = (
                _half_line(1.0, 1.0, "-"),
                _half_line(-2.0, -1.0, "+") + _half_line(3.0, -2.0, "+"),
            )
        else:
            gamma = _half_line(alpha, 1.0, "-") if alpha else PiecewiseExpFunction.zero()
            gp = BoundaryFunctional(left=1.0, pairings=((-1j, gamma),))
            gm = BoundaryFunctional(right=1.0, pairings=((-1j, gamma),))
            witness = (
                _half_line(-2.0, 1.0, "-") + _half_line(3.0, 2.0, "-"),
                _half_line(1.0, -1.0, "+"),
            )
        object.__setattr__(self, "gamma", gamma)
        trip = BoundaryTriplet(gamma_minus=gm, gamma_plus=gp, witness=witness)
        object.__setattr__(self, "triplet", trip)
        # the family holds the case and the potential, not the model, so a
        # dropped model is freed without the cyclic collector
        build = functools.partial(self._defect, case, gamma)
        object.__setattr__(self, "defects", DefectFamily(build, trip))

    def adjoint_apply(self, f: PiecewiseExpFunction) -> PiecewiseExpFunction:
        return self.adjoint_from(f, free_part(f))

    def adjoint_from(self, f: PiecewiseExpFunction,
                     free: PiecewiseExpFunction) -> PiecewiseExpFunction:
        """T f from f and its free part ``free_part(f)``: the coupling term
        added to the free part."""
        if self.case == "I":
            coupling = (f.limit(0.0, "+") + f.limit(0.0, "-")) / 2
        else:
            coupling = f.limit(0.0, "+") - f.limit(0.0, "-")
        return free + coupling * self.gamma

    @staticmethod
    def _defect(case: str, gamma: PiecewiseExpFunction, z: complex) -> PiecewiseExpFunction:
        g = free_resolvent(z, gamma) if not gamma.is_zero else gamma
        g0 = (g.limit(0.0, "+") + g.limit(0.0, "-")) / 2
        # g - 2 (1 + g0) bump (case I) or g +- bump (case II) in one merge;
        # a merge starts from 0j, erasing zero signs, so the bits are the same
        if case == "I":
            coeff = -2 * (1 + g0)
        else:
            coeff = 1.0 if z.imag > 0 else -1.0
        return PiecewiseExpFunction.from_row(
            canonical_row(g.row + (_defect_exponential(coeff, z),)))

    def describe(self) -> str:
        return f"nonlocal-{self.case}(alpha={format_complex(self.alpha)})"


# ---------------------------------------------------------------------------
# Haar dilation/translation system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaarSystem:
    """Finite block of the system 2^(j/2) psi(2^j x - k) generated from the
    step function psi = chi_[0,1/2) - chi_[1/2,1) by the unitary dyadic
    dilation and the unit translation."""

    j_range: tuple[int, int]
    k_range: tuple[int, int]

    def __post_init__(self):
        j0, j1 = self.j_range
        k0, k1 = self.k_range
        if j0 > j1 or k0 > k1:
            raise ValueError("ranges must be nonempty (lo <= hi)")
        object.__setattr__(self, "j_range", (int(j0), int(j1)))
        object.__setattr__(self, "k_range", (int(k0), int(k1)))

    @staticmethod
    def mother() -> PiecewiseExpFunction:
        return (PiecewiseExpFunction.indicator(0.0, 0.5)
                - PiecewiseExpFunction.indicator(0.5, 1.0))

    def element(self, j: int, k: int) -> PiecewiseExpFunction:
        """2^(j/2) psi(2^j x - k), built from translation and unitary scaling."""
        return self.mother().translate(float(k)).scale(2.0**j)

    def labels(self) -> list[tuple[int, int]]:
        j0, j1 = self.j_range
        k0, k1 = self.k_range
        return [(j, k) for j in range(j0, j1 + 1) for k in range(k0, k1 + 1)]

    def describe(self) -> str:
        j0, j1 = self.j_range
        k0, k1 = self.k_range
        return f"haar(j={j0}..{j1},k={k0}..{k1})"


def haar_gram(system: HaarSystem) -> np.ndarray:
    """Gram matrix of the block; equal to the identity for any ranges."""
    elements = pack([system.element(j, k) for j, k in system.labels()])
    full = gram(elements, elements)
    # the upper triangle, mirrored: entry (q, p) is the conjugate of (p, q),
    # which on the diagonal replaces the computed value
    upper = np.triu_indices(len(elements))
    out = np.zeros_like(full)
    out[upper] = full[upper]
    out.T[upper] = full[upper].conj()
    return out
