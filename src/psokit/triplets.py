"""Boundary triplets over the piecewise-exponential domain.

A boundary triplet for a maximal operator T is a pair of linear maps
(gamma_minus, gamma_plus) on the maximal domain satisfying the Green
identity

    (Tf, g) - (f, Tg) = i [ gamma_plus(f) conj(gamma_plus(g))
                            - gamma_minus(f) conj(gamma_minus(g)) ]

together with joint surjectivity.  The triplet encodes extensions through
relations between the two boundary values, and the characteristic function
of the underlying symmetric operator is the ratio of boundary values on the
defect subspaces.  Everything here is for defect dimension one; the models
supply concrete triplets and defect families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matops
from .expfun import PiecewiseExpFunction, inner, norm

#: |gamma| below this (relative) counts as a singular boundary image
BOUNDARY_SINGULAR_TOL = 1e-12

#: S(mu), the boundary images of the defect vectors at mu and conj(mu), is
#: singular when its smallest singular value is below this (relative)
DECOMPOSE_SINGULAR_TOL = 1e-12

GREEN_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryFunctional:
    """Linear functional c_- f(0-) + c_+ f(0+) + sum_k w_k (f, h_k).

    This covers every boundary map appearing in the concrete models.  The
    optional ``inner_product`` argument of the call swaps in an alternative
    inner product (the quadrature oracle) for the pairing part.
    """

    left: complex = 0j
    right: complex = 0j
    pairings: tuple[tuple[complex, PiecewiseExpFunction], ...] = ()

    def __call__(self, f: PiecewiseExpFunction, inner_product=None) -> complex:
        ip = inner if inner_product is None else inner_product
        val = 0j
        if self.left:
            val += self.left * f.limit(0.0, "-")
        if self.right:
            val += self.right * f.limit(0.0, "+")
        for w, h in self.pairings:
            val += w * ip(f, h)
        return val

    def __add__(self, other):
        if not isinstance(other, BoundaryFunctional):
            return NotImplemented
        return BoundaryFunctional(self.left + other.left,
                                  self.right + other.right,
                                  self.pairings + other.pairings)

    def __mul__(self, scalar):
        c = complex(scalar)
        return BoundaryFunctional(c * self.left, c * self.right,
                                  tuple((c * w, h) for w, h in self.pairings))

    __rmul__ = __mul__


@dataclass(frozen=True)
class BoundaryTriplet:
    """The pair (gamma_minus, gamma_plus) plus a surjectivity witness.

    The witness is a pair of maximal-domain functions whose joint boundary
    images span C^2; ``check_surjectivity`` verifies that.
    """

    gamma_minus: Callable[..., complex]
    gamma_plus: Callable[..., complex]
    witness: tuple[PiecewiseExpFunction, PiecewiseExpFunction]

    def images(self, *fs: PiecewiseExpFunction) -> np.ndarray:
        """Boundary images, 2 x len(fs): row 0 gamma_plus, row 1 gamma_minus."""
        return np.array([[self.gamma_plus(f) for f in fs],
                         [self.gamma_minus(f) for f in fs]])

    def check_surjectivity(self) -> None:
        if matops.is_singular(self.images(*self.witness), 1e-8):
            raise ValueError("boundary maps fail the surjectivity witness")


class DefectFamily:
    """Map from non-real z to the canonical defect vector at z (cached)."""

    def __init__(self, fn: Callable[[complex], PiecewiseExpFunction]):
        self._fn = fn
        self._cache: dict[complex, PiecewiseExpFunction] = {}
        self._norms: dict[complex, float] = {}

    def __call__(self, z: complex) -> PiecewiseExpFunction:
        z = complex(z)
        if z.imag == 0:
            raise ValueError("defect vectors exist only for non-real z")
        if z not in self._cache:
            self._cache[z] = self._fn(z)
        return self._cache[z]

    def norm(self, z: complex) -> float:
        z = complex(z)
        if z not in self._norms:
            self._norms[z] = norm(self(z))
        return self._norms[z]

    def normalized(self, z: complex) -> PiecewiseExpFunction:
        return (1.0 / self.norm(z)) * self(z)


def require_maximal_domain(f: PiecewiseExpFunction,
                           jump_at: tuple[float, ...] = (0.0,)) -> None:
    """Membership test for the models' maximal domain.

    Piecewise W^1_2 on the line split at the origin: finite one-sided limits
    everywhere (automatic for this algebra) and continuity at every finite
    breakpoint except the allowed jump points.
    """
    x, jump = f.first_jump(1e-12 * (1 + f.coefficient_norm()), jump_at)
    if x is not None:
        raise ValueError(f"not in the maximal domain: jump {jump:.3e} at x={x}")


def green_residual(triplet: BoundaryTriplet, model, f: PiecewiseExpFunction,
                   g: PiecewiseExpFunction) -> float:
    """Defect of the Green identity for a pair of maximal-domain functions."""
    require_maximal_domain(f)
    require_maximal_domain(g)
    tf = model.adjoint_apply(f)
    tg = model.adjoint_apply(g)
    lhs = inner(tf, g) - inner(f, tg)
    gp, gm = triplet.gamma_plus, triplet.gamma_minus
    rhs = 1j * (gp(f) * gp(g).conjugate() - gm(f) * gm(g).conjugate())
    return abs(lhs - rhs)


def char_function(triplet: BoundaryTriplet, defects: DefectFamily,
                  lam: complex, inner_product=None) -> complex:
    """Characteristic function value gamma_minus / gamma_plus on the defect
    vector at lam in the upper half plane; a strict contraction there."""
    lam = complex(lam)
    if lam.imag <= 0:
        raise ValueError("characteristic function is evaluated on the upper half plane")
    f = defects(lam)
    gp = triplet.gamma_plus(f, inner_product) if inner_product else triplet.gamma_plus(f)
    gm = triplet.gamma_minus(f, inner_product) if inner_product else triplet.gamma_minus(f)
    if abs(gp) <= BOUNDARY_SINGULAR_TOL * (1 + abs(gm)):
        raise ValueError(
            f"gamma_plus vanishes on the defect vector at {lam}; "
            "triplet and defect family are inconsistent"
        )
    return gm / gp


def char_function_lower(triplet: BoundaryTriplet, defects: DefectFamily,
                        nu: complex) -> complex:
    """Lower-half-plane counterpart, defined through the mirrored domain
    condition; equals conj(char_function(conj(nu)))."""
    nu = complex(nu)
    if nu.imag >= 0:
        raise ValueError("expected nu in the lower half plane")
    f = defects(nu)
    gm = triplet.gamma_minus(f)
    gp = triplet.gamma_plus(f)
    if abs(gm) <= BOUNDARY_SINGULAR_TOL * (1 + abs(gp)):
        raise ValueError(f"gamma_minus vanishes on the defect vector at {nu}")
    return gp / gm


def require_regular_system(system: np.ndarray) -> None:
    """Reject a singular S(mu), the images of the defect vectors at mu, conj(mu)."""
    if matops.is_singular(system, DECOMPOSE_SINGULAR_TOL):
        raise ValueError("decomposition system is singular for this mu")


def decompose(model, f: PiecewiseExpFunction, mu: complex
              ) -> tuple[complex, complex, float]:
    """Coefficients (a, b) of f along the defect vectors at mu and conj(mu).

    Writes f = u + a f_mu + b f_conj(mu) with u in the minimal domain (both
    native boundary maps vanish on u) and returns (a, b, residual), the
    residual being the larger boundary value of the reassembled u.
    """
    mu = complex(mu)
    if mu.imag <= 0:
        raise ValueError("mu must lie in the upper half plane")
    require_maximal_domain(f)
    fm = model.defects(mu)
    fmb = model.defects(mu.conjugate())
    system = model.triplet.images(fm, fmb)
    rhs = model.triplet.images(f)[:, 0]
    require_regular_system(system)
    a, b = np.linalg.solve(system, rhs)
    u = f - complex(a) * fm - complex(b) * fmb
    residual = max(abs(g) for g in model.triplet.images(u)[:, 0].tolist())
    return complex(a), complex(b), float(residual)


def defect_triplet(model, mu: complex) -> BoundaryTriplet:
    """Boundary triplet built from the defect subspaces at mu, conj(mu).

    With f = u + a f_mu + b f_conj(mu), the maps are

        gamma_plus(f)  = sqrt(2 Im mu) * ||f_mu||      * a
        gamma_minus(f) = sqrt(2 Im mu) * ||f_conj(mu)|| * b

    i.e. the coordinates in the normalized defect basis scaled by
    sqrt(2 Im mu), with the unitary identification sending the normalized
    lower vector to the normalized upper one.
    """
    mu = complex(mu)
    if mu.imag <= 0:
        raise ValueError("mu must lie in the upper half plane")
    scale = math.sqrt(2 * mu.imag)
    n_up = model.defects.norm(mu)
    n_dn = model.defects.norm(mu.conjugate())
    witness = (model.defects(mu), model.defects(mu.conjugate()))
    system = model.triplet.images(*witness)  # S(mu) of decompose, fixed here
    require_regular_system(system)

    def coordinate(row, n):
        def gamma(f, inner_product=None):
            if inner_product is not None:
                raise ValueError("defect triplets evaluate in closed form only")
            require_maximal_domain(f)
            rhs = model.triplet.images(f)[:, 0]
            return scale * n * complex(np.linalg.solve(system, rhs)[row])
        return gamma

    return BoundaryTriplet(coordinate(1, n_dn), coordinate(0, n_up), witness=witness)


def triplet_convert(g0: BoundaryFunctional, g1: BoundaryFunctional, model,
                    test_pairs=None) -> BoundaryTriplet:
    """Convert a symmetric-form pair (g0, g1) into a (minus, plus) triplet.

    The input must satisfy the symmetric Green identity

        (Tf, g) - (f, Tg) = g1(f) conj(g0(g)) - g0(f) conj(g1(g))

    on the supplied test pairs; the output maps are
    (g1 -+ i g0) / sqrt(2), which restores the triplet-form identity.
    """
    if test_pairs is None:
        w1, w2 = model.triplet.witness
        test_pairs = [(w1, w1), (w1, w2), (w2, w1), (w2, w2)]
    for f, g in test_pairs:
        lhs = inner(model.adjoint_apply(f), g) - inner(f, model.adjoint_apply(g))
        rhs = g1(f) * g0(g).conjugate() - g0(f) * g1(g).conjugate()
        if abs(lhs - rhs) > GREEN_TOL:
            raise ValueError(
                f"input pair violates the symmetric Green identity by {abs(lhs - rhs):.3e}"
            )
    inv_sqrt2 = 1 / math.sqrt(2)
    plus = inv_sqrt2 * (g1 + 1j * g0)
    minus = inv_sqrt2 * (g1 + (-1j) * g0)
    out = BoundaryTriplet(minus, plus, witness=model.triplet.witness)
    out.check_surjectivity()
    return out


def convert_back(triplet: BoundaryTriplet) -> tuple[BoundaryFunctional, BoundaryFunctional]:
    """Inverse of triplet_convert for functional-backed triplets."""
    gm, gp = triplet.gamma_minus, triplet.gamma_plus
    if not isinstance(gm, BoundaryFunctional) or not isinstance(gp, BoundaryFunctional):
        raise TypeError("convert_back needs functional-backed boundary maps")
    inv_sqrt2 = 1 / math.sqrt(2)
    g1 = inv_sqrt2 * (gp + gm)
    g0 = (-1j * inv_sqrt2) * (gp + (-1.0) * gm)
    return g0, g1


def change_of_basis(t1: BoundaryTriplet, t2: BoundaryTriplet, model,
                    mu: complex = 1j) -> matops.KreinBlockOperator:
    """Krein-unitary K with K (gamma_plus^1, gamma_minus^1) = (gamma_plus^2,
    gamma_minus^2) on the maximal domain.

    K is computed from the boundary images of the defect vectors at mu and
    conj(mu), whose images span C^2 for any valid triplet; the pointwise
    relation theta_2 = Phi_K(theta_1) then holds on the whole upper half
    plane.
    """
    h = (model.defects(complex(mu)), model.defects(complex(mu).conjugate()))
    m1, m2 = t1.images(*h), t2.images(*h)
    if matops.is_singular(m1, DECOMPOSE_SINGULAR_TOL):
        raise ValueError("defect images under the first triplet are rank deficient")
    k = m2 @ np.linalg.inv(m1)
    return matops.KreinBlockOperator.from_matrix(k)
