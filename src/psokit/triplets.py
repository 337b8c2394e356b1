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

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matops
from .expfun import PiecewiseExpFunction, inner, norms, paired
from .tolerances import (BOUNDARY_SINGULAR_TOL, DECOMPOSE_SINGULAR_TOL, DOMAIN_JUMP_TOL,
                         GREEN_TOL, SURJECTIVITY_TOL)


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
        return self.combine(f.limit(0.0, "-"), f.limit(0.0, "+"),
                            [ip(f, h) for _, h in self.pairings])

    def combine(self, minus: complex, plus: complex, pairings) -> complex:
        """The value on a function f with f(0-) = minus, f(0+) = plus and the
        inner products (f, h_k), in the order of ``self.pairings``."""
        val = 0j
        if self.left:
            val += self.left * minus
        if self.right:
            val += self.right * plus
        for (w, _), ip in zip(self.pairings, pairings):
            val += w * ip
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
    images span C^2; ``check_surjectivity`` verifies that.  A triplet
    defined through the model's native one (``defect_triplet``) also has
    ``from_native(native)``, its two rows of values, as lists, on the
    functions whose native images are the columns of the 2 x n ``native``.
    """

    gamma_minus: Callable[..., complex]
    gamma_plus: Callable[..., complex]
    witness: tuple[PiecewiseExpFunction, PiecewiseExpFunction]
    from_native: Callable[..., tuple[list, list]] | None = None

    def images(self, *fs: PiecewiseExpFunction) -> np.ndarray:
        """Boundary images, 2 x len(fs): row 0 gamma_plus, row 1 gamma_minus;
        each f is mapped by both, gamma_plus first, before the next f."""
        pairs = boundary_images(self, fs)
        return np.array([[gp for gp, _ in pairs], [gm for _, gm in pairs]])

    def check_surjectivity(self) -> None:
        if matops.is_singular(self.images(*self.witness), SURJECTIVITY_TOL):
            raise ValueError("boundary maps fail the surjectivity witness")


def boundary_images(triplet: BoundaryTriplet, fs) -> list[tuple[complex, complex]]:
    """(gamma_plus(f), gamma_minus(f)) of each function f in fs, bit for bit.

    When both maps are boundary functionals they are evaluated together:
    each f's one-sided limits at the origin are taken once, and each
    distinct pairing function h is paired with every f by one ``paired``
    call, so a pairing both maps share is taken once.  Other maps are
    called on each f, gamma_plus first.
    """
    maps = (triplet.gamma_plus, triplet.gamma_minus)
    if not all(isinstance(m, BoundaryFunctional) for m in maps):
        return [(triplet.gamma_plus(f), triplet.gamma_minus(f)) for f in fs]
    hs = list({id(h): h for m in maps for _, h in m.pairings}.values())
    column = {id(h): j for j, h in enumerate(hs)}
    plan = [(m, [column[id(h)] for _, h in m.pairings]) for m in maps]
    ips = zip(*(paired(fs, [h]).tolist() for h in hs)) if hs else [()] * len(fs)
    out = []
    for f, ip in zip(fs, ips):
        minus, plus = f.limit(0.0, "-"), f.limit(0.0, "+")
        out.append(tuple([m.combine(minus, plus, [ip[j] for j in columns])
                          for m, columns in plan]))
    return out


def each_point(fn: Callable, points) -> list:
    """``fn(z)`` for each z of points, or the exception it raised there."""
    out = []
    for z in points:
        try:
            out.append(fn(z))
        except Exception as exc:
            out.append(exc)
    return out


def _batch(fn: Callable[[list], list], items: list) -> list:
    """``fn(items)``; if that raises, ``fn`` of each item alone, or the
    exception it raised there, so one item cannot fail the others."""
    try:
        return fn(items)
    except Exception:
        return each_point(lambda item: fn([item])[0], items)


def unwrap(entry):
    """An entry of a batch: its value, or the exception it holds, raised."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def _norm_entry(n: float):
    """A defect vector's norm, or the error for one that cannot scale it:
    an overflowing norm would scale the vector to zero, which pairs
    perfectly with everything, and a zero one cannot be divided by."""
    if not math.isfinite(n):
        return ValueError("defect vector norm is not finite")
    if n == 0:
        return ValueError("defect vector norm is zero")
    return n


class DefectFamily:
    """Map from non-real z to the canonical defect vector at z, with its norm
    and its native images under the model's ``triplet``: the one place a
    defect point is mapped through the boundary maps.

    ``build(z)`` builds the vector at one non-real z; a point whose build
    raised has that exception as its entry.  Norms come from one ``norms``
    call and images from one ``boundary_images`` call per batch of vectors,
    and are cached beside them.  A failed point keeps no entry, so it is
    built again, and fails again, whenever it is asked for.

    The ``*_at(points)`` methods return per point a value or the exception
    that stands for it; the call, ``norm`` and ``images`` raise it.
    """

    def __init__(self, build: Callable[[complex], PiecewiseExpFunction],
                 triplet: BoundaryTriplet):
        self._build = build
        self._triplet = triplet
        self._cache: dict[complex, PiecewiseExpFunction] = {}
        self._norms: dict[complex, float] = {}
        self._images: dict[complex, tuple[complex, complex]] = {}

    @staticmethod
    def _fill(table: dict, points, compute: Callable[[list], list]) -> list:
        """The entries of ``points`` in ``table``; the points not in it are
        computed by one ``compute`` call, and the values among them stored."""
        zs = [complex(z) for z in points]
        fresh = {}
        missing = [z for z in dict.fromkeys(zs) if z not in table]
        if missing:
            for z, entry in zip(missing, compute(missing)):
                fresh[z] = entry
                if not isinstance(entry, Exception):
                    table[z] = entry
        return [table[z] if z in table else fresh[z] for z in zs]

    def _build_vectors(self, zs: list[complex]) -> list:
        built = iter(each_point(self._build, [z for z in zs if z.imag != 0]))
        return [next(built) if z.imag != 0
                else ValueError("defect vectors exist only for non-real z") for z in zs]

    def _on_vectors(self, compute: Callable[[list], list]) -> Callable[[list], list]:
        """``compute``, a map from vectors to entries, as a map from points: a
        point whose vector failed keeps its error."""
        def step(zs):
            fs = self.vectors_at(zs)
            done = iter(_batch(compute, [f for f in fs if not isinstance(f, Exception)]))
            return [f if isinstance(f, Exception) else next(done) for f in fs]
        return step

    def vectors_at(self, points) -> list:
        """The vector at each point."""
        return self._fill(self._cache, points, self._build_vectors)

    def norms_at(self, points) -> list:
        """The norm of the vector at each point; one that is zero or not
        finite is an error."""
        return self._fill(self._norms, points, self._on_vectors(
            lambda fs: [_norm_entry(n) for n in norms(fs)]))

    def images_at(self, points) -> list:
        """(gamma_plus, gamma_minus) of the vector at each point, mapped in
        that order, as Python complex values."""
        return self._fill(self._images, points, self._on_vectors(
            lambda fs: [(complex(gp), complex(gm))
                        for gp, gm in boundary_images(self._triplet, fs)]))

    @staticmethod
    def _one(table: dict, batch: Callable[[list], list], z: complex):
        """The entry of one point: from the table if it is there, else from
        a batch of one, raised if it is an exception."""
        z = complex(z)
        return table[z] if z in table else unwrap(batch([z])[0])

    def __call__(self, z: complex) -> PiecewiseExpFunction:
        return self._one(self._cache, self.vectors_at, z)

    def norm(self, z: complex) -> float:
        return self._one(self._norms, self.norms_at, z)

    def images(self, z: complex) -> tuple[complex, complex]:
        return self._one(self._images, self.images_at, z)


def require_maximal_domain(f: PiecewiseExpFunction,
                           jump_at: tuple[float, ...] = (0.0,)) -> None:
    """Membership test for the models' maximal domain.

    Piecewise W^1_2 on the line split at the origin: finite one-sided limits
    everywhere (automatic for this algebra) and continuity at every finite
    breakpoint except the allowed jump points.
    """
    x, jump = f.first_jump(DOMAIN_JUMP_TOL * (1 + f.coefficient_norm()), jump_at)
    if x is not None:
        raise ValueError(f"not in the maximal domain: jump {jump:.3e} at x={x}")


def green_residual(triplet: BoundaryTriplet, model, f: PiecewiseExpFunction,
                   g: PiecewiseExpFunction) -> float:
    """Defect of the Green identity for a pair of maximal-domain functions."""
    require_maximal_domain(f)
    require_maximal_domain(g)
    tf = model.adjoint_apply(f)
    tg = model.adjoint_apply(g)
    return green_defects(triplet, [f], [tf], [g], [tg])[0]


def green_defects(triplet: BoundaryTriplet, fs, tfs, gs, tgs) -> list[float]:
    """Defect of the Green identity on each pair (fs[k], gs[k]), given
    tfs[k] = T fs[k] and tgs[k] = T gs[k]; the caller has checked that all
    lie in the maximal domain.

    The inner products (T f, g) and (f, T g) take one ``paired`` call each,
    and all the boundary values one ``boundary_images`` call.
    """
    lhs = [a - b for a, b in zip(paired(tfs, gs).tolist(), paired(fs, tgs).tolist())]
    images = boundary_images(triplet, [*fs, *gs])
    out = []
    for k, value in enumerate(lhs):
        (gpf, gmf), (gpg, gmg) = images[k], images[len(lhs) + k]
        rhs = 1j * (gpf * gpg.conjugate() - gmf * gmg.conjugate())
        out.append(abs(value - rhs))
    return out


def char_function(triplet: BoundaryTriplet, defects: DefectFamily,
                  lam: complex, inner_product=None) -> complex:
    """Characteristic function value gamma_minus / gamma_plus on the defect
    vector at lam in the upper half plane; a strict contraction there.  Only
    a reference: production evaluates theta through char_value."""
    lam = complex(lam)
    if lam.imag <= 0:
        raise ValueError("characteristic function is evaluated on the upper half plane")
    f = defects(lam)
    gp = triplet.gamma_plus(f, inner_product) if inner_product else triplet.gamma_plus(f)
    gm = triplet.gamma_minus(f, inner_product) if inner_product else triplet.gamma_minus(f)
    return char_value(lam, gp, gm)


def char_value(lam: complex, gp: complex, gm: complex) -> complex:
    """gamma_minus / gamma_plus, the boundary values of the defect vector at
    lam; a vanishing gamma_plus or a ratio that is not finite is an error."""
    if abs(gp) <= BOUNDARY_SINGULAR_TOL * (1 + abs(gm)):
        raise ValueError(
            f"gamma_plus vanishes on the defect vector at {lam}; "
            "triplet and defect family are inconsistent"
        )
    theta = gm / gp
    if not cmath.isfinite(theta):
        raise ValueError("theta is not finite")
    return theta


def require_regular_system(system: np.ndarray) -> None:
    """Reject a singular S(mu), the images of the defect vectors at mu, conj(mu)."""
    if matops.is_singular(system, DECOMPOSE_SINGULAR_TOL):
        raise ValueError("decomposition system is singular for this mu")


def decompose(model, f: PiecewiseExpFunction, mu: complex
              ) -> tuple[complex, complex, float]:
    """Coefficients (a, b) of f along the defect vectors at mu and conj(mu).

    Writes f = u + a f_mu + b f_conj(mu) with u in the minimal domain (both
    native boundary maps vanish on u) and returns (a, b, residual), the
    larger boundary value of the reassembled u.  Only a reference:
    production takes (a, b) from inclusion_scan's stacked solve.
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

    def from_native(native):
        # one solve for all columns; Python complex scaling keeps theta's bits
        a, b = np.linalg.solve(system, native).tolist()
        return [scale * n_up * x for x in a], [scale * n_dn * x for x in b]

    def coordinate(row):
        def gamma(f, inner_product=None):
            if inner_product is not None:
                raise ValueError("defect triplets evaluate in closed form only")
            require_maximal_domain(f)
            return from_native(model.triplet.images(f))[row][0]
        return gamma

    return BoundaryTriplet(coordinate(1), coordinate(0), witness=witness,
                           from_native=from_native)


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
    applied: dict[int, PiecewiseExpFunction] = {}  # T f by id(f), once each

    def t(f):
        if id(f) not in applied:
            applied[id(f)] = model.adjoint_apply(f)
        return applied[id(f)]

    for f, g in test_pairs:
        lhs = inner(t(f), g) - inner(f, t(g))
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
