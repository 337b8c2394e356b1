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
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matops
from .expfun import (PAIRED_SCALAR_ROWS, PackedFunctions, PiecewiseExpFunction, SplitComplex,
                     inner, join, norms, origin_limits, pack, paired, select)
from .tolerances import (BOUNDARY_SINGULAR_TOL, DECOMPOSE_SINGULAR_TOL, DOMAIN_JUMP_TOL,
                         GREEN_TOL, SURJECTIVITY_TOL)


@dataclass(frozen=True)
class BoundaryFunctional:
    """Linear functional c_- f(0-) + c_+ f(0+) + sum_k w_k (f, h_k).

    This covers every boundary map appearing in the concrete models.
    """

    left: complex = 0j
    right: complex = 0j
    pairings: tuple[tuple[complex, PiecewiseExpFunction], ...] = ()

    def __call__(self, f: PiecewiseExpFunction) -> complex:
        return self.combine(f.limit(0.0, "-"), f.limit(0.0, "+"),
                            [inner(f, h) for _, h in self.pairings])

    def combine(self, minus, plus, pairings):
        """The value on a function f with f(0-) = minus, f(0+) = plus and the
        inner products (f, h_k), in the order of ``self.pairings``: complex
        numbers, or :class:`~psokit.expfun.SplitComplex` arrays over many
        functions."""
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

    @functools.cached_property
    def _pairings(self) -> tuple[list, list[tuple[PiecewiseExpFunction, PackedFunctions]]]:
        """For maps that are both boundary functionals: each map with the
        columns of its pairing functions among the distinct ones, and each
        distinct pairing function h with its pack, made once per triplet,
        so h's kind table is sorted once for every batch the triplet maps."""
        maps = (self.gamma_plus, self.gamma_minus)
        hs = list({id(h): h for m in maps for _, h in m.pairings}.values())
        column = {id(h): j for j, h in enumerate(hs)}
        pairings = [(h, pack([h])) for h in hs]
        for _, packed in pairings:
            packed.parts.flags.writeable = False  # shared by every batch
        return [(m, [column[id(h)] for _, h in m.pairings]) for m in maps], pairings


def boundary_images(triplet: BoundaryTriplet, fs) -> list[tuple[complex, complex]]:
    """(gamma_plus(f), gamma_minus(f)) of each function f in fs, as Python
    complex values, bit for bit; fs is a list of functions, or their
    :func:`~psokit.expfun.pack` form or a pack slice.

    When both maps are boundary functionals they are evaluated together:
    each f's one-sided limits at the origin are taken once, and each
    distinct pairing function h is paired with every f by one ``paired``
    call, against the pack of h the triplet keeps, so a pairing both maps
    share is taken once.  Other maps are called on each f, gamma_plus
    first.
    """
    maps = (triplet.gamma_plus, triplet.gamma_minus)
    if not all(isinstance(m, BoundaryFunctional) for m in maps):
        fs = fs.functions() if isinstance(fs, PackedFunctions) else fs
        return [(complex(triplet.gamma_plus(f)), complex(triplet.gamma_minus(f))) for f in fs]
    plan, pairings = triplet._pairings
    # paired reads h as a function below PAIRED_SCALAR_ROWS rows of fs and
    # as a pack from there on; each is given the form it reads
    scalar = len(fs) < PAIRED_SCALAR_ROWS
    ips = [paired(fs, [h] if scalar else packed) for h, packed in pairings]
    if isinstance(fs, PackedFunctions):
        # every function at once; what overflows is inf or NaN, as in
        # Python's complex arithmetic, without a warning
        with np.errstate(all="ignore"):
            minus, plus = origin_limits(fs)
            ips = [SplitComplex(ip.real, ip.imag) for ip in ips]
            images = []
            for m, columns in plan:
                value = m.combine(minus, plus, [ips[j] for j in columns])
                image = np.empty(len(fs), dtype=complex)
                image.real, image.imag = value.real, value.imag
                images.append(image.tolist())  # Python complex values, bit for bit
        return list(zip(*images))
    ips = list(zip(*(ip.tolist() for ip in ips))) or [()] * len(fs)
    return [tuple([m.combine(f.limit(0.0, "-"), f.limit(0.0, "+"), [ip[j] for j in columns])
                   for m, columns in plan]) for f, ip in zip(fs, ips)]


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


#: ``isinstance(entry, Exception)``, whether an entry of a batch stands for an
#: error, as a builtin that ``map`` and ``itertools`` call at C speed
is_error = Exception.__instancecheck__


def held(entries):
    """Per entry of a batch, whether it holds a value, not an exception, as
    an iterator taken at C speed."""
    return map(operator.not_, map(is_error, entries))


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

    ``build(zs)`` builds the vectors at a list of non-real points as one
    :class:`~psokit.expfun.PackedFunctions`, a row per point, and returns
    it with the exception each point raised, or None; a failed point's row
    holds no term, and a build that raises fails every point of its batch.
    The family keeps the pack of every batch it builds and ``_cache``, the
    (pack, row) of each point's vector.  Norms come from one ``norms`` call
    and images from one ``boundary_images`` call per batch of points, each
    on a slice of the packs, and are cached beside the rows; a vector
    becomes a :class:`PiecewiseExpFunction` when one is first asked for,
    and that function is cached too.  A failed point keeps no entry, so it
    is built again, and fails again, whenever it is asked for.

    The ``*_at(points)`` methods return per point a value or the exception
    that stands for it; the call, ``norm`` and ``images`` raise it.  Each
    takes a fixed number of C-speed passes over its points (``map``,
    ``zip``, ``itertools``); only a point that is computed or failed takes
    a step in Python.
    """

    def __init__(self, build: Callable[[list], tuple[PackedFunctions, list]],
                 triplet: BoundaryTriplet):
        self._build = build
        self._triplet = triplet
        self._cache: dict[complex, tuple[PackedFunctions, int]] = {}
        self._vectors: dict[complex, PiecewiseExpFunction] = {}
        self._norms: dict[complex, float] = {}
        self._images: dict[complex, tuple[complex, complex]] = {}

    @staticmethod
    def _fill(table: dict, points, compute: Callable[[list], list]) -> list:
        """The entries of ``points`` in ``table``; the points not in it are
        computed by one ``compute`` call, and the values among them stored."""
        zs = list(map(complex, points))
        missing = list(dict.fromkeys(itertools.filterfalse(table.__contains__, zs)))
        fresh = dict(zip(missing, compute(missing))) if missing else {}
        table.update(itertools.compress(fresh.items(), held(fresh.values())))
        # a point not in the table failed, and takes its error from fresh
        return list(map(table.get, zs, map(fresh.get, zs)))

    def _build_rows(self, zs: list[complex]) -> list:
        built = [z for z in zs if z.imag != 0]
        rows: dict[complex, tuple | Exception] = {}
        if built:
            try:
                packed, errors = self._build(built)
            except Exception as exc:  # a builder that raises fails its whole batch
                packed, errors = None, [exc] * len(built)
            rows = {z: (packed, i) if error is None else error
                    for i, (z, error) in enumerate(zip(built, errors))}
        return [rows[z] if z.imag != 0
                else ValueError("defect vectors exist only for non-real z") for z in zs]

    def _rows_at(self, points) -> list:
        """The (pack, row) of the vector at each point."""
        return self._fill(self._cache, points, self._build_rows)

    @staticmethod
    def _slice(refs, scales=None) -> PackedFunctions:
        """The rows ``refs``, (pack, row) pairs, as one slice: rows of
        several packs are taken from their join."""
        packs, rows = zip(*refs)
        distinct = list(dict.fromkeys(packs))  # a pack hashes by identity
        start = dict(zip(distinct, itertools.accumulate(map(len, distinct[:-1]), initial=0)))
        return select(functools.reduce(join, distinct),
                      list(map(operator.add, map(start.__getitem__, packs), rows)), scales)

    def _on_rows(self, compute: Callable[[PackedFunctions], list]) -> Callable[[list], list]:
        """``compute``, a map from a slice of the packs to entries, as a map
        from points: a point whose vector failed keeps its error."""
        def step(zs):
            refs = self._rows_at(zs)
            built = list(held(refs))
            entries = dict(enumerate(refs))  # by position: each built row's entry replaces it
            good = list(itertools.compress(refs, built))
            if good:
                entries.update(zip(itertools.compress(itertools.count(), built),
                                   _batch(lambda at: compute(self._slice(at)), good)))
            return list(entries.values())
        return step

    def vectors_at(self, points) -> list:
        """The vector at each point, as a function wrapping its row; each row
        becomes a function once."""
        return self._fill(self._vectors, points, lambda zs: [
            ref if isinstance(ref, Exception) else ref[0].functions([ref[1]])[0]
            for ref in self._rows_at(zs)])

    def domain_errors_at(self, points) -> list:
        """Per point, the error of its vector, or the error
        ``require_maximal_domain`` raises on it, or None."""
        return self._on_rows(maximal_domain_errors)(points)

    def packed_at(self, points, scales=None) -> PackedFunctions:
        """The vectors at points whose vectors were built, as one slice,
        row i scaled by ``scales[i]`` as ``expfun.select`` scales."""
        return self._slice(list(map(self._cache.__getitem__, map(complex, points))), scales)

    def norms_at(self, points) -> list:
        """The norm of the vector at each point; one that is zero or not
        finite is an error."""
        return self._fill(self._norms, points, self._on_rows(
            lambda packed: list(map(_norm_entry, norms(packed)))))

    def images_at(self, points) -> list:
        """(gamma_plus, gamma_minus) of the vector at each point, mapped in
        that order, as Python complex values."""
        return self._fill(self._images, points, self._on_rows(
            functools.partial(boundary_images, self._triplet)))

    @staticmethod
    def _one(table: dict, batch: Callable[[list], list], z: complex):
        """The entry of one point: from the table if it is there, else from
        a batch of one, raised if it is an exception."""
        z = complex(z)
        return table[z] if z in table else unwrap(batch([z])[0])

    def __call__(self, z: complex) -> PiecewiseExpFunction:
        return unwrap(self.vectors_at([z])[0])

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


def maximal_domain_errors(packed: PackedFunctions) -> list:
    """Per packed function, the error ``require_maximal_domain`` raises on
    it, or None.  Only a function with a finite breakpoint away from the
    origin can fail, so only those are read back and checked."""
    lo, hi = packed.lo, packed.hi
    # the padding interval [0, 0] sits at the origin
    away = ((lo != 0) & np.isfinite(lo)) | ((hi != 0) & np.isfinite(hi))
    errors: list = [None] * len(packed)
    checked = np.flatnonzero(away.any(axis=1))
    for i, f in zip(checked.tolist(), packed.functions(checked)):
        try:
            require_maximal_domain(f)
        except Exception as exc:
            errors[i] = exc
    return errors


def green_residual(triplet: BoundaryTriplet, model, f: PiecewiseExpFunction,
                   g: PiecewiseExpFunction) -> float:
    """Defect of the Green identity for a pair of maximal-domain functions."""
    require_maximal_domain(f)
    require_maximal_domain(g)
    tf = model.adjoint_apply(f)
    tg = model.adjoint_apply(g)
    return green_defects(triplet, [f], [tf], [g], [tg])[0]


def green_defects(triplet: BoundaryTriplet, fs, tfs, gs, tgs,
                  packed: PackedFunctions | None = None) -> list[float]:
    """Defect of the Green identity on each pair (fs[k], gs[k]), given
    tfs[k] = T fs[k] and tgs[k] = T gs[k]; the caller has checked that all
    lie in the maximal domain.

    The inner products (T f, g) and (f, T g) take one ``paired`` call each,
    and all the boundary values one ``boundary_images`` call, on
    ``packed`` if given: the :func:`~psokit.expfun.pack` of ``[*fs, *gs]``,
    which a caller checking many models on the same functions keeps.
    ``boundary_images`` maps a pack bit for bit as it maps the list.
    """
    lhs = [a - b for a, b in zip(paired(tfs, gs).tolist(), paired(fs, tgs).tolist())]
    images = boundary_images(triplet, [*fs, *gs] if packed is None else packed)
    out = []
    for k, value in enumerate(lhs):
        (gpf, gmf), (gpg, gmg) = images[k], images[len(lhs) + k]
        rhs = 1j * (gpf * gpg.conjugate() - gmf * gmg.conjugate())
        out.append(abs(value - rhs))
    return out


def char_function(triplet: BoundaryTriplet, defects: DefectFamily, lam: complex) -> complex:
    """Characteristic function value gamma_minus / gamma_plus on the defect
    vector at lam in the upper half plane; a strict contraction there.  The
    path production takes: ``char_value`` of the vector's boundary images."""
    lam = complex(lam)
    if lam.imag <= 0:
        raise ValueError("characteristic function is evaluated on the upper half plane")
    return char_value(lam, *boundary_images(triplet, [defects(lam)])[0])


def char_value(lam: complex, gp: complex, gm: complex) -> complex:
    """gamma_minus / gamma_plus, the boundary values of the defect vector at
    lam; a ratio that is not finite, or a gamma_plus that vanishes or is not finite, is an error."""
    if abs(gp) <= BOUNDARY_SINGULAR_TOL * (1 + abs(gm)):
        raise ValueError(
            f"gamma_plus vanishes on the defect vector at {lam}; "
            "triplet and defect family are inconsistent"
        )
    theta = gm / gp
    if not cmath.isfinite(theta):
        raise ValueError("theta is not finite")
    if not cmath.isfinite(gp):
        raise ValueError("boundary images are not finite")
    return theta


_SINGULAR_SYSTEM = "decomposition system is singular for this mu"


def system_errors(systems: np.ndarray) -> list:
    """Per S(mu) of a stack of them, the images of the defect vectors at mu,
    conj(mu): None for a regular one, else the error it is rejected with.

    A matrix that is not finite gets ``matops.require_finite``'s error; the
    others are tested by one ``matops.is_singular_2x2`` call on the stack,
    in closed form, which tests each matrix by itself.
    """
    finite = np.isfinite(systems).all(axis=(1, 2)).tolist()
    singular = matops.is_singular_2x2(systems, DECOMPOSE_SINGULAR_TOL).tolist()
    return [None if ok and not bad else ValueError(_SINGULAR_SYSTEM if ok else matops.NOT_FINITE)
            for ok, bad in zip(finite, singular)]


def require_regular_system(system: np.ndarray) -> None:
    """Reject a singular S(mu), the images of the defect vectors at mu,
    conj(mu), or one that is not finite, as ``system_errors`` does."""
    error = system_errors(np.asarray(system)[None])[0]
    if error:
        raise error


def decompose(model, f: PiecewiseExpFunction, mu: complex
              ) -> tuple[complex, complex, float]:
    """Coefficients (a, b) of f along the defect vectors at mu and conj(mu).

    Writes f = u + a f_mu + b f_conj(mu) with u in the minimal domain (both
    native boundary maps vanish on u) and returns (a, b, residual), the
    larger boundary value of the reassembled u.  Only a reference:
    production takes b from inclusion_scan's ``matops.second_unknown_2x2``,
    which gives it the bits ``matops.solve_2x2`` gives it here.
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
    a, b = matops.solve_2x2(system, rhs)
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
    pair = [mu, mu.conjugate()]
    n_up, n_dn = map(unwrap, model.defects.norms_at(pair))
    witness = tuple(map(unwrap, model.defects.vectors_at(pair)))
    system = np.array([*map(unwrap, model.defects.images_at(pair))]).T  # S(mu), fixed here
    require_regular_system(system)

    def from_native(native):
        # one solve for all columns; Python complex scaling keeps theta's bits
        a, b = matops.solve_2x2(system, native).tolist()
        return [scale * n_up * x for x in a], [scale * n_dn * x for x in b]

    def coordinate(row):
        def gamma(f):
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

    K is computed from the images of the defect vectors at mu and conj(mu),
    which span C^2 for any valid triplet; the pointwise relation theta_2 =
    Phi_K(theta_1) then holds on the whole upper half plane.
    """
    h = (model.defects(complex(mu)), model.defects(complex(mu).conjugate()))
    m1, m2 = t1.images(*h), t2.images(*h)
    if matops.is_singular_2x2(matops.require_finite(m1), DECOMPOSE_SINGULAR_TOL):
        raise ValueError("defect images under the first triplet are rank deficient")
    return _krein_map(m1, m2)


def _krein_map(m1: np.ndarray, m2: np.ndarray) -> matops.KreinBlockOperator:
    """K with K m1 = m2, m1 regular, by one solve of the transposed system."""
    return matops.KreinBlockOperator.from_matrix(matops.solve_2x2(m1.T, m2.T).T)
