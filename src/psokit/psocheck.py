"""Certification battery for the Phillips property and extension spectra.

Three independently implemented criteria characterize the same property of
a symmetric restriction (constant characteristic function):

* orthogonality of the upper and lower defect subspaces,
* constancy of the characteristic function over an upper half-plane grid,
* vanishing of the conjugate-defect coefficient when any upper defect
  vector is decomposed against a fixed upper point.

Each scan hands the entries of its residual matrix to one blocked reducer,
which finds the worst entry, the witness, from an estimate of every modulus
and the exact modulus of the few entries that can be the worst; the verdict
is pass / fail / inconclusive / error.  Scans fail closed: a grid point
that could not be evaluated, or an entry that is not finite, caps a pass at
inconclusive, and a scan that evaluated nothing reports error.
The aggregate certificate additionally demands that the three verdicts
agree, which guards against implementation drift between the criteria.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matops, triplets
# inner stays bound here for bench/tracer.py, which rebinds every import of it
from .expfun import gram, inner  # noqa: F401
from .scalars import format_complex
from .tolerances import (CONTRACTION_BOUND, FAIL_THRESHOLD, MODULUS_BAND_TOL, PASS_CONSTANCY,
                         PASS_INCLUSION, PASS_ORTHOGONALITY)

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_ERROR = "error"

DEFAULT_RE = tuple(float(r) for r in range(-5, 6))
DEFAULT_IM = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class Grid:
    """Sampling of both open half planes; no real points allowed.

    Each half plane keeps the first occurrence of each point, so a repeated
    point is evaluated once; -0.0 and 0.0 are the same coordinate.
    """

    lambdas_upper: tuple[complex, ...]
    lambdas_lower: tuple[complex, ...]

    def __post_init__(self):
        up = tuple(dict.fromkeys(complex(z) for z in self.lambdas_upper))
        dn = tuple(dict.fromkeys(complex(z) for z in self.lambdas_lower))
        if not up or not dn:
            raise ValueError("grid must sample both half planes")
        if not np.isfinite(up + dn).all():
            raise ValueError("grid points must be finite")
        if any(z.imag <= 0 for z in up):
            raise ValueError("upper grid contains non-upper points")
        if any(z.imag >= 0 for z in dn):
            raise ValueError("lower grid contains non-lower points")
        object.__setattr__(self, "lambdas_upper", up)
        object.__setattr__(self, "lambdas_lower", dn)

    @classmethod
    @functools.cache
    def default(cls) -> "Grid":
        """The grid of DEFAULT_RE x DEFAULT_IM, built once: a grid is
        immutable."""
        return cls.from_axes(DEFAULT_RE, DEFAULT_IM)

    @classmethod
    def from_axes(cls, re_values, im_values) -> "Grid":
        upper = tuple(complex(r, i) for r in re_values for i in abs(np.asarray(im_values, dtype=float)))
        return cls(upper, tuple(z.conjugate() for z in upper))


class SpectrumClass:
    """Spectrum of a proper extension of an operator with constant
    characteristic function: the real line, one closed half plane, or all
    of the complex plane."""

    REAL_LINE = "real-line"
    REAL_PLUS_UPPER = "real-plus-upper"
    REAL_PLUS_LOWER = "real-plus-lower"
    WHOLE_PLANE = "whole-plane"


@dataclass
class CheckResult:
    check_id: str
    verdict: str
    max_residual: float
    tolerance: float
    witness: str | None = None
    failures: tuple[str, ...] = ()
    notes: str | None = None


@dataclass
class Certificate:
    model_id: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> str:
        verdicts = {c.verdict for c in self.checks}
        if VERDICT_ERROR in verdicts:
            return VERDICT_ERROR
        if verdicts == {VERDICT_PASS}:
            return VERDICT_PASS
        if verdicts == {VERDICT_FAIL}:
            return VERDICT_FAIL
        return VERDICT_INCONCLUSIVE

    def entry(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)


def _verdict(max_residual: float, pass_tol: float, evaluated: int,
             failed: int) -> str:
    """Verdict from the worst residual over the evaluated grid points.

    Nothing evaluated is an error; any failed point caps a pass at
    inconclusive, since the unevaluated points could hide a failure.
    """
    if not evaluated:
        return VERDICT_ERROR
    if max_residual <= pass_tol:
        return VERDICT_INCONCLUSIVE if failed else VERDICT_PASS
    if max_residual >= FAIL_THRESHOLD:
        return VERDICT_FAIL
    return VERDICT_INCONCLUSIVE


#: entries of a residual matrix whose moduli the reducer estimates at once;
#: a 66 x 66 default-grid matrix is one block
SCAN_BLOCK = 16384
#: a modulus estimate from this on may belong to an entry whose exact modulus
#: overflows
_NEAR_OVERFLOW = float(np.finfo(float).max) / 2
#: absolute error of a rounding into the subnormal range, with margin
_SUBNORMAL_ERROR = float(np.finfo(float).smallest_subnormal) * 16
#: the smallest scale a block divides its parts by, so that its inverse is finite
_SMALLEST_UNIT = 2.0 ** -1000
#: absolute error, per unit of the block's scale, that a square lost to
#: underflow leaves in an estimate, with margin
_UNDERFLOW_ERROR = 2.0 ** -500


@dataclass(frozen=True)
class WorstEntry:
    """What the reducer found: the kept entries that failed, in scan order,
    the number evaluated, the worst modulus and the entry that has it."""

    failed: tuple[tuple[int, int], ...]
    evaluated: int
    worst: float
    witness: tuple[int, int] | None


def worst_entry(shape, entries, *, by_column=False, pairs=False, scales=None) -> WorstEntry:
    """The worst entry of a residual matrix of the given shape.

    ``entries(rows, cols)`` returns the complex entries in the slices
    ``rows`` x ``cols``; the reducer walks the rows in blocks of about
    SCAN_BLOCK entries.  The modulus of an entry z is
    ``np.hypot(z.real, z.imag)``, which gives the bits of ``abs(z)`` where
    ``np.abs`` does not; with ``scales = (row_scale, col_scale)`` it is that
    times ``row_scale[row] / col_scale[col]``, in this order.  Scan order is
    row-major, or column-major with ``by_column``.  With ``pairs`` the
    matrix is square and keeps only the entries above the diagonal, and
    entry (j, i) must be -(entry (i, j)), as for the differences
    v[i] - v[j]: a block takes the columns from its first row's diagonal on,
    and the entries below the diagonal it covers repeat moduli of entries
    above it that come first in scan order.

    A kept entry fails if a part is not finite or its modulus overflows;
    every other is evaluated.  The worst is the largest evaluated modulus,
    the first in scan order where several tie, or 0.0 and no witness when
    that is not positive; it is NaN when nothing was evaluated.

    Each block estimates the moduli from the parts scaled by the block's
    largest part, whose squares cannot overflow.  The estimate is within a
    few units of roundoff of the exact modulus (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 3.1), apart from
    an absolute error where a square or a result underflows, which the
    block bounds.  So every entry that can be the worst has an estimate
    within MODULUS_BAND_TOL, relative, plus that error, of the largest
    estimate so far of an entry that cannot overflow; only the entries in
    that band, and those whose estimate comes near the overflow, take the
    exact modulus, one block at a time.
    """
    n_rows, n_cols = shape
    kept_entries = n_rows * (n_rows - 1) // 2 if pairs else n_rows * n_cols
    row_scale = col_scale = None
    wide, near_overflow, subnormal_error = 1.0, _NEAR_OVERFLOW, 3 * _SUBNORMAL_ERROR
    if scales is not None and kept_entries:
        row_scale, col_scale = (np.asarray(x, dtype=float) for x in scales)
        row_max, col_min, col_max = row_scale.max(), col_scale.min(), col_scale.max()
        wide = float(row_max / col_min)  # the largest ratio of scales
        # the exact formula may overflow before its division, at a smaller estimate
        near_overflow /= float(max(1.0, col_max, col_max / row_scale.min()))
        subnormal_error *= float(1 + (1 + row_max) / col_min)
    order = (lambda r, c: c * n_rows + r) if by_column else (lambda r, c: r * n_cols + c)
    failed = []
    top = 0.0  # the largest estimate, less its error, of an entry that cannot overflow
    worst, witness, first_key = 0.0, None, None
    with np.errstate(over="ignore", invalid="ignore"):
        start = 0
        while kept_entries and start < n_rows:
            first = start + 1 if pairs else 0
            if first >= n_cols:
                break
            stop = min(n_rows, start + max(1, SCAN_BLOCK // (n_cols - first)))
            block = np.ascontiguousarray(entries(slice(start, stop), slice(first, n_cols)))
            parts = block.view(float)  # re, im interleaved along each row
            high, low = parts.max(), parts.min()
            bad = None
            if not math.isfinite(high - low):  # a part that is not finite, or a huge one
                finite = np.isfinite(block.real) & np.isfinite(block.imag)
                bad = ~finite
                rows, cols = np.nonzero(bad)
                rows, cols = rows + start, cols + first
                keep = cols > rows if pairs else slice(None)
                failed.append((rows[keep], cols[keep]))
                block = np.where(finite, block, 0)
                parts = block.view(float)
                high, low = parts.max(), parts.min()
            scale = max(high, -low)
            if scale > 0:  # else every entry is 0
                unit = max(scale, _SMALLEST_UNIT)  # 1 / unit is finite
                squares = parts * (1.0 / unit)
                squares *= squares
                est = squares[:, 0::2] + squares[:, 1::2]
                np.sqrt(est, out=est)
                est *= unit
                if row_scale is not None:
                    est *= row_scale[start:stop, None]
                    est /= col_scale[first:]
                if bad is not None:
                    est[bad] = np.nan  # never picked
                error = subnormal_error + scale * wide * _UNDERFLOW_ERROR
                largest = np.fmax.reduce(est, axis=None)
                if not largest < near_overflow:
                    largest = est[est < near_overflow].max(initial=0.0)
                top = max(top, largest - error)
                # the entries that can be the worst so far, and those near the overflow
                at = np.flatnonzero(est >= top * (1 - MODULUS_BAND_TOL) - error)
                rows, cols = np.divmod(at, est.shape[1])
                rows += start
                cols += first
                values = block.ravel()[at]
                moduli = np.hypot(values.real, values.imag)
                if row_scale is not None:
                    moduli = moduli * row_scale[rows] / col_scale[cols]
                over = ~np.isfinite(moduli)
                if over.any():
                    lost = over & (cols > rows) if pairs else over
                    failed.append((rows[lost], cols[lost]))
                    rows, cols, moduli = rows[~over], cols[~over], moduli[~over]
                best = moduli.max(initial=0.0)
                if best > 0 and best >= worst:
                    ties = np.flatnonzero(moduli == best)
                    keys = order(rows[ties], cols[ties])
                    at = ties[keys.argmin()]
                    if best > worst or keys.min() < first_key:
                        worst, witness, first_key = best, (rows[at], cols[at]), keys.min()
            start = stop
    failures = ()
    if failed:
        rows_failed, cols_failed = (np.concatenate(x) for x in zip(*failed))
        ranked = np.argsort(order(rows_failed, cols_failed))
        failures = tuple(zip(rows_failed[ranked].tolist(), cols_failed[ranked].tolist()))
    evaluated = kept_entries - len(failures)
    worst = float(worst) if evaluated else float("nan")
    witness = witness and (int(witness[0]), int(witness[1]))
    return WorstEntry(failures, evaluated, worst, witness)


def _scan_result(check_id: str, tolerance: float, worst: WorstEntry, name,
                 failures: list[str], what: str) -> CheckResult:
    """The result of a scan whose residuals reduced to ``worst``; each
    failed entry is listed as ``<name(row, column)>: <what> is not finite``
    after the scan's own ``failures``."""
    if worst.failed:
        failures = failures + [f"{name(*entry)}: {what} is not finite" for entry in worst.failed]
    witness = name(*worst.witness) if worst.witness else None
    verdict = _verdict(worst.worst, tolerance, worst.evaluated, len(failures))
    return CheckResult(check_id, verdict, worst.worst, tolerance, witness, tuple(failures))


def _errors_at(entries):
    """The index of each entry that is an exception, in order."""
    return itertools.compress(itertools.count(), map(triplets.is_error, entries))


def _per_point(points, label: str, entries, failures: list[str]):
    """The points whose entry is a value, not an exception, and those
    values; every other point is left out and recorded as
    ``<label>=<point>: <error>``."""
    failures.extend(f"{label}={format_complex(points[i])}: {entries[i]}"
                    for i in _errors_at(entries))
    kept = list(triplets.held(entries))
    return list(itertools.compress(points, kept)), list(itertools.compress(entries, kept))


def native_images(model, points):
    """Native images of the defect vectors at ``points``, 2 x n with row 0
    gamma_plus and a failed column zero, and per point its error or None."""
    entries = model.defects.images_at(points)
    errors: list[Exception | None] = [None] * len(entries)
    for i in list(_errors_at(entries)):
        errors[i], entries[i] = entries[i], (0j, 0j)
    return np.array(list(zip(*entries)) or [(), ()], dtype=complex), errors


def _failed(points, label: str, *entries) -> dict[int, str]:
    """The index of each point with an exception among its ``entries``
    (lists over the points), in order, and the failure text of its first
    one, ``<label>=<point>: <error>``."""
    failed: dict[int, str] = {}
    for column in entries:
        for i in _errors_at(column):
            if i not in failed:
                failed[i] = f"{label}={format_complex(points[i])}: {column[i]}"
    return dict(sorted(failed.items()))


def char_values(model, lams):
    """The points of ``lams`` with a finite characteristic function value,
    those values, and a failure text for every other point."""
    failures: list[str] = []
    thetas = triplets.each_point(
        lambda at: triplets.char_value(at[0], *triplets.unwrap(at[1])),
        zip(lams, model.defects.images_at(lams)))
    kept, values = _per_point(lams, "lambda", thetas, failures)
    return kept, values, failures


def orthogonality_scan(model, grid: Grid | None = None) -> CheckResult:
    """Largest normalized pairing between upper and lower defect vectors.

    A point whose norm fails is a failed point.  The pairings are the
    entries of one Gram matrix of the normalized vectors, two scaled slices
    of the family's pack, taken only when both half planes have vectors;
    the witness is the first largest one in nu-major, lambda-minor order.
    """
    grid = grid or Grid.default()
    failures = []
    family, n_up = model.defects, len(grid.lambdas_upper)
    norms = family.norms_at(grid.lambdas_upper + grid.lambdas_lower)  # one batch
    uppers, up_norms = _per_point(grid.lambdas_upper, "lambda", norms[:n_up], failures)
    lowers, down_norms = _per_point(grid.lambdas_lower, "nu", norms[n_up:], failures)
    pairings = np.empty((0, 0), dtype=complex)  # with no vector on one side nothing pairs
    if uppers and lowers:
        up = family.packed_at(uppers, 1.0 / np.array(up_norms))
        down = family.packed_at(lowers, 1.0 / np.array(down_norms))
        pairings = gram(up, down)  # rows lambda
    worst = worst_entry(pairings.shape, lambda rows, cols: pairings[rows, cols], by_column=True)
    return _scan_result(
        "orthogonality", PASS_ORTHOGONALITY, worst,
        lambda lam, nu: f"lambda={format_complex(uppers[lam])}, nu={format_complex(lowers[nu])}",
        failures, "pairing")


def constancy_scan(model, grid: Grid | None = None) -> CheckResult:
    """Largest pairwise deviation of the characteristic function over the
    upper grid.  Pass up to PASS_CONSTANCY, inconclusive below FAIL_THRESHOLD.

    The deviations are those of the pairs i < j; the witness is the first
    largest one in i-major order.  The scan evaluates pairs, so fewer than
    two finite values compare nothing and report error.
    """
    grid = grid or Grid.default()
    lams, values, failures = char_values(model, grid.lambdas_upper)
    v = np.array(values, dtype=complex)
    worst = worst_entry((len(v), len(v)), lambda rows, cols: v[rows, None] - v[cols],
                        pairs=True)  # v_i - v_j over the pairs i < j; an overflow fails it
    return _scan_result(
        "constancy", PASS_CONSTANCY, worst,
        lambda i, j: f"lambda={format_complex(lams[i])}, mu={format_complex(lams[j])}",
        failures, "deviation")


def inclusion_scan(model, grid: Grid | None = None) -> CheckResult:
    """Largest normalized conjugate-defect coefficient over upper pairs.

    Decomposing the defect vector f at lambda against the point mu, as
    ``triplets.decompose`` does, must leave no component b along the
    defect vector at conj(mu); |b| is scaled by the norms so the verdict is
    scale free.  The witness is the first largest one in mu-major,
    lambda-minor order.

    The coefficients are linear in the native images (gamma_plus(f),
    gamma_minus(f)), so each upper and each conjugate point is mapped once,
    all of them in one ``native_images`` batch: the upper images are the
    right-hand sides and S(mu)'s first column, the conjugate ones its
    second.  Every S(mu) is 2 x 2, and no S(mu) reaches LAPACK: one
    closed-form singularity test of the stack, as ``triplets.system_errors``
    takes it, covers every S(mu), and one ``matops.second_unknown_2x2`` call
    gives b for every regular one, from coefficients formed once per S(mu),
    with a taken only where it can fail to be finite.  A lambda fails by its
    own vector: its build, maximal domain, norm or images raised, or its
    images are not finite.  A mu fails by the vectors at mu and conj(mu)
    (their images, and the norm at conj(mu)) or by S(mu): not finite or
    singular.  Each failed point is listed once per role, as
    ``lambda=<z>: <error>`` or ``mu=<z>: <error>``, and its column or row is
    left out of the matrix of |b| the scan reduces; any other pair whose a
    or b is not finite is a failed pair.
    """
    grid = grid or Grid.default()
    lams = grid.lambdas_upper
    n, points = len(lams), [*lams, *map(complex.conjugate, lams)]
    norms = model.defects.norms_at(points)  # one batch for both half planes
    native, errors = native_images(model, points)  # and one for their images
    rhs, rhs_errors, conj_errors = native[:, :n], errors[:n], errors[n:]
    systems = np.stack([rhs.T, native[:, n:].T], axis=2)
    not_finite: list[Exception | None] = [None] * n
    for j in np.flatnonzero(~np.isfinite(rhs).all(axis=0)).tolist():
        not_finite[j] = ValueError("boundary images are not finite")
    lam_failed = _failed(lams, "lambda", model.defects.domain_errors_at(lams), norms[:n],
                         rhs_errors, not_finite)
    mu_failed = _failed(lams, "mu", rhs_errors, norms[n:], conj_errors,
                        triplets.system_errors(systems))
    regular = list(itertools.filterfalse(mu_failed.__contains__, range(n)))
    kept = list(itertools.filterfalse(lam_failed.__contains__, range(n)))
    # b for each pair, mu-major; a pair fails by a too, where b is NaN
    b = matops.second_unknown_2x2(systems[regular], rhs[:, kept])
    worst = worst_entry(b.shape, lambda rows, cols: b[rows, cols],
                        scales=(list(map(norms[n:].__getitem__, regular)),
                                list(map(norms.__getitem__, kept))))
    return _scan_result(
        "inclusion", PASS_INCLUSION, worst,
        lambda mu, lam: (f"lambda={format_complex(lams[kept[lam]])}, "
                         f"mu={format_complex(lams[regular[mu]])}"),
        [*lam_failed.values(), *mu_failed.values()], "coefficient")


def pso_certificate(model, grid: Grid | None = None) -> Certificate:
    """Run all three criteria and demand agreeing verdicts.

    The criteria are provably equivalent, so a disagreement can only come
    from an implementation defect; it is surfaced as an inconclusive
    aggregate with the full set of entries attached.

    Inclusion runs before constancy, so that its one batch maps the upper
    and the conjugate vectors together and constancy reads the upper
    images from the family's table: where no point fails, a certificate
    maps each defect point once, in one ``boundary_images`` call.  The
    records keep the order orthogonality, constancy, inclusion.
    """
    grid = grid or Grid.default()
    cert = Certificate(model_id=model.describe())
    orthogonality = orthogonality_scan(model, grid)
    inclusion = inclusion_scan(model, grid)
    cert.checks += [orthogonality, constancy_scan(model, grid), inclusion]
    verdicts = [c.verdict for c in cert.checks]
    if len(set(verdicts)) > 1:
        detail = ", ".join(f"{c.check_id}={c.verdict}" for c in cert.checks)
        for c in cert.checks:
            c.notes = f"criterion disagreement ({detail})"
    return cert


def classify_spectrum(theta_const, t) -> str:
    """Spectrum class of the extension with boundary parameter T, given the
    constant characteristic function value.

    The upper half plane fills the spectrum exactly when theta - T is
    singular; the lower one exactly when I - theta* T is singular.
    """
    theta = matops.require_finite(np.atleast_2d(np.asarray(theta_const, dtype=complex)))
    tm = matops.require_finite(np.atleast_2d(np.asarray(t, dtype=complex)))
    if theta.shape != tm.shape or theta.shape[0] != theta.shape[1]:
        raise ValueError("theta and T must be square matrices of equal size")
    if matops.opnorm(theta) > CONTRACTION_BOUND:
        raise ValueError("theta must be a contraction (characteristic value)")
    upper = matops.is_singular(theta - tm)
    lower = matops.is_singular(np.eye(theta.shape[0]) - theta.conj().T @ tm)
    if upper and lower:
        return SpectrumClass.WHOLE_PLANE
    if upper:
        return SpectrumClass.REAL_PLUS_UPPER
    if lower:
        return SpectrumClass.REAL_PLUS_LOWER
    return SpectrumClass.REAL_LINE
