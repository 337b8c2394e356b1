"""Certification battery for the Phillips property and extension spectra.

Three independently implemented criteria characterize the same property of
a symmetric restriction (constant characteristic function):

* orthogonality of the upper and lower defect subspaces,
* constancy of the characteristic function over an upper half-plane grid,
* vanishing of the conjugate-defect coefficient when any upper defect
  vector is decomposed against a fixed upper point.

Each scan builds one matrix of its residuals, with a mask of the entries it
leaves out, and produces a pass / fail / inconclusive / error verdict from
its worst entry, which names the witness.  Scans fail closed: a grid point
that could not be evaluated, or an entry that is not finite, caps a pass at
inconclusive, and a scan that evaluated nothing reports error.
The aggregate certificate additionally demands that the three verdicts
agree, which guards against implementation drift between the criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matops, triplets
# inner stays bound here for bench/tracer.py, which rebinds every import of it
from .expfun import gram, inner  # noqa: F401
from .scalars import format_complex
from .tolerances import (CONTRACTION_BOUND, FAIL_THRESHOLD, PASS_CONSTANCY, PASS_INCLUSION,
                         PASS_ORTHOGONALITY)

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
    def default(cls) -> "Grid":
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


def _scan_result(check_id: str, residuals: np.ndarray, tolerance: float,
                 name, failures: list[str], excluded: np.ndarray | None = None,
                 what: str = "residual") -> CheckResult:
    """The result of a scan whose entries are ``residuals``.

    ``excluded`` masks the entries the scan leaves out: pairs it does not
    compare, or entries whose failure it has already listed.  Every other
    entry that is not finite is a failed entry too, listed as
    ``<name(row, column)>: <what> is not finite``; the rest are evaluated.
    The worst evaluated entry is the first strictly largest one in C order,
    and ``name`` names it; nothing at or below 0 names a witness.  A scan
    that evaluated nothing reports a NaN residual rather than the 0.0 it
    started from, which would read as a perfect pass.
    """
    left_out = ~np.isfinite(residuals)
    if excluded is not None:
        left_out &= ~excluded
    failures = failures + [f"{name(*entry)}: {what} is not finite"
                           for entry in np.argwhere(left_out).tolist()]
    if excluded is not None:
        left_out |= excluded
    residuals[left_out] = np.nan  # in place: every scan passes a fresh matrix
    evaluated = residuals.size - int(np.count_nonzero(left_out))
    worst = float(np.fmax.reduce(residuals, axis=None, initial=0.0))
    witness = None
    if worst > 0:
        first = int(np.argmax(residuals == worst))
        witness = name(*np.unravel_index(first, residuals.shape))
    if not evaluated:
        worst = float("nan")
    verdict = _verdict(worst, tolerance, evaluated, len(failures))
    return CheckResult(check_id, verdict, worst, tolerance, witness,
                       tuple(failures))


def _per_point(points, label: str, entries, failures: list[str], fn=None):
    """The points whose entry is a value, not an exception, and those
    values, taken through ``fn(point, value)`` if given; every other point,
    or one where ``fn`` raises, is left out and recorded as
    ``<label>=<point>: <error>``."""
    kept, values = [], []
    for z, entry in zip(points, entries):
        if fn is not None and not isinstance(entry, Exception):
            try:
                entry = fn(z, entry)
            except Exception as exc:
                entry = exc
        if isinstance(entry, Exception):
            failures.append(f"{label}={format_complex(z)}: {entry}")
            continue
        kept.append(z)
        values.append(entry)
    return kept, values


def native_images(model, points):
    """Native images of the defect vectors at ``points``, 2 x n with row 0
    gamma_plus and a failed column zero, and per point its error or None."""
    images = np.zeros((2, len(points)), dtype=complex)
    errors: list[Exception | None] = []
    for j, entry in enumerate(model.defects.images_at(points)):
        if isinstance(entry, Exception):
            errors.append(entry)
        else:
            images[:, j] = entry
            errors.append(None)
    return images, errors


def _failed(points, label: str, *entries) -> dict[int, str]:
    """The index of each point with an exception among its ``entries``
    (lists over the points), and the failure text of its first one,
    ``<label>=<point>: <error>``."""
    failed = {}
    for i, row in enumerate(zip(*entries)):
        for exc in row:
            if isinstance(exc, Exception):
                failed[i] = f"{label}={format_complex(points[i])}: {exc}"
                break
    return failed


def char_values(model, lams):
    """The points of ``lams`` with a finite characteristic function value,
    those values, and a failure text for every other point."""
    failures: list[str] = []
    kept, values = _per_point(lams, "lambda", model.defects.images_at(lams), failures,
                              lambda lam, images: triplets.char_value(lam, *images))
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
    pairings = np.empty((0, 0))  # with no vector on one side there is nothing to pair
    if uppers and lowers:
        up = family.packed_at(uppers, [1.0 / n for n in up_norms])
        down = family.packed_at(lowers, [1.0 / n for n in down_norms])
        pairings = gram(up, down).T  # rows nu
    return _scan_result(
        "orthogonality", np.hypot(pairings.real, pairings.imag), PASS_ORTHOGONALITY,
        lambda nu, lam: f"lambda={format_complex(uppers[lam])}, nu={format_complex(lowers[nu])}",
        failures, what="pairing")


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
    with np.errstate(over="ignore"):  # an overflow is a deviation that is not finite
        devs = v.real[:, None] - v.real
        np.hypot(devs, v.imag[:, None] - v.imag, out=devs)  # abs(v_i - v_j), in place
    return _scan_result(
        "constancy", devs, PASS_CONSTANCY,
        lambda i, j: f"lambda={format_complex(lams[i])}, mu={format_complex(lams[j])}",
        failures, excluded=np.tri(len(values), dtype=bool), what="deviation")  # pairs i < j


def inclusion_scan(model, grid: Grid | None = None) -> CheckResult:
    """Largest normalized conjugate-defect coefficient over upper pairs.

    Decomposing the defect vector f at lambda against the point mu, as
    ``triplets.decompose`` does, must leave no component b along the
    defect vector at conj(mu); |b| is scaled by the norms so the verdict is
    scale free.  The witness is the first largest one in mu-major,
    lambda-minor order.

    The coefficients are linear in the native images (gamma_plus(f),
    gamma_minus(f)), so each upper and each conjugate point is mapped once:
    the upper images are the right-hand sides and S(mu)'s first column, the
    conjugate ones its second.  One stacked singularity test, as
    ``triplets.system_errors`` takes it, covers every S(mu), and one stacked
    solve every regular one.  A lambda fails by its own vector: its build,
    maximal domain, norm or images raised, or its images are not finite.  A
    mu fails by the vectors at mu and conj(mu) (their images, and the norm
    at conj(mu)) or by S(mu): not finite, singular, or an SVD that raised.
    Each failed point is listed once per role, as ``lambda=<z>: <error>`` or
    ``mu=<z>: <error>``, and fails its column or row; any other pair whose a
    or b is not finite is a failed pair.
    """
    grid = grid or Grid.default()
    lams = grid.lambdas_upper
    conjs = [lam.conjugate() for lam in lams]
    n = len(lams)
    norms = model.defects.norms_at([*lams, *conjs])  # one batch for both half planes
    rhs, rhs_errors = native_images(model, lams)
    conj, conj_errors = native_images(model, conjs)
    systems = np.stack([rhs.T, conj.T], axis=2)
    not_finite = [None if ok else ValueError("boundary images are not finite")
                  for ok in np.isfinite(rhs).all(axis=0).tolist()]
    lam_failed = _failed(lams, "lambda", model.defects.domain_errors_at(lams), norms[:n],
                         rhs_errors, not_finite)
    mu_failed = _failed(lams, "mu", rhs_errors, norms[n:], conj_errors,
                        triplets.system_errors(systems))
    regular = [i for i in range(n) if i not in mu_failed]
    coeffs = np.full((n, 2, n), np.nan, dtype=complex)  # mu, (a, b), lambda
    coeffs[regular] = np.linalg.solve(systems[regular], rhs)
    b = np.where(np.isfinite(coeffs[:, 0]), coeffs[:, 1], np.nan)  # a pair fails by a too
    lam_norms = [1.0 if j in lam_failed else norms[j] for j in range(n)]
    conj_norms = [1.0 if i in mu_failed else norms[n + i] for i in range(n)]
    # hypot is abs() of a complex bit for bit; np.abs is not
    vals = np.hypot(b.real, b.imag) * np.array(conj_norms)[:, None] / np.array(lam_norms)
    excluded = np.zeros((n, n), dtype=bool)
    excluded[list(mu_failed)] = True
    excluded[:, list(lam_failed)] = True
    return _scan_result(
        "inclusion", vals, PASS_INCLUSION,
        lambda mu, lam: f"lambda={format_complex(lams[lam])}, mu={format_complex(lams[mu])}",
        [*lam_failed.values(), *mu_failed.values()], excluded=excluded, what="coefficient")


def pso_certificate(model, grid: Grid | None = None) -> Certificate:
    """Run all three criteria and demand agreeing verdicts.

    The criteria are provably equivalent, so a disagreement can only come
    from an implementation defect; it is surfaced as an inconclusive
    aggregate with the full set of entries attached.
    """
    grid = grid or Grid.default()
    cert = Certificate(model_id=model.describe())
    cert.checks.append(orthogonality_scan(model, grid))
    cert.checks.append(constancy_scan(model, grid))
    cert.checks.append(inclusion_scan(model, grid))
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
