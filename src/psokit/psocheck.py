"""Certification battery for the Phillips property and extension spectra.

Three independently implemented criteria characterize the same property of
a symmetric restriction (constant characteristic function):

* orthogonality of the upper and lower defect subspaces,
* constancy of the characteristic function over an upper half-plane grid,
* vanishing of the conjugate-defect coefficient when any upper defect
  vector is decomposed against a fixed upper point.

Each scan produces a pass / fail / inconclusive / error verdict with its
witness.  Scans fail closed: a grid point that could not be evaluated caps
a pass at inconclusive, and a scan that evaluated nothing reports error.
The aggregate certificate additionally demands that the three verdicts
agree, which guards against implementation drift between the criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matops, triplets
# inner stays bound here for bench/tracer.py, which rebinds every import of it
from .expfun import GRAM_BLOCK, gram, inner, pack  # noqa: F401
from .scalars import format_complex

PASS_ORTHOGONALITY = 1e-10
PASS_INCLUSION = 1e-10
PASS_CONSTANCY = 1e-8
FAIL_THRESHOLD = 1e-2

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


def _scan_result(check_id: str, worst: float, tolerance: float,
                 witness: str | None, evaluated: int,
                 failures: list[str]) -> CheckResult:
    """The result of a scan over ``evaluated`` grid points.

    A scan that evaluated nothing reports a NaN residual rather than the
    0.0 it started from, which would read as a perfect pass.
    """
    if not evaluated:
        worst = float("nan")
    verdict = _verdict(worst, tolerance, evaluated, len(failures))
    return CheckResult(check_id, verdict, worst, tolerance, witness,
                       tuple(failures))


def _per_point(points, label: str, fn, failures: list[str]):
    """The points where ``fn`` evaluates and its values there; a point where
    it raises is left out and recorded as ``<label>=<point>: <error>``."""
    kept, values = [], []
    for z in points:
        try:
            value = fn(z)
        except Exception as exc:
            failures.append(f"{label}={format_complex(z)}: {exc}")
            continue
        kept.append(z)
        values.append(value)
    return kept, values


def _native_images(model, points):
    """Native images of the defect vectors at ``points``, 2 x n with row 0
    gamma_plus and a failed column zero, and each failed column's error."""
    images = np.zeros((2, len(points)), dtype=complex)
    errors: dict[int, Exception] = {}
    for j, z in enumerate(points):
        try:
            images[:, j] = model.triplet.images(model.defects(z))[:, 0]
        except Exception as exc:
            errors[j] = exc
    return images, errors


def char_values(model, lams):
    """The points of ``lams`` with a finite characteristic function value,
    those values, and a failure text for every other point."""
    failures: list[str] = []
    kept, values = _per_point(
        lams, "lambda",
        lambda lam: triplets.char_function(model.triplet, model.defects, lam),
        failures)
    return kept, values, failures


def orthogonality_scan(model, grid: Grid | None = None) -> CheckResult:
    """Largest normalized pairing between upper and lower defect vectors.

    A point whose norm fails is a failed point.  The pairings are the
    entries of one Gram matrix of the normalized vectors, taken only when
    both half planes have vectors; the witness is the first largest one in
    nu-major, lambda-minor order, found GRAM_BLOCK lower vectors at a time.
    """
    grid = grid or Grid.default()
    failures = []
    uppers, up_norms = _per_point(grid.lambdas_upper, "lambda", model.defects.norm, failures)
    lowers, down_norms = _per_point(grid.lambdas_lower, "nu", model.defects.norm, failures)
    up = pack([model.defects(z) for z in uppers], [1.0 / n for n in up_norms])
    down = pack([model.defects(z) for z in lowers], [1.0 / n for n in down_norms])
    worst = 0.0
    witness = None
    # with no vector on one side there is nothing to pair
    matrix = gram(up, down) if uppers and lowers else np.empty((0, 0))
    for start in range(0, matrix.shape[1], GRAM_BLOCK):
        pairings = matrix[:, start:start + GRAM_BLOCK].T  # rows nu
        vals = np.hypot(pairings.real, pairings.imag)  # abs() of each entry
        # a NaN pairing never beats the worst, as in a scalar val > worst
        i = int(np.argmax(np.where(np.isnan(vals), -1.0, vals)))
        if vals.flat[i] > worst:
            worst = float(vals.flat[i])
            nu, lam = divmod(i, len(uppers))
            witness = (f"lambda={format_complex(uppers[lam])}, "
                       f"nu={format_complex(lowers[start + nu])}")
    return _scan_result("orthogonality", worst, PASS_ORTHOGONALITY, witness,
                        len(uppers) * len(lowers), failures)


def constancy_scan(model, grid: Grid | None = None) -> CheckResult:
    """Largest pairwise deviation of the characteristic function over the
    upper grid.  Pass below 1e-8, fail above 1e-2, inconclusive between.

    The deviations are taken one row i at a time against every j > i; the
    witness is the first largest one in i-major order.  The scan evaluates
    pairs, so fewer than two finite values compare nothing and report error.
    """
    grid = grid or Grid.default()
    lams, values, failures = char_values(model, grid.lambdas_upper)
    re = np.array([v.real for v in values])
    im = np.array([v.imag for v in values])
    worst = 0.0
    witness = None
    for i in range(len(values) - 1):
        devs = np.hypot(re[i] - re[i + 1:], im[i] - im[i + 1:])  # abs(v_i - v_j)
        j = int(np.argmax(devs))
        if devs[j] > worst:
            worst = float(devs[j])
            witness = (f"lambda={format_complex(lams[i])}, "
                       f"mu={format_complex(lams[i + 1 + j])}")
    return _scan_result("constancy", worst, PASS_CONSTANCY, witness,
                        len(values) * (len(values) - 1) // 2, failures)


def inclusion_scan(model, grid: Grid | None = None) -> CheckResult:
    """Largest normalized conjugate-defect coefficient over upper pairs.

    Decomposing the defect vector f at lambda against the point mu, as
    ``triplets.decompose`` does, must leave no component b along the
    defect vector at conj(mu); |b| is scaled by the norms so the verdict is
    scale free.

    The coefficients are linear in the native images (gamma_plus(f),
    gamma_minus(f)), so each upper and each conjugate point is mapped once:
    the upper images are the right-hand sides and S(mu)'s first column, the
    conjugate ones its second, and each mu solves S(mu) for all lambdas at
    once.  A singular S(mu) fails every pair at that mu.  Failures keep the
    precedence and text of ``decompose``: lambda-side construction errors
    (the norm of f included), then mu-side errors, then errors of the
    boundary maps on f, then the singularity of S(mu).  A pair whose
    coefficients are not finite fails as ``decompose`` fails on it: its
    defect vectors cannot be scaled by them.
    """
    grid = grid or Grid.default()
    lams = grid.lambdas_upper
    labels = [format_complex(lam) for lam in lams]
    # per lambda: the error before the boundary maps
    early: dict[int, Exception] = {}
    norms = [1.0] * len(lams)
    for j, lam in enumerate(lams):
        try:
            triplets.require_maximal_domain(model.defects(lam))
            norms[j] = model.defects.norm(lam)
        except Exception as exc:
            early[j] = exc
    rhs, late = _native_images(model, lams)
    conj, conj_errors = _native_images(model, [lam.conjugate() for lam in lams])

    worst = 0.0
    witness = None
    failures = []
    evaluated = 0
    for i, (mu, mu_label) in enumerate(zip(lams, labels)):
        try:
            n_conj = model.defects.norm(mu.conjugate())
        except Exception as exc:
            failures.append(f"mu={mu_label}: {exc}")
            continue
        # mapping f_mu, then f_conj(mu), as decompose does
        mu_error = late.get(i) or conj_errors.get(i)
        singular = None
        if mu_error is None:
            system = np.column_stack([rhs[:, i], conj[:, i]])
            try:
                triplets.require_regular_system(system)
            except Exception as exc:
                singular = exc
            else:
                coeffs = np.linalg.solve(system, rhs)
                finite = np.isfinite(coeffs).all(axis=0).tolist()
                bs = coeffs[1].tolist()
        for j in range(len(lams)):
            exc = early.get(j) or mu_error or late.get(j) or singular
            if exc is None and not finite[j]:
                exc = ValueError("coefficient and exponent must be finite")
            if exc is not None:
                failures.append(f"lambda={labels[j]}, mu={mu_label}: {exc}")
                continue
            evaluated += 1
            val = abs(bs[j]) * n_conj / norms[j]
            if val > worst:
                worst = val
                witness = f"lambda={labels[j]}, mu={mu_label}"
    return _scan_result("inclusion", worst, PASS_INCLUSION, witness,
                        evaluated, failures)


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
    theta = np.atleast_2d(np.asarray(theta_const, dtype=complex))
    tm = np.atleast_2d(np.asarray(t, dtype=complex))
    if theta.shape != tm.shape or theta.shape[0] != theta.shape[1]:
        raise ValueError("theta and T must be square matrices of equal size")
    if matops.opnorm(theta) > 1 + 1e-10:
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
