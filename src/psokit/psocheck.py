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
from .expfun import inner
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
    """Sampling of both open half planes; no real points allowed."""

    lambdas_upper: tuple[complex, ...]
    lambdas_lower: tuple[complex, ...]

    def __post_init__(self):
        up = tuple(complex(z) for z in self.lambdas_upper)
        dn = tuple(complex(z) for z in self.lambdas_lower)
        if not up or not dn:
            raise ValueError("grid must sample both half planes")
        if any(z.imag <= 0 for z in up):
            raise ValueError("upper grid contains non-upper points")
        if any(z.imag >= 0 for z in dn):
            raise ValueError("lower grid contains non-lower points")
        object.__setattr__(self, "lambdas_upper", up)
        object.__setattr__(self, "lambdas_lower", dn)

    @classmethod
    def default(cls) -> "Grid":
        upper = tuple(complex(re, im) for re in DEFAULT_RE for im in DEFAULT_IM)
        return cls(upper, tuple(z.conjugate() for z in upper))

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

    ALL = (REAL_LINE, REAL_PLUS_UPPER, REAL_PLUS_LOWER, WHOLE_PLANE)


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


def orthogonality_scan(model, grid: Grid | None = None) -> CheckResult:
    """Largest normalized pairing between upper and lower defect vectors."""
    grid = grid or Grid.default()
    worst = 0.0
    witness = None
    failures = []
    uppers = []
    evaluated = 0
    for lam in grid.lambdas_upper:
        try:
            uppers.append((lam, model.defects.normalized(lam)))
        except Exception as exc:
            failures.append(f"lambda={format_complex(lam)}: {exc}")
    for nu in grid.lambdas_lower:
        try:
            g = model.defects.normalized(nu)
        except Exception as exc:
            failures.append(f"nu={format_complex(nu)}: {exc}")
            continue
        evaluated += len(uppers)
        for lam, f in uppers:
            val = abs(inner(f, g))
            if val > worst:
                worst = val
                witness = f"lambda={format_complex(lam)}, nu={format_complex(nu)}"
    return _scan_result("orthogonality", worst, PASS_ORTHOGONALITY, witness,
                        evaluated, failures)


def constancy_scan(model, triplet=None, grid: Grid | None = None) -> CheckResult:
    """Largest pairwise deviation of the characteristic function over the
    upper grid.  Pass below 1e-8, fail above 1e-2, inconclusive between."""
    grid = grid or Grid.default()
    trip = triplet if triplet is not None else model.triplet
    values = []
    failures = []
    for lam in grid.lambdas_upper:
        try:
            theta = triplets.char_function(trip, model.defects, lam)
        except Exception as exc:
            failures.append(f"lambda={format_complex(lam)}: {exc}")
            continue
        if np.isfinite(theta):
            values.append((lam, theta))
        else:
            failures.append(f"lambda={format_complex(lam)}: theta is not finite")
    worst = 0.0
    witness = None
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            dev = abs(values[i][1] - values[j][1])
            if dev > worst:
                worst = dev
                witness = (f"lambda={format_complex(values[i][0])}, "
                           f"mu={format_complex(values[j][0])}")
    return _scan_result("constancy", worst, PASS_CONSTANCY, witness,
                        len(values), failures)


def inclusion_scan(model, grid: Grid | None = None) -> CheckResult:
    """Largest normalized conjugate-defect coefficient over upper pairs.

    Decomposing the defect vector f at lambda against the point mu, as
    ``triplets.decompose`` does, must leave no component b along the
    defect vector at conj(mu); |b| is scaled by the norms so the verdict is
    scale free.

    The coefficients are linear in the boundary images (gamma_plus(f),
    gamma_minus(f)), so each lambda is mapped to its images once, and each
    mu builds its 2x2 system S(mu) once and solves it for all lambdas in a
    single call.  A singular S(mu) is a failure of every pair at that mu.
    Failures keep the precedence and text of ``decompose``: lambda-side
    construction errors, then mu-side errors, then errors of the boundary
    maps on f, then the singularity of S(mu).  A pair whose coefficients are
    not finite goes through ``decompose`` itself, which rejects it when
    reassembling the residual.
    """
    grid = grid or Grid.default()
    trip = model.triplet
    lams = grid.lambdas_upper
    labels = [format_complex(lam) for lam in lams]
    # per lambda: error before the mu-side work, error of the boundary maps
    early: dict[int, Exception] = {}
    late: dict[int, Exception] = {}
    rhs = np.zeros((2, len(lams)), dtype=complex)
    norms = [1.0] * len(lams)
    for j, lam in enumerate(lams):
        try:
            f = model.defects(lam)
            triplets.require_maximal_domain(f)
        except Exception as exc:
            early[j] = exc
            continue
        norms[j] = model.defects.norm(lam)
        try:
            rhs[:, j] = trip.images(f)[:, 0]
        except Exception as exc:
            late[j] = exc

    worst = 0.0
    witness = None
    failures = []
    evaluated = 0
    for mu, mu_label in zip(lams, labels):
        try:
            n_conj = model.defects.norm(mu.conjugate())
        except Exception as exc:
            failures.append(f"mu={mu_label}: {exc}")
            continue
        mu_error = singular = None
        try:
            system = trip.images(model.defects(mu), model.defects(mu.conjugate()))
        except Exception as exc:
            mu_error = exc
        else:
            try:
                triplets.require_regular_system(system)
            except Exception as exc:
                singular = exc
        if mu_error is None and singular is None:
            coeffs = np.linalg.solve(system, rhs)
            finite = np.isfinite(coeffs).all(axis=0).tolist()
            bs = coeffs[1].tolist()
        for j, lam in enumerate(lams):
            exc = early.get(j) or mu_error or late.get(j) or singular
            if exc is None and not finite[j]:
                try:
                    _, bs[j], _ = triplets.decompose(model, model.defects(lam), mu)
                except Exception as err:
                    exc = err
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
    cert.checks.append(constancy_scan(model, None, grid))
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
