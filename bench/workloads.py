"""Seeded inputs for the three benchmark workloads and the op each runs.

A workload is a list of ops, one *pass*; the benchmark runs passes back to
back in a closed loop, one op at a time.  The seed decides the parameters
of scenario-mix (alpha, d, Haar ranges, T) and the order of every pass; it
never changes how many ops a pass holds or the share of each kind, so runs
with different seeds measure the same amount of work.

Each op carries the verdicts the mathematics predicts for it (see
``phillips`` and ``spectrum_class``); failing residuals are compared with
the values recorded at the seed commit in ``seed_values.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from psokit import cli, psocheck
from psokit.models import MomentumModel, NonlocalModel

SEED_VALUES = Path(__file__).with_name("seed_values.json")

PASS, FAIL = "pass", "fail"

#: couplings with a constant characteristic function: alpha = 0 is the
#: trivial constant, 4i (case I) and 2i (case II) are the Phillips points
PHILLIPS_ALPHAS = {"I": ("0", "4i"), "II": ("0", "2i")}

CERTIFY_FIXTURES = (
    [(None, None)]
    + [("I", a) for a in ("0", "1", "i", "2i", "4i", "-4i", "3+i")]
    + [("II", a) for a in ("1", "i", "2i", "3-i")]
)

DENSE_GRID = {"re": list(range(-15, 16)),
              "im": [0.1, 0.2, 0.5, 1, 1.5, 2, 3, 5, 7, 10]}
DENSE_MODELS = ((None, None), ("I", "4i"), ("II", "1"))

#: ops per scenario-mix pass by kind; sorted by op time the kinds fill
#: 0-20% (haar), 20-40% (shift), 40-70% (momentum) and 70-100% (nonlocal),
#: so p50 falls inside the momentum band and p90 inside the nonlocal band
MIX_COUNTS = {"haar": 40, "shift": 40, "momentum": 60, "nonlocal": 60}
#: per nonlocal case: ops at alpha = 0, at the Phillips point, from the pool
MIX_NONLOCAL = (3, 3, 24)
MIX_SHIFT_D = (32, 192)
#: momentum classify ops per pass with T = theta = 0 (real-plus-upper)
MIX_T_ZERO = 15


@dataclass(frozen=True)
class Op:
    """One benchmark operation and the verdicts expected from it.

    ``payload`` is a model spec for certify-12 and a scenario object for
    the CLI workloads.  ``expect`` maps check ids, in report order, to the
    expected verdict; ``expect_class`` is the classify result, if any.
    """

    label: str
    kind: str
    payload: object
    expect: dict
    expect_class: str | None = None
    overall: str | None = None


def load_seed_values(path: Path = SEED_VALUES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def phillips(case: str | None, alpha: str | None) -> bool:
    """True when the model's characteristic function is constant."""
    return case is None or alpha in PHILLIPS_ALPHAS[case]


def spectrum_class(theta: complex, t: complex) -> str:
    """Spectrum class of the extension with parameter T, from the scalar
    identities: the upper half plane fills iff theta = T, the lower one iff
    conj(theta) T = 1."""
    upper = theta == t
    lower = theta.conjugate() * t == 1
    if upper and lower:
        return "whole-plane"
    if upper:
        return "real-plus-upper"
    if lower:
        return "real-plus-lower"
    return "real-line"


def model_label(case: str | None, alpha: str | None) -> str:
    return "momentum" if case is None else f"nonlocal-{case}({alpha})"


def _model_spec(case, alpha) -> dict:
    if case is None:
        return {"kind": "momentum"}
    return {"kind": "nonlocal", "case": case, "alpha": alpha}


def parse_alpha(text: str) -> complex:
    """``"3+i"`` style literal (the scenario grammar) as a complex."""
    return complex(text.replace("i", "j")) if text.endswith("i") else complex(text)


# certify-12: the ROADMAP's headline end-to-end case.  Each op certifies a
# freshly built criterion-04 fixture on the default grid; ~95% of the time is
# inclusion_scan -> decompose (4356 per certificate) with DefectFamily hits
# dominating.  The seed only orders the pass: the fixtures are fixed so that
# failing residuals can be checked against recorded values.
def certify_12(seed: int) -> list[Op]:
    ops = []
    for case, alpha in CERTIFY_FIXTURES:
        verdict = PASS if phillips(case, alpha) else FAIL
        ops.append(Op(
            label=model_label(case, alpha), kind="certify",
            payload=(case, None if alpha is None else parse_alpha(alpha)),
            expect={c: verdict for c in ("orthogonality", "constancy", "inclusion")},
            overall=verdict))
    random.Random(f"certify-12/{seed}").shuffle(ops)
    return ops


# dense-grid: closed-form inner products at N^2 scale (96k pairs per
# nonlocal orthogonality scan) with zero decompose calls, through the CLI.
# It exercises a Gram-matrix or packed inner and bypasses any decompose or
# inclusion-scan change.  Models and grid are fixed; the seed orders the pass.
def dense_grid(seed: int) -> list[Op]:
    ops = []
    for case, alpha in DENSE_MODELS:
        verdict = PASS if phillips(case, alpha) else FAIL
        ops.append(Op(
            label=model_label(case, alpha), kind="dense",
            payload={"name": f"dense-{model_label(case, alpha)}",
                     "model": _model_spec(case, alpha),
                     "checks": ["orthogonality", "constancy"],
                     "grid": DENSE_GRID},
            expect={"orthogonality": verdict, "constancy": verdict}))
    random.Random(f"dense-grid/{seed}").shuffle(ops)
    return ops


def format_alpha(re: float, im: float) -> str:
    """Scenario literal for re + im i."""
    return f"{re:g}{im:+g}i"


def nonlocal_op(case: str, alpha: str) -> Op:
    """The scenario-mix op for one nonlocal coupling."""
    verdict = PASS if phillips(case, alpha) else FAIL
    return Op(label=model_label(case, alpha), kind="nonlocal",
              payload={"name": model_label(case, alpha),
                       "model": _model_spec(case, alpha),
                       "checks": ["constancy", "green", "mobius"]},
              expect={"constancy": verdict, "green": PASS, "mobius": PASS})


# scenario-mix: many small, freshly built scenarios through the CLI parse
# and report path.  Every op builds a new model, so no defect vector is
# cached across ops and free_resolvent, model construction and term
# canonicalisation dominate.  It is the only workload on the matops Cayley/wandering path,
# HaarSystem and classify, and it runs no N^2 scan.
def scenario_mix(seed: int, alpha_pool: dict) -> list[Op]:
    rng = random.Random(f"scenario-mix/{seed}")
    ops = []
    n_zero, n_phillips, n_pool = MIX_NONLOCAL
    for case in ("I", "II"):
        zero, point = PHILLIPS_ALPHAS[case]
        alphas = ([zero] * n_zero + [point] * n_phillips
                  + rng.sample(alpha_pool[case], n_pool))
        ops += [nonlocal_op(case, alpha) for alpha in alphas]
    for i in range(MIX_COUNTS["momentum"]):
        if i < MIX_T_ZERO:
            t = "0"
        else:
            while True:
                re, im = round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 3), 3)
                if abs(complex(re, im)) >= 0.1:
                    break
            t = format_alpha(re, im)
        ops.append(Op(
            label="momentum", kind="momentum",
            payload={"model": {"kind": "momentum"},
                     "checks": ["constancy", "green", "mobius", "classify"],
                     "params": {"T": t, "theta": "0"}},
            expect={"constancy": PASS, "green": PASS, "mobius": PASS,
                    "classify": PASS},
            expect_class=spectrum_class(0j, parse_alpha(t))))
    # stratified d keeps the pass's total matrix work nearly seed independent
    lo, hi = MIX_SHIFT_D
    n_shift = MIX_COUNTS["shift"]
    for i in range(n_shift):
        d = lo + int((i + rng.random()) * (hi - lo + 1) / n_shift)
        ops.append(Op(
            label=f"shift({d})", kind="shift",
            payload={"model": {"kind": "shift", "d": d},
                     "checks": ["wandering", "cayley_identity"]},
            expect={"wandering": PASS, "cayley_identity": PASS}))
    for _ in range(MIX_COUNTS["haar"]):
        j0, k0 = rng.randint(-2, 1), rng.randint(-4, 2)
        j_range, k_range = [j0, j0 + rng.randint(0, 2)], [k0, k0 + rng.randint(1, 4)]
        ops.append(Op(
            label=f"haar({j_range},{k_range})", kind="haar",
            payload={"model": {"kind": "haar", "j_range": j_range,
                               "k_range": k_range},
                     "checks": ["gram"]},
            expect={"gram": PASS}))
    rng.shuffle(ops)
    return [Op(op.label, op.kind, {**op.payload, "name": f"mix-{i}-{op.kind}"},
               op.expect, op.expect_class)
            for i, op in enumerate(ops)]


WORKLOADS = ("certify-12", "dense-grid", "scenario-mix")


def generate(workload: str, seed: int, seed_values: dict | None = None) -> list[Op]:
    """The ops of one pass of ``workload`` for ``seed``."""
    if workload == "certify-12":
        return certify_12(seed)
    if workload == "dense-grid":
        return dense_grid(seed)
    if workload == "scenario-mix":
        values = seed_values if seed_values is not None else load_seed_values()
        return scenario_mix(seed, values["alpha_pool"])
    raise ValueError(f"unknown workload {workload!r}")


def run_op(op: Op):
    """Execute one op on freshly built objects and return its result."""
    if op.kind == "certify":
        case, alpha = op.payload
        model = MomentumModel() if case is None else NonlocalModel(case, alpha)
        return psocheck.pso_certificate(model, psocheck.Grid.default())
    return cli.run_scenario_obj(op.payload)
