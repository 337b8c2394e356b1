"""Scenario runner and report emitter.

``pso-kit run scenario.json [--out report.json]`` builds the model named in
the scenario, executes the requested checks, prints the report, and exits 0
only when every verdict is a pass (1 on a failed or inconclusive check,
2 on any error).  ``pso-kit sweep`` tabulates the characteristic function
over the grid into a CSV, and ``pso-kit list-checks`` prints the check ids
with the statements they certify.

Scenario schema::

    {
      "name": "nonlocal-constancy",
      "model": {"kind": "nonlocal", "case": "I", "alpha": "4i"},
      "checks": ["constancy", "orthogonality"],
      "grid":   {"re": [-2, 0, 2], "im": [0.5, 1, 5]},      // optional
      "params": {"T": "1", "theta": "0"}                     // classify only
    }

Complex numbers are strings such as ``"2"``, ``"-0.5i"``, ``"3+i"``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, matops, models, psocheck, triplets
from .scalars import format_complex, parse_complex
from .triplets import GREEN_TOL

CAYLEY_IDENTITY_TOL = 1e-11
GRAM_TOL = 1e-12
WANDERING_TOL = 1e-10
MOBIUS_TOL = 1e-8

#: check id -> (statement certified, model kinds it applies to)
CHECK_TABLE = {
    "orthogonality": (
        "upper and lower defect subspaces are mutually orthogonal",
        ("momentum", "nonlocal"),
    ),
    "constancy": (
        "the characteristic function is operator-constant on the upper half plane",
        ("momentum", "nonlocal"),
    ),
    "inclusion": (
        "each upper defect subspace lies in the minimal domain extended at one upper point",
        ("momentum", "nonlocal"),
    ),
    "pso": (
        "aggregate Phillips property: the three equivalent criteria agree and pass",
        ("momentum", "nonlocal"),
    ),
    "green": (
        "the boundary maps satisfy the abstract Green identity on random maximal-domain pairs",
        ("momentum", "nonlocal"),
    ),
    "mobius": (
        "characteristic functions in two boundary systems are linked by the "
        "Krein-unitary linear fractional transform",
        ("momentum", "nonlocal"),
    ),
    "gram": (
        "the dilation-translation system is orthonormal (Gram matrix is the identity)",
        ("haar",),
    ),
    "wandering": (
        "the generating subspace wanders under the shift for a full period",
        ("shift",),
    ),
    "cayley_identity": (
        "the resolvent identity (A - iI)(U - I)x = 2ix holds on random vectors",
        ("shift",),
    ),
    "classify": (
        "spectrum class of the extension cut out by the boundary parameter T "
        "(requires a passed certificate or an explicit constant theta)",
        ("momentum", "nonlocal"),
    ),
}


class ScenarioError(Exception):
    """Scenario cannot be parsed or the model cannot be constructed."""


def _require(obj, key, where):
    if key not in obj:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return obj[key]


def build_model(spec):
    if not isinstance(spec, dict):
        raise ScenarioError("model: expected an object")
    kind = _require(spec, "kind", "model")
    try:
        if kind == "momentum":
            m = spec.get("m", 1)
            if type(m) is not int or m != 1:  # a bool or a float is no JSON integer
                raise ValueError("the function-space models are scalar (m = 1)")
            return models.MomentumModel()
        if kind == "shift":
            twist = spec.get("twist", "-1")
            return models.ShiftModel(d=int(_require(spec, "d", "model")),
                                     twist=parse_complex(twist))
        if kind == "nonlocal":
            return models.NonlocalModel(
                case=_require(spec, "case", "model"),
                alpha=parse_complex(_require(spec, "alpha", "model")),
            )
        if kind == "haar":
            return models.HaarSystem(
                j_range=tuple(_require(spec, "j_range", "model")),
                k_range=tuple(_require(spec, "k_range", "model")),
            )
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"model: {exc}") from exc
    raise ScenarioError(f"model: unknown kind {kind!r}")


def build_grid(spec) -> psocheck.Grid:
    if spec is None:
        return psocheck.Grid.default()
    try:
        return psocheck.Grid.from_axes(spec["re"], spec["im"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"grid: {exc}") from exc


def parse_scenario(obj):
    """Validate the scenario object; unknown check ids are rejected here."""
    if not isinstance(obj, dict):
        raise ScenarioError("scenario: expected a JSON object")
    name = _require(obj, "name", "scenario")
    spec = _require(obj, "model", "scenario")
    model = build_model(spec)
    checks = _require(obj, "checks", "scenario")
    if not isinstance(checks, list) or not checks:
        raise ScenarioError("scenario: checks must be a nonempty list")
    kind = spec["kind"]  # a known kind: build_model rejects the others
    for cid in checks:
        if cid not in CHECK_TABLE:
            raise ScenarioError(
                f"scenario: unknown check id {cid!r}; "
                f"valid ids: {', '.join(sorted(CHECK_TABLE))}"
            )
        if kind not in CHECK_TABLE[cid][1]:
            raise ScenarioError(
                f"scenario: check {cid!r} does not apply to a {kind} model"
            )
    if len(set(checks)) != len(checks):
        raise ScenarioError("scenario: duplicate check ids")
    grid = build_grid(obj.get("grid"))
    return name, model, checks, grid, obj.get("params", {})


# -- individual check runners -------------------------------------------------


def _threshold_result(check_id, residuals, tolerance, witness, holds=True):
    """Pass when ``holds`` and the worst residual is within ``tolerance``.

    A non-finite worst residual means the check could not evaluate, so it
    is an error; np.max propagates NaN, where max() would drop it.
    """
    worst = float(np.max(residuals))
    if not np.isfinite(worst):
        verdict = psocheck.VERDICT_ERROR
    elif holds and worst <= tolerance:
        verdict = psocheck.VERDICT_PASS
    else:
        verdict = psocheck.VERDICT_FAIL
    return psocheck.CheckResult(check_id, verdict, worst, tolerance, witness)


def _run_green(model, grid, params):
    rng = np.random.default_rng(20240601)
    residuals = []
    for _ in range(20):
        f = models.random_maximal_domain_function(rng)
        g = models.random_maximal_domain_function(rng)
        residuals.append(triplets.green_residual(model.triplet, model, f, g))
    return _threshold_result("green", residuals, GREEN_TOL, "20 seeded random pairs")


def _run_mobius(model, grid, params):
    mu = parse_complex(params.get("mu", "i"))
    t2 = triplets.defect_triplet(model, mu)
    k = triplets.change_of_basis(model.triplet, t2, model, mu=mu)
    residuals = [k.krein_defect()]
    for lam in grid.lambdas_upper:
        th1 = triplets.char_function(model.triplet, model.defects, lam)
        th2 = triplets.char_function(t2, model.defects, lam)
        residuals.append(abs(th2 - matops.interspherical(k, th1)))
    # the Krein defect comes first, so a worst index i > 0 names lambda i - 1
    i = int(np.argmax(residuals))
    witness = f"lambda={format_complex(grid.lambdas_upper[i - 1])}" if i else None
    return _threshold_result("mobius", residuals, MOBIUS_TOL, witness)


def _run_gram(system, grid, params):
    gram = models.haar_gram(system)
    dev = matops.opnorm(gram - np.eye(gram.shape[0]))
    return _threshold_result("gram", [dev], GRAM_TOL, f"{gram.shape[0]} elements")


def _run_wandering(model, grid, params):
    report = models.shift_wandering_report(model, n_max=model.d)
    wrap = abs(report.defect_per_n[model.d - 1] - 1.0)
    return _threshold_result(
        "wandering", [*report.defect_per_n[: model.d - 1], wrap], WANDERING_TOL,
        f"first violation at n={report.first_violation}",
        holds=report.first_violation == model.d)


def _run_cayley_identity(model, grid, params):
    rng = np.random.default_rng(20240602)
    residuals = []
    for _ in range(10):
        x = rng.normal(size=model.d) + 1j * rng.normal(size=model.d)
        residuals.append(models.shift_cayley_identity(model, x))
    return _threshold_result("cayley_identity", residuals, CAYLEY_IDENTITY_TOL,
                             "10 random vectors")


def _run_classify(model, grid, params):
    if "T" not in params:
        raise ScenarioError("classify: params.T is required")
    t = parse_complex(params["T"])
    if "theta" in params:
        theta = parse_complex(params["theta"])
        note = "theta supplied explicitly"
    else:
        cert = psocheck.pso_certificate(model, grid)
        if cert.overall != psocheck.VERDICT_PASS:
            raise ScenarioError(
                "classify: refused, model certificate did not pass and no "
                "explicit constant theta was supplied"
            )
        theta = triplets.char_function(model.triplet, model.defects,
                                       grid.lambdas_upper[0])
        note = "theta taken from the passed constancy certificate"
    label = psocheck.classify_spectrum([[theta]], [[t]])
    result = psocheck.CheckResult(
        "classify", psocheck.VERDICT_PASS, 0.0, 0.0,
        witness=f"class={label}, T={format_complex(t)}")
    result.notes = note
    return result


def _scan_runner(fn):
    def run(model, grid, params):
        return fn(model, grid)
    return run


def _run_pso(model, grid, params):
    cert = psocheck.pso_certificate(model, grid)
    # np.max propagates the NaN of a check that evaluated nothing; max()
    # would drop or keep it depending on the order of the checks
    worst = float(np.max([c.max_residual for c in cert.checks]))
    result = psocheck.CheckResult(
        "pso", cert.overall, worst,
        min(c.tolerance for c in cert.checks),
        witness="; ".join(f"{c.check_id}={c.verdict}" for c in cert.checks))
    notes = [c.notes for c in cert.checks if c.notes]
    if isinstance(model, models.NonlocalModel) and model.case == "I":
        notes.append("theta is constant exactly for alpha=4i; "
                     "alpha=0 gives the trivial constant as well")
    if notes:
        result.notes = "; ".join(dict.fromkeys(notes))
    return result


_RUNNERS = {
    "orthogonality": _scan_runner(psocheck.orthogonality_scan),
    "constancy": lambda model, grid, params: psocheck.constancy_scan(model, None, grid),
    "inclusion": _scan_runner(psocheck.inclusion_scan),
    "pso": _run_pso,
    "green": _run_green,
    "mobius": _run_mobius,
    "gram": _run_gram,
    "wandering": _run_wandering,
    "cayley_identity": _run_cayley_identity,
    "classify": _run_classify,
}


def run_scenario_obj(obj) -> dict:
    """Execute a parsed scenario object and return the report dict."""
    name, model, checks, grid, params = parse_scenario(obj)
    records = []
    for cid in checks:
        start = time.perf_counter()
        try:
            result = _RUNNERS[cid](model, grid, params)
        except ScenarioError:
            raise
        except Exception as exc:
            result = psocheck.CheckResult(cid, psocheck.VERDICT_ERROR, float("nan"),
                                          float("nan"), witness=None)
            result.notes = f"{type(exc).__name__}: {exc}"
        elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
        record = {
            "id": result.check_id,
            "verdict": result.verdict,
            "max_residual": result.max_residual,
            "tolerance": result.tolerance,
            "witness": result.witness,
            "wall_time_ms": elapsed_ms,
            "statement": CHECK_TABLE[cid][0],
        }
        if result.notes:
            record["notes"] = result.notes
        if result.failures:
            record["grid_failures"] = list(result.failures)
        records.append(record)
    return {"scenario": name, "version": __version__, "checks": records}


def run_scenario(path: str) -> dict:
    """Load, execute, and return the report for a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return run_scenario_obj(obj)


def _atomic_write(path: str, data: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


def report_exit_code(report: dict) -> int:
    verdicts = [c["verdict"] for c in report["checks"]]
    if any(v == psocheck.VERDICT_ERROR for v in verdicts):
        return 2
    if all(v == psocheck.VERDICT_PASS for v in verdicts):
        return 0
    return 1


def _first_failing(report: dict) -> str | None:
    for c in report["checks"]:
        if c["verdict"] != psocheck.VERDICT_PASS:
            return c["id"]
    return None


def cmd_run(args) -> int:
    try:
        report = run_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _atomic_write(args.out, text + "\n")
    print(text)
    code = report_exit_code(report)
    if code == 1:
        print(f"first failing check: {_first_failing(report)}", file=sys.stderr)
    return code


def cmd_sweep(args) -> int:
    try:
        spec = json.loads(args.model)
    except json.JSONDecodeError:
        try:
            with open(args.model, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: model spec is neither inline JSON nor a readable "
                  f"JSON file: {exc}", file=sys.stderr)
            return 2
    try:
        model = build_model(spec)
        if isinstance(model, (models.HaarSystem, models.ShiftModel)):
            raise ScenarioError("sweep needs a model with a boundary triplet")
        grid = build_grid(spec.get("grid"))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = ["re_lambda,im_lambda,re_theta,im_theta"]
    for lam in grid.lambdas_upper:
        th = triplets.char_function(model.triplet, model.defects, lam)
        lines.append(f"{lam.real:.17g},{lam.imag:.17g},{th.real:.17g},{th.imag:.17g}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(grid.lambdas_upper)} grid rows to {args.out}")
    return 0


def cmd_list_checks(_args) -> int:
    width = max(len(k) for k in CHECK_TABLE)
    for cid in sorted(CHECK_TABLE):
        statement, kinds = CHECK_TABLE[cid]
        print(f"{cid:<{width}}  [{','.join(kinds)}]  {statement}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pso-kit",
        description="run certification scenarios for symmetric-operator models",
    )
    parser.add_argument("--version", action="version", version=f"pso-kit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to the scenario JSON file")
    p_run.add_argument("--out", help="write the report JSON here (atomic)")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="tabulate theta over the grid to CSV")
    p_sweep.add_argument("--model", required=True,
                         help="inline model JSON or a path to a model JSON file")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_list = sub.add_parser("list-checks", help="list check ids and statements")
    p_list.set_defaults(fn=cmd_list_checks)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
