"""Outside-in tracer for psokit's layer boundaries.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces public
names of the layers with wrappers and rebinds every reference the package
holds to them: module attributes (``expfun.inner`` and the ``inner`` that
``triplets``, ``psocheck`` and ``models`` imported), class attributes
(``PiecewiseExpFunction.__init__``, ``BoundaryFunctional.__call__``, the
models' ``_defect``) and closure cells (the scan runners ``cli`` built at
import time).  ``uninstall`` puts every original back.

A span records name, start, end and parent; spans are appended to flat
arrays so a traced pass of certify-12 (about 1.3M spans) stays small, and
they are written out by ``save``.  Self time is a span's duration minus the
durations of its children.  Hot calls that need no timing (ExpTerm builds,
SVDs, defect-cache lookups) only bump counters.
"""

from __future__ import annotations

import functools
import operator
import types
from array import array
from time import perf_counter

import numpy as np

import psokit
from psokit import cli, expfun, matops, models, psocheck, triplets

MODULES = (psokit, expfun, matops, triplets, models, psocheck, cli)

#: (owner, attribute, span name) of every layer boundary timed
SPANS = (
    (expfun, "inner", "expfun.inner"),
    (expfun, "free_resolvent", "expfun.free_resolvent"),
    (expfun.PiecewiseExpFunction, "__init__", "expfun.pef_init"),
    (triplets, "decompose", "triplets.decompose"),
    (triplets, "char_function", "triplets.char_function"),
    (triplets.BoundaryFunctional, "__call__", "triplets.boundary_functional"),
    (matops, "is_singular", "matops.is_singular"),
    (matops, "wandering_check", "matops.wandering_check"),
    (matops, "inverse_cayley", "matops.inverse_cayley"),
    (models.MomentumModel, "_defect", "models.defect_build"),
    (models.NonlocalModel, "_defect", "models.defect_build"),
    (models, "haar_gram", "models.haar_gram"),
    (psocheck, "orthogonality_scan", "psocheck.orthogonality_scan"),
    (psocheck, "constancy_scan", "psocheck.constancy_scan"),
    (psocheck, "inclusion_scan", "psocheck.inclusion_scan"),
    (cli, "parse_scenario", "cli.parse_scenario"),
    (cli, "run_scenario_obj", "cli.run_scenario_obj"),
)
#: every check runner in cli._RUNNERS is wrapped in this span
RUNNER_SPAN = "cli.check_runner"
OP_SPAN = "bench.op"

#: (owner, attribute, counter) of calls only counted: ExpTerm.__post_init__
#: runs once per term built, and each matops call here does one SVD
COUNTED = (
    (expfun.ExpTerm, "__post_init__", "expfun.terms_built"),
    (matops, "is_singular", "matops.svds"),
    (matops, "opnorm", "matops.svds"),
    (matops, "min_singular_value", "matops.svds"),
)

#: grid points a scan visits: defect vectors for orthogonality, values
#: for constancy, (mu, lambda) pairs for inclusion
SCAN_POINTS = {
    "psocheck.orthogonality_scan": lambda up, dn: up + dn,
    "psocheck.constancy_scan": lambda up, dn: up,
    "psocheck.inclusion_scan": lambda up, dn: up * up,
}

COUNTERS = ("expfun.terms_built", "matops.svds", "triplets.defects.calls",
            "triplets.defects.hits", "psocheck.grid_points.evaluated",
            "psocheck.grid_points.failed")


class Tracer:
    """Spans and counters for one benchmark run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name: str, fn, after=None):
        nid = self._nid(name)
        ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _defect_lookup(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def lookup(family, z):
            counts["triplets.defects.calls"] += 1
            if complex(z) in family._cache:
                counts["triplets.defects.hits"] += 1
            return fn(family, z)

        return lookup

    def _scan_points(self, name: str):
        counts = self.counts
        points = SCAN_POINTS[name]

        def after(args, kwargs, result):
            grid = kwargs.get("grid")
            if grid is None:
                grid = next((a for a in args if isinstance(a, psocheck.Grid)),
                            None) or psocheck.Grid.default()
            counts["psocheck.grid_points.evaluated"] += points(
                len(grid.lambdas_upper), len(grid.lambdas_lower))
            counts["psocheck.grid_points.failed"] += len(result.failures)

        return after

    def op(self, fn):
        """``fn`` wrapped in the root span of one op."""
        return self._spanned(OP_SPAN, fn)

    def __len__(self) -> int:
        return len(self.name_id)

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append(functools.partial(setattr, owner, attr,
                                            owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr, make):
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(make(raw.__func__)))
        elif isinstance(owner, type):
            self._set(owner, attr, make(raw))
        else:
            self._rebind(raw, make(raw))

    def _rebind(self, original, replacement):
        """Point every reference the package holds to ``original`` at
        ``replacement``."""
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if value is original:
                    self._set(module, name, replacement)
                    continue
                for item in list(value.values() if isinstance(value, dict)
                                 else (value,)):
                    self._rebind_cells(item, original, replacement)

    def _rebind_cells(self, fn, original, replacement):
        if not isinstance(fn, types.FunctionType) or not fn.__closure__:
            return
        for cell in fn.__closure__:
            try:
                held = cell.cell_contents
            except ValueError:
                continue
            if held is original:
                self._undo.append(functools.partial(
                    setattr, cell, "cell_contents", original))
                cell.cell_contents = replacement

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in COUNTED:
            self._wrap(owner, attr, functools.partial(self._counted, name))
        self._set(triplets.DefectFamily, "__call__",
                  self._defect_lookup(triplets.DefectFamily.__call__))
        for owner, attr, name in SPANS:
            self._wrap(owner, attr, functools.partial(
                self._spanned, name,
                after=self._scan_points(name) if name in SCAN_POINTS else None))
        for cid, runner in list(cli._RUNNERS.items()):
            self._undo.append(functools.partial(
                operator.setitem, cli._RUNNERS, cid, runner))
            cli._RUNNERS[cid] = self._spanned(RUNNER_SPAN, runner)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def arrays(self, first: int = 0) -> dict:
        """The names and the spans from index ``first`` on."""
        return {"names": np.array(self.names),
                "name_id": np.array(self.name_id[first:]),
                "parent": np.array(self.parent[first:]),
                "start": np.array(self.start[first:]),
                "end": np.array(self.end[first:])}

    def layer_totals(self, first: int = 0) -> dict:
        """Per span name: calls, self seconds and total seconds over the
        spans from index ``first`` on, which must start an op."""
        a = self.arrays(first)
        parent = a["parent"] - first
        dur = a["end"] - a["start"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        self_s = np.bincount(a["name_id"], weights=dur - covered, minlength=n)
        total_s = np.bincount(a["name_id"], weights=dur, minlength=n)
        return {name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path, **extra) -> None:
        np.savez(path, **self.arrays(), **extra)

