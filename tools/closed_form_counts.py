"""Print how often each benchmark pass asks for a closed-form integral, and
how many objects and scalar inner products its ops take.

For each workload at seed 7, runs two passes of its ops in this one process
and prints, per pass, the calls of ``expfun._poly_exp_integral``, the
distinct arguments among them (told apart by the bits the memo keys on) and
the raw ``expfun._closed_form`` evaluations the memo let through.  The memo
is emptied before each workload's first pass, so that pass starts cold.

Then, per op of the pass: the defect vectors the ``DefectFamily`` builders
return (failed points not counted); the packs made from terms, calls of
``expfun.pack_terms`` (``pack`` and the defect builders make every pack
through it), and the rows they hold; the kind tables built for the kernels,
calls of ``expfun._kind_table`` (a pack builds its table once, on first use;
a ``select`` slice cuts its parent's); the term validations (calls of
``expfun._term``, the one validator, which an ``ExpTerm`` runs too), the
``PiecewiseExpFunction.__init__`` runs and the scalar ``expfun.inner`` calls, under every name a module imported it
as; the calls of the three matops functions that take an SVD
(``is_singular``, ``min_singular_value`` and ``opnorm``) and the matrices
passed to them, a stack counting each of its matrices; the passes of the
resolvent's array build, ``expfun.half_plane_resolvent``; the merges
of a build's terms, calls of ``expfun.canonical_terms``; the exact
moduli the scans take, the elements of the ``np.hypot`` calls made in
``psocheck``; the calls of the closed-form 2 x 2 kernels that solve and
test every S(mu), ``matops.solve_2x2``, ``second_unknown_2x2`` and
``is_singular_2x2``; the batches mapped through the boundary maps, calls of
``triplets.boundary_images``, and the functions or rows they map; the
pack slices, calls of ``expfun.select`` under every name it is imported
as; and the table lookups of the defect families, calls of
``triplets.DefectFamily._fill``.  The counts
depend on no timing and no hardware.  The modules under ``bench/`` are
imported, never modified.

    python3 tools/closed_form_counts.py
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave bench/ as it is checked out
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

import numpy as np  # noqa: E402

from psokit import expfun, matops, models, psocheck, triplets  # noqa: E402

SEED = 7
PASSES = ("first", "second")
#: modules that hold a name for expfun.inner
INNER_NAMES = (expfun, triplets, models, psocheck)
#: modules that hold a name for expfun.select
SELECT_NAMES = (expfun, triplets)
#: the matops functions that take an SVD of each matrix they are given
SVD_FUNCTIONS = ("is_singular", "min_singular_value", "opnorm")
#: the closed-form 2 x 2 kernels that solve and test every S(mu)
KERNELS_2X2 = ("solve_2x2", "second_unknown_2x2", "is_singular_2x2")


class _CountedNumpy:
    """numpy as a module sees it through this object, with ``np.hypot``
    counting the elements it takes into ``counts["exact moduli"]``."""

    def __init__(self, counts):
        self.counts = counts

    def hypot(self, *args, **kwargs):
        self.counts["exact moduli"] += np.broadcast(*args[:2]).size
        return np.hypot(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def _patch(patches):
    """Set each (owner, name, value) and return the list that undoes it; a
    static method is restored as one."""
    undo = [(owner, name, inspect.getattr_static(owner, name)) for owner, name, _ in patches]
    for owner, name, value in patches:
        setattr(owner, name, value)
    return undo


def main() -> None:
    counts: Counter = Counter()
    keys: set[bytes] = set()
    memo, raw, inner = expfun._poly_exp_integral, expfun._closed_form, expfun.inner
    validate = expfun._term
    init = expfun.PiecewiseExpFunction.__init__
    build_rows = triplets.DefectFamily._build_rows
    pack_terms, kind_table = expfun.pack_terms, expfun._kind_table
    images, select, fill = triplets.boundary_images, expfun.select, triplets.DefectFamily._fill

    def counted_memo(k, u, a, b):
        counts["calls"] += 1
        keys.add(expfun._argument_bits(k, u.real, u.imag, a, b))
        return memo(k, u, a, b)

    def counted_raw(*args):
        counts["evaluations"] += 1
        return raw(*args)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_build(family, zs):
        built = build_rows(family, zs)
        counts["vectors"] += sum(not isinstance(row, Exception) for row in built)
        return built

    def counted_pack(*parts):
        counts["packs"] += 1
        counts["packed rows"] += len(parts[0])
        return pack_terms(*parts)

    def counted_images(triplet, fs):
        counts["image batches"] += 1
        counts["mapped rows"] += len(fs)
        return images(triplet, fs)

    def counted_svd(fn):
        def wrapper(a, *args, **kwargs):
            counts["svd calls"] += 1
            counts["svd matrices"] += int(np.prod(np.shape(a)[:-2], dtype=int))
            return fn(a, *args, **kwargs)
        return wrapper

    resolvent, merge = expfun.half_plane_resolvent, expfun.canonical_terms

    undo = _patch([
        (expfun, "_poly_exp_integral", counted_memo),
        (expfun, "_closed_form", counted_raw),
        (expfun, "_term", counted("validations", validate)),
        (expfun.PiecewiseExpFunction, "__init__", counted("inits", init)),
        (triplets.DefectFamily, "_build_rows", counted_build),
        (expfun, "pack_terms", counted_pack),
        (expfun, "_kind_table", counted("kind tables", kind_table)),
        *((module, "inner", counted("inner", inner)) for module in INNER_NAMES
          if getattr(module, "inner", None) is inner),
        *((matops, name, counted_svd(getattr(matops, name))) for name in SVD_FUNCTIONS),
        *((module, "half_plane_resolvent", counted("passes", resolvent))
          for module in (expfun, models) if hasattr(module, "half_plane_resolvent")),
        *((module, "canonical_terms", counted("merges", merge))
          for module in (expfun, models) if hasattr(module, "canonical_terms")),
        (psocheck, "np", _CountedNumpy(counts)),
        *((matops, name, counted(name, getattr(matops, name))) for name in KERNELS_2X2),
        (triplets, "boundary_images", counted_images),
        *((module, "select", counted("selects", select)) for module in SELECT_NAMES
          if getattr(module, "select", None) is select),
        (triplets.DefectFamily, "_fill", staticmethod(counted("fills", fill))),
    ])
    try:
        # name: (width, decimals)
        columns = {"vectors": (12, 1), "packs": (10, 1), "packed rows": (17, 1),
                   "kind tables": (17, 1), "validations": (16, 1), "inits": (10, 1),
                   "inner": (10, 1), "svd calls": (14, 1), "svd matrices": (17, 1),
                   "solve_2x2": (15, 1), "second_unknown_2x2": (24, 1),
                   "is_singular_2x2": (21, 1),
                   "passes": (12, 1), "merges": (12, 2), "exact moduli": (19, 1),
                   "image batches": (19, 1), "mapped rows": (17, 1), "selects": (13, 1),
                   "fills": (11, 1)}
        print(f"{'workload':<14}{'pass':<8}{'calls':>9}{'distinct':>10}{'raw':>8}"
              + "".join(f"{name + '/op':>{w}}" for name, (w, _) in columns.items()))
        for workload in workloads.WORKLOADS:
            ops = workloads.generate(workload, SEED)
            expfun._closed_forms.clear()
            for name in PASSES:
                counts.clear()
                keys.clear()
                for op in ops:
                    workloads.run_op(op)
                print(f"{workload:<14}{name:<8}{counts['calls']:>9,}"
                      f"{len(keys):>10,}{counts['evaluations']:>8,}"
                      + "".join(f"{counts[key] / len(ops):>{w},.{d}f}"
                                for key, (w, d) in columns.items()))
    finally:
        _patch(undo)


if __name__ == "__main__":
    main()
