"""Fixed reference work that measures how fast the host runs right now.

On a shared host the same op can take twice as long from one second to the
next (other tenants load the caches and cores), in phases that last seconds
to minutes.  ``probe`` runs a fixed piece of pure-Python work of the kind
psokit does (small frozen dataclasses, tuple-keyed dict merges, complex
exponentials, sorting) without calling psokit.  The worker times it between
ops and scales each op time by ``PROBE_REF_S / probe time``, so the timings
report the program's speed at one reference host speed.

Never change this function or ``PROBE_REF_S``: results from before and after
such a change are not comparable.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from time import perf_counter

#: probe time that defines the reference host speed (about its median on
#: the two-core Xeon host where the benchmark was defined)
PROBE_REF_S = 0.02


@dataclass(frozen=True)
class _Term:
    coeff: complex
    lo: float
    hi: float
    exponent: complex

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))


def probe() -> float:
    """Seconds taken by the reference work."""
    start = perf_counter()
    total = 0j
    for r in range(40):
        acc = {}
        for i in range(60):
            key = (float(i % 7), float(i % 5 + 7), complex(-0.5, i % 3))
            acc[key] = acc.get(key, 0j) + cmath.exp(complex(0.01 * i, 0.02 * r))
        terms = sorted((_Term(c, *key) for key, c in acc.items()),
                       key=lambda t: (t.lo, t.hi, t.exponent.real, t.exponent.imag))
        for a in terms:
            for b in terms[:8]:
                u = a.exponent + b.exponent.conjugate()
                total += (a.coeff * b.coeff.conjugate()
                          * (cmath.exp(u * a.hi) - cmath.exp(u * a.lo)) / u)
    return perf_counter() - start
