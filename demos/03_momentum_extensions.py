"""The momentum operator restricted at one point, and its extensions.

The restriction of i d/dx to functions vanishing at the origin has
one-dimensional defect subspaces supported on opposite half lines, so its
characteristic function vanishes identically; its proper extensions are
parametrized by the boundary condition T f(0-) = f(0+), all real-spectrum
extensions are similar to each other, and the operator satisfies the Weyl
commutation relation exactly.
"""

import cmath
import math

import numpy as np

from psokit import (
    MomentumModel,
    PiecewiseExpFunction,
    char_function,
    classify_spectrum,
    inner,
    momentum_eigen_test,
    pso_certificate,
    similarity_conjugation_check,
    weyl_relation_check,
)
from psokit.expfun import NEG_INF, POS_INF

model = MomentumModel()

print("defect vectors are one-sided exponentials")
for z in (1j, -1j, 1 + 2j):
    f = model.defects(z)
    lo, hi = f.support()
    print(f"  z = {z}: support ({lo}, {hi}), exponent {f.terms[0].exponent}")

print("\nupper and lower defect subspaces are orthogonal at machine zero:")
print("  (f_2i, f_-3i) =", inner(model.defects(2j), model.defects(-3j)))

print("\ncharacteristic function vanishes identically:")
print("  theta(lambda) =",
      [char_function(model.triplet, model.defects, z) for z in (1j, 5j, -3 + 0.1j)])

cert = pso_certificate(model)
print("\naggregate certificate:", cert.overall,
      {c.check_id: f"{c.max_residual:.1e}" for c in cert.checks})

print("\nspectrum of the extension T f(0-) = f(0+):")
for t in (1.0, 0.0, 0.5):
    label = classify_spectrum([[0.0]], [[t]])
    print(f"  T = {t}: {label}  "
          f"(upper eigenvalues exist: {momentum_eigen_test([[t]], 2j)})")

print("\nreal-spectrum extensions are similar: U_F A_T1 = A_T2 U_F")
rng = np.random.default_rng(1)
for t1, t2 in [(1.0, cmath.exp(1j * math.pi / 3)), (2.0, 1.0)]:
    samples = []
    for _ in range(3):
        v = complex(rng.normal(), rng.normal())
        samples.append(
            PiecewiseExpFunction.single(v, NEG_INF, 0.0, rng.uniform(0.5, 2))
            + PiecewiseExpFunction.single(t1 * v, 0.0, POS_INF, -rng.uniform(0.5, 2)))
    res = similarity_conjugation_check([[t1]], [[t2]], samples)
    print(f"  T1 = {t1:.3f}, T2 = {t2:.3f}: intertwining residual {res:.2e}")

print("\nWeyl commutation relation V_t A V_-t = A - t:")
f = (PiecewiseExpFunction.single(1.0, NEG_INF, 0.0, 1.0)
     + PiecewiseExpFunction.single(1.0, 0.0, POS_INF, -1.0))
for t in (-2.0, 0.5, 1.0):
    print(f"  t = {t}: term-level distance {weyl_relation_check(t, f):.1e}")
