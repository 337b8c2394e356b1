"""Matrix kernel: Cayley transforms, wandering subspaces, and the
linear fractional transform attached to a Krein-unitary block operator."""

import math

import numpy as np

from psokit import (
    KreinBlockOperator,
    SubspaceBasis,
    cayley,
    interspherical,
    inverse_cayley,
    random_krein_unitary,
    wandering_check,
)
from psokit.matops import opnorm

rng = np.random.default_rng(0)

print("Cayley transform: hermitian <-> unitary without eigenvalue 1")
g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
a = (g + g.conj().T) / 2
u = cayley(a)
print("  ||U*U - I||            =", opnorm(u.conj().T @ u - np.eye(5)))
print("  ||inverse_cayley(U)-A|| =", opnorm(inverse_cayley(u) - a))

print("\nwandering subspace detection on a twisted cyclic shift")
d = 8
shift = np.zeros((d, d), dtype=complex)
for k in range(d - 1):
    shift[k + 1, k] = 1.0
shift[0, d - 1] = -1.0
report = wandering_check(shift, SubspaceBasis.coordinate(d, 0), n_max=d)
print("  defects ||L* U^n L|| for n=1..d:",
      [f"{v:.0e}" for v in report.defect_per_n])
print("  first violation at n =", report.first_violation,
      "(the orbit wraps around after a full period)")

print("\ninterspherical linear fractional transform")
r = math.log(2)
k_hyp = KreinBlockOperator([[math.cosh(r)]], [[math.sinh(r)]],
                           [[math.sinh(r)]], [[math.cosh(r)]])
print("  hyperbolic fixture sends 0 to tanh(ln 2) =", interspherical(k_hyp, 0.0))

print("  contraction preservation and the composition law on random data:")
worst_norm, worst_comp = 0.0, 0.0
for _ in range(50):
    m = int(rng.integers(1, 4))
    k1, k2 = random_krein_unitary(m, rng), random_krein_unitary(m, rng)
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    z *= 0.9 / max(opnorm(z), 1e-9)
    phi = np.atleast_2d(interspherical(k1, z))
    worst_norm = max(worst_norm, opnorm(phi))
    lhs = np.atleast_2d(interspherical(KreinBlockOperator.from_matrix(k2.matrix @ k1.matrix), z))
    rhs = np.atleast_2d(interspherical(k2, phi))
    worst_comp = max(worst_comp, opnorm(lhs - rhs))
print(f"  max ||Phi_K(Z)||            = {worst_norm:.12f}  (never above 1)")
print(f"  max composition-law defect  = {worst_comp:.2e}")
