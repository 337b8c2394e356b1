"""Tour of the exact piecewise-exponential algebra.

Every function handled by pso-kit is a finite sum of terms
c * x**k * exp(s*x) on an interval, so inner products, boundary values,
derivatives, and the free-momentum resolvent all evaluate in closed form.
A composite Gauss-Legendre quadrature provides an independent cross-check.
"""

from psokit import (
    PiecewiseExpFunction,
    free_resolvent,
    inner,
    inner_quadrature,
    norm,
)
from psokit.expfun import NEG_INF, POS_INF, resolvent_residual

# exp(x) on the negative half line and exp(-x) on the positive one
left = PiecewiseExpFunction.single(1.0, NEG_INF, 0.0, 1.0)
right = PiecewiseExpFunction.single(1.0, 0.0, POS_INF, -1.0)

print("closed-form inner products")
print("  (left, left)   =", inner(left, left), " (exact 1/2)")
print("  (left, right)  =", inner(left, right), " (disjoint supports)")
print("  ||exp(-|x|)||  =", norm(left + right))

osc = PiecewiseExpFunction.single(1.0, 0.0, POS_INF, -1 + 3j)
print("\noscillatory closed form vs quadrature oracle")
print("  closed form  =", inner(osc, right), " (exact 1/(2-3i))")
print("  quadrature   =", inner_quadrature(osc, right, 1e-10))

jumpy = left - right
print("\none-sided limits at the origin (a jump is allowed there)")
print("  f(0-) =", jumpy.limit(0.0, "-"), "  f(0+) =", jumpy.limit(0.0, "+"))

print("\nunitary transforms preserve the inner product")
f, g = left + right, osc
for name, tf, tg in [
    ("modulation", f.modulate(0.7), g.modulate(0.7)),
    ("translation", f.translate(1.5), g.translate(1.5)),
    ("dyadic dilation", f.dilate(), g.dilate()),
]:
    print(f"  {name:16s} drift = {abs(inner(tf, tg) - inner(f, g)):.2e}")

print("\nfree momentum resolvent g = (i d/dx - z)^(-1) gamma")
gamma = PiecewiseExpFunction.single(2.0, 0.0, POS_INF, -1.0)
for z in (0.5 + 1j, 1j, -1j):
    g = free_resolvent(z, gamma)
    print(f"  z = {z}:  {len(g.terms)} terms, "
          f"residual of (i d/dx - z) g = gamma: {resolvent_residual(z, gamma, g):.2e}")

# resonances leave the pure-exponential algebra gracefully: at z = -i the
# input exponent matches the homogeneous solution and a factor x appears
res = free_resolvent(-1j, gamma)
powers = sorted({t.power for t in res.terms})
print("  monomial powers in the z = -i resolvent:", powers)

print("\nJSON round trip")
blob = (left + 0.5j * right).to_json_obj()
print("  first term:", blob[0])
print("  round trip equal:", PiecewiseExpFunction.from_json_obj(blob) == left + 0.5j * right)
