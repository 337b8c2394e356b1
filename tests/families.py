"""Defect families for tests whose vectors are built one point at a time."""

from psokit.expfun import PiecewiseExpFunction, pack
from psokit.triplets import DefectFamily, each_point


def pointwise_family(fn, triplet) -> DefectFamily:
    """The family whose vector at z is the function ``fn(z)``: a batch maps
    fn over its points, keeps the error it raised at each, and packs the
    vectors once, a failed point's row empty."""
    def build(zs):
        fs = each_point(fn, zs)
        errors = [f if isinstance(f, Exception) else None for f in fs]
        return pack([PiecewiseExpFunction() if e else f for f, e in zip(fs, errors)]), errors

    return DefectFamily(build, triplet)
