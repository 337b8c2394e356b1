"""Defect families for tests whose vectors are built one point at a time,
and the model variants that hold them."""

from psokit.expfun import PiecewiseExpFunction, pack
from psokit.models import MomentumModel
from psokit.triplets import BoundaryTriplet, DefectFamily, each_point


def pointwise_family(fn, triplet) -> DefectFamily:
    """The family whose vector at z is the function ``fn(z)``: a batch maps
    fn over its points, keeps the error it raised at each, and packs the
    vectors once, a failed point's row empty."""
    def build(zs):
        fs = each_point(fn, zs)
        errors = [f if isinstance(f, Exception) else None for f in fs]
        return pack([PiecewiseExpFunction() if e else f for f, e in zip(fs, errors)]), errors

    return DefectFamily(build, triplet)


def variant(base, name, defect=None, triplet=None):
    """``base`` with its defect vectors or its triplet swapped out; its
    family maps the vectors through its own triplet."""

    class Variant:
        adjoint_apply = staticmethod(base.adjoint_apply)

        @staticmethod
        def describe():
            return name

    Variant.triplet = triplet or base.triplet
    Variant.defects = pointwise_family(defect or base.defects, Variant.triplet)
    return Variant()


def degenerate_model():
    """The momentum model with gamma_plus for both maps, so every S(mu) is
    singular, in its family too."""
    trip = MomentumModel().triplet
    same = BoundaryTriplet(trip.gamma_plus, trip.gamma_plus, trip.witness)
    return variant(MomentumModel(), "degenerate", triplet=same)
