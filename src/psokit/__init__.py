"""pso-kit: numerical certification toolkit for symmetric-operator extension theory.

The package is organized around a closed-form algebra of piecewise exponential functions
(:mod:`psokit.expfun`), a small dense-matrix kernel (:mod:`psokit.matops`), boundary
triplets and characteristic functions (:mod:`psokit.triplets`), concrete operator models
(:mod:`psokit.models`) and the certification battery (:mod:`psokit.psocheck`), with every
threshold defined once, in :mod:`psokit.tolerances`.  The ``pso-kit`` command line
(:mod:`psokit.cli`) drives scenario files.
"""

__version__ = "0.1.0"

from .expfun import (
    ExpTerm,
    PiecewiseExpFunction,
    free_resolvent,
    inner,
    inner_quadrature,
    norm,
)
from .matops import (
    KreinBlockOperator,
    SubspaceBasis,
    WanderingReport,
    cayley,
    interspherical,
    inverse_cayley,
    is_singular,
    random_krein_unitary,
    wandering_check,
)
from .models import (
    HaarSystem,
    MomentumModel,
    NonlocalModel,
    ShiftModel,
    haar_gram,
    momentum_eigen_test,
    restriction_pairing,
    shift_cayley_identity,
    shift_defect,
    similarity_conjugation_check,
    weyl_relation_check,
)
from .psocheck import (
    Certificate,
    CheckResult,
    Grid,
    SpectrumClass,
    classify_spectrum,
    constancy_scan,
    inclusion_scan,
    orthogonality_scan,
    pso_certificate,
)
from .triplets import (
    BoundaryFunctional,
    BoundaryTriplet,
    DefectFamily,
    change_of_basis,
    char_function,
    decompose,
    defect_triplet,
    green_residual,
    triplet_convert,
)

__all__ = [
    "BoundaryFunctional",
    "BoundaryTriplet",
    "Certificate",
    "CheckResult",
    "DefectFamily",
    "ExpTerm",
    "Grid",
    "HaarSystem",
    "KreinBlockOperator",
    "MomentumModel",
    "NonlocalModel",
    "PiecewiseExpFunction",
    "ShiftModel",
    "SpectrumClass",
    "SubspaceBasis",
    "WanderingReport",
    "cayley",
    "change_of_basis",
    "char_function",
    "classify_spectrum",
    "constancy_scan",
    "decompose",
    "defect_triplet",
    "free_resolvent",
    "green_residual",
    "haar_gram",
    "inclusion_scan",
    "inner",
    "inner_quadrature",
    "interspherical",
    "inverse_cayley",
    "is_singular",
    "momentum_eigen_test",
    "norm",
    "orthogonality_scan",
    "pso_certificate",
    "random_krein_unitary",
    "restriction_pairing",
    "shift_cayley_identity",
    "shift_defect",
    "similarity_conjugation_check",
    "triplet_convert",
    "wandering_check",
    "weyl_relation_check",
    "__version__",
]
