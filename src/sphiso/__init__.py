"""Finite, exactly computable models of Toeplitz operators for spherical
isometries: the circle symbol calculus with finite-rank corrections, the
sphere and bidisc models, weighted Hardy spaces, and spectral certificates,
plus the named checks that verify the governing identities.
"""

__version__ = "0.1.0"

from .circle_calculus import (
    ToeplitzElement,
    adjoint,
    commutant_character,
    cross_section_isometry,
    finite_rank,
    identity,
    is_toeplitz,
    make_toeplitz,
    mul,
    phi_map,
    project_phi,
    semicommutator,
    symbol_map,
    toeplitz_matrix,
    truncation,
    truncation_norm,
    verify_averaging_identities,
)
from .errors import (
    ConditioningError,
    OnCurveError,
    InvariantError,
    PreconditionError,
    ResourceLimitError,
    UsageError,
)
from .hardy_measures import CircleMeasure, brown_halmos_residual, onb, truncated_toeplitz
from .polydisc import (
    TensorElement,
    gamma,
    gamma_equation_residual,
    scaled_isometry_check,
    tensor_adjoint,
    tensor_mul,
)
from .spectra import (
    convex_bound_check,
    hartman_wintner_check,
    numerical_range_support,
    spectrum_membership,
)
from .symbols import LaurentPoly, conv_hull, sup_norm, winding
from .szego import (
    SphereSymbol,
    defect_report,
    fixed_point_residual,
    sphere_moment,
    szego_tuple,
    toeplitz_graded,
)

__all__ = [
    "__version__",
    "ToeplitzElement",
    "adjoint",
    "commutant_character",
    "cross_section_isometry",
    "finite_rank",
    "identity",
    "is_toeplitz",
    "make_toeplitz",
    "mul",
    "phi_map",
    "project_phi",
    "semicommutator",
    "symbol_map",
    "toeplitz_matrix",
    "truncation",
    "truncation_norm",
    "verify_averaging_identities",
    "ConditioningError",
    "OnCurveError",
    "InvariantError",
    "PreconditionError",
    "ResourceLimitError",
    "UsageError",
    "CircleMeasure",
    "brown_halmos_residual",
    "onb",
    "truncated_toeplitz",
    "TensorElement",
    "gamma",
    "gamma_equation_residual",
    "scaled_isometry_check",
    "tensor_adjoint",
    "tensor_mul",
    "convex_bound_check",
    "hartman_wintner_check",
    "numerical_range_support",
    "spectrum_membership",
    "LaurentPoly",
    "conv_hull",
    "sup_norm",
    "winding",
    "SphereSymbol",
    "defect_report",
    "fixed_point_residual",
    "sphere_moment",
    "szego_tuple",
    "toeplitz_graded",
]
