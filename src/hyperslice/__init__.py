"""Hyperplane sections of the unit cube tangent to a central ball.

Volumes by two independent exact routes (signed vertex sums and an
oscillatory sinc-product integral), a Monte Carlo oracle, a multistart
maximizer over directions reproducing the diagonal extremal property, and
numeric sign certificates for the edge-cut stationarity quadratic.
"""

from .certificates import (
    CertificateReport,
    QuadCoeffs,
    certify_signs_rigorous,
    default_y_grid,
    quad_coeffs,
    quad_roots,
    sign_certificates,
)
from .errors import (
    CapacityError,
    CellCrossingError,
    ConvergenceError,
    HypersliceError,
    InvalidInputError,
    NonintegrableTailError,
    RegimeError,
)
from .geometry import (
    CutClassification,
    CutKind,
    SectionSpec,
    VolumeResult,
    classify_cut,
    coordinate_sum,
    diagonal_section_spec,
    make_section_spec,
)
from .integral import (
    QuadratureConfig,
    adaptive_panel_integral,
    make_quadrature_config,
    section_volume_integral,
    sinc_product_integrand,
    tail_bound,
)
from .maximizer import (
    OptimizerReport,
    closed_form_max,
    decay_inequality_check,
    lagrangian_gradient,
    maximize_section_volume,
    pair_condition_check,
)
from .montecarlo import mc_halfspace_volume, mc_section_volume
from .vertexsum import (
    halfspace_volume,
    section_from_halfspace_derivative,
    section_volume_vertex_sum,
    star_volume,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CellCrossingError",
    "CertificateReport",
    "ConvergenceError",
    "CutClassification",
    "CutKind",
    "HypersliceError",
    "InvalidInputError",
    "NonintegrableTailError",
    "OptimizerReport",
    "QuadCoeffs",
    "QuadratureConfig",
    "RegimeError",
    "SectionSpec",
    "VolumeResult",
    "adaptive_panel_integral",
    "certify_signs_rigorous",
    "classify_cut",
    "closed_form_max",
    "coordinate_sum",
    "decay_inequality_check",
    "default_y_grid",
    "diagonal_section_spec",
    "halfspace_volume",
    "lagrangian_gradient",
    "make_quadrature_config",
    "make_section_spec",
    "maximize_section_volume",
    "mc_halfspace_volume",
    "mc_section_volume",
    "pair_condition_check",
    "quad_coeffs",
    "quad_roots",
    "section_from_halfspace_derivative",
    "section_volume_integral",
    "section_volume_vertex_sum",
    "sign_certificates",
    "sinc_product_integrand",
    "star_volume",
    "tail_bound",
]
