"""harmap: planar harmonic mappings built by shearing convex analytic parts.

Constructs mappings ``f = h + conj(g)`` whose analytic part is convex of a
given order and whose dilatation is a prescribed monomial, verifies the
sharp coefficient, growth, covering, and area bounds satisfied by that
class, tests injectivity numerically (including an explicit symmetric
collision construction for a non-univalent family with convexity order
arbitrarily close to 1), and renders image domains as deterministic SVG.
"""

from .bounds import (
    AreaBounds,
    GrowthBounds,
    area,
    area_bounds,
    coeff_bound_a,
    coeff_bound_b,
    covering_radius,
    default_lattice,
    growth_bounds,
    verify_area_sandwich,
    verify_coeff_relation,
    verify_coeff_sharpness,
    verify_covering_consistency,
    verify_growth_consistency,
    verify_sharpness,
)
from .classcheck import (
    CurvatureReport,
    DiskGrid,
    cc_radius,
    check_membership,
    check_pbeta,
    check_theorem_b_condition,
    curvature,
    curvature_extrema,
    kaplan_min_arc_integral,
)
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    HarmapError,
    InfeasibilityError,
    NumericalError,
    OnCurveError,
    ParameterError,
    PoleError,
    SingularityError,
)
from .mappings import (
    ClassParams,
    HarmonicMapping,
    PBetaParams,
    PolyKernel,
    PowerKernel,
    family_from_spec,
    is_conjugate_symmetric,
    make_bshouty_lyzzaik,
    make_counterexample,
    make_extremal,
    make_from_h,
    make_identity,
)
from .quadrature import disk_integral, integrate_real
from .render import (
    SceneSpec,
    render_boundary_curve,
    render_image_domain,
)
from .reports import BoundReport, UnivalenceReport, dump_json
from .special import hyp2f1
from .univalence import (
    SymmetricCollision,
    feasibility_threshold,
    find_symmetric_collision,
    univalence_scan,
    winding_check,
)

__version__ = "0.1.0"

__all__ = [
    "AreaBounds", "BoundReport", "ClassParams",
    "CurvatureReport", "DiskGrid", "GrowthBounds", "HarmonicMapping",
    "PBetaParams", "PolyKernel", "PowerKernel", "SceneSpec",
    "SymmetricCollision", "UnivalenceReport",
    "HarmapError", "ParameterError", "AdmissibilityError", "InfeasibilityError",
    "DomainError", "PoleError", "NumericalError", "ConvergenceError",
    "SingularityError", "OnCurveError",
    "area", "area_bounds", "cc_radius", "check_membership", "check_pbeta",
    "check_theorem_b_condition", "coeff_bound_a", "coeff_bound_b",
    "covering_radius", "curvature", "curvature_extrema", "default_lattice",
    "disk_integral", "dump_json", "family_from_spec", "feasibility_threshold",
    "find_symmetric_collision", "growth_bounds", "hyp2f1", "integrate_real",
    "is_conjugate_symmetric", "kaplan_min_arc_integral", "make_bshouty_lyzzaik",
    "make_counterexample", "make_extremal", "make_from_h", "make_identity",
    "render_boundary_curve", "render_image_domain",
    "univalence_scan", "verify_area_sandwich", "verify_coeff_relation",
    "verify_coeff_sharpness", "verify_covering_consistency",
    "verify_growth_consistency", "verify_sharpness", "winding_check",
]
