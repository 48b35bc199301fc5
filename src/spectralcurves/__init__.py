"""Spectral curves of finite-type constant mean curvature planes.

Hyperelliptic curves y^2 = lambda a(lambda) with reversal-real a,
their period pencils, winding invariants, isoperiodic deformations,
and the plane-stratification sandbox, plus a batch CLI.
"""

from .curve import (SpectralCurve, build_curve, curve_from_dict,
                    curve_from_json, curve_to_dict, curve_to_json,
                    homology_cycles, rotate_curve)
from .errors import (InvariantError, ResolutionError, SpectralError,
                     ValidationError)
from .grassmann import (B_map, GrPlane, gr_classify, immersion_rank,
                        plane_basis, plane_from_dict, plane_from_json,
                        plane_from_pencil, plane_to_dict, plane_to_json,
                        stratum_dimension_probe)
from .invariants import (InvariantReport, circle_map, classify, deg_f,
                         pencil_gcd, winding_arg, winding_roots)
from .periods import (DEFAULT_QUAD, PencilBasis, QuadConfig, a_periods,
                      b_periods, derived_pencil, phi_map,
                      rational_plane_distance, solve_Ba, sym_integral)
from .polyring import CPoly, reality_check, rho_star
from .whitham import (FlowAbort, WhithamTangent, attach_handle, bezout_solve,
                      constant_Q_selector, flow, handle_invariant_check,
                      rotation_selector, rotation_tangent, whitham_tangent)

__version__ = "0.1.0"

__all__ = [
    "SpectralCurve", "build_curve", "rotate_curve", "homology_cycles",
    "curve_to_dict", "curve_from_dict", "curve_to_json", "curve_from_json",
    "SpectralError", "ValidationError", "ResolutionError", "InvariantError",
    "CPoly", "rho_star", "reality_check",
    "QuadConfig", "DEFAULT_QUAD", "PencilBasis", "solve_Ba", "a_periods",
    "b_periods", "sym_integral", "derived_pencil", "phi_map",
    "rational_plane_distance",
    "InvariantReport", "classify", "pencil_gcd", "deg_f", "circle_map",
    "winding_arg", "winding_roots",
    "WhithamTangent", "whitham_tangent", "rotation_tangent", "bezout_solve",
    "rotation_selector", "constant_Q_selector", "flow", "FlowAbort",
    "attach_handle", "handle_invariant_check",
    "GrPlane", "plane_basis", "plane_from_pencil", "plane_to_dict",
    "plane_from_dict", "plane_to_json", "plane_from_json", "gr_classify",
    "stratum_dimension_probe", "B_map", "immersion_rank",
    "__version__",
]
