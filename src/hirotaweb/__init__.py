"""Exact rational solutions of the dispersionless Hirota system.

The library builds the solutions from Cauchy-interpolation determinants and
certifies their properties in exact rational arithmetic: residual vanishing
over all index triples, which is also the Frobenius integrability of the
annihilating one-form pencil (``veronese_form`` states the identity), and
the flatness dichotomy of the underlying Veronese web.
"""

from .errors import (DegenerateInterpolantError, DegenerateRestrictionError,
                     DimensionError, HirotaWebError, InexactNumberError,
                     PoleError, WebSpecError)
from .forms import DifferentialForm, LambdaForm
from .interpolation import (CauchyInterpolant, WebSpec, cauchy_interpolant,
                            evaluate_interpolant, highest_coefficients,
                            interpolant_matches_oracle, interpolation_check,
                            random_numeric_instances, row_matrix,
                            signed_minors, solve_oracle)
from .polynomials import (MultiPoly, determinant, maximal_minors,
                          poly_from_json, poly_text, poly_to_json)
from .ratfunc import RationalFunction
from .webs import (FlatnessVerdict, HirotaSolution, Mobius, PropertyCheck,
                   TripleCheck, VerificationReport, build_solution, coframe,
                   flatness_check, hirota_residual, restrict, restricted_nodes,
                   structural_properties, transform, verify_hirota,
                   veronese_form, web_triples)

__version__ = "0.1.0"

__all__ = [
    "CauchyInterpolant", "DegenerateInterpolantError",
    "DegenerateRestrictionError", "DifferentialForm", "DimensionError",
    "FlatnessVerdict", "HirotaSolution", "HirotaWebError",
    "InexactNumberError", "LambdaForm", "Mobius", "MultiPoly",
    "PoleError", "PropertyCheck", "RationalFunction",
    "TripleCheck", "VerificationReport", "WebSpec", "WebSpecError",
    "build_solution", "cauchy_interpolant", "coframe", "determinant",
    "evaluate_interpolant", "flatness_check", "highest_coefficients",
    "hirota_residual", "interpolant_matches_oracle", "interpolation_check",
    "maximal_minors", "poly_from_json", "poly_text", "poly_to_json",
    "random_numeric_instances", "restrict", "restricted_nodes",
    "row_matrix", "signed_minors", "solve_oracle", "structural_properties",
    "transform", "verify_hirota", "veronese_form", "web_triples",
]
