"""Per-layer metrics of the traced run: which span or counter feeds each one.

Layers are the library modules.  A metric whose span was never wrapped
(because the public name no longer exists) is reported as absent; one whose
span exists but did not run in the workload reads 0.
"""

from __future__ import annotations

from fractions import Fraction


def _mul_counts(args: tuple, result) -> dict:
    a, b = args[0], args[1]
    other = len(b.terms) if hasattr(b, "terms") else 1
    coeffs = result.terms.values()
    return {"term_pairs": len(a.terms) * other,
            "out_coeffs": len(coeffs),
            "fraction_coeffs": sum(type(c) is Fraction for c in coeffs)}


COUNTERS = {
    "polynomials.MultiPoly.mul": _mul_counts,
    "polynomials.MultiPoly.evaluate": lambda args, result: {"terms": len(args[0].terms)},
    "interpolation.signed_minors": lambda args, result: {
        "minor_terms": sum(len(m.terms) for m in result)},
    "webs.verify_hirota": lambda args, result: {"triples": len(result.checks)},
    "cli.render": lambda args, result: {"output_bytes": len(result.encode())},
}

SELF_S = ("self_s", "s")
CALLS = ("calls", "count")

# (metric name, span name, field in the span's totals, unit)
METRICS = [
    ("polynomials.mul.calls", "polynomials.MultiPoly.mul", *CALLS),
    ("polynomials.mul.self_s", "polynomials.MultiPoly.mul", *SELF_S),
    ("polynomials.mul.term_pairs", "polynomials.MultiPoly.mul", "term_pairs", "count"),
    ("polynomials.mul.out_coeffs", "polynomials.MultiPoly.mul", "out_coeffs", "count"),
    ("polynomials.add.calls", "polynomials.MultiPoly.add", *CALLS),
    ("polynomials.add.self_s", "polynomials.MultiPoly.add", *SELF_S),
    ("polynomials.derivative.calls", "polynomials.MultiPoly.derivative", *CALLS),
    ("polynomials.derivative.self_s", "polynomials.MultiPoly.derivative", *SELF_S),
    ("polynomials.evaluate.calls", "polynomials.MultiPoly.evaluate", *CALLS),
    ("polynomials.evaluate.self_s", "polynomials.MultiPoly.evaluate", *SELF_S),
    ("polynomials.evaluate.terms", "polynomials.MultiPoly.evaluate", "terms", "count"),
    ("polynomials.determinant.self_s", "polynomials.determinant", *SELF_S),
    ("polynomials.maximal_minors.self_s", "polynomials.maximal_minors", *SELF_S),
    ("ratfunc.init.calls", "ratfunc.RationalFunction.init", *CALLS),
    ("ratfunc.init.self_s", "ratfunc.RationalFunction.init", *SELF_S),
    ("forms.wedge.calls", "forms.DifferentialForm.wedge", *CALLS),
    ("forms.wedge.self_s", "forms.DifferentialForm.wedge", *SELF_S),
    ("forms.exterior_derivative.self_s", "forms.DifferentialForm.exterior_derivative", *SELF_S),
    ("forms.scale.self_s", "forms.DifferentialForm.scale", *SELF_S),
    ("forms.eq.self_s", "forms.DifferentialForm.eq", *SELF_S),
    ("forms.to_json.self_s", "forms.DifferentialForm.to_json", *SELF_S),
    ("interpolation.signed_minors.self_s", "interpolation.signed_minors", *SELF_S),
    ("interpolation.highest_coefficients.calls", "interpolation.highest_coefficients", *CALLS),
    ("interpolation.highest_coefficients.self_s", "interpolation.highest_coefficients", *SELF_S),
    ("interpolation.solve_oracle.self_s", "interpolation.solve_oracle", *SELF_S),
    ("interpolation.cauchy_interpolant.self_s", "interpolation.cauchy_interpolant", *SELF_S),
    ("interpolation.interpolation_check.self_s", "interpolation.interpolation_check", *SELF_S),
    ("interpolation.minor_terms", "interpolation.signed_minors", "minor_terms", "count"),
    ("webs.build_solution.self_s", "webs.build_solution", *SELF_S),
    ("webs.verify_hirota.self_s", "webs.verify_hirota", *SELF_S),
    ("webs.verify_hirota.triples", "webs.verify_hirota", "triples", "count"),
    ("webs.flatness_check.self_s", "webs.flatness_check", *SELF_S),
    ("webs.structural_properties.self_s", "webs.structural_properties", *SELF_S),
    ("cli.run.self_s", "cli.run", *SELF_S),
    ("cli.render.self_s", "cli.render", *SELF_S),
    ("cli.output_bytes", "cli.render", "output_bytes", "bytes"),
]

# Share of MultiPoly product coefficients that are Fraction objects, over
# the base count polynomials.mul.out_coeffs.
FRACTION_SHARE = "polynomials.mul.fraction_coeff_share"


def layer_values(totals: dict, wrapped: set) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one traced pass; absent spans are left out."""
    out = {}
    for metric, span, field, unit in METRICS:
        if span in wrapped:
            out[metric] = (totals.get(span, {}).get(field, 0), unit)
    mul = totals.get("polynomials.MultiPoly.mul", {})
    if "polynomials.MultiPoly.mul" in wrapped:
        base = mul.get("out_coeffs", 0)
        out[FRACTION_SHARE] = (mul.get("fraction_coeffs", 0) / base if base else 0.0, "ratio")
    return out
