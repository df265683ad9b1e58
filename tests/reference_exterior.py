"""The exterior algebra and the names the library does not need, as oracles.

The library keeps of the forms layer only what its routes and the
benchmark's trace reach: the witness container, wedge, the exterior
derivative (one sum of products per component) and scaling.  This module
holds the rest as plain functions over ``DifferentialForm``:

* coordinate forms, 0-forms of functions, sums, differences and negation,
  each component summed with the polynomial ``+``;
* ``quotient_rule_d``, the exterior derivative by the quotient rule
  d(w/h) = (h dw - dh ^ w)/h^2 built from the sums above and a wedge, a
  second route for the library's one sum of products per component;
* ``at``, a parameter polynomial of forms evaluated by Horner's rule on
  those sums;
* the coframe as a ``LambdaForm`` of 1-forms, a second route to the
  annihilating pencil that ``veronese_form`` writes, and its polynomial
  elements beta_m;
* ``is_degenerate_order``, ``poly_from_json``, ``degree`` and ``x_poly``,
  small readers the tests use and no library route does.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from hirotaweb import (DegenerateInterpolantError, DifferentialForm, DimensionError,
                       HirotaSolution, LambdaForm, MultiPoly, RationalFunction, WebSpec,
                       WebSpecError, signed_minors)
from hirotaweb.polynomials import _exact


# -- forms ----------------------------------------------------------------------------


def zero(n_vars: int, degree: int) -> DifferentialForm:
    return DifferentialForm(n_vars, degree)


def from_function(value, n_vars: Optional[int] = None) -> DifferentialForm:
    """A scalar, polynomial or rational function as a 0-form."""
    if isinstance(value, RationalFunction):
        return DifferentialForm(value.n_vars, 0, {(): value.num}, value.den)
    if isinstance(value, MultiPoly):
        n_vars = value.n_vars
    elif n_vars is None:
        raise DimensionError("n_vars required for a scalar 0-form")
    return DifferentialForm(n_vars, 0, {(): value})


def dx(n_vars: int, var: int) -> DifferentialForm:
    """The coordinate 1-form of the 0-based variable ``var``."""
    if not 0 <= var < n_vars:
        raise DimensionError(f"variable index {var} out of range")
    return DifferentialForm(n_vars, 1, {(var,): 1})


def _check_compatible(a: DifferentialForm, b: DifferentialForm) -> None:
    if a.n_vars != b.n_vars:
        raise DimensionError("forms over different rings")
    if a.degree != b.degree:
        raise DimensionError("forms of different degree")


def _accumulate(out: dict, idx: tuple, piece: MultiPoly) -> None:
    cur = out.get(idx)
    out[idx] = piece if cur is None else cur + piece


def add(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """a + b: over one denominator when the two share it, else over the
    product of the two."""
    _check_compatible(a, b)
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    if a.den == b.den:
        out, den = dict(a.components), a.den
        for idx, coeff in b.components.items():
            _accumulate(out, idx, coeff)
    else:
        out = {idx: c * b.den for idx, c in a.components.items()}
        for idx, coeff in b.components.items():
            _accumulate(out, idx, coeff * a.den)
        den = a.den * b.den
    return DifferentialForm(a.n_vars, a.degree, out, den)


def neg(a: DifferentialForm) -> DifferentialForm:
    return DifferentialForm(a.n_vars, a.degree, {idx: -c for idx, c in a.components.items()},
                            a.den)


def sub(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    return add(a, neg(b))


def total(forms: Sequence[DifferentialForm]) -> DifferentialForm:
    """The sum of one or more forms, left to right."""
    out = forms[0]
    for form in forms[1:]:
        out = add(out, form)
    return out


def quotient_rule_d(form: DifferentialForm) -> DifferentialForm:
    """d(f dx_I) summed over the numerators, each variable differentiating f
    and wedging in from the left with its shuffle sign; a nonconstant
    denominator h then takes the quotient rule d(w/h) = (h dw - dh^w)/h^2,
    built from ``from_function``, ``scale``, ``sub`` and ``wedge``."""
    n, degree = form.n_vars, form.degree
    out: dict = {}
    for idx, coeff in form.components.items():
        for var in range(n):
            if var in idx:
                continue
            partial = coeff.derivative(var)
            if partial.is_zero:
                continue
            position = sum(1 for i in idx if i < var)
            _accumulate(out, tuple(sorted(idx + (var,))), -partial if position % 2 else partial)
    h = form.den
    if h.is_constant:
        return DifferentialForm(n, degree + 1, out, h)
    dh = quotient_rule_d(from_function(h))
    top = sub(DifferentialForm(n, degree + 1, out).scale(h),
              dh.wedge(DifferentialForm(n, degree, form.components)))
    return DifferentialForm(n, degree + 1, top.components, h * h)


def d0(value) -> DifferentialForm:
    """The differential of a function, as a 1-form."""
    return from_function(value).exterior_derivative()


def at(pencil: LambdaForm, value) -> DifferentialForm:
    """The parameter polynomial evaluated at an exact number by Horner's rule."""
    value = _exact(value)
    coefficients = pencil.coefficients
    out = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        out = add(out.scale(value), c)
    return out


# -- the coframe ----------------------------------------------------------------------


def coframe_element(p_list: Sequence[MultiPoly], q_list: Sequence[MultiPoly],
                    m: int) -> DifferentialForm:
    """The polynomial 1-form beta_m = sum over i + j = m of Q_i dP_j - P_j dQ_i,
    a minor the order lacks being zero: Q0^2 times the normalized coframe
    element alpha_m."""
    n = p_list[0].n_vars
    pairs = [(q, p_list[m - i]) for i, q in enumerate(q_list) if 0 <= m - i < len(p_list)]
    return DifferentialForm(n, 1, {
        (v,): sum((q * p.derivative(v) - p * q.derivative(v) for q, p in pairs),
                  MultiPoly.zero(n))
        for v in range(n)})


def coframe(spec: WebSpec) -> LambdaForm:
    """The coefficient 1-forms alpha_m = beta_m / Q0^2 of the coframe, for
    numeric nodes: a multiple of the annihilating pencil."""
    if spec.is_symbolic:
        raise WebSpecError("coframes need numeric nodes")
    minors = signed_minors(spec)
    p_list, q_list = minors[:spec.k + 1], minors[spec.k + 1:]
    q0 = q_list[0]
    if q0.is_zero:
        raise DegenerateInterpolantError("denominator constant term vanishes")
    return LambdaForm([
        DifferentialForm(spec.n_vars, 1, coframe_element(p_list, q_list, m).components, q0 * q0)
        for m in range(spec.n)])


# -- small readers --------------------------------------------------------------------


def is_degenerate_order(solution: HirotaSolution) -> bool:
    """k = 0 or l = 0: the web is flat in those cases."""
    return solution.spec.k == 0 or solution.spec.l == 0


def poly_from_json(data: Mapping) -> MultiPoly:
    """The polynomial that ``poly_to_json`` wrote, read exactly: the
    constructor checks ``nvars`` and every exponent, and each coefficient
    string goes through ``_exact``, so a JSON float is refused."""
    return MultiPoly(data["nvars"], {tuple(item["e"]): item["c"] for item in data["terms"]})


def degree(poly: MultiPoly) -> int:
    """The largest total degree of a term; 0 for the zero polynomial."""
    return max((sum(e) for e in poly.terms), default=0)


def x_poly(spec: WebSpec, i: int) -> MultiPoly:
    """The coordinate x_i (1-based) as a polynomial of the spec's ring."""
    if not 1 <= i <= spec.n:
        raise DimensionError(f"coordinate index {i} out of range 1..{spec.n}")
    return MultiPoly.variable(spec.n_vars, i - 1)
