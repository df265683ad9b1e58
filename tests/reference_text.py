"""The term-by-term renderers: an independent route to every written term.

The library writes every format (text, LaTeX, the JSON dicts and the CLI's
JSON text) through one term walk, ``polynomials._Catalog``, which decodes
each packed key once and scales a form's numerators as it writes them.
These routes read each polynomial's exponent tuples instead, sort them in
descending graded-lex order (``sorted_terms``), write one monomial at a
time (``monomial_text``), and render a form component by component, each
quotient normalized on its own (``normalized``, as ``RationalFunction``
normalizes one, from the terms), shared denominator included.  The tests
compare the library's output against them.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from hirotaweb import DifferentialForm, MultiPoly
from hirotaweb.polynomials import Exponents, Scalar, _check_coefficients, grlex_key


def sorted_terms(p: MultiPoly) -> list[tuple[int, Exponents, Scalar]]:
    """(total degree, exponents, coefficient) per term, in descending
    graded-lex order (leading term first): a lex sort of the exponent
    tuples, then a stable sort on the degree."""
    terms = p.terms
    order = sorted(terms, reverse=True)
    order.sort(key=sum, reverse=True)
    return [(sum(exps), exps, terms[exps]) for exps in order]


def monomial_text(exps: Exponents, names: Sequence[str], latex: bool) -> str:
    parts = []
    for var, e in enumerate(exps):
        if e == 1:
            parts.append(names[var])
        elif e > 1:
            parts.append(f"{names[var]}^{{{e}}}" if latex else f"{names[var]}^{e}")
    return "".join(parts)


def poly_text(p: MultiPoly, names: Optional[Sequence[str]] = None,
              latex: bool = False) -> str:
    if p.is_zero:
        return "0"
    _check_coefficients(p.terms.values())
    names = [f"x{i + 1}" for i in range(p.n_vars)] if names is None else list(names)
    pieces: list[str] = []
    for position, (_, exps, coeff) in enumerate(sorted_terms(p)):
        mono = monomial_text(exps, names, latex)
        mag = abs(coeff)
        if latex and mag.denominator != 1:
            mag_text = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        else:
            mag_text = str(mag)
        if not mono:
            body = mag_text
        elif mag == 1:
            body = mono
        else:
            body = f"{mag_text}{mono}"
        if position == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def poly_json(p: MultiPoly) -> dict:
    _check_coefficients(p.terms.values())
    return {"nvars": p.n_vars,
            "terms": [{"c": str(c), "e": list(e)} for _, e, c in sorted_terms(p)]}


def normalized(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """num / den scaled so that both have int coefficients with joint
    content 1 and the denominator's graded-lex leading coefficient is
    positive, as ``RationalFunction`` normalizes a quotient."""
    values = [Fraction(c) for c in (*num.terms.values(), *den.terms.values())]
    scale = Fraction(lcm(*[c.denominator for c in values]), gcd(*[c.numerator for c in values]))
    if den.terms[max(den.terms, key=grlex_key)] < 0:
        scale = -scale
    return tuple(MultiPoly(p.n_vars, {e: c * scale for e, c in p.terms.items()})
                 for p in (num, den))


def rational_text(num: MultiPoly, den: MultiPoly,
                  names: Optional[Sequence[str]] = None) -> str:
    num, den = normalized(num, den)
    if den.is_constant:
        return poly_text(num * (1 / den.constant_value()), names)
    return f"({poly_text(num, names)})/({poly_text(den, names)})"


def form_text(form: DifferentialForm, names: Optional[Sequence[str]] = None) -> str:
    if not form.components:
        return "0"
    names = names or [f"x{i + 1}" for i in range(form.n_vars)]
    pieces = []
    for idx in sorted(form.components):
        body = rational_text(form.components[idx], form.den, names)
        if (" + " in body or " - " in body) and not body.startswith("("):
            body = f"({body})"
        basis = "^".join(f"d{names[i]}" for i in idx)
        pieces.append(f"{body} {basis}".strip())
    return " + ".join(pieces)


def form_json(form: DifferentialForm) -> dict:
    components = []
    for idx in sorted(form.components):
        num, den = normalized(form.components[idx], form.den)
        components.append({"idx": [i + 1 for i in idx], "num": poly_json(num),
                           "den": poly_json(den)})
    return {"degree": form.degree, "components": components}
