"""The quotient rule on a RationalFunction: an independent first-derivative route.

The library differentiates only polynomials.  First derivatives of f = P/Q
have the one numerator N_i = P_i Q - P Q_i (``webs._first_factors``), and
forms differentiate their numerators and apply the quotient rule once per
form.  This route differentiates a quotient directly and is the oracle
the tests compare those against.
"""

from hirotaweb import RationalFunction


def derivative(f: RationalFunction, var: int) -> RationalFunction:
    """Quotient rule, no reduction: (num' den - num den') / den^2."""
    return RationalFunction(f.num.derivative(var) * f.den - f.num * f.den.derivative(var),
                            f.den * f.den)
