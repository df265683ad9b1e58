"""Second routes for polynomial arithmetic and determinants: test oracles.

``product_terms`` is the oracle for ``MultiPoly.__mul__``.  The library
multiplies small operands with exponent-tuple keys and large ones with
packed-int keys.  This route uses neither: it sums every term pair's
coefficient as a Fraction under the componentwise sum of the exponent
tuples, written without any of the library's helpers.

``_det_bareiss`` is the oracle for ``determinant`` and ``maximal_minors``,
which expand memoized cofactors of a polynomial matrix at every size.  It
eliminates fraction-free instead, dividing each 2 x 2 update exactly by the
previous pivot with ``exact_div``, ring long division.  This is the one
place where polynomial division lives.  On constant polynomials it is also
an oracle for the library's numeric minors, which eliminate fraction-free
over the ints but share no code with it.
"""

import operator
from fractions import Fraction

from hirotaweb import MultiPoly
from hirotaweb.polynomials import Exponents, Matrix, Scalar, _tighten, grlex_key


def product_terms(p: MultiPoly, q: MultiPoly) -> dict:
    """The nonzero terms of p * q."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}


def exact_div(dividend: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """Divide in the polynomial ring, requiring a zero remainder.

    Because the quotient is known to exist, long division against the
    divisor's graded-lex leading term alone succeeds; a failed exponent or
    a leftover remainder means the division was not exact.
    """
    dividend._check_ring(divisor)
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if dividend.is_zero:
        return MultiPoly.zero(dividend.n_vars)
    if divisor.is_constant:
        return dividend * (1 / divisor.constant_value())
    lead_exps, lead_coeff = divisor.leading_term()
    remainder = dict(dividend.terms)
    quotient: dict[Exponents, Scalar] = {}
    n = dividend.n_vars
    while remainder:
        exps = max(remainder, key=grlex_key)
        coeff = remainder[exps]
        q_exps = tuple(map(operator.sub, exps, lead_exps))
        if any(e < 0 for e in q_exps):
            raise ArithmeticError("leading term does not divide remainder")
        q_coeff = _tighten(Fraction(coeff) / lead_coeff)
        quotient[q_exps] = q_coeff
        for d_exps, d_coeff in divisor.terms.items():
            key = tuple(map(operator.add, q_exps, d_exps))
            cur = remainder.get(key, 0) - q_coeff * d_coeff
            if cur:
                remainder[key] = cur
            else:
                remainder.pop(key, None)
    return MultiPoly(n, quotient, _canonical=True)


def _det_bareiss(m: Matrix) -> MultiPoly:
    """Fraction-free elimination of a polynomial matrix: every division is
    exact in the ring."""
    n = len(m)
    a = [list(row) for row in m]
    n_vars = a[0][0].n_vars
    sign = 1
    prev = MultiPoly.one(n_vars)
    for k in range(n - 1):
        if a[k][k].is_zero:
            for i in range(k + 1, n):
                if not a[i][k].is_zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(n_vars)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = pivot * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = exact_div(numerator, prev)
            a[i][k] = MultiPoly.zero(n_vars)
        prev = pivot
    result = a[n - 1][n - 1]
    return result if sign > 0 else -result
