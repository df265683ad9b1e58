"""A plain tuple-keyed polynomial product: the oracle for ``MultiPoly.__mul__``.

The library multiplies small operands with exponent-tuple keys and large
ones with packed-int keys.  This route uses neither: it sums every term
pair's coefficient as a Fraction under the componentwise sum of the
exponent tuples, written without any of the library's helpers.
"""

from fractions import Fraction

from hirotaweb import MultiPoly


def product_terms(p: MultiPoly, q: MultiPoly) -> dict:
    """The nonzero terms of p * q."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}
