"""Quotients of multivariate polynomials as values, kept deliberately unreduced.

A RationalFunction is read, compared, evaluated and rendered; it has no
field arithmetic.  Code that builds a new quotient works on the numerator
and denominator polynomials and wraps the result.  Multivariate gcd
extraction is never performed: equality and zero tests go through
cross-multiplication, which is all the certification work needs.
The only normalization applied is cheap and canonical: the pair is scaled so
numerator and denominator have integer coefficients with joint content 1,
and the denominator's graded-lex leading coefficient is positive.  The
scaling divides integers exactly, so both parts hold plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Optional, Sequence

from .errors import PoleError
from .polynomials import MultiPoly, Scalar, _check_coefficients, _sum_of_products, poly_text


def _content(values: Collection[Scalar]) -> tuple[int, int]:
    """(gcd of the coefficients' numerators, lcm of their denominators) of
    the values a polynomial's map keeps, packed or not (one gcd over the
    values when they are all ints); a coefficient that is not an int or a
    Fraction is refused."""
    _check_coefficients(values)
    if Fraction not in map(type, values):     # a scan at C speed
        return gcd(*values), 1
    return gcd(*[c.numerator for c in values]), lcm(*[c.denominator for c in values])


def _normalizer(num: MultiPoly, den_content: tuple[int, int],
                den_negative: bool) -> tuple[int, int]:
    """(g, m) with num * m / g and den * m / g the normalized pair: m the lcm
    and g the gcd of both parts' contents, g negated when the denominator's
    leading coefficient is negative.  The denominator enters by its content
    and sign, so a caller with one denominator for many numerators reads
    them once."""
    num_gcd, num_lcm = _content(num._coefficients())
    g, m = gcd(num_gcd, den_content[0]), lcm(num_lcm, den_content[1])
    return (-g if den_negative else g), m


def _scaled_values(values: Collection[Scalar], m: int, g: int) -> Collection[int]:
    """c * m / g for each coefficient c, where m is a multiple of every
    denominator and g divides every c * m: ints, found by exact integer
    division, the values themselves when m = g = 1."""
    if m == 1:
        return values if g == 1 else [c // g for c in values]
    return [c.numerator * (m // c.denominator) // g for c in values]


def _scaled(poly: MultiPoly, m: int, g: int) -> MultiPoly:
    """poly * m / g (``_scaled_values``).  A polynomial built packed gives a
    result held packed, at the same width, so neither is unpacked."""
    packed = poly._packed
    held = poly._terms if packed is None else packed
    scaled = dict(zip(held, _scaled_values(list(held.values()), m, g)))
    if packed is None:
        return MultiPoly(poly.n_vars, scaled, _canonical=True)
    return MultiPoly._from_packed(poly.n_vars, scaled, poly._width, poly._top)


class RationalFunction:
    """An exact quotient ``num / den`` of polynomials from one ring."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Optional[MultiPoly] = None):
        if den is None:
            den = MultiPoly.one(num.n_vars)
        num._check_ring(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        g, m = _normalizer(num, _content(den._coefficients()), den.leading_term()[1] < 0)
        if m == 1 and g == 1:
            self.num, self.den = num, den
        else:
            self.num = _scaled(num, m, g)
            self.den = _scaled(den, m, g)

    @property
    def n_vars(self) -> int:
        return self.num.n_vars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: object) -> bool:
        """Cross-multiplication equality: a/b == c/d iff a*d - c*b == 0."""
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.n_vars, other)
        if isinstance(other, MultiPoly):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return not _sum_of_products(self.n_vars, [(self.num, other.den, 1),
                                                  (other.num, self.den, -1)])

    __hash__ = None  # unreduced representatives are not canonical

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        bottom = self.den.evaluate(values)
        if not bottom:
            raise PoleError(f"denominator vanishes at {list(values)}")
        return self.num.evaluate(values) / bottom

    # -- output ----------------------------------------------------------------

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        if self.den.is_constant:
            return poly_text(self.num * (1 / self.den.constant_value()), names)
        return f"({poly_text(self.num, names)})/({poly_text(self.den, names)})"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"RationalFunction({self.text()!r})"
