"""Quotients of multivariate polynomials, kept deliberately unreduced.

Multivariate gcd extraction is never performed: equality and zero tests go
through cross-multiplication, which is all the certification work needs.
The only normalization applied is cheap and canonical: the pair is scaled so
numerator and denominator have integer coefficients with joint content 1,
and the denominator's graded-lex leading coefficient is positive.  The
scaling divides integers exactly, so both parts hold plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .errors import PoleError
from .polynomials import MultiPoly, Scalar, poly_text


def _joint_content(num: MultiPoly, den: MultiPoly) -> tuple[int, int]:
    """(gcd of all numerators, lcm of all denominators) of both parts."""
    g = 0
    m = 1
    for poly in (num, den):
        for c in poly.terms.values():
            g = gcd(g, c.numerator)
            m = lcm(m, c.denominator)
    return g, m


def _scaled(poly: MultiPoly, m: int, g: int) -> MultiPoly:
    """poly * m / g, where m is a multiple of every coefficient's denominator
    and g divides every coefficient times m: the result's coefficients are
    ints, found by exact integer division."""
    if m == 1:
        terms = {e: c // g for e, c in poly.terms.items()}
    else:
        terms = {e: c.numerator * (m // c.denominator) // g
                 for e, c in poly.terms.items()}
    return MultiPoly(poly.n_vars, terms, _canonical=True)


class RationalFunction:
    """An exact quotient ``num / den`` of polynomials from one ring."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Optional[MultiPoly] = None):
        if den is None:
            den = MultiPoly.one(num.n_vars)
        num._check_ring(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        g, m = _joint_content(num, den)
        if den.leading_term()[1] < 0:
            g = -g
        if m == 1 and g == 1:
            self.num, self.den = num, den
        else:
            self.num = _scaled(num, m, g)
            self.den = _scaled(den, m, g)

    @classmethod
    def from_scalar(cls, n_vars: int, value: Scalar) -> "RationalFunction":
        return cls(MultiPoly.const(n_vars, value))

    @property
    def n_vars(self) -> int:
        return self.num.n_vars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    # -- field arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value: Union["RationalFunction", MultiPoly, Scalar],
                n_vars: int) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, MultiPoly):
            return RationalFunction(value)
        return RationalFunction.from_scalar(n_vars, value)

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other, self.n_vars)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self.__add__(self._coerce(other, self.n_vars).__neg__())

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other, self.n_vars).__sub__(self)

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other, self.n_vars)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other, self.n_vars)
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other, self.n_vars).__truediv__(self)

    def __eq__(self, other: object) -> bool:
        """Cross-multiplication equality: a/b == c/d iff a*d - c*b == 0."""
        if isinstance(other, (MultiPoly, int, Fraction)):
            other = self._coerce(other, self.n_vars)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero

    __hash__ = None  # unreduced representatives are not canonical

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        bottom = self.den.evaluate(values)
        if not bottom:
            raise PoleError(f"denominator vanishes at {list(values)}")
        return self.num.evaluate(values) / bottom

    def eliminate(self, assignments) -> "RationalFunction":
        """Fix variables to numbers in both parts, dropping their slots."""
        return RationalFunction(self.num.eliminate(assignments),
                                self.den.eliminate(assignments))

    # -- output ----------------------------------------------------------------

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        if self.den.is_constant:
            return poly_text(self.num * (1 / self.den.constant_value()), names)
        return f"({poly_text(self.num, names)})/({poly_text(self.den, names)})"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"RationalFunction({self.text()!r})"
