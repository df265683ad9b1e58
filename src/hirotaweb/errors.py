"""Exception types shared across the library.

Every error raised on purpose derives from HirotaWebError, so callers can
catch the library's failures without swallowing genuine bugs.  Arithmetic
on mismatched rings raises DimensionError; invalid web parameters raise
WebSpecError; a float arriving where an exact number is required raises
InexactNumberError; the remaining types mark the mathematically degenerate
situations (non-generic data) that the construction excludes.
"""

from __future__ import annotations


class HirotaWebError(Exception):
    """Base class for all library errors."""


class DimensionError(HirotaWebError, ValueError):
    """Operands live in different polynomial rings, or an index is out of range."""


class WebSpecError(HirotaWebError, ValueError):
    """Invalid web parameters: k + l + 1 != n, repeated nodes, bad degrees."""


class InexactNumberError(HirotaWebError, TypeError):
    """A float was passed where the library requires an exact number.

    Floats carry binary approximations (0.1 is 3602879701896397/2^55), so
    they are refused instead of silently converted.
    """


class DegenerateInterpolantError(HirotaWebError, ArithmeticError):
    """The interpolation data admits no normalized rational interpolant.

    Raised when Q(0) vanishes at the given point or the linear system
    F(node_i) = value_i is singular (an unattainable-point configuration).
    """


class PoleError(HirotaWebError, ZeroDivisionError):
    """Evaluation at a point where a denominator vanishes."""


class DegenerateRestrictionError(HirotaWebError, ArithmeticError):
    """Fixing a coordinate made the solution's denominator vanish identically."""
