"""Sparse multivariate polynomials over exact rationals, and their determinants.

A polynomial in ``n_vars`` variables is a map from exponent tuples (length
``n_vars``, nonnegative ints) to nonzero exact rational coefficients; the
zero polynomial is the empty map.  All arithmetic is exact, no coefficient
is ever a float.  Terms are kept canonical: no stored zeros, and a stored
coefficient is a plain ``int`` whenever it is integral (a ``Fraction`` only
when its denominator exceeds 1).  Every operation keeps that invariant
without a type test per term pair: products, sums, differences,
negations, scalings and derivatives tighten their coefficients in the pass
that drops zeros, and eliminations scan their result for a ``Fraction``
(only a fixed value holding one can leave an integral ``Fraction`` behind)
and tighten only then.  The graded lexicographic order fixes leading terms,
text output, and JSON output.

One packed route, ``_sum_of_products``, computes sums of scaled products
sum scale * a * b, keying monomials by one packed int instead of an
exponent tuple (Kronecker substitution): variable v takes W bits at bit
offset v * W, W being the smallest width with top_a + top_b < 2**W for
every part of the sum, top a polynomial's largest exponent, so adding two
packed keys multiplies the monomials without carries.  The width is in
bits, not bytes, so that the keys of the certificates' products (up to
about ten variables, exponents below 8) stay below 2**30, where CPython
adds and hashes ints on its one-digit fast path.  Every polynomial keeps
its packed map at the width the last sum took it at; a sum that needs
another width keys that map again, one variable's field at a time over
all the keys, and packs from exponent tuples only a polynomial that holds
no map yet.  All the products of one sum collect in one map, and the
result keeps just that map, with a bound on its top (0 for a sum that
cancels): its exponent tuples are unpacked only when a caller reads
``terms``, so a product that feeds the next product, a zero test, a term
count or a leading term (ranked on the packed keys) never unpacks it, and
a sum that cancels builds no intermediate product.  Every product of two
polynomials, one-term operands included, is a sum of one, and every other
linear combination is a sum of products by the constant 1: a + b is
(a, 1, 1), (b, 1, 1), -a is (a, 1, -1) and c a is (a, 1, c).

The factored proofs of ``webs`` work on minors of the interpolation row
matrix at int nodes, which ``interpolation._block`` writes straight into
packed maps at the kernel's width for a product of two minors: every
minor is affine in each x_v (one x per row), so a product of two has
exponents at most 2 and takes 2 bits a variable.  Such a minor is born
where the kernel reads it and is never held as exponent tuples.
``signed_minors`` is not: its readers (text, jets, normalization) read
exponent tuples, which byte fields give at C speed through
``int.to_bytes``, faster than a decode of bit fields.  Three helpers read
the proofs' quantities off packed keys at width W, where
top_a + top_b < 2**W for every part:
- ``_halves`` splits a polynomial affine in x_v into x_v P' + P'' by the
  bit of x_v's field;
- ``_coefficient`` reads one coefficient of a sum of products by looking
  up monomial - key for every key of a: a difference that borrows has, in
  its lowest field that borrows, a value of at least 2**W - top_a > top_b,
  so it is no key of b, and only genuine pairs match;
- ``_leading_pair`` takes the largest key of each factor.  Packed ints
  compare as exponents in lex order with the last variable most
  significant, and a product adds keys without carries, so the sum of
  the two largest keys is reached by no other pair, and the leading
  coefficient of a b is the product of theirs, nonzero.

Every writer (text, LaTeX and JSON, of polynomials and of forms) reads
the terms through one term walk, ``_Catalog``, which decodes each packed
key once into its graded-lex rank and its monomial in one format, and
sorts the keys by rank: no writer packs or unpacks a map.

Variable-naming convention used throughout the library: in a ring of size n
the variables are the coordinates x1..xn; in a ring of size 2n the second
half holds the interpolation nodes l1..ln.

A matrix is a list of rows of exact numbers.  Its determinant and maximal
minors go through one fraction-free Gauss-Jordan pass (Bareiss's exact
division) on rows cleared of denominators, in O(r^3) int operations: a
determinant is the minor of the matrix bordered by a zero column.  A
matrix of polynomials is refused: the one polynomial matrix the library
has, the interpolation row matrix, has its minors in closed form
(``interpolation.signed_minors``).

Values entering from callers (coefficients, constants, evaluation points)
must be exact: a float raises InexactNumberError instead of being converted.
Exponents and variable indices must be ints, exponents nonnegative: a float
is refused as inexact and any other value raises DimensionError.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import DimensionError, HirotaWebError, InexactNumberError, WebSpecError

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key for graded-lex order: total degree first, then lex on exponents."""
    return (sum(exponents), exponents)


def _exact(value: Scalar) -> Fraction:
    """Fraction(value) for an exact number, the argument itself when it is a
    Fraction already; a float is refused, since it holds a binary
    approximation that Fraction would keep digit for digit."""
    if value.__class__ is Fraction:
        return value
    if isinstance(value, float):
        raise InexactNumberError(f"float {value!r} given where an exact number "
                                 "is required; pass an int, a Fraction or a string")
    return Fraction(value)


_EXACT_TYPES = frozenset((int, Fraction))


def _check_coefficients(values: Iterable) -> None:
    """Refuse a coefficient that is neither an int nor a Fraction, a bool
    included, with one scan of the types at C speed.  The constructor
    checks every coefficient; this guards the readers of ``terms`` against
    one that ``_canonical=True`` let past."""
    kinds = set(map(type, values))
    if not kinds <= _EXACT_TYPES:
        name = min(kind.__name__ for kind in kinds - _EXACT_TYPES)
        raise InexactNumberError(f"{name} coefficient in a polynomial; "
                                 "coefficients must be ints or Fractions")


def _check_count(name: str, value, least: Optional[int] = None, too_small: str = "",
                 error: type = WebSpecError) -> None:
    """Refuse a count that is not an int: a float as inexact, any other
    non-int (a bool included) as ``error`` (a spec error, or a dimension
    error for an index or an exponent); with ``least``, a smaller int too,
    as ``error`` with the message ``too_small``."""
    if isinstance(value, float):
        raise InexactNumberError(f"float {name} {value!r}; pass an int")
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise error(too_small)


def _check_n_vars(n_vars) -> None:
    """A ring size is a nonnegative int: a float is inexact, any other
    non-int (a bool included) and a negative int a DimensionError."""
    _check_count("n_vars", n_vars, 0, f"negative variable count {n_vars}", DimensionError)


def _tighten(value: Scalar) -> Scalar:
    """Integral rationals are stored as plain ints: they compare, hash, and
    combine interchangeably with Fraction, and int arithmetic is several
    times faster on the hot multiplication paths."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def _horner(coeffs: Sequence, value: Scalar):
    """sum_j coeffs[j] * value**j by Horner's rule.  The coefficients may be
    numbers, polynomials or forms alike; callers pass ``value`` through
    ``_exact`` first, since a single coefficient is never multiplied."""
    total = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        total = total * value + c
    return total


def _tightened(terms: dict[Exponents, Scalar]) -> dict[Exponents, Scalar]:
    """The nonzero terms, with every integral Fraction turned into an int."""
    return {e: c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
            for e, c in terms.items() if c}


def _pack(n_vars: int, terms: Mapping[Exponents, Scalar], width: int) -> dict[int, Scalar]:
    """The terms keyed by packed ints: variable v takes the ``width`` bits
    at bit offset v * width.  Every exponent must be below 2**width."""
    shifts = range(0, width * n_vars, width)
    lshift = operator.lshift
    return {sum(map(lshift, e, shifts)): c for e, c in terms.items()}


def _unpack(n_vars: int, packed: Mapping[int, Scalar], width: int) -> dict[Exponents, Scalar]:
    """The exponent-tuple terms of a packed map, in its order."""
    shifts = range(0, width * n_vars, width)
    mask = (1 << width) - 1
    return {tuple([key >> shift & mask for shift in shifts]): c for key, c in packed.items()}


def _columns(n_vars: int, width: int, keys: Sequence[int]) -> list[list[int]]:
    """The exponents of the packed keys at this width, one list per variable."""
    mask = (1 << width) - 1
    return [[key >> shift & mask for key in keys] for shift in range(0, width * n_vars, width)]


def _ranks(columns: Sequence[Sequence[int]], width: int, count: int) -> list[int]:
    """The graded-lex rank of each of ``count`` monomials given by their
    exponent columns (every exponent below 2**width): an int that orders
    them as ``grlex_key`` does, so a sort by rank compares one int a pair."""
    lex = [0] * count
    for column in columns:
        lex = [high << width | e for high, e in zip(lex, column)]
    top = width * len(columns)
    degrees = map(sum, zip(*columns)) if columns else [0] * count
    return [d << top | low for d, low in zip(degrees, lex)]


def _rekeyed(n_vars: int, packed: Mapping[int, Scalar], old: int, new: int
             ) -> dict[int, Scalar]:
    """A packed map at bit width ``old`` keyed again at width ``new``, one
    variable's field at a time over all the keys, so no exponent tuple is
    built.  Every exponent must be below 2**new."""
    keys = list(packed)
    mask = (1 << old) - 1
    out = [0] * len(keys)
    for shift in range(old * (n_vars - 1), -1, -old):
        out = [high << new | key >> shift & mask for high, key in zip(out, keys)]
    return dict(zip(out, packed.values()))


def _kernel_width(parts: Iterable[tuple["MultiPoly", "MultiPoly", Scalar]]) -> tuple[int, int]:
    """(top, width) for a sum of products over the (a, b, scale) parts: top
    = max of top_a + top_b bounds every exponent of every product (0 for
    no parts), and width, the smallest with top < 2**width (at least 1),
    is the bit width at which ``_sum_of_products`` packs them."""
    top = max([a._top_exponent() + b._top_exponent() for a, b, _ in parts], default=0)
    return top, max(top.bit_length(), 1)


def _affine(*polys: "MultiPoly") -> bool:
    """Whether no exponent of the polynomials exceeds 1, read off the map
    each keeps: its largest exponent (a bound, for a kernel's result), and
    when that exceeds 1, whether a packed key sets a field's higher bits.
    A polynomial held as exponent tuples only has its exact top."""
    for poly in polys:
        if poly._top_exponent() > 1:
            packed = poly._packed
            if packed is None:
                return False
            width = poly._width
            high = sum([((1 << width) - 2) << v * width for v in range(poly.n_vars)])
            if any(key & high for key in packed):
                return False
    return True


def _halves(poly: "MultiPoly", v: int, width: int) -> tuple["MultiPoly", "MultiPoly"]:
    """(P', P'') with P = x_v P' + P'' for a polynomial affine in the 0-based
    variable v, split by the bit of x_v's field in the packed map at this
    width: P' = d_v P and P'' is P at x_v = 0, both in P's ring and held
    packed at that width."""
    bit = 1 << v * width
    items = poly._packed_at(width).items()
    upper = {key ^ bit: c for key, c in items if key & bit}
    lower = {key: c for key, c in items if not key & bit}
    top = poly._top_exponent()
    return (MultiPoly._from_packed(poly.n_vars, upper, width, top if upper else 0),
            MultiPoly._from_packed(poly.n_vars, lower, width, top if lower else 0))


def _coefficient(parts: Iterable[tuple["MultiPoly", "MultiPoly", Scalar]], monomial: int,
                 width: int) -> Scalar:
    """The coefficient at one packed monomial of sum of scale * a * b over
    the (a, b, scale) parts, read off the packed maps at this width without
    forming any product.  Exact when top_a + top_b < 2**width for every
    part, the kernel's width: a key of a whose subtraction from the
    monomial borrows leaves, in the lowest field that borrows, at least
    2**width - top_a > top_b, so the difference is no key of b."""
    total = 0
    for a, b, scale in parts:
        packed_b = b._packed_at(width)
        for key, c in a._packed_at(width).items():
            other = packed_b.get(monomial - key)
            if other is not None:
                total += scale * c * other
    return total


def _leading_pair(a: "MultiPoly", b: "MultiPoly", width: int) -> tuple[int, Scalar]:
    """(key, coefficient) of the leading term of a * b in lex order with the
    last variable most significant, for nonzero a and b with
    top_a + top_b < 2**width: the sum of the largest packed keys of the
    two at this width, and the product of their coefficients.  Packed ints
    compare as exponents in that order, and a product adds keys without
    carries at this width, so the sum of two keys reaches that of the
    largest two only from them: the coefficient is nonzero."""
    packed_a, packed_b = a._packed_at(width), b._packed_at(width)
    key_a, key_b = max(packed_a), max(packed_b)
    return key_a + key_b, packed_a[key_a] * packed_b[key_b]


def _sum_of_products(n_vars: int, parts: Iterable[tuple["MultiPoly", "MultiPoly", Scalar]]
                     ) -> "MultiPoly":
    """sum of scale * a * b over the (a, b, scale) parts, collected in one map.

    Every operand's packed map is taken at one bit width W shared by all
    the parts, the smallest with top_a + top_b < 2**W for each part, so no
    exponent of any product carries into the next variable's bits and the
    sum of two packed keys is the packed key of the product.  Each scale is
    folded into the smaller operand's coefficients once, every term pair
    adds into the one map (a square, a part whose two operands are one
    polynomial, forms each pair of distinct terms once, doubled: about half
    the pairs), and the survivors are tightened into the
    result's packed map, unpacked only when a caller reads ``terms`` or a
    later sum takes it at another width: a sum that cancels, such as a
    residual of a genuine solution, unpacks nothing, and neither does a
    product that feeds the next one at its own width.
    """
    work = []
    for a, b, scale in parts:
        if a.n_vars != n_vars or b.n_vars != n_vars:
            raise DimensionError(f"mixed rings: {a.n_vars} and {b.n_vars} variables "
                                 f"in a sum over {n_vars}")
        if scale.__class__ is not int:
            scale = _tighten(_exact(scale))
        if not scale or not a or not b:
            continue
        if len(a) > len(b):
            a, b = b, a
        work.append((a, b, scale))
    top, width = _kernel_width(work)
    sums: dict[int, Scalar] = {}
    get = sums.get
    for a, b, scale in work:
        packed_b = list(b._packed_at(width).items())
        for i, (ka, ca) in enumerate(a._packed_at(width).items()):
            if scale != 1:
                ca = ca * scale
            row = packed_b
            if a is b:
                # A square: term i with itself once, then with the later
                # terms doubled; each monomial still enters the map where
                # the full product first meets it.
                key, c = ka + ka, ca * packed_b[i][1]
                cur = get(key)
                sums[key] = c if cur is None else cur + c
                row, ca = packed_b[i + 1:], ca + ca
            for kb, cb in row:
                key = ka + kb
                cur = get(key)
                sums[key] = ca * cb if cur is None else cur + ca * cb
    packed = {key: c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
              for key, c in sums.items() if c}
    return MultiPoly._from_packed(n_vars, packed, width, top if packed else 0)


class MultiPoly:
    """A sparse exact-coefficient polynomial; immutable by convention.

    ``terms`` maps exponent tuples to nonzero exact rationals (int or
    Fraction; no floats anywhere).  Mutating it was never allowed: every
    operation returns a fresh polynomial, and a polynomial also caches its
    packed monomial map (``_sum_of_products``), which an edited ``terms``
    would leave stale.  A polynomial that the kernel built (every sum,
    negation and product) holds only the packed map until ``terms`` is
    first read; ``len``, truth and zero tests count its terms without
    unpacking them.
    """

    # ``_terms`` is the exponent-tuple map, or None until a polynomial built
    # packed is first read; ``_packed`` is the packed map (or None) at bit
    # width ``_width``; ``_top`` bounds every exponent (None until needed).
    # At least one of the two maps is always there.
    __slots__ = ("n_vars", "_terms", "_packed", "_width", "_top")

    def __init__(self, n_vars: int, terms: Optional[Mapping[Exponents, Scalar]] = None,
                 *, _canonical: bool = False):
        self.n_vars = n_vars
        self._packed = self._top = None
        if _canonical:
            self._terms = {} if terms is None else dict(terms)
            return
        _check_n_vars(n_vars)
        if terms is None:
            self._terms = {}
        else:
            clean: dict[Exponents, Scalar] = {}
            for exps, coeff in terms.items():
                if len(exps) != n_vars:
                    raise DimensionError(
                        f"exponent tuple {exps} does not match n_vars={n_vars}")
                for e in exps:
                    _check_count("exponent", e, 0, f"negative exponent in {exps}",
                                 DimensionError)
                c = _tighten(_exact(coeff))
                if c:
                    clean[tuple(exps)] = c
            self._terms = clean

    @classmethod
    def _from_packed(cls, n_vars: int, packed: dict[int, Scalar], width: int,
                     top: int) -> "MultiPoly":
        """A polynomial held as its canonical packed map only."""
        poly = cls.__new__(cls)
        poly.n_vars, poly._terms = n_vars, None
        poly._packed, poly._width, poly._top = packed, width, top
        return poly

    @property
    def terms(self) -> dict[Exponents, Scalar]:
        """The map from exponent tuples to coefficients; a polynomial built
        packed unpacks it on first read and keeps it."""
        terms = self._terms
        if terms is None:
            terms = self._terms = _unpack(self.n_vars, self._packed, self._width)
        return terms

    def _top_exponent(self) -> int:
        """The largest exponent, or a bound on it for a product's result."""
        top = self._top
        if top is None:
            terms = self.terms
            top = self._top = max(map(max, terms)) if terms and self.n_vars else 0
        return top

    def _packed_at(self, width: int) -> dict[int, Scalar]:
        """The packed map at this bit width, packed once and kept; a map
        kept at another width is keyed again at this one (``_rekeyed``) and
        replaced, so no exponent tuple is built.  2**width must exceed
        every exponent."""
        packed = self._packed
        if packed is None:
            packed = _pack(self.n_vars, self._terms, width)
        elif self._width != width:
            packed = _rekeyed(self.n_vars, packed, self._width, width)
        else:
            return packed
        self._packed, self._width = packed, width
        return packed

    def _coefficients(self):
        """The coefficients, read from the map kept, packed or not, so a
        polynomial built packed is not unpacked."""
        packed = self._packed
        return (self._terms if packed is None else packed).values()

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "MultiPoly":
        _check_n_vars(n_vars)
        return cls(n_vars, None, _canonical=True)

    @classmethod
    def const(cls, n_vars: int, value: Scalar) -> "MultiPoly":
        """The constant polynomial ``value``; an int is taken as it is."""
        _check_n_vars(n_vars)
        c = value if value.__class__ is int else _tighten(_exact(value))
        if not c:
            return cls.zero(n_vars)
        return cls(n_vars, {(0,) * n_vars: c}, _canonical=True)

    @classmethod
    def one(cls, n_vars: int) -> "MultiPoly":
        return cls.const(n_vars, 1)

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "MultiPoly":
        """The polynomial consisting of the single variable with this 0-based index."""
        _check_n_vars(n_vars)
        _check_count("variable index", index, error=DimensionError)
        if not 0 <= index < n_vars:
            raise DimensionError(f"variable index {index} out of range for n_vars={n_vars}")
        exps = [0] * n_vars
        exps[index] = 1
        return cls(n_vars, {tuple(exps): 1}, _canonical=True)

    # -- predicates and inspection -----------------------------------------

    def __len__(self) -> int:
        """The number of terms, counted without unpacking."""
        packed = self._packed
        return len(self._terms if packed is None else packed)

    @property
    def is_zero(self) -> bool:
        return not self.__len__()

    @property
    def is_constant(self) -> bool:
        """Read from the map kept: the one packed key of a constant is 0."""
        packed = self._packed
        if packed is not None:
            return not any(packed)
        return all(not any(e) for e in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial);
        always a Fraction, so division by it stays exact."""
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self._coefficients())))

    def degree(self, variables: Optional[Iterable[int]] = None) -> int:
        """Max total degree over the given variable subset (all variables by
        default); the zero polynomial reports 0."""
        if not self.terms:
            return 0
        if variables is None:
            return max(sum(e) for e in self.terms)
        idx = tuple(variables)
        return max(sum(e[i] for i in idx) for e in self.terms)

    def homogeneous_degree(self, variables: Optional[Iterable[int]] = None) -> Optional[int]:
        """The common total degree of all terms over the given variables, or
        None if the terms disagree.  The zero polynomial reports 0; use
        ``is_zero`` to tell it apart from a nonzero constant."""
        if not self.terms:
            return 0
        idx = tuple(variables) if variables is not None else tuple(range(self.n_vars))
        degs = {sum(e[i] for i in idx) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading_term(self) -> tuple[Exponents, Scalar]:
        """Graded-lex leading (exponents, coefficient); undefined on zero.  A
        polynomial built packed is not unpacked: the term walk reads it."""
        if not self:
            raise ValueError("zero polynomial has no leading term")
        if self._terms is None:
            coeffs, exps = _Catalog().walk(self)
            return exps[0], coeffs[0]
        exps = max(self._terms, key=grlex_key)
        return exps, self._terms[exps]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; identity-style hashing would mislead

    def __bool__(self) -> bool:
        return self.__len__() != 0

    # -- ring arithmetic ----------------------------------------------------

    def _check_ring(self, other: "MultiPoly") -> None:
        if self.n_vars != other.n_vars:
            raise DimensionError(
                f"mixed rings: {self.n_vars} vs {other.n_vars} variables")

    def _linear(self, other: Union["MultiPoly", Scalar], sign: int) -> "MultiPoly":
        """self + sign * other as one kernel call; a number is a constant."""
        if isinstance(other, (int, Fraction, float)):
            other = MultiPoly.const(self.n_vars, other)
        one = _unit(self.n_vars)
        return _sum_of_products(self.n_vars, ((self, one, 1), (other, one, sign)))

    def __add__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        return self._linear(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _sum_of_products(self.n_vars, ((self, _unit(self.n_vars), -1),))

    def __sub__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        return self._linear(other, -1)

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return MultiPoly.const(self.n_vars, other)._linear(self, -1)

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, (int, Fraction, float)):
            return _sum_of_products(self.n_vars, ((self, _unit(self.n_vars), other),))
        return _sum_of_products(self.n_vars, ((self, other, 1),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        """Binary powering from the first factor: p ** 4 is two squarings."""
        _check_count("exponent", exponent, 0, "negative power of a polynomial")
        if not exponent:
            return MultiPoly.one(self.n_vars)
        result = None
        base, e = self, exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    # -- calculus and elimination -------------------------------------------

    def derivative(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to the 0-based variable ``var``."""
        _check_count("variable index", var, error=DimensionError)
        if not 0 <= var < self.n_vars:
            raise DimensionError(f"variable index {var} out of range")
        out: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e:
                lowered = exps[:var] + (e - 1,) + exps[var + 1:]
                out[lowered] = out.get(lowered, 0) + coeff * e
        return MultiPoly(self.n_vars, _tightened(out), _canonical=True)

    def eliminate(self, assignments: Mapping[int, Scalar]) -> "MultiPoly":
        """Fix variables to exact numbers and drop their slots.

        Remaining variables are reindexed densely, preserving order.  This is
        the one route that fixes variables to numbers: it instantiates
        symbolic nodes, restricts a coordinate to a constant, fixes the node
        coordinates before a jet is read, and evaluates.
        """
        fixed = {var: _tighten(_exact(v)) for var, v in assignments.items()}
        for var in fixed:
            _check_count("variable index", var, error=DimensionError)
            if not 0 <= var < self.n_vars:
                raise DimensionError(f"assigned variable {var} out of range")
        keep = [v for v in range(self.n_vars) if v not in fixed]
        out: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            scale = coeff
            for var, value in fixed.items():
                e = exps[var]
                if e:
                    scale *= value ** e
            if not scale:
                continue
            key = tuple(exps[v] for v in keep)
            cur = out.get(key)
            if cur is None:
                out[key] = scale
            else:
                cur = cur + scale
                if cur:
                    out[key] = cur
                else:
                    del out[key]
        if Fraction in map(type, out.values()):     # a scan at C speed
            out = _tightened(out)
        return MultiPoly(len(keep), out, _canonical=True)

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        """Exact value at a point given as one number per variable: the
        constant left by ``eliminate`` of every variable, as a Fraction, so
        dividing two values stays exact."""
        if len(values) != self.n_vars:
            raise DimensionError(
                f"expected {self.n_vars} coordinates, got {len(values)}")
        return self.eliminate(dict(enumerate(values))).constant_value()

    def second_order_jet(self, values: Sequence[Scalar]
                         ) -> tuple[Scalar, list[Scalar], list[list[Scalar]]]:
        """Value, gradient and Hessian at a point, in one pass over the terms.

        The gradient and the (symmetric) Hessian are taken in every variable,
        diagonal entries included; to read them in some variables only, fix
        the others first with ``eliminate``.  Integer points with integral
        coefficients give plain ints throughout.  Per term, prefix and
        suffix products of the variable powers give every partial without
        dividing by a coordinate, so zero coordinates need no special case.
        """
        if len(values) != self.n_vars:
            raise DimensionError(
                f"expected {self.n_vars} coordinates, got {len(values)}")
        vals = [_tighten(_exact(v)) for v in values]
        powers: list[list[Scalar]] = [[1, v] for v in vals]

        def power(var: int, e: int) -> Scalar:
            table = powers[var]
            while len(table) <= e:
                table.append(table[-1] * vals[var])
            return table[e]

        value: Scalar = 0
        n = self.n_vars
        grad: list[Scalar] = [0] * n
        hess: list[list[Scalar]] = [[0] * n for _ in range(n)]
        for exps, coeff in self.terms.items():
            support = [var for var, e in enumerate(exps) if e]
            # suffix[a] is the product of the powers of support[a:].
            suffix = [1] * (len(support) + 1)
            for a in range(len(support) - 1, -1, -1):
                var = support[a]
                suffix[a] = suffix[a + 1] * power(var, exps[var])
            value += coeff * suffix[0]
            prefix = coeff   # coefficient times the powers of support[:a]
            for a, var in enumerate(support):
                e = exps[var]
                rest = suffix[a + 1]
                left = prefix * e * power(var, e - 1)
                grad[var] += left * rest
                if e > 1:
                    hess[var][var] += prefix * (e * (e - 1)) * power(var, e - 2) * rest
                for b in range(a + 1, len(support)):
                    other = support[b]
                    e_other = exps[other]
                    hess[var][other] += (left * e_other * power(other, e_other - 1)
                                         * suffix[b + 1])
                    left *= power(other, e_other)
                prefix *= power(var, e)
        for a in range(n):
            for b in range(a):
                hess[a][b] = hess[b][a]
        return value, grad, hess

    # -- output -------------------------------------------------------------

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        """Canonical text form, e.g. ``x1x2 - 2x1x3 + x2x3``."""
        return poly_text(self, names)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"MultiPoly({self.n_vars}, {self.text()!r})"


@cache
def _unit(n_vars: int) -> MultiPoly:
    """The constant 1 of one ring, built once and shared by the linear
    combinations (sums, negations, scalar multiples), which pass it to the
    kernel as a factor; the kernel never changes an operand, so the one
    polynomial and its packed map serve every call."""
    return MultiPoly.one(n_vars)


def default_names(n_vars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n_vars)]


# -- output: one term walk for every format ----------------------------------


class _Catalog:
    """The term walk: a polynomial's coefficients in descending graded-lex
    order with their monomials in one format, written as ``opening``, the
    pieces ``piece(v, e_v)`` joined by ``sep`` and ``closing`` (``empty``
    in a ring without variables), or, with no ``piece``, as exponent tuples.

    A packed key of one ring and width is decoded the first time any
    polynomial walked through the catalog holds it, column by column, into
    its rank (``_ranks``) and its monomial, and both are kept, so the
    numerators and the denominator of a form share one decode per key, and
    the terms are one sort of the keys by rank.  A polynomial held as
    exponent tuples only is sorted and written from them, never packed."""

    __slots__ = ("piece", "sep", "opening", "closing", "empty", "maps")

    def __init__(self, piece: Optional[Callable[[int, int], str]] = None, sep: str = "",
                 opening: str = "", closing: str = "", empty: str = ""):
        self.piece, self.sep, self.opening, self.closing = piece, sep, opening, closing
        self.empty = empty
        self.maps: dict[tuple[int, int], tuple[dict, dict]] = {}

    def _monomials(self, columns: Sequence[Sequence[int]], count: int) -> list:
        """The monomials of ``count`` terms given by their exponent columns."""
        if self.piece is None:
            return list(zip(*columns)) if columns else [()] * count
        if not columns:
            return [self.empty] * count
        piece, last, parts = self.piece, len(columns) - 1, []
        for v, column in enumerate(columns):
            head = self.opening if v == 0 else ""
            tail = self.closing if v == last else ""
            table = {e: head + piece(v, e) + tail for e in set(column)}
            parts.append(list(map(table.__getitem__, column)))
        return list(map(self.sep.join, zip(*parts)))

    def walk(self, poly: MultiPoly) -> tuple[list[Scalar], list]:
        """(coefficients, monomials) of the terms, leading term first."""
        packed = poly._packed
        if packed is None:
            # A lex sort of the exponent tuples, then a stable sort on the
            # degree, which compares one int per pair.
            terms = poly._terms
            order = sorted(terms, reverse=True)
            order.sort(key=sum, reverse=True)
            return list(map(terms.__getitem__, order)), self._monomials(list(zip(*order)),
                                                                         len(order))
        n_vars, width = poly.n_vars, poly._width
        maps = self.maps.get((n_vars, width))
        if maps is None:
            maps = self.maps[n_vars, width] = ({}, {})
        rank, monomial = maps
        unseen = [key for key in packed if key not in rank]
        if unseen:
            columns = _columns(n_vars, width, unseen)
            rank.update(zip(unseen, _ranks(columns, width, len(unseen))))
            monomial.update(zip(unseen, self._monomials(columns, len(unseen))))
        order = sorted(packed, key=rank.__getitem__, reverse=True)
        return list(map(packed.__getitem__, order)), list(map(monomial.__getitem__, order))


def _text_catalog(names: Sequence[str], latex: bool) -> _Catalog:
    """Monomials as ``poly_text`` writes them: ``x1^2x3``, exponents braced
    in LaTeX, a first power bare and a zeroth one left out."""
    def piece(v: int, e: int) -> str:
        if e > 1:
            return f"{names[v]}^{{{e}}}" if latex else f"{names[v]}^{e}"
        return names[v] if e == 1 else ""
    return _Catalog(piece)


def _signed_text(coeffs: Sequence[Scalar], monomials: Sequence[str], latex: bool) -> str:
    """The text of the terms in their order (``poly_text``), "0" for none."""
    if not coeffs:
        return "0"
    pieces = []
    for c, mono in zip(coeffs, monomials):
        mag = -c if c < 0 else c
        if latex and mag.denominator != 1:
            text = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        else:
            text = str(mag)
        pieces.append((" - " if c < 0 else " + ") + (mono if mono and mag == 1 else text + mono))
    pieces[0] = ("-" if coeffs[0] < 0 else "") + pieces[0][3:]
    return "".join(pieces)


def poly_text(p: MultiPoly, names: Optional[Sequence[str]] = None,
              latex: bool = False) -> str:
    """Render with terms in descending graded-lex order (``_Catalog``).

    Coefficients print as ``a/b`` with ``/1`` omitted; unit coefficients are
    dropped in front of a nonempty monomial.  With ``latex`` exponents are
    braced and non-integral coefficients print as ``\\frac{a}{b}``.
    """
    if p.is_zero:
        return "0"
    _check_coefficients(p._coefficients())
    names = default_names(p.n_vars) if names is None else list(names)
    return _signed_text(*_text_catalog(names, latex).walk(p), latex)


def _json_terms(coeffs: Sequence[Scalar], exps: Sequence[Exponents]) -> list[dict]:
    return [{"c": str(c), "e": list(e)} for c, e in zip(coeffs, exps)]


def poly_to_json(p: MultiPoly) -> dict:
    """JSON form: ``{"nvars": N, "terms": [{"c": "a/b", "e": [...]}, ...]}``
    with terms in descending graded-lex order, from the term walk."""
    _check_coefficients(p._coefficients())
    return {"nvars": p.n_vars, "terms": _json_terms(*_Catalog().walk(p))}


def poly_from_json(data: Mapping) -> MultiPoly:
    """The polynomial that ``poly_to_json`` wrote, read exactly: ``nvars``
    and every exponent must be nonnegative ints, as the constructor checks,
    and each coefficient goes through ``_exact``, so a JSON float is refused
    rather than read as its binary expansion."""
    return MultiPoly(data["nvars"], {tuple(item["e"]): item["c"] for item in data["terms"]})


# A matrix is a sequence of equal-length rows of exact numbers (int or
# Fraction).
Matrix = Sequence[Sequence[Scalar]]


def _shape(m: Matrix) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise DimensionError("ragged rows")
    return rows, cols


def _refuse_polynomials(m: Matrix) -> None:
    if any(isinstance(v, MultiPoly) for row in m for v in row):
        raise HirotaWebError(
            "determinant and maximal_minors take matrices of numbers; the "
            "polynomial minors of the interpolation row matrix come from "
            "signed_minors")


def determinant(m: Matrix) -> Scalar:
    """Exact determinant of a square matrix of numbers."""
    rows, cols = _shape(m)
    if rows != cols:
        raise DimensionError(f"determinant of a {rows}x{cols} matrix")
    _refuse_polynomials(m)
    if rows == 0:
        return 1
    return _numeric_minors([[*row, 0] for row in m], (rows,))[0]


def _numeric_minors(m: Matrix, skips: Sequence[int]) -> list[Scalar]:
    """Maximal minors of an r x (r+1) matrix of exact numbers, by one
    fraction-free Gauss-Jordan pass (Bareiss's exact division).

    Each row is first scaled by the lcm of its denominators, so the pass
    runs on ints; the minors are divided by the product of those scales at
    the end.  The pass pivots on the first nonzero entry of each column.
    Every update a_ij <- (p a_ij - a_ic a_kj) / p' divides exactly by the
    previous pivot p', and every row but the pivot row is updated, so after
    the last pivot the matrix is p [I | A^-1 a_f] in the pivot columns:
    p is the minor without the free column f (up to the row permutation's
    sign), and by Cramer's rule the free-column entry of pivot row i is the
    minor without that row's pivot column c, up to the sign (-1)^(c+f+1) of
    moving column f into place.  A second column without a pivot means rank
    below r, and every minor is 0.
    """
    scale = 1
    a = []
    for row in m:
        if all(v.__class__ is int for v in row):
            a.append(list(row))
            continue
        row = [_exact(v) for v in row]
        d = math.lcm(*[v.denominator for v in row])
        scale *= d
        a.append([v.numerator * (d // v.denominator) for v in row])
    size = len(a)
    sign, prev, rank, free = 1, 1, 0, None
    for col in range(size + 1):
        found = next((i for i in range(rank, size) if a[i][col]), None)
        if found is None:
            if free is not None:
                return [0] * len(skips)
            free = col
            continue
        if found != rank:
            a[rank], a[found] = a[found], a[rank]
            sign = -sign
        top = a[rank]
        pivot = top[col]
        for i in range(size):
            if i != rank:
                line = a[i]
                factor = line[col]
                a[i] = [(pivot * x - factor * y) // prev for x, y in zip(line, top)]
        prev = pivot
        rank += 1
    every = []
    for c in range(size + 1):
        if c == free:
            every.append(sign * prev)
            continue
        # Column c < f is the pivot of row c, column c > f that of row c - 1.
        entry = a[c if c < free else c - 1][free]
        every.append(sign * entry if (c + free) % 2 else -sign * entry)
    if scale == 1:
        return [every[c] for c in skips]
    return [_tighten(Fraction(every[c], scale)) for c in skips]


def maximal_minors(m: Matrix, columns: Optional[Iterable[int]] = None) -> list[Scalar]:
    """Determinants of an r x (r+1) matrix of numbers with one column removed.

    Entry ``i`` of the result is det(m without column ``columns[i]``),
    unsigned; ``columns`` defaults to every column in order.  One
    fraction-free elimination yields every minor at once.
    """
    rows, cols = _shape(m)
    if cols != rows + 1:
        raise DimensionError("maximal minors need an r x (r+1) matrix")
    skips = tuple(range(cols)) if columns is None else tuple(columns)
    for skip in skips:
        _check_count("column index", skip, error=DimensionError)
    if any(not 0 <= skip < cols for skip in skips):
        raise DimensionError(f"column index out of range 0..{cols - 1}")
    _refuse_polynomials(m)
    return _numeric_minors(m, skips)
