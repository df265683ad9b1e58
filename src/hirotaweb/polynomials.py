"""Sparse multivariate polynomials over exact rationals, and polynomial matrices.

A polynomial in ``n_vars`` variables is a map from exponent tuples (length
``n_vars``, nonnegative ints) to nonzero exact rational coefficients; the
zero polynomial is the empty map.  All arithmetic is exact, no coefficient
is ever a float.  Terms are kept canonical: no stored zeros, and a stored
coefficient is a plain ``int`` whenever it is integral (a ``Fraction`` only
when its denominator exceeds 1).  Every operation keeps that invariant
without a type test per term pair: products and derivatives tighten their
coefficients in the pass that drops zeros, and sums, scalings and
eliminations scan their result for a ``Fraction`` (only an operand or a
scalar holding one can leave an integral ``Fraction`` behind) and tighten
only then.  The graded lexicographic order fixes leading terms, text
output, and JSON output.

Large products key monomials by one packed int instead of an exponent
tuple (Kronecker substitution): each variable gets a bit field wide enough
for the sum of the two operands' largest exponents in it, so adding two
packed keys multiplies the monomials without carries.  Below
``_PACKED_PRODUCT_MIN_TERMS`` terms in the smaller operand the tuple loop
is kept, since packing and unpacking cost more than they save there.

Variable-naming convention used throughout the library: in a ring of size n
the variables are the coordinates x1..xn; in a ring of size 2n the second
half holds the interpolation nodes l1..ln.

Determinants of polynomial matrices are computed by cofactor expansion with
minor memoization up to dimension 7 and by fraction-free Bareiss elimination
(exact division in the ring) above that, so intermediate swell stays bounded.

Values entering from callers (coefficients, constants, evaluation points)
must be exact: a float raises InexactNumberError instead of being converted.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import DimensionError, InexactDivisionError, InexactNumberError

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key for graded-lex order: total degree first, then lex on exponents."""
    return (sum(exponents), exponents)


def _exact(value: Scalar) -> Fraction:
    """Fraction(value) for an exact number; a float is refused, since it holds
    a binary approximation that Fraction would keep digit for digit."""
    if isinstance(value, float):
        raise InexactNumberError(f"float {value!r} given where an exact number "
                                 "is required; pass an int, a Fraction or a string")
    return Fraction(value)


def _tighten(value: Scalar) -> Scalar:
    """Integral rationals are stored as plain ints: they compare, hash, and
    combine interchangeably with Fraction, and int arithmetic is several
    times faster on the hot multiplication paths."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def _has_fraction(terms: Mapping[Exponents, Scalar]) -> bool:
    """Whether any coefficient is a Fraction (a scan at C speed)."""
    return Fraction in map(type, terms.values())


def _tightened(terms: dict[Exponents, Scalar]) -> dict[Exponents, Scalar]:
    """The nonzero terms, with every integral Fraction turned into an int."""
    return {e: c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
            for e, c in terms.items() if c}


# Products whose smaller operand has at least this many terms key monomials
# by packed ints; smaller ones keep the tuple loop.  Packing costs one pass
# over each operand and one over the result, and the pair loop must be long
# enough to repay it.  Timed per call on the operands of the benchmark's
# workloads (2 vCPUs, Python 3.11), packed over tuple time: 1.6-3.4x with a
# one-term operand at any size, 1.0-1.7x with 3-6 terms, 0.6-1.1x with 8,
# 0.6-0.8x with 12, and 0.35-0.6x once both operands have 32 or more.  Most
# products of the oracle, properties and LaTeX jobs have 1 to 4 term pairs.
_PACKED_PRODUCT_MIN_TERMS = 8


def _product_packed(a: Mapping[Exponents, Scalar],
                    b: Mapping[Exponents, Scalar]) -> dict[Exponents, Scalar]:
    """The nonzero coefficients of the product of two nonempty term maps,
    computed with each monomial packed into one int.

    Variable i occupies a bit field as wide as the bit length of
    max_a(e_i) + max_b(e_i), so no exponent of the product overflows its
    field and the sum of two packed keys is the packed key of the product.
    """
    shifts: list[int] = []
    masks: list[int] = []
    width = 0
    for top_a, top_b in zip(map(max, zip(*a)), map(max, zip(*b))):
        bits = (top_a + top_b).bit_length()
        shifts.append(width)
        masks.append((1 << bits) - 1)
        width += bits
    lshift = operator.lshift
    packed_b = [(sum(map(lshift, e, shifts)), c) for e, c in b.items()]
    sums: dict[int, Scalar] = {}
    get = sums.get
    for ea, ca in a.items():
        ka = sum(map(lshift, ea, shifts))
        for kb, cb in packed_b:
            key = ka + kb
            cur = get(key)
            sums[key] = ca * cb if cur is None else cur + ca * cb
    fields = list(zip(shifts, masks))
    return {tuple([(key >> shift) & mask for shift, mask in fields]): c
            for key, c in sums.items() if c}


class MultiPoly:
    """A sparse exact-coefficient polynomial; immutable by convention.

    ``terms`` maps exponent tuples to nonzero exact rationals (int or
    Fraction; no floats anywhere).  Do not mutate the dict after
    construction: every operation returns a fresh polynomial.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Optional[Mapping[Exponents, Scalar]] = None,
                 *, _canonical: bool = False):
        if n_vars < 0:
            raise DimensionError(f"negative variable count {n_vars}")
        self.n_vars = n_vars
        if terms is None:
            self.terms: dict[Exponents, Scalar] = {}
        elif _canonical:
            self.terms = dict(terms)
        else:
            clean: dict[Exponents, Scalar] = {}
            for exps, coeff in terms.items():
                if len(exps) != n_vars:
                    raise DimensionError(
                        f"exponent tuple {exps} does not match n_vars={n_vars}")
                c = _tighten(_exact(coeff))
                if c:
                    clean[tuple(exps)] = c
            self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "MultiPoly":
        return cls(n_vars, None, _canonical=True)

    @classmethod
    def const(cls, n_vars: int, value: Scalar) -> "MultiPoly":
        c = _tighten(_exact(value))
        if not c:
            return cls.zero(n_vars)
        return cls(n_vars, {(0,) * n_vars: c}, _canonical=True)

    @classmethod
    def one(cls, n_vars: int) -> "MultiPoly":
        return cls.const(n_vars, 1)

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "MultiPoly":
        """The polynomial consisting of the single variable with this 0-based index."""
        if not 0 <= index < n_vars:
            raise DimensionError(f"variable index {index} out of range for n_vars={n_vars}")
        exps = [0] * n_vars
        exps[index] = 1
        return cls(n_vars, {tuple(exps): 1}, _canonical=True)

    # -- predicates and inspection -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the zero polynomial);
        always a Fraction, so division by it stays exact."""
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values())))

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
        """Graded-lex leading (exponents, coefficient); undefined on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; identity-style hashing would mislead

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring arithmetic ----------------------------------------------------

    def _check_ring(self, other: "MultiPoly") -> None:
        if self.n_vars != other.n_vars:
            raise DimensionError(
                f"mixed rings: {self.n_vars} vs {other.n_vars} variables")

    def __add__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, (int, Fraction, float)):
            other = MultiPoly.const(self.n_vars, other)
        self._check_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = out.get(exps)
            if cur is None:
                out[exps] = coeff
            else:
                cur = cur + coeff
                if cur:
                    out[exps] = cur
                else:
                    del out[exps]
        if _has_fraction(out):
            out = _tightened(out)
        return MultiPoly(self.n_vars, out, _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n_vars, {e: -c for e, c in self.terms.items()},
                         _canonical=True)

    def __sub__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, (int, Fraction, float)):
            other = MultiPoly.const(self.n_vars, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return MultiPoly.const(self.n_vars, other).__sub__(self)

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, (int, Fraction, float)):
            c = _tighten(_exact(other))
            if not c:
                return MultiPoly.zero(self.n_vars)
            out = {e: k * c for e, k in self.terms.items()}
            if _has_fraction(out):
                out = _tightened(out)
            return MultiPoly(self.n_vars, out, _canonical=True)
        self._check_ring(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.n_vars)
        # a is the smaller operand: the packing cutoff is on its size, and the
        # outer loop runs fewer times.
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) >= _PACKED_PRODUCT_MIN_TERMS:
            return MultiPoly(self.n_vars, _tightened(_product_packed(a, b)),
                             _canonical=True)
        out: dict[Exponents, Scalar] = {}
        add = operator.add
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(map(add, ea, eb))
                cur = out.get(key)
                out[key] = ca * cb if cur is None else cur + ca * cb
        return MultiPoly(self.n_vars, _tightened(out), _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.one(self.n_vars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus and substitution ------------------------------------------

    def derivative(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to the 0-based variable ``var``."""
        if not 0 <= var < self.n_vars:
            raise DimensionError(f"variable index {var} out of range")
        out: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e:
                lowered = exps[:var] + (e - 1,) + exps[var + 1:]
                out[lowered] = out.get(lowered, 0) + coeff * e
        return MultiPoly(self.n_vars, _tightened(out), _canonical=True)

    def substitute(self, mapping: Mapping[int, Union["MultiPoly", Scalar]],
                   n_vars: Optional[int] = None) -> "MultiPoly":
        """Substitute polynomials or scalars for variables (0-based indices).

        Unmapped variables are carried over as themselves, so the target ring
        (``n_vars``, defaulting to the current one) must be at least as large
        as the highest unmapped index in use.  Substitution is a ring
        homomorphism: term by term, coefficient times the product of images.
        """
        target_n = self.n_vars if n_vars is None else n_vars
        images: dict[int, MultiPoly] = {}
        for var, value in mapping.items():
            if not 0 <= var < self.n_vars:
                raise DimensionError(f"substituted variable {var} out of range")
            if isinstance(value, MultiPoly):
                if value.n_vars != target_n:
                    raise DimensionError(
                        f"substituted value for variable {var} lives in a "
                        f"{value.n_vars}-variable ring, expected {target_n}")
                images[var] = value
            else:
                images[var] = MultiPoly.const(target_n, value)
        result = MultiPoly.zero(target_n)
        power_cache: dict[tuple[int, int], MultiPoly] = {}
        for exps, coeff in self.terms.items():
            term = MultiPoly.const(target_n, coeff)
            for var, e in enumerate(exps):
                if not e:
                    continue
                if var in images:
                    key = (var, e)
                    powed = power_cache.get(key)
                    if powed is None:
                        powed = images[var] ** e
                        power_cache[key] = powed
                    term = term * powed
                else:
                    if var >= target_n:
                        raise DimensionError(
                            f"unmapped variable {var} does not fit in a "
                            f"{target_n}-variable ring")
                    lifted = [0] * target_n
                    lifted[var] = e
                    term = term * MultiPoly(target_n, {tuple(lifted): 1},
                                            _canonical=True)
            result = result + term
        return result

    def eliminate(self, assignments: Mapping[int, Scalar]) -> "MultiPoly":
        """Fix variables to exact numbers and drop their slots.

        Remaining variables are reindexed densely, preserving order.  This is
        the fast path for instantiating symbolic nodes and for restricting a
        coordinate to a constant.
        """
        fixed = {var: _tighten(_exact(v)) for var, v in assignments.items()}
        for var in fixed:
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
        if _has_fraction(out):
            out = _tightened(out)
        return MultiPoly(len(keep), out, _canonical=True)

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        """Exact value at a point given as one number per variable.

        An integral point with integral coefficients is summed in plain
        ints; the value is returned as a Fraction either way, so dividing
        two values stays exact."""
        if len(values) != self.n_vars:
            raise DimensionError(
                f"expected {self.n_vars} coordinates, got {len(values)}")
        vals = [_tighten(_exact(v)) for v in values]
        # Per-variable power tables; exponents repeat heavily across terms.
        powers: list[dict[int, Scalar]] = [{} for _ in range(self.n_vars)]
        total: Scalar = 0
        for exps, coeff in self.terms.items():
            prod = coeff
            for var, e in enumerate(exps):
                if not e:
                    continue
                table = powers[var]
                p = table.get(e)
                if p is None:
                    p = vals[var] ** e
                    table[e] = p
                prod *= p
            total += prod
        return Fraction(total)

    def second_order_jet(self, values: Sequence[Scalar], count: int
                         ) -> tuple[Scalar, list[Scalar], list[list[Scalar]]]:
        """Value, gradient and Hessian at a point, in one pass over the terms.

        The gradient and the (symmetric) Hessian are taken in the first
        ``count`` variables, diagonal entries included; the remaining
        variables are only evaluated.  Integer points with integral
        coefficients give plain ints throughout.  Per term, prefix and
        suffix products of the variable powers give every partial without
        dividing by a coordinate, so zero coordinates need no special case.
        """
        if len(values) != self.n_vars:
            raise DimensionError(
                f"expected {self.n_vars} coordinates, got {len(values)}")
        if not 0 <= count <= self.n_vars:
            raise DimensionError(f"cannot differentiate in {count} of "
                                 f"{self.n_vars} variables")
        vals = [_tighten(_exact(v)) for v in values]
        powers: list[list[Scalar]] = [[1, v] for v in vals]

        def power(var: int, e: int) -> Scalar:
            table = powers[var]
            while len(table) <= e:
                table.append(table[-1] * vals[var])
            return table[e]

        value: Scalar = 0
        grad: list[Scalar] = [0] * count
        hess: list[list[Scalar]] = [[0] * count for _ in range(count)]
        for exps, coeff in self.terms.items():
            support = []
            for var, e in enumerate(exps):
                if e:
                    if var < count:
                        support.append(var)
                    else:
                        coeff *= power(var, e)
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
        for a in range(count):
            for b in range(a):
                hess[a][b] = hess[b][a]
        return value, grad, hess

    # -- output -------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]),
                      reverse=True)

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        """Canonical text form, e.g. ``x1x2 - 2x1x3 + x2x3``."""
        return poly_text(self, names)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"MultiPoly({self.n_vars}, {self.text()!r})"


def default_names(n_vars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n_vars)]


def _monomial_text(exps: Exponents, names: Sequence[str], latex: bool) -> str:
    parts = []
    for var, e in enumerate(exps):
        if e == 1:
            parts.append(names[var])
        elif e > 1:
            parts.append(f"{names[var]}^{{{e}}}" if latex else f"{names[var]}^{e}")
    return "".join(parts)


def poly_text(p: MultiPoly, names: Optional[Sequence[str]] = None,
              latex: bool = False) -> str:
    """Render with terms in descending graded-lex order.

    Coefficients print as ``a/b`` with ``/1`` omitted; unit coefficients are
    dropped in front of a nonempty monomial.  With ``latex`` exponents are
    braced and non-integral coefficients print as ``\\frac{a}{b}``.
    """
    if p.is_zero:
        return "0"
    names = default_names(p.n_vars) if names is None else list(names)
    pieces: list[str] = []
    for position, (exps, coeff) in enumerate(p.sorted_terms()):
        mono = _monomial_text(exps, names, latex)
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


def poly_to_json(p: MultiPoly) -> dict:
    """JSON form: ``{"nvars": N, "terms": [{"c": "a/b", "e": [...]}, ...]}``
    with terms in descending graded-lex order."""
    return {
        "nvars": p.n_vars,
        "terms": [{"c": str(c), "e": list(e)} for e, c in p.sorted_terms()],
    }


def poly_from_json(data: Mapping) -> MultiPoly:
    n_vars = int(data["nvars"])
    terms = {tuple(int(x) for x in item["e"]): Fraction(item["c"])
             for item in data["terms"]}
    return MultiPoly(n_vars, terms)


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
            raise InexactDivisionError("leading term does not divide remainder")
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


@dataclass(frozen=True)
class PolyMatrix:
    """Dense row-major matrix of polynomials from one ring."""

    rows: int
    cols: int
    entries: tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError("entry count does not match rows*cols")
        if self.entries:
            n = self.entries[0].n_vars
            if any(e.n_vars != n for e in self.entries):
                raise DimensionError("matrix entries live in different rings")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[MultiPoly]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionError("ragged rows")
        return cls(r, c, tuple(p for row in rows for p in row))

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i * self.cols + j]

    @property
    def n_vars(self) -> int:
        return self.entries[0].n_vars if self.entries else 0


# Cofactor expansion beats fraction-free elimination while the minors stay
# small; above this dimension Bareiss controls intermediate swell.  At 7,
# memoized cofactor still wins clearly: it builds the 5040-term determinant
# of a symbolic-node 7 x 7 interpolation matrix in 0.04 s, where Bareiss's
# exact divisions do not finish within 150 s.
_COFACTOR_LIMIT = 7


def determinant(m: PolyMatrix) -> MultiPoly:
    """Exact determinant of a square polynomial matrix."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of a {m.rows}x{m.cols} matrix")
    if m.rows == 0:
        return MultiPoly.one(m.n_vars)
    if m.rows <= _COFACTOR_LIMIT:
        memo: dict[tuple, MultiPoly] = {}
        return _det_cofactor(m, tuple(range(m.cols)), tuple(range(m.rows)), memo)
    return _det_bareiss(m)


def _det_cofactor(m: PolyMatrix, cols: tuple[int, ...], rows: tuple[int, ...],
                  memo: dict) -> MultiPoly:
    """Laplace expansion along the first listed column, memoized on the
    (columns, rows) submatrix so shared minors are computed once."""
    if len(cols) == 1:
        return m.entry(rows[0], cols[0])
    key = (cols, rows)
    cached = memo.get(key)
    if cached is not None:
        return cached
    first = cols[0]
    rest = cols[1:]
    total = MultiPoly.zero(m.n_vars)
    for position, row in enumerate(rows):
        coeff = m.entry(row, first)
        if coeff.is_zero:
            continue
        sub_rows = rows[:position] + rows[position + 1:]
        minor = _det_cofactor(m, rest, sub_rows, memo)
        if minor.is_zero:
            continue
        piece = coeff * minor
        total = total + (piece if position % 2 == 0 else -piece)
    memo[key] = total
    return total


def _det_bareiss(m: PolyMatrix) -> MultiPoly:
    """Fraction-free elimination: every division is exact in the ring."""
    n = m.rows
    a = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    sign = 1
    prev = MultiPoly.one(m.n_vars)
    for k in range(n - 1):
        if a[k][k].is_zero:
            for i in range(k + 1, n):
                if not a[i][k].is_zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(m.n_vars)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = pivot * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = exact_div(numerator, prev)
            a[i][k] = MultiPoly.zero(m.n_vars)
        prev = pivot
    result = a[n - 1][n - 1]
    return result if sign > 0 else -result


def maximal_minors(m: PolyMatrix,
                   columns: Optional[Iterable[int]] = None) -> list[MultiPoly]:
    """Determinants of an r x (r+1) matrix with one column removed.

    Entry ``i`` of the result is det(m without column ``columns[i]``),
    unsigned; ``columns`` defaults to every column in order.  One memo is
    shared across the column choices, so the common sub-minors of
    neighbouring deletions are reused.
    """
    if m.cols != m.rows + 1:
        raise DimensionError("maximal minors need an r x (r+1) matrix")
    all_cols = tuple(range(m.cols))
    skips = all_cols if columns is None else tuple(columns)
    if any(not 0 <= skip < m.cols for skip in skips):
        raise DimensionError(f"column index out of range 0..{m.cols - 1}")
    if m.rows == 0:
        return [MultiPoly.one(m.n_vars) for _ in skips]
    out = []
    if m.rows > _COFACTOR_LIMIT:
        for skip in skips:
            kept = [c for c in all_cols if c != skip]
            sub = PolyMatrix.from_rows(
                [[m.entry(i, c) for c in kept] for i in range(m.rows)])
            out.append(determinant(sub))
        return out
    memo: dict[tuple, MultiPoly] = {}
    rows = tuple(range(m.rows))
    for skip in skips:
        cols = tuple(c for c in all_cols if c != skip)
        out.append(_det_cofactor(m, cols, rows, memo))
    return out
