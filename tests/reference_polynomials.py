"""Second routes for polynomial arithmetic and determinants: test oracles.

``product_terms`` is the oracle for ``MultiPoly.__mul__``, and
``sum_of_products_terms`` for the sums of products behind it, order of
the terms included.  The library multiplies with packed-int keys; these
routes sum every term pair's coefficient as a Fraction under the
componentwise sum of the exponent tuples, written without any of the
library's helpers.  ``halves``, ``coefficient`` and ``lex_leading`` are
the exponent-tuple routes of the packed helpers that the factored proofs
read (``polynomials._halves``, ``_coefficient`` and ``_leading_pair``).

``cofactor_determinant`` and ``cofactor_minors`` are the polynomial
determinant and maximal minors by memoized cofactor expansion; the library
takes no polynomial matrix, and the tests use them as the oracle for the
closed-form ``signed_minors``.  ``_det_bareiss`` is the oracle for the
cofactor expansion: it eliminates fraction-free instead, dividing each
2 x 2 update exactly by the previous pivot with ``exact_div``, ring long
division.  This is the one place where polynomial division lives.  On
constant polynomials both are also oracles for the library's numeric
minors, which eliminate fraction-free over the ints but share no code with
them.
"""

import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from hirotaweb import MultiPoly, WebSpec, row_matrix
from hirotaweb.polynomials import Exponents, Scalar, _tighten, grlex_key

Matrix = Sequence[Sequence[MultiPoly]]


def product_terms(p: MultiPoly, q: MultiPoly) -> dict:
    """The nonzero terms of p * q."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}


def sum_of_products_terms(parts: Iterable) -> dict:
    """The nonzero terms of sum scale * a * b over the (a, b, scale) parts,
    in the order the library's kernel collects them: part by part, the
    operand with fewer terms outside (the first on a tie), and each
    monomial where a term pair first reaches it, even if it cancels and
    comes back later."""
    out = {}
    for a, b, scale in parts:
        a, b = a.terms, b.terms
        if not scale or not a or not b:
            continue
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, Fraction(0)) + Fraction(ca) * Fraction(cb) * scale
    return {e: c for e, c in out.items() if c}


def halves(poly: MultiPoly, v: int) -> tuple[dict, dict]:
    """The terms of (P', P'') with P = x_v P' + P'' for a polynomial affine
    in the 0-based variable v: P' = d_v P and P'' is P at x_v = 0."""
    upper, lower = {}, {}
    for exps, c in poly.terms.items():
        if exps[v]:
            upper[exps[:v] + (0,) + exps[v + 1:]] = c
        else:
            lower[exps] = c
    return upper, lower


def coefficient(parts: Iterable, monomial: Exponents) -> Fraction:
    """The coefficient at one monomial of sum of scale * a * b over the
    (a, b, scale) parts, read without forming any product."""
    total = Fraction(0)
    for a, b, scale in parts:
        terms = b.terms
        for exps, c in a.terms.items():
            other = terms.get(tuple(map(operator.sub, monomial, exps)))
            if other is not None:
                total += scale * c * other
    return total


def lex_leading(poly: MultiPoly) -> tuple[Exponents, Scalar]:
    """The leading term of a nonzero polynomial in lex order with the last
    variable most significant."""
    exps = max(poly.terms, key=lambda e: e[::-1])
    return exps, poly.terms[exps]


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


def _det_cofactor(m: Matrix, cols: tuple[int, ...], rows: tuple[int, ...],
                  memo: dict) -> MultiPoly:
    """Laplace expansion of a polynomial matrix along the first listed
    column, memoized on the (columns, rows) submatrix so shared minors are
    computed once.  Zeros are skipped, and the sum starts from the first
    nonzero term."""
    if len(cols) == 1:
        return m[rows[0]][cols[0]]
    key = (cols, rows)
    cached = memo.get(key)
    if cached is not None:
        return cached
    first = cols[0]
    rest = cols[1:]
    total = None
    for position, row in enumerate(rows):
        coeff = m[row][first]
        if not coeff:
            continue
        minor = _det_cofactor(m, rest, rows[:position] + rows[position + 1:], memo)
        if not minor:
            continue
        piece = coeff * minor
        if total is None:
            total = piece if position % 2 == 0 else -piece
        else:
            total = total + piece if position % 2 == 0 else total - piece
    if total is None:
        total = m[rows[0]][first] * 0
    memo[key] = total
    return total


def cofactor_determinant(m: Matrix) -> MultiPoly:
    """The determinant of a square polynomial matrix."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("non-square matrix")
    if not m:
        return MultiPoly.one(0)
    return _det_cofactor(m, tuple(range(len(m))), tuple(range(len(m))), {})


def cofactor_minors(m: Matrix, columns: Optional[Iterable[int]] = None) -> list[MultiPoly]:
    """det(m without column c) for each c of ``columns`` (default: every
    column) of an r x (r+1) polynomial matrix, unsigned; one memo serves
    every deletion, so neighbouring deletions share their sub-minors."""
    width = len(m) + 1
    if any(len(row) != width for row in m):
        raise ValueError("maximal minors need an r x (r+1) matrix")
    memo: dict = {}
    rows = tuple(range(len(m)))
    skips = range(width) if columns is None else columns
    return [_det_cofactor(m, tuple(c for c in range(width) if c != skip), rows, memo)
            for skip in skips]


def cofactor_signed_minors(spec: WebSpec) -> list[MultiPoly]:
    """Entry c is (-1)^(n+c) times the cofactor minor of the row matrix
    without column c: the oracle of ``signed_minors``."""
    minors = cofactor_minors(row_matrix(spec))
    return [m if (spec.n + c) % 2 == 0 else -m for c, m in enumerate(minors)]
