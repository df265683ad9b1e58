"""Independent routes to the interpolation determinants.

The library reads every interpolation coefficient off the maximal minors of
one n x (n+1) row matrix.  This module builds the four classical square
matrices instead, each from the nodes and coordinates alone, and expands
determinants by plain unmemoized Laplace expansion:

* "P-full" and "Q-full" are (n+1) x (n+1): the data rows plus a final row in
  powers of the interpolation parameter t, which is a fresh trailing ring
  variable unless pinned to a number.  Their determinants are the numerator
  and denominator of the interpolant as polynomials in t.
* "P-top" and "Q-top" are n x n: the data rows with the top power of the
  numerator block (resp. the denominator block) left out.  Their signed
  determinants are the leading coefficients P_k and Q_l.

Tests compare the library's minors against these.  ``point_coefficients``
is the symbolic route to the interpolant at a data point: every signed minor
expanded as a polynomial in x1..xn and only then evaluated, against which
the library's numeric minors of the substituted row matrix are checked.
``solve_oracle_fractions`` is the oracle of the library's elimination
oracle: forward elimination and back substitution in Fraction arithmetic,
where ``solve_oracle`` runs Gauss-Jordan on integer rows.

``closed_form_block`` is the library's earlier numeric-node writer of the
row matrix's minors: every coefficient a product of Vandermonde values and
an elementary symmetric value, each computed afresh from its node subset,
with no table shared between terms, minors or calls.
``closed_form_signed_minors`` reads the interpolant's signed minors off it.

``row_matrix_products`` and ``normalized_interpolant`` are the library's
earlier routes to the row matrix and to the interpolant at a data point:
every polynomial entry built by products and negations from the constant 1,
the coordinate and the node; and every minor divided by the denominator's
constant term before the attainability test runs Horner's rule on the
normalized denominator in Fractions.

``kernel_identity`` is the library's earlier interpolation identity: the
minors decoded into polynomials, and each row of the row matrix times them
collected as one sum of products by the polynomial kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional, Sequence

from hirotaweb import (CauchyInterpolant, DegenerateInterpolantError, MultiPoly, WebSpec,
                       WebSpecError, maximal_minors, signed_minors)
from hirotaweb.interpolation import row_matrix
from hirotaweb.polynomials import (Scalar, _exact, _horner, _sum_of_products, _tighten,
                                   _tightened)
from reference_exterior import x_poly

KINDS = ("P-full", "Q-full", "P-top", "Q-top")


def _power(value, e: int, n_vars: int) -> MultiPoly:
    """value**e as a polynomial; value is an exact number or a polynomial."""
    if isinstance(value, MultiPoly):
        return value ** e
    return MultiPoly.const(n_vars, Fraction(value) ** e)


def _data_rows(spec: WebSpec, p_top: int, q_top: int, n_vars: int) -> list[list[MultiPoly]]:
    """Rows [1, l_i, ..., l_i^p_top, -x_i, ..., -x_i l_i^q_top]; a negative
    top degree gives an empty block."""
    rows = []
    for i in range(1, spec.n + 1):
        lam = (spec.lambdas[i - 1] if not spec.is_symbolic
               else MultiPoly.variable(n_vars, spec.n + i - 1))
        x = MultiPoly.variable(n_vars, i - 1)
        rows.append([_power(lam, j, n_vars) for j in range(p_top + 1)]
                    + [-(x * _power(lam, j, n_vars)) for j in range(q_top + 1)])
    return rows


def build_system_matrix(spec: WebSpec, which: str,
                        param: Optional[Fraction] = None) -> list[list[MultiPoly]]:
    """One of the four interpolation matrices named in ``KINDS``."""
    if which not in KINDS:
        raise ValueError(f"unknown matrix kind {which!r}")
    n, k, l = spec.n, spec.k, spec.l
    if which == "P-top":
        return _data_rows(spec, k - 1, l, spec.n_vars)
    if which == "Q-top":
        return _data_rows(spec, k, l - 1, spec.n_vars)
    n_vars = spec.n_vars + (1 if param is None else 0)
    t = MultiPoly.variable(n_vars, n_vars - 1) if param is None else param
    powers = [_power(t, j, n_vars) for j in range(max(k, l) + 1)]
    zero = MultiPoly.zero(n_vars)
    if which == "P-full":
        last = powers[:k + 1] + [zero] * (l + 1)
    else:
        last = [zero] * (k + 1) + powers[:l + 1]
    return _data_rows(spec, k, l, n_vars) + [last]


def determinant_cofactor_naive(m: list[list[MultiPoly]]) -> MultiPoly:
    """Plain unmemoized Laplace expansion along the first column of a square
    polynomial matrix, given as a list of rows."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("non-square matrix")
    if not m:
        return MultiPoly.one(0)
    n_vars = m[0][0].n_vars

    def expand(cols: tuple[int, ...], rows: tuple[int, ...]) -> MultiPoly:
        if len(cols) == 1:
            return m[rows[0]][cols[0]]
        total = MultiPoly.zero(n_vars)
        for position, row in enumerate(rows):
            piece = m[row][cols[0]] * expand(cols[1:], rows[:position] + rows[position + 1:])
            total = total + (piece if position % 2 == 0 else -piece)
        return total

    return expand(tuple(range(len(m))), tuple(range(len(m))))


def top_coefficients(spec: WebSpec) -> tuple[MultiPoly, MultiPoly]:
    """(P_k, Q_l) as the signed P-top and Q-top determinants.

    Expanding a full determinant along its parameter row (row n, 0-based)
    gives the t^j entry in column c the cofactor sign (-1)^(n+c): c = k for
    the numerator's top power, c = k+l+1 = n for the denominator's.
    """
    p_det = determinant_cofactor_naive(build_system_matrix(spec, "P-top"))
    q_det = determinant_cofactor_naive(build_system_matrix(spec, "Q-top"))
    p_sign = -1 if (spec.n + spec.k) % 2 else 1
    q_sign = -1 if (spec.n + spec.k + spec.l + 1) % 2 else 1
    return p_det * p_sign, q_det * q_sign


def point_coefficients(spec: WebSpec, x_values: Sequence[Fraction],
                       normalize: bool = False) -> list[Fraction]:
    """The signed minors at a data point, expanded symbolically first.

    Under ``normalize`` they are divided by the denominator's constant term;
    DegenerateInterpolantError is raised when that term vanishes ("constant
    term" in the message) or when the normalized denominator vanishes at a
    node ("unattainable").
    """
    point = [Fraction(v) for v in x_values]
    values = [m.evaluate(point) for m in signed_minors(spec)]
    if not normalize:
        return values
    q0 = values[spec.k + 1]
    if not q0:
        raise DegenerateInterpolantError("denominator constant term vanishes")
    values = [v / q0 for v in values]
    q = values[spec.k + 1:]
    for lam in spec.lambdas:
        if sum(c * lam ** j for j, c in enumerate(q)) == 0:
            raise DegenerateInterpolantError("unattainable data point")
    return values


def solve_oracle_fractions(spec: WebSpec, x_values: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Independent route: solve the interpolation conditions by exact
    Gaussian elimination, returning (p_0..p_k, q_1..q_l) with q_0 = 1.

    A rank-deficient but consistent system (constant data, say) resolves by
    setting the free unknowns to zero; an inconsistent one raises.
    """
    if spec.is_symbolic:
        raise WebSpecError("the elimination oracle needs numeric nodes")
    if len(x_values) != spec.n:
        raise WebSpecError(f"expected {spec.n} data values")
    xs = [_exact(v) for v in x_values]
    n, k, l = spec.n, spec.k, spec.l
    rows = []
    for i in range(n):
        lam = _exact(spec.lambdas[i])
        powers = [lam ** j for j in range(max(k, l) + 1)]
        row = [powers[j] for j in range(k + 1)]
        row += [-xs[i] * powers[j] for j in range(1, l + 1)]
        row.append(xs[i])
        rows.append(row)
    # Forward elimination with first-nonzero pivoting; all exact.
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n):
        pivot_row = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, n):
            factor = rows[r][col] / pivot
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivot_cols.append(col)
        rank += 1
    for r in range(rank, n):
        if rows[r][n]:
            raise DegenerateInterpolantError("singular interpolation system")
    solution = [Fraction(0)] * n
    for r in range(rank - 1, -1, -1):
        col = pivot_cols[r]
        acc = rows[r][n] - sum(rows[r][j] * solution[j] for j in range(col + 1, n))
        solution[col] = acc / rows[r][col]
    return tuple(solution)


def row_matrix_products(spec: WebSpec, x_values: Optional[Sequence[Scalar]] = None
                        ) -> list[list]:
    """The row matrix with entry p of each block built as a product of
    powers: [1, l_i, ..., l_i^k, -x_i, ..., -x_i l_i^l], each entry a
    polynomial, or an exact number (an int when integral) at a data point."""
    if x_values is None:
        unit = MultiPoly.one(spec.n_vars)
        xs = [x_poly(spec, i) for i in range(1, spec.n + 1)]
        nodes = [spec.node(i) for i in range(1, spec.n + 1)]
    else:
        unit = 1
        xs = [_tighten(_exact(v)) for v in x_values]
        nodes = [_tighten(lam) for lam in spec.lambdas]
    rows = []
    for lam, x in zip(nodes, xs):
        powers = [unit]
        for _ in range(max(spec.k, spec.l)):
            powers.append(powers[-1] * lam)
        row = powers[:spec.k + 1] + [-x * p for p in powers[:spec.l + 1]]
        rows.append([_tighten(v) for v in row])
    return rows


def normalized_interpolant(spec: WebSpec, x_values: Sequence[Scalar]) -> CauchyInterpolant:
    """The interpolant at a data point with q_0 = 1: the signed minors of
    the product-built row matrix divided by q_0 first, attainability tested
    on the normalized denominator; the messages are the library's."""
    k = spec.k
    minors = [m if (spec.n + c) % 2 == 0 else -m
              for c, m in enumerate(maximal_minors(row_matrix_products(spec, x_values)))]
    q0 = minors[k + 1]
    if not q0:
        raise DegenerateInterpolantError(
            "denominator constant term vanishes at this data point")
    coeffs = [Fraction(c, q0) for c in minors]
    for i, lam in enumerate(spec.lambdas, 1):
        if not _horner(coeffs[k + 1:], lam):
            raise DegenerateInterpolantError(
                f"numerator and denominator share a root at node {i}: "
                "unattainable data point")
    return CauchyInterpolant(tuple(coeffs[:k + 1]), tuple(coeffs[k + 1:]))


def vandermonde(values: Sequence[Scalar]) -> Scalar:
    """prod over a < b of (values[b] - values[a])."""
    out: Scalar = 1
    for b, high in enumerate(values):
        for low in values[:b]:
            out *= high - low
    return out


def elementary(values: Sequence[Scalar]) -> list[Scalar]:
    """e_0, ..., e_m of m numbers: the coefficients of prod (1 + v t)."""
    e: list[Scalar] = [1]
    for v in values:
        e = [a + v * b for a, b in zip(e + [0], [0] + e)]
    return e


def closed_form_block(nodes: Sequence[Scalar], rows: Sequence[int], size: int,
                      signs: Mapping[int, int], x_missing: bool,
                      width: int) -> dict[int, dict[int, Scalar]]:
    """The minors of the row matrix at numeric ``nodes`` over ``rows``, in
    the library's ``_block`` convention (sizes, spare block, g, signs and
    packed keys): the term of each x-row subset S is x^S with coefficient
    signs[g] eps V(S) V(S') e_g, every V and e computed from its own node
    values."""
    r = len(rows)
    parity = size + size * (2 * r - size - 1) // 2
    top = max(signs)
    out: dict[int, dict] = {g: {} for g in signs}
    for chosen, inside in zip(combinations(range(r), size), combinations(rows, size)):
        outside = [i for i in rows if i not in inside]
        x_key = sum([1 << width * i for i in inside])
        eps = -1 if (parity + sum(chosen)) % 2 else 1
        v_in = vandermonde([nodes[i] for i in inside])
        v_out = vandermonde([nodes[i] for i in outside])
        e = elementary([nodes[i] for i in (inside if x_missing else outside)]) if top else (1,)
        for g, sign in signs.items():
            out[g][x_key] = sign * eps * v_in * v_out * e[g]
    return {g: _tightened(terms) for g, terms in out.items()}


def closed_form_signed_minors(spec: WebSpec) -> list[MultiPoly]:
    """All n+1 signed minors of a numeric-node spec from
    ``closed_form_block``: numerator column c at g = k - c over an x-block
    of l + 1 columns, denominator column c at g = n - c with the x-block
    sparing a column, each with the sign (-1)^(n+c)."""
    n, k, l = spec.n, spec.k, spec.l
    out = []
    for block, size, x_missing, top in ((range(k + 1), l + 1, False, k),
                                        (range(k + 1, n + 1), l, True, n)):
        minors = closed_form_block(spec.lambdas, range(n), size,
                                   {top - c: -1 if (n + c) % 2 else 1 for c in block},
                                   x_missing, 8)
        out += [MultiPoly(n, {tuple(key.to_bytes(n, "little")): value
                              for key, value in minors[top - c].items()})
                for c in block]
    return out


def kernel_identity(spec: WebSpec, minors: Sequence[MultiPoly]) -> bool:
    """Whether sum_c row_i[c] * minors[c] is zero for every row i of
    ``row_matrix(spec)``, each row one ``_sum_of_products`` over the n+1
    entry-minor products."""
    return all(_sum_of_products(spec.n_vars, [(entry, minor, 1)
                                              for entry, minor in zip(row, minors)]).is_zero
               for row in row_matrix(spec))
