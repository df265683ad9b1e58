"""Rational interpolation through fixed nodes, done entirely by determinants.

A web specification fixes the dimension n, the numerator/denominator degrees
k and l with k + l + 1 = n, and the interpolation nodes: either n pairwise
distinct exact numbers, or fully symbolic nodes carried as extra ring
variables.  The interpolant F with F(node_i) = x_i is encoded by two
coefficient matrices; its numerator and denominator coefficients are signed
maximal minors of one n x (n+1) row matrix, whose row i is
[1, l_i, ..., l_i^k, -x_i, -x_i l_i, ..., -x_i l_i^l].  The leading
coefficients P_k and Q_l, whose quotient is the web solution, are the
minors at columns k and n.  Row i of the matrix dotted with the signed
minors is P(node_i) - x_i Q(node_i) term for term; it is also the Laplace
expansion of the square matrix with row i repeated, hence zero.  That is
why the minors interpolate, and it is the identity ``interpolation_check``
tests.

Without a data point the signed minors are polynomials, and each one is
written down in closed form; no polynomial determinant is expanded.  Take
r of the rows, R, and r columns: the columns l^p for p in pe, then the
x-columns -x l^q for q in qe, s = |qe| of them.  The generalized Laplace
expansion along the x-columns gives

    det = sum over S in R, |S| = s, of  eps x^S alt(l_S; qe) alt(l_S'; pe),
    eps = (-1)^(s + sum_{p=r-s}^{r-1} p + sum of S's positions in R),

with S' = R minus S, x^S the product of the x_i with i in S, and
alt(l; mu) = det[l_i^mu_j] an alternant (Jacobi 1841, "De functionibus
alternantibus").  An alternant with no missing power is the Vandermonde
product V(l) = prod_{a<b} (l_b - l_a); with the power m - g of {0..m}
missing it is V(l) e_g(l), an elementary symmetric value.  Signed minor c
is (-1)^(n+c) times the minor over all n rows without column c: for a
numerator column c <= k, qe = {0..l} and pe = {0..k} minus c, so s = l + 1
and g = k - c, over S'; for a denominator column c = k + 1 + d,
qe = {0..l} minus d and pe = {0..k}, so s = l and g = n - c, over S.  P_k
and Q_l are the case g = 0, the leading columns of each block, and so are
the minors of size n-1 and n-2 on fewer rows that the factored residual
proof uses (``webs``).  One writer, ``_block``, produces all of them at
either kind of node, over any row subset and with the spare column in
either block; only the value of an alternant differs.  At numeric nodes it
is the one number V e_g, read off one table per node list (``_Alternants``),
so the coefficient of x^S is +-V(S) V(S') e_g and P_k and Q_l have exactly
C(n, l+1) and C(n, l) terms.  At symbolic nodes it is its Leibniz sum,
one monomial per permutation of its powers, signed as the permutation, in
node variables disjoint from the other alternant's: a minor over r rows is
its r! terms, assembled without a product of polynomials or a
cancellation.  The sign (-1)^(n+c) of signed minor c is applied by
``_minor_maps``, which maps column c to its g and passes the writer both,
and by ``_point_minors`` at a data point.  The writer keys each term by
its packed monomial at its caller's bit width: a byte for ``_minor_maps``,
whose maps are decoded (``_decoded``) only where a caller reads a minor's
terms, read as they are by the interpolation identity and held packed by
the flatness witness (``_held``); 2 bits a variable for the factored proofs.

At a numeric data point the point is substituted into the row matrix
before any minor is taken, so the minors are plain exact numbers, ints for
integer nodes and data, all n+1 read off one fraction-free Gauss-Jordan
pass in O(n^3) int operations.  A vanishing denominator constant term
raises a DegenerateInterpolantError, and so does a denominator root at a
node, tested by Horner's rule on the unnormalized minors: they are the
normalized denominator times its nonzero constant term, so they have the
same roots.  ``cauchy_interpolant`` then divides the minors by that
constant term, and these n+1 returned quotients are the only Fractions it
builds.  ``solve_oracle`` reaches the same numbers by an independent
integer Gauss-Jordan solve of the interpolation conditions, which ends
with one (numerator, pivot) int pair per unknown; it turns the pairs into
the Fractions it returns.  ``interpolant_matches_oracle`` compares the two
routes by cross-multiplying, minor * pivot == numerator * q0, so at integer
nodes and data the verdict compares ints, and a Fraction is built only
where a public function returns one.

Ring layout: variables 0..n-1 are the values x1..xn; in symbolic-node mode
variables n..2n-1 are the nodes l1..ln.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations
from operator import lshift, or_
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import DegenerateInterpolantError, DimensionError, PoleError, WebSpecError
from .polynomials import (MultiPoly, Scalar, _check_count, _exact, _exact_number, _horner,
                          _numeric_minors, _tighten, _tightened)
from .ratfunc import RationalFunction


@dataclass(frozen=True)
class WebSpec:
    """Dimension, interpolation order and nodes of one web construction.

    ``lambdas`` is either None (symbolic nodes) or n pairwise distinct exact
    numbers, each kept as an int when it is integral and as a Fraction
    otherwise, so no route converts them again.  Public index arguments
    (nodes, coordinates, triples) are 1-based throughout the library,
    matching the x1..xn naming.
    """

    n: int
    k: int
    l: int
    lambdas: Optional[tuple[Scalar, ...]] = None

    def __post_init__(self):
        _check_count("n", self.n, 2, f"dimension must be at least 2, got {self.n}")
        _check_count("k", self.k, 0, "negative interpolation order")
        _check_count("l", self.l, 0, "negative interpolation order")
        if self.k + self.l + 1 != self.n:
            raise WebSpecError(
                f"order mismatch: k + l + 1 = {self.k + self.l + 1} != n = {self.n}")
        if self.lambdas is not None:
            values = tuple(map(_exact_number, self.lambdas))
            object.__setattr__(self, "lambdas", values)
            if len(values) != self.n:
                raise WebSpecError(f"expected {self.n} nodes, got {len(values)}")
            if len(set(values)) != self.n:
                raise WebSpecError("nodes must be pairwise distinct")

    @classmethod
    def numeric(cls, n: int, k: int, l: int,
                lambdas: Optional[Sequence[Scalar]] = None) -> "WebSpec":
        """Numeric-node spec; nodes default to 1, 2, ..., n."""
        return cls(n, k, l, tuple(range(1, n + 1) if lambdas is None else lambdas))

    @classmethod
    def symbolic(cls, n: int, k: int, l: int) -> "WebSpec":
        return cls(n, k, l, None)

    @property
    def is_symbolic(self) -> bool:
        return self.lambdas is None

    @property
    def n_vars(self) -> int:
        """Ring size: n for numeric nodes, 2n when the nodes are symbolic."""
        return self.n if self.lambdas is not None else 2 * self.n

    def node(self, i: int) -> Union[Scalar, MultiPoly]:
        """Node value lambda_i (1-based): a number, or a variable when symbolic."""
        if not 1 <= i <= self.n:
            raise DimensionError(f"node index {i} out of range 1..{self.n}")
        if self.lambdas is not None:
            return self.lambdas[i - 1]
        return MultiPoly.variable(self.n_vars, self.n + i - 1)

    def names(self) -> list[str]:
        out = [f"x{i}" for i in range(1, self.n + 1)]
        if self.lambdas is None:
            out += [f"l{i}" for i in range(1, self.n + 1)]
        return out

    def describe(self) -> str:
        nodes = ("symbolic" if self.lambdas is None
                 else ",".join(str(v) for v in self.lambdas))
        return f"n={self.n} k={self.k} l={self.l} nodes={nodes}"


def row_matrix(spec: WebSpec, x_values: Optional[Sequence[Scalar]] = None
               ) -> list[list[Union[MultiPoly, Scalar]]]:
    """The shared n x (n+1) data matrix of both full determinants: row i is
    [1, l_i, ..., l_i^k, -x_i, -x_i l_i, ..., -x_i l_i^l].

    Entries are polynomials in the coordinates (and nodes, when symbolic),
    each written down as its one term, with no polynomial arithmetic:
    l_i^p or -x_i l_i^p, where l_i^p is a monomial in the node variable when
    the nodes are symbolic and the coefficient otherwise (a zero node leaves
    no term for p >= 1).  With ``x_values`` (numeric nodes only) the same
    loop substitutes the data point and every entry is an exact number, a
    plain int whenever it is integral: integral data values and nodes are
    turned into ints before any power is formed, so integer data builds no
    Fraction at all.
    """
    n, n_vars = spec.n, spec.n_vars
    point = x_values is not None
    if point:
        if spec.is_symbolic:
            raise WebSpecError("numeric data needs numeric nodes")
        if len(x_values) != n:
            raise WebSpecError(f"expected {n} data values")
        xs = [_exact_number(v) for v in x_values]
    rows = []
    for i in range(n):
        lam = 1 if spec.is_symbolic else spec.lambdas[i]
        row = []
        # Entry p of a block is c l_i^p, c = 1 in the l-block and -x_i in
        # the x-block; a polynomial entry carries x_i in its monomial.
        for block, top in ((0, spec.k), (1, spec.l)):
            c = (-xs[i] if point else -1) if block else 1
            for p in range(top + 1):
                if point:
                    row.append(c)
                else:
                    exps = [0] * n_vars
                    exps[i] = block
                    if spec.is_symbolic:
                        exps[n + i] = p
                    row.append(MultiPoly(n_vars, {tuple(exps): c} if c else None,
                                         _canonical=True))
                c *= lam
        if point and not (lam.__class__ is int and xs[i].__class__ is int):
            row = [_tighten(v) for v in row]
        rows.append(row)
    return rows


class _Alternants(dict):
    """V(S) (``vandermonde``) and e_0..e_|S| (``elementary``) of the nodes
    in row bitmask S, each one step from a smaller value, t the top row of
    S: V(S) = V(S - t) prod_{i in S - t} (nodes[t] - nodes[i]), and e(S),
    prod_{i in S} (1 + nodes[i] z), is e(S - t) times (1 + nodes[t] z).  It
    keeps every e and every V a step reads, and with ``keep_reads`` every V
    read.  One table per node list and call, the pencil's included."""

    def __init__(self, nodes: Sequence[Scalar], keep_reads: bool):
        super().__init__({0: 1})
        self.nodes, self.keep_reads, self._e = nodes, keep_reads, {0: [1]}

    def __missing__(self, mask: int) -> Scalar:
        value = self[mask] = self.vandermonde(mask)
        return value

    def vandermonde(self, mask: int) -> Scalar:
        value = self.get(mask)
        if value is None:
            top = mask.bit_length() - 1
            rest = mask ^ 1 << top
            nodes = self.nodes
            value, high = self[rest], nodes[top]
            while rest:
                low = rest & -rest
                value *= high - nodes[low.bit_length() - 1]
                rest ^= low
        return value

    def elementary(self, mask: int) -> list[Scalar]:
        e = self._e.get(mask)
        if e is None:
            top = mask.bit_length() - 1
            head, node = self.elementary(mask ^ 1 << top), self.nodes[top]
            e = self._e[mask] = [a + node * b for a, b in zip(head + [0], [0] + head)]
        return e


@cache
def _permutation_signs(r: int) -> tuple[int, ...]:
    """The sign of each permutation of r items in ``permutations`` order:
    item j in front, moved there by j transpositions, then the rest's."""
    if not r:
        return (1,)
    rest = _permutation_signs(r - 1)
    return tuple([-sign if j % 2 else sign for j in range(r) for sign in rest])


def _alternant_terms(n: int, rows: tuple[int, ...], exponents: tuple[int, ...],
                     width: int, cache: dict) -> list[tuple[int, int]]:
    """The Leibniz terms of det[l_r^e] over these rows and exponents, each
    as (packed monomial, sign of its permutation): row r takes the exponent
    that the permutation puts at its position.  A monomial packs the
    exponent of ring variable v into the ``width`` bits at bit offset
    v * width, so adding two keys with disjoint variables multiplies the
    monomials; every exponent is below n, which must stay below
    2**width.  The terms are kept in ``cache`` on (rows, exponents)."""
    terms = cache.get((rows, exponents))
    if terms is None:
        shifts = [width * (n + row) for row in rows]
        terms = cache[rows, exponents] = [
            (sum(map(lshift, powers, shifts)), sign)
            for powers, sign in zip(permutations(exponents), _permutation_signs(len(rows)))]
    return terms


def _block(n: int, table: Optional[_Alternants], rows: Sequence[int], size: int,
           signs: Mapping[int, int], x_missing: bool, width: int,
           cache: Optional[dict] = None) -> dict[int, dict[int, Scalar]]:
    """Minors of the row matrix over the r rows ``rows`` (0-based,
    increasing), keyed by g in ``signs`` and each multiplied by its sign
    signs[g] = +-1.  The x-block has ``size`` columns and the l-block
    r - size, and one block spares a column: with ``x_missing`` the x-block
    -x, -x l, ..., -x l^size omits -x l^(size-g) and the l-block is
    1, l, ..., l^(r-size-1); otherwise the l-block 1, l, ..., l^(r-size)
    omits l^(r-size-g) and the x-block is -x, ..., -x l^(size-1).  g = 0
    omits the top power, leaving the leading columns of each block.  By the
    module docstring the minor is

        sum over S in rows, |S| = size, of  eps x^S alt(l_S; qe) alt(l_S'; pe),
        eps = (-1)^(size + sum_{p=r-size}^{r-1} p + sum of S's positions in rows),

    with qe and pe the powers of the x-block and l-block columns.  Each
    minor is a map from packed monomials to coefficients: ring variable v
    takes the ``width`` bits at bit offset v * width, and 2**width must
    exceed every exponent, 1 in an x and below n in a node.  At numeric
    nodes, given by their ``table`` (terms in x_1..x_n), the term of S is
    signs[g] eps V(S) V(S') e_g x^S, e over the spare block's rows (S if it
    is the x-block), and e is not read when every g is 0.  Integral
    Fractions become ints and zero terms are dropped, except at int nodes
    with every g 0, where no coefficient is either (distinct nodes give
    V != 0) and the map is returned as written.  With ``table``
    None (terms in the 2n ring) each alternant is its Leibniz terms in
    l_1..l_n, from ``cache`` (one per call if None; calls at one n and
    width may share one), and a term is x^S times one term of either
    alternant, its key the sum of theirs."""
    r = len(rows)
    # The part of eps's exponent that does not depend on S.
    parity = size + size * (2 * r - size - 1) // 2
    out: dict[int, dict] = {g: {} for g in signs}
    if table is not None:
        full, spare = sum([1 << i for i in rows]), max(signs)
        read = table.__getitem__ if table.keep_reads else table.vandermonde
        for chosen, bits, x_bits in zip(combinations(range(r), size),
                                        combinations([1 << i for i in rows], size),
                                        combinations([1 << width * i for i in rows], size)):
            mask = sum(bits)
            value = read(mask) * read(full ^ mask)
            if (parity + sum(chosen)) % 2:
                value = -value
            e = table.elementary(mask if x_missing else full ^ mask) if spare else (1,)
            x_key = sum(x_bits)
            for g, sign in signs.items():
                out[g][x_key] = sign * value * e[g]
        if spare or any(v.__class__ is not int for v in table.nodes):
            out = {g: _tightened(terms) for g, terms in out.items()}
        return out
    cache = {} if cache is None else cache
    x_top, l_top = (size, r - size - 1) if x_missing else (size - 1, r - size)
    powers = {g: (tuple(e for e in range(x_top + 1) if not x_missing or e != x_top - g),
                  tuple(e for e in range(l_top + 1) if x_missing or e != l_top - g))
              for g in signs}
    # Both enumerations run in the same order: positions and rows of each S.
    for chosen, inside in zip(combinations(range(r), size), combinations(rows, size)):
        outside = tuple([i for i in rows if i not in inside])
        x_key = sum([1 << width * i for i in inside])
        eps = -1 if (parity + sum(chosen)) % 2 else 1
        for g, sign in signs.items():
            left = _alternant_terms(n, inside, powers[g][0], width, cache)
            right = _alternant_terms(n, outside, powers[g][1], width, cache)
            sign *= eps
            terms = out[g]
            for key_a, value_a in left:
                key_a += x_key
                value_a *= sign
                for key_b, value_b in right:
                    terms[key_a + key_b] = value_a * value_b
    return out


# A byte a variable: the interpolation identity's sums of keys reach
# exponents 2 in an x and 2(n-1) in a node, below 256 for n <= 128.
_BYTE = 8


def _minor_maps(spec: WebSpec, columns: Optional[Sequence[int]] = None
                ) -> list[dict[int, Scalar]]:
    """The signed minors at ``columns`` (all n+1 by default) as ``_block``
    writes them, maps from packed monomials to coefficients, with one
    ``_Alternants`` table or one Leibniz cache for both blocks."""
    n, k, l = spec.n, spec.k, spec.l
    columns = range(n + 1) if columns is None else columns
    packed: dict[int, dict] = {}
    # A numerator column c omits the power l^c = l^(k-g), a denominator
    # column the power -x l^(c-k-1) = -x l^(l-g): g = top - c in both blocks.
    table = None if spec.is_symbolic else _Alternants(spec.lambdas, False)
    cache: dict = {}
    for block, size, x_missing, top in (({c for c in columns if c <= k}, l + 1, False, k),
                                        ({c for c in columns if c > k}, l, True, n)):
        if block:
            minors = _block(n, table, range(n), size,
                            {top - c: -1 if (n + c) % 2 else 1 for c in block}, x_missing,
                            _BYTE, cache)
            packed.update((c, minors.pop(top - c)) for c in block)
    return [packed[c] for c in columns]


def _decoded(n_vars: int, packed: Mapping[int, Scalar]) -> MultiPoly:
    """A map of ``_minor_maps`` held as exponent tuples, read by ``int.to_bytes``."""
    return MultiPoly(n_vars, {tuple(key.to_bytes(n_vars, "little")): value
                              for key, value in packed.items()}, _canonical=True)


def _held(n_vars: int, packed: dict[int, Scalar]) -> MultiPoly:
    """A map of ``_minor_maps`` held as it is; its top, the largest byte of
    the keys' bitwise or, is 1 for genuine minors and above 1 for a square."""
    top = max(reduce(or_, packed, 0).to_bytes(n_vars, "little"))
    return MultiPoly._from_packed(n_vars, packed, _BYTE, top)


def signed_minors(spec: WebSpec,
                  columns: Optional[Sequence[int]] = None) -> list[MultiPoly]:
    """Coefficients of the interpolant's two determinants.

    Entry c is (-1)^(n+c) det(row matrix without column c); entries 0..k are
    the numerator coefficients, entries k+1..n the denominator coefficients.
    With ``columns`` only those entries are computed, in that order.  Every
    entry is built term by term from its closed form (see the module
    docstring) by ``_minor_maps``, with no matrix and no determinant expansion.
    """
    n = spec.n
    columns = tuple(range(n + 1)) if columns is None else tuple(columns)
    for c in columns:
        _check_count("column index", c, error=DimensionError)
    if any(not 0 <= c <= n for c in columns):
        raise DimensionError(f"column index out of range 0..{n}")
    minors = _minor_maps(spec, columns)
    for i, packed in enumerate(minors):
        minors[i] = _decoded(spec.n_vars, packed)
    return minors


def highest_coefficients(spec: WebSpec) -> tuple[MultiPoly, MultiPoly]:
    """The leading numerator and denominator coefficients (P_k, Q_l)."""
    p_top, q_top = signed_minors(spec, (spec.k, spec.n))
    return p_top, q_top


@dataclass(frozen=True)
class CauchyInterpolant:
    """Coefficient lists of the rational interpolant F = p/q: ``p_coeffs``
    holds p_0..p_k and ``q_coeffs`` holds q_0..q_l.

    Without a data point they are the signed minors, polynomials in the
    coordinates.  At a data point they are exact numbers scaled so that
    q_0 = 1.
    """

    p_coeffs: tuple[Union[MultiPoly, Scalar], ...]
    q_coeffs: tuple[Union[MultiPoly, Scalar], ...]


def cauchy_interpolant(spec: WebSpec,
                       x_values: Optional[Sequence[Scalar]] = None) -> CauchyInterpolant:
    """Extract the interpolant's coefficient lists from the determinants.

    Without ``x_values`` the coefficients are the signed minors as
    polynomials in the coordinates.  With ``x_values`` (numeric nodes only)
    the data point is substituted into the row matrix first, so each
    coefficient is one numeric minor, all read off one fraction-free
    elimination of the numeric matrix, and no polynomial is expanded.
    DegenerateInterpolantError is raised when the denominator's constant
    term vanishes or when the denominator minors have a root at a node (an
    unattainable point); otherwise the minors are divided by that constant
    term, and at integer nodes and data these returned quotients are the
    only Fractions the call builds.
    """
    k = spec.k
    if x_values is None:
        coeffs = signed_minors(spec)
    else:
        minors = _point_minors(spec, x_values)
        q0 = minors[k + 1]
        coeffs = [Fraction(c, q0) for c in minors]
    return CauchyInterpolant(tuple(coeffs[:k + 1]), tuple(coeffs[k + 1:]))


def _point_minors(spec: WebSpec, x_values: Sequence[Scalar]) -> list[Scalar]:
    """The n+1 signed minors at a data point, unnormalized: ints for integer
    nodes and data, from one fraction-free pass over the row matrix.

    DegenerateInterpolantError is raised when the denominator's constant
    term q0 (entry k+1) vanishes, or when the denominator minors have a
    root at a node.
    """
    k = spec.k
    # Entry c is (-1)^(n+c) times the minor without column c.
    minors = [m if (spec.n + c) % 2 == 0 else -m
              for c, m in enumerate(_numeric_minors(row_matrix(spec, x_values),
                                                    range(spec.n + 1)))]
    if not minors[k + 1]:
        raise DegenerateInterpolantError(
            "denominator constant term vanishes at this data point")
    # Attainability: a denominator root at a node means the numerator
    # shares it and the interpolation condition silently fails there.
    # The normalized denominator is the minors' one over q0 != 0, so
    # both have the same roots.
    q_minors = minors[k + 1:]
    for i, lam in enumerate(spec.lambdas, 1):
        if not _horner(q_minors, lam):
            raise DegenerateInterpolantError(
                f"numerator and denominator share a root at node {i}: "
                "unattainable data point")
    return minors


def interpolation_check(spec: WebSpec) -> bool:
    """Whether P(node_i) - x_i Q(node_i) vanishes identically for every i.

    This is the defining interpolation property, checked as an exact
    polynomial identity in the coordinates (and nodes, when symbolic).
    """
    return _interpolation_identity(spec, _minor_maps(spec))


def _interpolation_identity(spec: WebSpec, minors: Sequence[Mapping[int, Scalar]]) -> bool:
    """The interpolation property for the n+1 maps of ``_minor_maps``: for
    row i of the row matrix, sum_c row_i[c] * minors[c] is P(node_i) -
    x_i Q(node_i) term for term.  An entry is one term (or none), read as
    one byte key and one coefficient, so a row adds the shifted and scaled
    maps into one map, with no product formed and no minor decoded."""
    for row in row_matrix(spec):
        sums: dict[int, Scalar] = {}
        get = sums.get
        for entry, minor in zip(row, minors):
            for exps, c in entry.terms.items():
                shift = int.from_bytes(bytes(exps), "little")
                for key, value in minor.items():
                    key += shift
                    sums[key] = get(key, 0) + c * value
        if any(sums.values()):
            return False
    return True


def solve_oracle(spec: WebSpec, x_values: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Independent route: solve the interpolation conditions by exact
    Gauss-Jordan elimination, returning (p_0..p_k, q_1..q_l) with q_0 = 1.

    The elimination (``_oracle_pairs``) runs on ints only; each unknown's
    numerator and pivot become one returned Fraction here.  A rank-deficient
    but consistent system (constant data, say) resolves by setting the free
    unknowns to zero; an inconsistent one raises.
    """
    return tuple(Fraction(a, b) for a, b in _oracle_pairs(spec, x_values))


def _oracle_pairs(spec: WebSpec, x_values: Sequence[Scalar]) -> list[tuple[int, int]]:
    """The elimination behind ``solve_oracle``: one int pair (a, b), b != 0,
    per unknown p_0..p_k, q_1..q_l, whose value is a / b; a free unknown
    is (0, 1).  No unknown is free where q0 != 0, since q0 is, up to sign,
    the determinant of the unscaled system.

    Each row is scaled to ints by the lcm of its denominators.  A row update
    cross-multiplies, r <- p r - r_c s for pivot row s with pivot p, and
    divides the result by its gcd; no division by an earlier pivot is used,
    so this route shares nothing with the fraction-free minors of
    ``_numeric_minors``.
    """
    if spec.is_symbolic:
        raise WebSpecError("the elimination oracle needs numeric nodes")
    if len(x_values) != spec.n:
        raise WebSpecError(f"expected {spec.n} data values")
    xs = [_exact_number(v) for v in x_values]
    n, k, l = spec.n, spec.k, spec.l
    rows = []
    for lam, x in zip(spec.lambdas, xs):
        powers = [lam ** j for j in range(max(k, l) + 1)]
        row = powers[:k + 1] + [-x * p for p in powers[1:l + 1]] + [x]
        if lam.__class__ is not int or x.__class__ is not int:
            d = math.lcm(*[v.denominator for v in row])
            row = [v.numerator * (d // v.denominator) for v in row]
        rows.append(row)
    # Gauss-Jordan with first-nonzero pivoting, on ints only.
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n):
        pivot_row = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top = rows[rank]
        pivot = top[col]
        for r in range(n):
            factor = rows[r][col]
            if r != rank and factor:
                row = [pivot * a - factor * b for a, b in zip(rows[r], top)]
                g = math.gcd(*row)
                rows[r] = [a // g for a in row] if g > 1 else row
        pivot_cols.append(col)
        rank += 1
    if any(rows[r][n] for r in range(rank, n)):
        raise DegenerateInterpolantError("singular interpolation system")
    pairs = [(0, 1)] * n
    for r, col in enumerate(pivot_cols):
        pairs[col] = (rows[r][n], rows[r][col])
    return pairs


def evaluate_interpolant(interp: CauchyInterpolant, at: Scalar
                         ) -> Union[Fraction, RationalFunction]:
    """F(at) = p(at)/q(at): an exact number when the coefficients are
    numbers, otherwise a rational function of the coordinates."""
    value = _exact(at)
    p_val = _horner(interp.p_coeffs, value)
    q_val = _horner(interp.q_coeffs, value)
    if isinstance(q_val, MultiPoly):
        if q_val.is_zero:
            raise PoleError(f"denominator vanishes identically at {at}")
        return RationalFunction(p_val, q_val)
    if not q_val:
        raise PoleError(f"denominator vanishes at parameter value {at}")
    return p_val / q_val


def interpolant_matches_oracle(spec: WebSpec, x_values: Sequence[Scalar]) -> bool:
    """Determinant route vs elimination route on one numeric instance.

    Each coefficient p_j or q_j (j >= 1) of ``cauchy_interpolant`` is its
    signed minor m over q0, and the same unknown of ``solve_oracle`` is
    a / b, so the two agree when m * b == a * q0, with q0 and every pivot b
    nonzero: at integer nodes and data the verdict compares ints and builds
    no Fraction.  The degeneracies raise as in those two functions, the
    determinant route's first.
    """
    minors = _point_minors(spec, x_values)
    pairs = _oracle_pairs(spec, x_values)
    k = spec.k
    q0 = minors[k + 1]
    return all(m * b == a * q0
               for m, (a, b) in zip(minors[:k + 1] + minors[k + 2:], pairs))


def random_numeric_instances(n: int, k: int, l: int, count: int, seed: int,
                             bound: int = 20
                             ) -> Iterator[tuple[WebSpec, list[Fraction], bool]]:
    """Reproducible random nondegenerate instances for oracle comparisons.

    Integer nodes and data in [-bound, bound], rejection-sampled until the
    nodes are distinct and the interpolation system is solvable.  Each
    instance comes with its ``interpolant_matches_oracle`` verdict, which
    compares ints and builds no Fraction; the data are drawn as ints, and
    only an accepted instance's are returned as Fractions.  ``n``,
    ``count``, ``seed`` and ``bound`` must be ints, ``count`` and ``bound``
    nonnegative, checked by the call itself, before any instance is drawn.
    """
    for name, value in (("n", n), ("seed", seed)):
        _check_count(name, value)
    _check_count("count", count, 0, f"negative instance count {count}")
    _check_count("bound", bound, 0, f"negative sampling bound {bound}")
    if n > 2 * bound + 1:
        raise WebSpecError(f"cannot draw {n} distinct nodes from the "
                           f"{2 * bound + 1} integers in [-{bound}, {bound}]")

    def instances() -> Iterator[tuple[WebSpec, list[Fraction], bool]]:
        rng = random.Random(seed)
        produced = 0
        while produced < count:
            lambdas = [rng.randint(-bound, bound) for _ in range(n)]
            if len(set(lambdas)) != n:
                continue
            xs = [rng.randint(-bound, bound) for _ in range(n)]
            spec = WebSpec.numeric(n, k, l, lambdas)
            try:
                matched = interpolant_matches_oracle(spec, xs)
            except DegenerateInterpolantError:
                continue
            produced += 1
            yield spec, [Fraction(x) for x in xs], matched

    return instances()
