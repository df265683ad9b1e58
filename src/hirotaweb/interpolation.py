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
is the one number V e_g, so each coefficient is a product of numbers and
P_k and Q_l have exactly C(n, l+1) and C(n, l) terms.  At symbolic nodes it
is its Leibniz monomials, all distinct with coefficients +-1, in node
variables disjoint from the other alternant's: a minor over r rows is its
r! terms, assembled without a product of polynomials or a cancellation.
``signed_minors`` maps column c to its g and passes the writer the sign
(-1)^(n+c) with it, the one place that sign is applied.  The writer keys
each term by its packed monomial at the bit width its caller passes:
``signed_minors`` asks for byte fields, which it decodes into exponent
tuples with ``int.to_bytes``, and the factored proofs ask for the
arithmetic kernel's width for a product of two minors, 2 bits a variable,
and keep the packed map (``polynomials``).

At a numeric data point the point is substituted into the row matrix
before any minor is taken, so the minors are plain exact numbers, ints for
integer nodes and data, all n+1 read off one fraction-free Gauss-Jordan
pass in O(n^3) int operations.  A vanishing denominator constant term
raises a DegenerateInterpolantError, and so does a denominator root at a
node, tested by Horner's rule on the unnormalized minors: they are the
normalized denominator times its nonzero constant term, so they have the
same roots.  Only then are the minors divided by that constant term, and
these n+1 quotients are the only Fractions the route builds.
``solve_oracle`` reaches the same numbers by an independent integer
Gauss-Jordan solve of the interpolation conditions.

Ring layout: variables 0..n-1 are the values x1..xn; in symbolic-node mode
variables n..2n-1 are the nodes l1..ln.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import DegenerateInterpolantError, DimensionError, PoleError, WebSpecError
from .polynomials import (MultiPoly, Scalar, _check_count, _exact, _horner, _sum_of_products,
                          _tighten, _tightened, maximal_minors)
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
            values = tuple(v if v.__class__ is int else _tighten(_exact(v))
                           for v in self.lambdas)
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
        xs = [_tighten(_exact(v)) for v in x_values]
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


def _elementary(values: Sequence[Scalar]) -> list[Scalar]:
    """e_0, ..., e_m of m numbers: the coefficients of prod (1 + v t)."""
    e: list[Scalar] = [1]
    for v in values:
        e = [a + v * b for a, b in zip(e + [0], [0] + e)]
    return e


def _vandermonde(values: Sequence[Scalar]) -> Scalar:
    """prod over a < b of (values[b] - values[a])."""
    out: Scalar = 1
    for b, high in enumerate(values):
        for low in values[:b]:
            out *= high - low
    return out


def _alternant_terms(n: int, rows: tuple[int, ...], exponents: tuple[int, ...],
                     width: int, cache: dict) -> list[tuple[int, int]]:
    """The Leibniz terms of det[l_r^e] over these rows and exponents, each
    as (packed monomial, +-1).  A monomial packs the exponent of ring
    variable v into the ``width`` bits at bit offset v * width, so adding
    two keys with disjoint variables multiplies the monomials; every
    exponent is below n, which must stay below 2**width.  The expansion
    runs along the first row, and every sub-alternant is cached on
    (rows, exponents)."""
    key = (rows, exponents)
    terms = cache.get(key)
    if terms is not None:
        return terms
    if not rows:
        terms = [(0, 1)]
    else:
        shift = width * (n + rows[0])
        terms = []
        for j, e in enumerate(exponents):
            head = e << shift
            rest = _alternant_terms(n, rows[1:], exponents[:j] + exponents[j + 1:], width,
                                    cache)
            terms += ([(head + sub, -sign) for sub, sign in rest] if j % 2
                      else [(head + sub, sign) for sub, sign in rest])
    cache[key] = terms
    return terms


def _block(n: int, nodes: Optional[Sequence[Scalar]], rows: Sequence[int], size: int,
           signs: Mapping[int, int], x_missing: bool, width: int) -> dict[int, dict[int, Scalar]]:
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
    exceed every exponent, 1 in an x and below n in a node.  Each
    alternant is a list of (packed monomial, value) terms, and each term
    of the minor is x^S times one term of either alternant, its key the
    sum of theirs.  At numeric ``nodes`` (n of them; terms in x_1..x_n) an
    alternant is the one number V e_g, with the e values over the spare
    block's rows computed once per row subset for every g, and not at all
    when every g is 0.  With ``nodes`` None (terms in the 2n ring) it is
    its Leibniz terms in l_1..l_n, from one cache per call."""
    r = len(rows)
    # The part of eps's exponent that does not depend on S.
    parity = size + size * (2 * r - size - 1) // 2
    if nodes is None:
        cache = {}
        x_top, l_top = (size, r - size - 1) if x_missing else (size - 1, r - size)
        powers = {g: (tuple(e for e in range(x_top + 1) if not x_missing or e != x_top - g),
                      tuple(e for e in range(l_top + 1) if x_missing or e != l_top - g))
                  for g in signs}
    else:
        top = max(signs)
    out: dict[int, dict] = {g: {} for g in signs}
    # Both enumerations run in the same order: positions and rows of each S.
    for chosen, inside in zip(combinations(range(r), size), combinations(rows, size)):
        outside = tuple([i for i in rows if i not in inside])
        x_key = sum([1 << width * i for i in inside])
        eps = -1 if (parity + sum(chosen)) % 2 else 1
        if nodes is not None:
            v_in = _vandermonde([nodes[i] for i in inside])
            v_out = _vandermonde([nodes[i] for i in outside])
            e = _elementary([nodes[i] for i in (inside if x_missing else outside)]) if top else (1,)
        for g, sign in signs.items():
            if nodes is None:
                left = _alternant_terms(n, inside, powers[g][0], width, cache)
                right = _alternant_terms(n, outside, powers[g][1], width, cache)
            elif x_missing:
                left, right = [(0, v_in * e[g])], [(0, v_out)]
            else:
                left, right = [(0, v_in)], [(0, v_out * e[g])]
            sign *= eps
            terms = out[g]
            for key_a, value_a in left:
                key_a += x_key
                value_a *= sign
                for key_b, value_b in right:
                    terms[key_a + key_b] = value_a * value_b
    # A numeric coefficient may be an integral Fraction, or 0 where e_g is.
    return out if nodes is None else {g: _tightened(terms) for g, terms in out.items()}


def signed_minors(spec: WebSpec,
                  columns: Optional[Sequence[int]] = None) -> list[MultiPoly]:
    """Coefficients of the interpolant's two determinants.

    Entry c is (-1)^(n+c) det(row matrix without column c); entries 0..k are
    the numerator coefficients, entries k+1..n the denominator coefficients.
    With ``columns`` only those entries are computed, in that order.  Every
    entry is built term by term from its closed form (see the module
    docstring), with no matrix and no determinant expansion.
    """
    n, k, l, n_vars = spec.n, spec.k, spec.l, spec.n_vars
    columns = tuple(range(n + 1)) if columns is None else tuple(columns)
    for c in columns:
        _check_count("column index", c, error=DimensionError)
    if any(not 0 <= c <= n for c in columns):
        raise DimensionError(f"column index out of range 0..{n}")
    terms: dict[int, dict] = {}
    # A numerator column c omits the power l^c = l^(k-g), a denominator
    # column the power -x l^(c-k-1) = -x l^(l-g): g = top - c in both blocks.
    # The minors are written with byte fields, which to_bytes decodes into
    # exponent tuples at C speed.
    for block, size, x_missing, top in (({c for c in columns if c <= k}, l + 1, False, k),
                                        ({c for c in columns if c > k}, l, True, n)):
        if block:
            minors = _block(n, spec.lambdas, range(n), size,
                            {top - c: -1 if (n + c) % 2 else 1 for c in block}, x_missing, 8)
            terms.update((c, {tuple(key.to_bytes(n_vars, "little")): value
                              for key, value in minors[top - c].items()}) for c in block)
    return [MultiPoly(n_vars, terms[c], _canonical=True) for c in columns]


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
    term, and only these quotients are built as Fractions.
    """
    k = spec.k
    if x_values is None:
        coeffs = signed_minors(spec)
    else:
        # Entry c is (-1)^(n+c) times the minor without column c.
        minors = [m if (spec.n + c) % 2 == 0 else -m
                  for c, m in enumerate(maximal_minors(row_matrix(spec, x_values)))]
        q0 = minors[k + 1]
        if not q0:
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
        coeffs = [Fraction(c, q0) for c in minors]
    return CauchyInterpolant(tuple(coeffs[:k + 1]), tuple(coeffs[k + 1:]))


def interpolation_check(spec: WebSpec) -> bool:
    """Whether P(node_i) - x_i Q(node_i) vanishes identically for every i.

    This is the defining interpolation property, checked as an exact
    polynomial identity in the coordinates (and nodes, when symbolic).
    """
    return _interpolation_identity(spec, signed_minors(spec))


def _interpolation_identity(spec: WebSpec, minors: Sequence[MultiPoly]) -> bool:
    """The interpolation property for all n+1 signed minors: for row i of the
    row matrix, sum_c row_i[c] * minors[c] is P(node_i) - x_i Q(node_i) term
    for term, collected as one sum of products per row."""
    return all(_sum_of_products(spec.n_vars, [(entry, minor, 1)
                                              for entry, minor in zip(row, minors)]).is_zero
               for row in row_matrix(spec))


def solve_oracle(spec: WebSpec, x_values: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """Independent route: solve the interpolation conditions by exact
    Gauss-Jordan elimination, returning (p_0..p_k, q_1..q_l) with q_0 = 1.

    Each row is scaled to ints by the lcm of its denominators.  A row update
    cross-multiplies, r <- p r - r_c s for pivot row s with pivot p, and
    divides the result by its gcd; no division by an earlier pivot is used,
    so this route shares nothing with the fraction-free minors of
    ``maximal_minors``.  A rank-deficient but consistent system (constant
    data, say) resolves by setting the free unknowns to zero; an
    inconsistent one raises.
    """
    if spec.is_symbolic:
        raise WebSpecError("the elimination oracle needs numeric nodes")
    if len(x_values) != spec.n:
        raise WebSpecError(f"expected {spec.n} data values")
    xs = [_tighten(_exact(v)) for v in x_values]
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
    solution = [Fraction(0)] * n
    for r, col in enumerate(pivot_cols):
        solution[col] = Fraction(rows[r][n], rows[r][col])
    return tuple(solution)


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
    """Determinant route vs elimination route on one numeric instance."""
    interp = cauchy_interpolant(spec, x_values=x_values)
    return interp.p_coeffs + interp.q_coeffs[1:] == solve_oracle(spec, x_values)


def random_numeric_instances(n: int, k: int, l: int, count: int, seed: int,
                             bound: int = 20
                             ) -> Iterator[tuple[WebSpec, list[Fraction], bool]]:
    """Reproducible random nondegenerate instances for oracle comparisons.

    Integer nodes and data in [-bound, bound], rejection-sampled until the
    nodes are distinct and the interpolation system is solvable.  Each
    instance comes with its ``interpolant_matches_oracle`` verdict, so each
    route runs once per accepted instance.  ``n``, ``count``, ``seed`` and
    ``bound`` must be ints, and ``bound`` nonnegative, checked as the first
    instance is drawn.
    """
    for name, value in (("n", n), ("count", count), ("seed", seed)):
        _check_count(name, value)
    _check_count("bound", bound, 0, f"negative sampling bound {bound}")
    if n > 2 * bound + 1:
        raise WebSpecError(f"cannot draw {n} distinct nodes from the "
                           f"{2 * bound + 1} integers in [-{bound}, {bound}]")
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        lambdas = [rng.randint(-bound, bound) for _ in range(n)]
        if len(set(lambdas)) != n:
            continue
        xs = [Fraction(rng.randint(-bound, bound)) for _ in range(n)]
        spec = WebSpec.numeric(n, k, l, lambdas)
        try:
            matched = interpolant_matches_oracle(spec, xs)
        except DegenerateInterpolantError:
            continue
        produced += 1
        yield spec, xs, matched
