"""Web solutions and their certificates.

The central object is the quotient of the two leading interpolation
coefficients: as a function of the data point x it solves the dispersionless
Hirota system for the chosen nodes.  This module builds that solution and
certifies everything checkable about it in exact arithmetic:

* residual checks of the second-order system over all index triples, either
  as polynomial identities or by seeded exact evaluation at random integer
  points (with the Schwartz-Zippel failure bound reported).  With f = P/Q
  and N_i = P_i Q - P Q_i, f_i = N_i/Q^2 and a triple's residual is R/Q^5,
  R = sum over cyclic (i,j,k) of (node_j - node_k) N_i Q^3 f_jk.  For any P,
  Q and nodes, R = Q B with B = N_i G_jk + N_j G_ki + N_k G_ij and
  G_jk = node_j d_j N_k - node_k d_k N_j.  Proof: Q^3 f_jk = Q d_k N_j
  - 2 N_j Q_k is symmetric in j, k, so (node_j - node_k) Q^3 f_jk = Q G_jk
  - 2 (node_j Q_j N_k - node_k Q_k N_j), and times N_i the second part sums
  over the rotations to zero.  So no second derivative of f is formed: N_i
  and G_jk are written once, on second-order jets (value, x-gradient,
  x-Hessian) of P and Q.  Both modes settle a triple in one order
  (``verify_hirota``): a factored identity where one applies, then exact
  values of q B at integer points, read off integer jets and never
  expanding a factor, where a nonzero value refutes it, then, in symbolic
  mode only, B zero-tested on polynomial jets.  A solution with numeric
  nodes and k, l >= 1 (a spec too, once built) is proved without forming
  B: with D_i and E_jk the minors of size n-1 and n-2 of the row matrix
  (rows without i, or without j and k, over the leading columns of each
  block), the identities (A) N_i = a_i D_i^2 and (B) Q d_k D_j - D_j Q_k
  = b_jk D_k E_jk, with node-only constants a_i and b_jk, each
  zero-tested in full, give Q B = 2 D_i D_j D_k T for a three-term sum T
  of products D_p E_qr.  T is settled by the signs of its three weights:
  when they are (w, -w, w), T is w times the three-term Grassmann-Pluecker
  relation S_ijk, which is 0 (Sylvester 1851; Sato 1981 reads Hirota
  bilinear equations as Pluecker relations; ``_factored_proof``).  A
  spec with symbolic nodes is sampled without building f, from the
  numeric-node minors at each point's node coordinates, and its degree
  bound comes from (k, l) in closed form;
* the one-parameter annihilating 1-form, whose Frobenius integrability for
  every parameter value is the residual verdict (``veronese_form``);
* the flatness dichotomy, certified through the integrability of two of
  the coframe's parameter-power coefficient 1-forms, the degree-1 element
  and its mirror element n-2, neither of them built as a form.  A flat
  order (k = 0 or l = 0) is proved by a one-pair identity.  Otherwise
  each beta's dx_v coefficient is kappa_v D_v^2 (Lagrange interpolation in
  the parameter, the Veronese coframe being q(node_v)^2 dx_v at node_v),
  and with the three-term Grassmann-Pluecker relation each component of
  d(beta) wedge beta is kappa_abc D_a D_b D_c F_abc, F_abc the minor of
  size n-3 on the rows without a, b and c.  The two families of identities
  behind it are zero-tested in full per run, and a failed one is an error.
  The second family reads only the minors, so the mirror shares it and is
  settled by its constants kappa_abc alone, no component multiplied out
  (``flatness_check``);
* restriction of a solution to a coordinate hyperplane and composition with
  Mobius transformations, both of which produce new solutions.

Geometry (the pencil, flatness, restriction) requires numeric nodes;
residual verification also runs in fully symbolic node mode, where the nodes
are ring variables and the identities hold in all of them at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import combinations
from math import lcm, prod
from operator import or_
from typing import Optional, Sequence, Union

from .errors import (DegenerateInterpolantError, DegenerateRestrictionError,
                     DimensionError, HirotaWebError, WebSpecError)
from .forms import DifferentialForm, LambdaForm
from .interpolation import (_BYTE, WebSpec, _Alternants, _block, _decoded, _elementary,
                            _interpolation_identity, _minor_maps, highest_coefficients)
from .polynomials import (MultiPoly, Scalar, _affine, _check_count, _coefficient, _exact,
                          _halves, _kernel_width, _leading_pair, _sum_of_products, _tighten)
from .ratfunc import RationalFunction, _scaled

NodeValue = Union[Scalar, MultiPoly]


@dataclass(frozen=True)
class HirotaSolution:
    """A solution f = p_top/q_top built from the leading interpolation
    coefficients of one web specification."""

    spec: WebSpec
    f: RationalFunction
    p_top: MultiPoly
    q_top: MultiPoly

    def nodes(self) -> list[NodeValue]:
        return [self.spec.node(i) for i in range(1, self.spec.n + 1)]


def build_solution(spec: WebSpec) -> HirotaSolution:
    """Assemble the solution from the leading coefficients."""
    p_top, q_top = highest_coefficients(spec)
    if q_top.is_zero:
        raise DegenerateInterpolantError("leading denominator coefficient vanishes")
    return HirotaSolution(spec, RationalFunction(p_top, q_top), p_top, q_top)


def web_triples(n: int) -> list[tuple[int, int, int]]:
    """All index triples 1 <= i < j < k <= n."""
    _check_count("n", n)
    return list(combinations(range(1, n + 1), 3))


Degree = Optional[int]   # total degree; None for the zero polynomial
# The degrees of a polynomial, of its first x-partials and of its mixed
# second x-partials, diagonal entries None.
_Degrees = tuple[Degree, list[Degree], list[list[Degree]]]


def _plus(a: Degree, b: Degree) -> Degree:
    """Degree of a product."""
    return None if a is None or b is None else a + b


def _top(*degrees: Degree) -> Degree:
    """Degree bound of a sum: the largest degree among the nonzero summands."""
    present = [d for d in degrees if d is not None]
    return max(present) if present else None


def _lowered(d: int, by: int) -> Degree:
    """A degree maximum (-1 when no term had it) lowered by ``by``."""
    return None if d < 0 else d - by


def _derivative_degrees(poly: MultiPoly, n: int) -> _Degrees:
    """Total degrees of poly, of its first partials and of its mixed second
    partials in variables 0..n-1, from one pass over the terms.

    Differentiation sends distinct monomials to distinct monomials with
    nonzero coefficients, so the degree of a partial is the largest degree
    among the terms containing its variables, lowered by their number; no
    derivative is built.  The pass keeps the largest term degree per support
    in variables 0..n-1 (at most 2^n of them), and the tables are read off
    those maxima.  Diagonal entries of the second table stay None: the
    residual factors never use them.
    """
    best: dict[tuple[bool, ...], int] = {}
    for exps in poly.terms:
        support = tuple(map(bool, exps[:n]))
        d = sum(exps)
        if d > best.get(support, -1):
            best[support] = d
    first = [-1] * n
    mixed = [[-1] * n for _ in range(n)]
    for support, d in best.items():
        present = [v for v in range(n) if support[v]]
        for v in present:
            first[v] = max(first[v], d)
        for a, b in combinations(present, 2):
            mixed[a][b] = mixed[b][a] = max(mixed[a][b], d)
    return (_lowered(max(best.values(), default=-1), 0),
            [_lowered(d, 1) for d in first],
            [[_lowered(d, 2) for d in row] for row in mixed])


def _minor_degrees(spec: WebSpec, rows: int, drop: int) -> _Degrees:
    """The tables of ``_derivative_degrees`` for a signed minor of a
    symbolic-node spec, in closed form.

    Every term of the minor is x^S times a term of each of two alternants
    (``interpolation`` module docstring), with |S| = ``rows`` and node
    exponents {0..l} and {0..k} less the one power ``drop``, so each has
    total degree rows + l(l+1)/2 + k(k+1)/2 - drop.  S runs over every row
    subset of its size, and the terms are distinct, so each x_v lies in some
    term when rows >= 1 and each pair of them when rows >= 2: the partials
    lower the degree by 1 and 2, and are zero below those counts.  P_k has
    rows = l + 1 and drop = k, Q_l has rows = l and drop = l.
    """
    n, k, l = spec.n, spec.k, spec.l
    d = rows + l * (l + 1) // 2 + k * (k + 1) // 2 - drop
    return (d, [d - 1 if rows >= 1 else None] * n,
            [[d - 2 if rows >= 2 and a != b else None for b in range(n)] for a in range(n)])


def _degree_bound(p_degrees: _Degrees, q_degrees: _Degrees, n: int,
                  nodes_symbolic: bool) -> int:
    """Upper bound on the total degree of every triple's residual numerator
    Q B, from the degree tables of P, Q and their x-partials
    (``_derivative_degrees`` or ``_minor_degrees``).

    Q B sums N_i Q G_jk over the rotations (i, j, k), where (module
    docstring) Q G_jk = (node_j - node_k) Q d_k N_j + 2 node_j (N_k Q_j
    - N_j Q_k), and N_i N_k Q_j recurs as N_j N_i Q_k in the next rotation.
    So the bound is the largest over the rotations of [node] + deg N_i +
    max(deg d_k N_j + deg Q, deg N_j + deg Q_k), [node] being 1 for
    symbolic nodes and a zero factor degree 0.  Factor degrees follow the
    formulas (sum for a product, maximum for a sum): exact unless two
    leading forms cancel, and sound if so.

    At l = 0 with symbolic nodes P is linear in x and Q has no x, so every
    G_jk, and with it B, is the zero polynomial structurally.  Counting the
    zero factors as degree 0, the bound printed there (9, 19, 33, 51, 73 at
    k = n - 1 for n = 3..7) is a sound bound on a zero polynomial: no trial
    can fail, and the closed form is kept so the bound has one rule."""
    p, dp, ddp = p_degrees
    q, dq, ddq = q_degrees
    n_deg = [_top(_plus(dp[v], q), _plus(p, dq[v])) or 0 for v in range(n)]
    q_deg = q or 0
    node_deg = 1 if nodes_symbolic else 0
    best = 0
    for triple in web_triples(n):
        for i, j, k in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
            vi, vj, vk = i - 1, j - 1, k - 1
            dn_deg = _top(_plus(ddp[vj][vk], q), _plus(dp[vj], dq[vk]),
                          _plus(dp[vk], dq[vj]), _plus(p, ddq[vj][vk])) or 0
            qg_deg = max(dn_deg + q_deg, n_deg[vj] + (dq[vk] or 0))
            best = max(best, node_deg + n_deg[vi] + qg_deg)
    return best


# -- residual factors ---------------------------------------------------------------
#
# N_i and G_jk (module docstring) are written once, on second-order jets of P
# and Q: polynomial jets for the symbolic proof, integer jets at each sampled
# point.  Each factor and each B is a short sum of scaled products, written as
# one list of (a, b, scale) parts: polynomial parts collect in one packed map
# (``_sum_of_products``) that stays packed, since every factor feeds the
# next sum, so the B of a genuine solution, which cancels to zero, never
# builds its three products; numbers are summed directly.

_Jet = tuple   # (value, gradient, Hessian) in some of x_1..x_n


def _polynomial_jet(poly: MultiPoly, variables: Sequence[int]) -> _Jet:
    """poly with its first and second partials in the given 0-based variables,
    as polynomials: the symbolic counterpart of ``MultiPoly.second_order_jet``,
    but with the Hessian built above the diagonal only, where
    ``_residual_factors`` reads it, and None elsewhere."""
    grad = [poly.derivative(v) for v in variables]
    return poly, grad, [[g.derivative(v) if b > a else None for b, v in enumerate(variables)]
                        for a, g in enumerate(grad)]


def _combine(parts: list):
    """sum of scale * a * b over the (a, b, scale) parts, for jet values of
    either kind.  A polynomial scale (an expression in symbolic nodes) is
    multiplied into the smaller factor first, so the kernel sees numbers."""
    if not isinstance(parts[0][0], MultiPoly):
        total = 0
        for a, b, s in parts:
            total += a * b * s
        return total
    numeric = []
    for a, b, s in parts:
        if isinstance(s, MultiPoly):
            a, b, s = (a * s, b, 1) if len(a) <= len(b) else (a, b * s, 1)
        numeric.append((a, b, s))
    return _sum_of_products(parts[0][0].n_vars, numeric)


def _first_factors(p_jet: _Jet, q_jet: _Jet) -> list:
    """N_i = P_i Q - P Q_i for every i."""
    p, dp, _ = p_jet
    q, dq, _ = q_jet
    return [_combine([(p_i, q, 1), (p, q_i, -1)]) for p_i, q_i in zip(dp, dq)]


def _residual_factors(nodes: Sequence, p_jet: _Jet, q_jet: _Jet) -> tuple[list, dict]:
    """Every N_i, and for every pair j < k, keyed (j, k),
    G_jk = (node_j - node_k)(P_jk Q - P Q_jk) + (node_j + node_k)(P_k Q_j - P_j Q_k),
    which is node_j d_j N_k - node_k d_k N_j by the product rule."""
    p, dp, ddp = p_jet
    q, dq, ddq = q_jet
    brackets = {}
    for j, k in combinations(range(len(dp)), 2):
        diff, total = nodes[j] - nodes[k], nodes[j] + nodes[k]
        brackets[j, k] = _combine([(ddp[j][k], q, diff), (p, ddq[j][k], -diff),
                                   (dp[k], dq[j], total), (dp[j], dq[k], -total)])
    return _first_factors(p_jet, q_jet), brackets


def _residual(first: list, brackets: dict, triple: tuple[int, int, int]):
    """B of a 1-based triple i < j < k from its factors; G_ki = -G_ik."""
    i, j, k = (t - 1 for t in triple)
    return _combine([(first[i], brackets[j, k], 1), (first[j], brackets[i, k], -1),
                     (first[k], brackets[i, j], 1)])


# -- the factored proof ----------------------------------------------------------------
#
# For numeric nodes and k, l >= 1 each triple's Q B is 2 D_i D_j D_k T, with
# D and E minors of size n-1 and n-2 of the row matrix and T a three-term
# sum of products D_p E_qr (verify_hirota's docstring).  The identities (A)
# and (B) behind that are zero-tested in full here, and T is settled by the
# signs of its three computed weights and the proved relation S_ijk = 0.


# Every minor is affine in each x_v, so a product of two has exponents at
# most 2: the kernel's width for it, at which the minors are written.
_PAIR_WIDTH = (1 + 1).bit_length()


def _proportion(parts: list, a: MultiPoly, b: MultiPoly) -> Optional[Fraction]:
    """The constant c with sum of the (x, y, scale) parts = c a b, for nonzero
    int polynomials: c is read off the coefficient at the leading monomial
    of a b, on packed keys at the kernel's width for these products
    (``_leading_pair``, ``_coefficient``), then the identity is zero-tested
    in full as one sum of products, at that width too.  None when it does
    not hold."""
    _, width = _kernel_width([*parts, (a, b, 1)])
    monomial, lead = _leading_pair(a, b, width)
    c = Fraction(_coefficient(parts, monomial, width), lead)
    num, den = c.numerator, c.denominator
    if _sum_of_products(a.n_vars, [(x, y, s * den) for x, y, s in parts] + [(a, b, -num)]):
        return None
    return c


def _minor(table: _Alternants, rows: Sequence[int], size: int) -> MultiPoly:
    """The row matrix's minor at the int nodes of ``table`` over the 0-based
    increasing ``rows`` and the leading columns of each block, with an
    x-block of ``size`` columns: ``interpolation._block`` at g = 0,
    unsigned, held as its packed map at the kernel's width for a product of
    two minors."""
    n = len(table.nodes)
    packed = _block(n, table, rows, size, {0: 1}, False, _PAIR_WIDTH)[0]
    return MultiPoly._from_packed(n, packed, _PAIR_WIDTH, 1)


def _settled_by_sign(nodes: Sequence[int], a: Sequence[int], b: dict) -> set:
    """The 1-based triples i < j < k whose weights w = (node_q - node_r)
    a_p a_lo b_lo,hi over the rotations (p, q, r) are (w, -w, w), (lo, hi)
    the pair {q, r} in order (``_factored_proof``)."""
    proved = set()
    for triple in combinations(range(len(nodes)), 3):
        w = []
        for p, q, r in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
            lo, hi = min(q, r), max(q, r)
            w.append((nodes[q] - nodes[r]) * a[p] * a[lo] * b[lo, hi])
        if w[0] == -w[1] == w[2]:
            proved.add(tuple(t + 1 for t in triple))
    return proved


def _factored_proof(f: RationalFunction, nodes: Sequence[int],
                    l: int) -> set[tuple[int, int, int]]:
    """The 1-based triples whose Q B the factored identities prove zero, for
    f = P/Q with int nodes and orders k, l >= 1.  Empty when an exponent of
    P or Q exceeds 1, or when (A) or (B) fails for some index, since then
    the factors do not describe f.

    (A) and (B) (``verify_hirota``) are zero-tested in full on x-halves.
    P, Q and every D are affine in each x_v: D is a minor with one x per
    row, and P and Q are checked on their terms before any test.  So with
    P = x_v P' + P'' (``polynomials._halves``), N_i = P'Q'' - P''Q'
    splitting by x_i, and Q d_k D_j - D_j Q_k = Q''D_j' - D_j''Q' splitting
    by x_k: each side has about half the term pairs of the unsplit sum.
    Every D and E is written as its packed map at the kernel's width for a
    product of two (``_minor``), and the halves and each constant's one
    coefficient are read off packed keys at that width, so no minor is
    decoded into exponent tuples and none is packed again.

    A triple i < j < k is then settled by sign, forming no product D E.  Its
    T is w_1 D_i E_jk + w_2 D_j E_ik + w_3 D_k E_ij with the weights
    w = (node_q - node_r) a_p a_lo b_lo,hi, and when the computed weights are
    (w, -w, w), T = w S_ijk with

        S_ijk = D_i E_jk - D_j E_ik + D_k E_ij = 0,

    the three-term Grassmann-Pluecker relation (Sylvester 1851), here in
    ``_block``'s convention.  Let X be the n x (n-1) matrix of the row
    matrix's columns 1, t, ..., t^(k-1), -x, -x t, ..., -x t^(l-1), t the
    row's node, and Y be X without its last column, so D_m is the
    determinant of X on the rows other than m and E_pq that of Y on the
    rows other than p and q, rows in increasing order.  With R the n-3
    rows other than i, j and k, the square block matrix
    Z = [[X, Y], [0, Y_R]] of size 2n-3 is column-equivalent to
    [[X, 0], [0, Y_R]] (subtract from each column of Y the column of X that
    it repeats), whose last n-2 columns live on n-3 rows, so det Z = 0.
    Laplace's expansion along X's columns keeps the row sets of X's rows
    but one, m, whose complement m + R repeats a row unless m is i, j or k;
    its term is (-1)^(m + c) D_m det[Y_m; Y_R], c not depending on m, and
    moving row m into place among R contributes
    (-1)^(m - 1 - #{i, j, k below m}).  So the three terms carry the signs
    +, -, + times one common sign, and det Z = +-S_ijk.  Nothing else is
    assumed: the pattern is checked on the computed constants, and a triple
    that breaks it is left out of the set, so the probe and B decide it.
    The closed forms a_i = s c_i, c_i = prod_{m != i} (node_i - node_m), and
    b_jk = u prod_{m not in {j, k}} (node_k - node_m), one scalar s and u
    per f, give w = -s^2 u c_i c_j c_k on every triple, since
    b_jk = u c_k / (node_k - node_j); the tests pin them.

    The weights are computed in ints: every a_i is multiplied by L_a, the
    lcm of their denominators, and every b_jk by L_b, the lcm of theirs.
    Each weight is a product of one node difference, two a's and one b, so
    each is multiplied by the same L_a^2 L_b > 0, and (w, -w, w) holds
    after the scaling exactly when it held before."""
    num, den = f.num, f.den
    if not _affine(num, den):
        return set()
    n = len(nodes)
    den_halves = [_halves(den, v, _PAIR_WIDTH) for v in range(n)]
    others = [[r for r in range(n) if r != i] for i in range(n)]
    table = _Alternants(nodes, True)
    d = [_minor(table, rows, l) for rows in others]
    a = []
    for i in range(n):                                         # (A)
        (p1, p0), (q1, q0) = _halves(num, i, _PAIR_WIDTH), den_halves[i]
        a.append(_proportion([(p1, q0, 1), (p0, q1, -1)], d[i], d[i]))
        if a[i] is None:
            return set()
    b = {}
    for j, k in combinations(range(n), 2):                     # (B)
        (q1, q0), (d1, d0) = den_halves[k], _halves(d[j], k, _PAIR_WIDTH)
        b[j, k] = _proportion([(q0, d1, 1), (d0, q1, -1)], d[k],
                              _minor(table, [r for r in others[j] if r != k], l - 1))
        if b[j, k] is None:
            return set()
    scale_a, scale_b = _denominator_lcm(a), _denominator_lcm(b.values())
    a = [c.numerator * (scale_a // c.denominator) for c in a]
    b = {pair: c.numerator * (scale_b // c.denominator) for pair, c in b.items()}
    return _settled_by_sign(nodes, a, b)                       # (C), by sign


def _jet_factors(nodes: Sequence, p: MultiPoly, q: MultiPoly, xs: Sequence[int]) -> tuple:
    """Q, the N_i and the G_jk from the integer jets of P and Q at x_1..x_n = xs."""
    q_jet = q.second_order_jet(xs)
    return (q_jet[0], *_residual_factors(nodes, p.second_order_jet(xs), q_jet))


def _sampled_factors(f: RationalFunction, nodes: Sequence[NodeValue],
                     point: Sequence[int]) -> tuple:
    """Q, the N_i and the G_jk at one integer point, in int arithmetic where
    the nodes are integral: ``eliminate`` fixes the variables past x_n (symbolic
    node coordinates), leaving few terms, and the jets are read in x_1..x_n."""
    n = len(nodes)
    rest = {v: point[v] for v in range(n, f.n_vars)}
    node_vals = [_tighten(v.evaluate(point) if isinstance(v, MultiPoly) else v)
                 for v in nodes]
    return _jet_factors(node_vals, f.num.eliminate(rest), f.den.eliminate(rest), point[:n])


def _probe_point(n_vars: int, n: int, symbolic: bool) -> tuple[int, ...]:
    """The one integer point at which symbolic mode evaluates q B before it
    builds B: fixed, so the report does not depend on any seed, with
    coordinates in [-9, 9] from a private generator.  When the nodes are
    symbolic their coordinates are distinct, drawn from [-9 - n, 9 + n],
    since equal ones zero the node differences that B carries."""
    rng = random.Random(0)
    point = [rng.randint(-9, 9) for _ in range(n_vars)]
    if symbolic:
        point[n:2 * n] = rng.sample(range(-9 - n, 10 + n), len(point[n:2 * n]))
    return tuple(point)


def _spec_factors(spec: WebSpec, point: Sequence[int]) -> tuple:
    """Q, the N_i and the G_jk at one integer point for a spec with symbolic
    nodes, in int arithmetic: the point's node coordinates make it a
    numeric-node spec, whose P_k and Q_l (C(n, l+1) and C(n, l) terms in
    closed form) are the symbolic minors with the node variables fixed.  So
    these are the values of ``_sampled_factors`` on the built solution, up
    to the one scalar with which ``RationalFunction`` normalizes P and Q."""
    n = spec.n
    node_vals = point[n:2 * n]
    return _jet_factors(node_vals, *highest_coefficients(WebSpec(n, spec.k, spec.l, node_vals)),
                        point[:n])


def _check_nodes(f: RationalFunction, nodes: Sequence[NodeValue]) -> None:
    """Refuse more nodes than variables, and a repeated node, numbers and
    node polynomials alike: the residual's terms carry node differences,
    so repeated nodes can pass a function that fails at distinct ones."""
    if f.n_vars < len(nodes):
        raise DimensionError(
            f"function has {f.n_vars} variables but {len(nodes)} nodes were given")
    if any(a == b for a, b in combinations(nodes, 2)):
        raise WebSpecError("nodes must be pairwise distinct")


def hirota_residual(f: RationalFunction, nodes: Sequence[NodeValue],
                    triple: tuple[int, int, int]) -> RationalFunction:
    """The residual of one triple of the second-order system, as the exact
    rational function Q B / Q^5 with B = N_i G_jk + N_j G_ki + N_k G_ij
    (module docstring), or 0/1 when B is zero, so a genuine solution's
    triple never builds Q^5.  Triples and nodes are pairwise distinct."""
    _check_nodes(f, nodes)
    for t in triple:
        _check_count("triple index", t, error=DimensionError)
    if len(set(triple)) != 3 or not all(1 <= t <= len(nodes) for t in triple):
        raise DimensionError(f"bad triple {triple} for {len(nodes)} nodes")
    variables = [t - 1 for t in triple]
    first, brackets = _residual_factors([nodes[v] for v in variables],
                                        _polynomial_jet(f.num, variables),
                                        _polynomial_jet(f.den, variables))
    bracket = _residual(first, brackets, (1, 2, 3))
    if bracket.is_zero:
        return RationalFunction(bracket)
    return RationalFunction(f.den * bracket, f.den ** 5)


@dataclass(frozen=True)
class TripleCheck:
    triple: tuple[int, int, int]
    ok: bool
    detail: str


def _bound_text(bound: Fraction) -> str:
    """``<fraction> (= <x.xxxe-yy>)``.  The decimal view is for reading only:
    this is the one place the library makes a float."""
    return f"{bound} (= {float(bound):.3e})"


@dataclass(frozen=True)
class VerificationReport:
    """Per-triple residual verdicts plus, in sampled mode, the soundness
    budget: degree bound and per-trial Schwartz-Zippel failure bound."""

    mode: str
    passed: bool
    checks: tuple[TripleCheck, ...]
    trials: Optional[int] = None
    bound: Optional[int] = None
    seed: Optional[int] = None
    degree_bound: Optional[int] = None
    per_trial_failure_bound: Optional[Fraction] = None

    def summary(self) -> str:
        state = "verified" if self.passed else "FAILED"
        head = f"{state}, {len(self.checks)} triple(s), mode={self.mode}"
        if self.mode == "sampled" and self.per_trial_failure_bound is not None:
            head += f", per-trial failure bound {_bound_text(self.per_trial_failure_bound)}"
        return head


def verify_hirota(subject: Union[WebSpec, HirotaSolution, RationalFunction],
                  nodes: Optional[Sequence[NodeValue]] = None,
                  mode: str = "symbolic",
                  trials: int = 3,
                  bound: int = 10 ** 6,
                  seed: int = 42) -> VerificationReport:
    """Check the full residual system for a spec's solution, a given
    solution, or any function.

    Each triple's residual numerator is Q B, B = N_i G_jk + N_j G_ki + N_k G_ij
    (module docstring), and Q is nonzero, so a triple fails exactly when its
    B is nonzero.  Both modes settle each triple in one order:
    1. proved by the factored identities (symbolic mode, below): pass;
    2. q B evaluated exactly at integer points, each point's factor values
       computed when a triple first reaches it: the first nonzero value
       proves B nonzero, with no probability in it, and the triple fails;
    3. zero at every point: sampled mode passes it, and symbolic mode
       zero-tests B in full, from polynomial jets of P and Q built once,
       and if B is nonzero reports the number of terms of Q B, counted on
       the product's packed map.
    Symbolic mode evaluates at one fixed point (``_probe_point``), whose
    zero value proves nothing, hence step 3; it reports a nonzero value
    with the point, from which anyone can re-check it.  Sampled mode
    evaluates at ``trials`` seeded random integer points with coordinates
    in [-bound, bound], each drawn again where two node values coincide; a
    nonzero numerator would survive one trial with probability at most
    degree/(2*bound + 1) (Schwartz 1980, Zippel 1979).  The points stay
    Python ints, and both modes take the nodes as given there, so the probe
    reads the q B that sampled mode reports at the same point.

    A ``WebSpec`` with symbolic nodes is sampled without building its
    solution: at each point the numeric-node minors at the point's node
    coordinates give the jets (``_spec_factors``), and the degree bound
    comes from (k, l) in closed form.  With k = (n-1)//2 that takes 0.009 s
    and 18 MB at n = 8, against 0.51 s and 37 MB through the built solution,
    0.11-0.19 s at n = 12 and 2.8-3.1 s at n = 16 (2 vCPUs, Python 3.11).
    Any other spec is verified through ``build_solution``.  A solution or a bare
    function is verified as given, since its f need not be its spec's: at
    each point the jets of what ``eliminate`` leaves of P and Q give the
    factor values (``_sampled_factors``).

    In symbolic mode a solution with numeric nodes and k, l >= 1, and so
    a numeric-node spec, is proved through factors of size n-1 and n-2
    (``_factored_proof``).  The nodes are scaled to ints; D_i and E_jk
    (module docstring) are written in closed form with C(n-1, l) and
    C(n-2, l-1) terms by ``interpolation._block`` at g = 0, straight into
    the packed maps the arithmetic kernel reads.  Two families of
    identities are each zero-tested in full as one sum of products, the
    constants read off one coefficient of packed keys first:
    (A) N_i = a_i D_i^2 for every i;
    (B) Q d_k D_j - D_j Q_k = b_jk D_k E_jk for every j < k.
    Then Q^3 f_jk = Q d_k N_j - 2 N_j Q_k, which by (A) is
    2 a_j D_j (Q d_k D_j - D_j Q_k) and by (B) 2 a_j b_jk D_j D_k E_jk; f_jk
    is symmetric, so one ordering per pair serves.  So R = Q B =
    2 D_i D_j D_k T with T = sum over the rotations (p, q, r) of (i, j, k) of
    w D_p E_lo,hi, w = (node_q - node_r) a_p a_lo b_lo,hi and (lo, hi) the
    pair {q, r} in order, and Q is nonzero.  A triple is proved when its three
    computed weights are (w, -w, w): then T = w S_ijk, and S_ijk =
    D_i E_jk - D_j E_ik + D_k E_ij is the three-term Grassmann-Pluecker
    relation, 0 for every triple (proof in ``_factored_proof``).  So the
    verdict rests on (A) and (B), computed in full, on the weight pattern,
    computed, and on S_ijk = 0, proved and pinned by the tests but not
    recomputed per run: the one identity relied on without a per-run check,
    the standing the closed form of ``signed_minors`` has too.  If P or Q
    has an exponent above 1, or (A) or (B) fails for any index, the factors
    do not describe f (a given solution need not be its spec's) and every
    triple goes on to step 2, as does a triple whose weights break the
    pattern, so its detail is that of a bare function.  Bare functions,
    symbolic nodes and k = 0 or l = 0 start at step 2.  With nodes 1..n and
    k = (n-1)//2 the proof takes 1.4-1.5 s at n = 11 and 5.8-5.9 s at
    n = 12 (2 vCPUs, Python 3.11; the README has the table).

    ``mode``, ``trials``, ``bound`` and ``seed`` are checked in both modes,
    before anything is built.  An unknown mode, fewer than one trial, a
    bound below 10^3, passing ``nodes`` with a spec or a solution (each
    carries its own), or a repeated node raises WebSpecError; a float node,
    trial count, bound or seed raises InexactNumberError, and any other
    non-int count or seed WebSpecError.
    """
    if mode not in ("symbolic", "sampled"):
        raise WebSpecError(f"unknown verification mode {mode!r}")
    _check_count("trials", trials, 1, "sampled mode needs at least one trial")
    _check_count("bound", bound, 10 ** 3, "sampling bound must be at least 10^3")
    _check_count("seed", seed)
    sampled = mode == "sampled"
    spec = None
    if isinstance(subject, WebSpec):
        if nodes is not None:
            raise WebSpecError("a spec carries its own nodes; pass no nodes")
        if subject.is_symbolic and sampled:
            spec = subject
        else:
            subject = build_solution(subject)
    if spec is not None:
        n, symbolic, n_vars = spec.n, True, spec.n_vars
        point_factors = partial(_spec_factors, spec)
    else:
        if isinstance(subject, HirotaSolution):
            if nodes is not None:
                raise WebSpecError("a solution carries its own nodes; pass no nodes")
            f, node_list, n = subject.f, subject.nodes(), subject.spec.n
            symbolic = subject.spec.is_symbolic
        else:
            if nodes is None:
                raise WebSpecError("nodes are required when verifying a bare function")
            f, node_list = subject, list(nodes)
            n, symbolic = len(node_list), any(isinstance(v, MultiPoly) for v in node_list)
        node_list = [v if v.__class__ is int or isinstance(v, MultiPoly)
                     else _tighten(_exact(v)) for v in node_list]
        _check_nodes(f, node_list)
        n_vars = f.n_vars
        # The points take the nodes as given, so the probe's value is the
        # q B that sampled mode reports at the same point.
        point_factors = partial(_sampled_factors, f, node_list)

    proved = set()
    if sampled:
        rng = random.Random(seed)
        points: list[Sequence[int]] = []
        while len(points) < trials:
            point = [rng.randint(-bound, bound) for _ in range(n_vars)]
            if symbolic:
                # B needs distinct node values: a spec's symbolic nodes are the
                # coordinates x_(n+1..2n), a bare function's sit anywhere.
                values = (point[n:2 * n] if isinstance(subject, (WebSpec, HirotaSolution))
                          else [v.evaluate(point) if isinstance(v, MultiPoly) else v
                                for v in node_list])
                if len(set(values)) != n:
                    continue
            points.append(point)
        tables = ((_minor_degrees(spec, spec.l + 1, spec.k),
                   _minor_degrees(spec, spec.l, spec.l)) if spec is not None
                  else (_derivative_degrees(f.num, n), _derivative_degrees(f.den, n)))
        degree_bound = _degree_bound(*tables, n, symbolic)
        budget = dict(trials=trials, bound=bound, seed=seed, degree_bound=degree_bound,
                      per_trial_failure_bound=Fraction(degree_bound, 2 * bound + 1))
        refuted = "nonzero residual value {} at a sampled point"
    else:
        points, budget = [_probe_point(n_vars, n, symbolic)], {}
        refuted = f"nonzero residual value q*B = {{}} at x = {points[0]}"
        if not symbolic:
            # Each B is linear in the nodes, so scaling every node by the lcm
            # of their denominators scales it by a nonzero int: the zero test
            # and the term count are unchanged, and the products stay in int
            # arithmetic.
            scale = _denominator_lcm(node_list)
            if scale != 1:
                node_list = [_tighten(v * scale) for v in node_list]
        if (isinstance(subject, HirotaSolution) and not symbolic and f.n_vars == n
                and subject.spec.k >= 1 and subject.spec.l >= 1):
            proved = _factored_proof(f, node_list, subject.spec.l)
        polynomial_factors = cache(lambda: _residual_factors(
            node_list, _polynomial_jet(f.num, range(n)), _polynomial_jet(f.den, range(n))))

    # A point's factor values are computed when a triple first reaches it: a
    # triple stops at its first nonzero value, so later points may never be
    # needed.
    at = cache(lambda t: point_factors(points[t]))
    checks = []
    for triple in web_triples(n):
        if triple in proved:
            checks.append(TripleCheck(triple, True, "residual numerator is 0"))
            continue
        values = (q * _residual(first, brackets, triple)
                  for q, first, brackets in map(at, range(len(points))))
        bad = next(filter(None, values), None)
        if bad is not None:
            checks.append(TripleCheck(triple, False, refuted.format(bad)))
        elif sampled:
            checks.append(TripleCheck(triple, True, f"exact zero at {trials} sampled point(s)"))
        else:
            bracket = _residual(*polynomial_factors(), triple)
            checks.append(TripleCheck(triple, bracket.is_zero, (
                "residual numerator is 0" if bracket.is_zero
                else f"nonzero residual numerator with {len(f.den * bracket)} term(s)")))
    return VerificationReport(mode, all(c.ok for c in checks), tuple(checks), **budget)


# -- annihilating form and flatness ---------------------------------------------


def veronese_form(f: RationalFunction, lambdas: Sequence[Scalar]) -> LambdaForm:
    """The degree-(n-1) parameter polynomial of 1-forms annihilating the web.

    Coefficient m is sum_i e_im f_i dx_i where e_im is the lambda^m
    coefficient of c_i(lambda) = prod_{j != i} (lambda - lambda_j);
    evaluating the result at node_i leaves a multiple of dx_i, and the
    leading coefficient is df.  With f = P/Q each f_i is N_i/Q^2, so every
    coefficient form is sum_i e_im N_i dx_i over the one denominator Q^2.

    The pencil is Frobenius integrable for every t exactly when f solves the
    system (Zakharevich 2000, Dunajski-Krynski 2014), and explicitly so: for
    any P, Q and distinct nodes, with beta^t = Q^2 alpha^t and C(t) =
    prod_m (t - node_m), each component a < b < c at each power of t obeys

        (d beta^t ^ beta^t)_abc = -C(t) prod_{m not in {a,b,c}} (t - node_m) B_abc,

    B_abc = N_a G_bc + N_b G_ca + N_c G_ab being the bracket that
    ``verify_hirota`` zero-tests.  So its verdict is the pencil's.
    """
    values = [_exact(v) for v in lambdas]
    n = len(values)
    if len(set(values)) != n:
        raise WebSpecError("nodes must be pairwise distinct")
    if f.n_vars != n:
        raise DimensionError(
            f"function has {f.n_vars} variables but {n} nodes were given")
    # _first_factors reads values and gradients only, so no Hessian is built.
    numerators = _first_factors(*[(poly, [poly.derivative(v) for v in range(n)], None)
                                  for poly in (f.num, f.den)])
    den = f.den * f.den
    # The t^m coefficient of prod_{j != i} (t - node_j) is e_(n-1-m) of the -node_j.
    expansions = [_elementary([-v for j, v in enumerate(values) if j != i])[::-1]
                  for i in range(n)]
    return LambdaForm([
        DifferentialForm(n, 1, {(i,): numerators[i] * expansions[i][m]
                                for i in range(n)}, den)
        for m in range(n)])


def _denominator_lcm(values) -> int:
    """The lcm of the denominators of exact numbers (1 for ints)."""
    return lcm(*(v.denominator for v in values))


def _without_denominators(polys: list[MultiPoly]) -> list[MultiPoly]:
    """The polynomials times the lcm of all their coefficient denominators,
    so that every coefficient is an int, read off the maps they keep."""
    scale = _denominator_lcm(c for poly in polys for c in poly._coefficients())
    return polys if scale == 1 else [poly * scale for poly in polys]


def _kappa(name: str, beta: Sequence[MultiPoly], minor: MultiPoly, v: int) -> Fraction:
    """kappa_v of check (i) on the quadruple ``beta``, D_v = ``minor``
    (``_factored_witness``), or an error naming the 3-form ``name``."""
    (a1, a0), (b1, b0), (c1, c0), (d1, d0) = (_halves(poly, v, _PAIR_WIDTH) for poly in beta)
    kappa = _proportion([(a0, b1, 1), (b0, a1, -1), (c0, d1, 1), (d0, c1, -1)], minor, minor)
    if kappa is None:
        raise HirotaWebError(f"factored {name}: check (i) fails at v = {v + 1}")
    return kappa


def _triple_constant(kappa, rho: Sequence[Fraction], i: int, j: int, m: int) -> Fraction:
    """kappa_abc of the triple (i, j, m), rho listed by v (``flatness_check``)."""
    return 2 * (kappa[i] * kappa[m] * rho[1] - kappa[i] * kappa[j] * rho[2]
                - kappa[j] * kappa[m] * rho[0])


def _factored_witness(witness: Sequence[MultiPoly], mirror: Sequence[MultiPoly],
                      nodes: Sequence[int], l: int
                      ) -> tuple[dict[tuple[int, int, int], MultiPoly], bool]:
    """The nonzero components of d(beta) wedge beta for the ``witness``
    quadruple, and whether that 3-form is zero for the ``mirror`` one, for
    beta = A dB - B dA + C dD - D dC, (A, B, C, D) four coefficient minors
    of a spec with int nodes and k, l >= 1 whose dx_v coefficients are
    kappa_v D_v^2 ((Q0, P1, Q1, P0) and (Q_l, P_(k-1), Q_(l-1), P_k)).
    Each component is kappa_abc (D_a D_b)(D_c F_abc) from minors of size
    n-1 and n-3 (``flatness_check``).  Two families are zero-tested in
    full, each constant read off one coefficient first (``_proportion``):
    (i) h_v = A d_v B - B d_v A + C d_v D - D d_v C = kappa_v D_v^2, for
    the witness at every v and for the mirror only at the v of the triples
    read, up to the first with kappa'_abc != 0;
    (ii) W^v_pq = D_p d_v D_q - D_q d_v D_p = rho^v_pq D_v F_abc for the
    three splits of each triple {a, b, c} into v and p < q, one rho for
    both 3-forms.
    Both run on x-halves, as in ``_factored_proof``: every D is affine in
    each x_v, and so are A, B, C and D once their exponents are checked
    (``_affine``), so with X = x_v X' + X'' the x_v terms cancel, and
    h_v = A''B' - B''A' + C''D' - D''C' and W^v_pq = D_p''D_q' - D_q''D_p':
    no partial is built.
    A failed check is an error (``HirotaWebError``, naming it and the
    3-form): an exponent of A, B, C or D above 1, a zero D or F, (i) or
    (ii) not holding, or a component's division leaving a remainder."""
    for name, beta in (("witness", witness), ("mirror", mirror)):
        if not _affine(*beta):
            raise HirotaWebError(f"factored {name}: a minor of beta has an exponent above 1")
    n = len(nodes)
    indices = range(n)
    table = _Alternants(nodes, True)
    minors = [_minor(table, [r for r in indices if r != v], l) for v in indices]
    kappa = []
    for v in indices:                                           # (i)
        if not minors[v]:
            raise HirotaWebError(f"factored witness: the minor D_{v + 1} is zero")
        kappa.append(_kappa("witness", witness, minors[v], v))
    mirror_kappa, mirror_integrable = {}, True
    halves = [[_halves(minor, v, _PAIR_WIDTH) for v in indices] for minor in minors]
    out = {}
    for i, j in combinations(indices, 2):
        pair = None
        for m in range(j + 1, n):
            triple = (i + 1, j + 1, m + 1)
            f = _minor(table, [r for r in indices if r not in (i, j, m)], l - 1)
            if not f:
                raise HirotaWebError(f"factored witness: the minor F_abc is zero at {triple}")
            rho = []
            for v, p, q in ((i, j, m), (j, i, m), (m, i, j)):     # (ii)
                (p1, p0), (q1, q0) = halves[p][v], halves[q][v]
                rho.append(_proportion([(p0, q1, 1), (q0, p1, -1)], minors[v], f))
                if rho[-1] is None:
                    raise HirotaWebError(
                        f"factored witness: check (ii) fails at v = {v + 1} in {triple}")
            if mirror_integrable:
                for v in [u for u in (i, j, m) if u not in mirror_kappa]:
                    mirror_kappa[v] = _kappa("mirror", mirror, minors[v], v)
                mirror_integrable = not _triple_constant(mirror_kappa, rho, i, j, m)
            constant = _triple_constant(kappa, rho, i, j, m)
            if not constant:
                continue
            if pair is None:
                pair = minors[i] * minors[j]
            value = _sum_of_products(n, [(pair, minors[m] * f, constant.numerator)])
            scale = constant.denominator
            if scale != 1:
                if any(x % scale for x in value._coefficients()):
                    raise HirotaWebError(f"factored witness: component {triple} "
                                         f"leaves a remainder on division by {scale}")
                value = _scaled(value, 1, scale)
            out[i, j, m] = value
    return out, mirror_integrable


@dataclass(frozen=True)
class FlatnessVerdict:
    """Outcome of the flatness dichotomy for one web.

    ``witness`` is the 3-form d(alpha_1) wedge alpha_1 of the normalized
    coframe; nonflat certification means it has a nonzero component, hence
    is nonvanishing on a dense open set.  The integrability of the mirror
    element alpha_(n-2) is recorded alongside as a cross-check on
    d(beta_(n-2)) wedge beta_(n-2), settled exactly by its constants in
    the witness's pass; a failed check on either is an error, not a
    verdict.  A "flat" verdict (k = 0 or l = 0) is proved by
    the one-pair identity d(A dB - B dA) wedge (A dB - B dA) = 0, which the
    tests pin for any A and B, and computes no component.
    """

    status: str                       # "nonflat-certified" | "flat-certified"
    witness: DifferentialForm
    alpha1_integrable: bool
    cross_check_integrable: bool

    @property
    def is_flat(self) -> bool:
        return self.status == "flat-certified"


def flatness_check(spec: WebSpec) -> FlatnessVerdict:
    """Certify the web flat or nonflat through coframe integrability.

    Works with polynomial multiples beta_m = c Q0^2 alpha_m of the
    normalized coframe elements, where c is the lcm of the denominators of
    the determinant minors' coefficients (1 for integer nodes): every minor
    is multiplied by c first, so all the arithmetic runs on ints.  Then
    d(beta_m) wedge beta_m equals (c Q0)^4 (d(alpha_m) wedge alpha_m), so
    either side vanishes exactly when the other does, and the witness is
    d(beta_1) wedge beta_1 over the denominator (c Q0)^4, which renders the
    same as the unscaled quotient.  The minors are held as the byte-keyed
    maps of ``interpolation._minor_maps``: none is decoded, and
    ``_factored_witness`` keys them again field by field, packing none.

    beta_m is the sum over i + j = m of Q_i dP_j - P_j dQ_i, with P_0..P_k
    and Q_0..Q_l the minors (k + l = n - 1), and a minor the order lacks is
    the zero polynomial.  So beta_1 = A dB - B dA + C dD - D dC with
    (A, B, C, D) = (Q0, P1, Q1, P0).  For the mirror, i <= l, j <= k and
    i + j = n - 2 = k + l - 1 leave only the pairs (l, k-1) and (l-1, k):
    (A, B, C, D) = (Q_l, P_(k-1), Q_(l-1), P_k).  At n = 3 the two tuples
    give the same form.

    For k = 0 or l = 0 the web is flat, proved and not computed: P_1 = 0
    when k = 0 and Q_1 = 0 when l = 0, likewise P_(k-1) or Q_(l-1) for the
    mirror, so each beta has one pair, and d(A dB - B dA) wedge
    (A dB - B dA) = 2 dA wedge dB wedge (A dB - B dA) = 0 for any A and B.
    No component is built or evaluated, and the witness is the zero 3-form
    over (c Q0)^4 (the tests compare it with the formula's on every such
    order up to n = 6).

    For k, l >= 1 one ``_factored_witness`` pass (below) writes the
    witness and settles the mirror from its constants kappa'_abc alone; a
    failed check on either is an error.  The tests pin both on every such
    order up to n = 6 against the six-product formula on polynomials,
    d(beta) wedge beta = 2 [dA^dB^(C dD - D dC) + dC^dD^(A dB - B dA)].

    For beta_1 the six-product formula is the witness identity

        d(alpha_1) wedge alpha_1 = 2 dq_1 wedge dp_0 wedge dp_1

    (normalized coefficients q_1 = Q1/Q0, p_j = Pj/Q0) with no quotient
    formed.  With gamma_a = Q0 dA - A dQ0 the identity times Q0^6 reads
    d(beta_1) wedge beta_1 Q0^2 = 2 gamma_Q1 wedge gamma_P0 wedge gamma_P1,
    and since dQ0 wedge dQ0 = 0 the right side is Q0^2 times 2R,

        R = (Q0 dQ1 - Q1 dQ0) wedge dP0 wedge dP1
            - dQ1 wedge dQ0 wedge (P0 dP1 - P1 dP0),

    the formula's bracket for (Q0, P1, Q1, P0) with its terms regrouped.
    Like the formula, the identity holds for any four polynomials; the
    tests check both against the exterior algebra, and R's (a, b, c)
    component against the 4 x 4 jet determinant of Q0, Q1, P0 and P1.

    For k, l >= 1 the witness is built, and the mirror settled, from
    smaller minors (``_factored_witness``).  With the nodes
    scaled to ints, D_v is the row matrix's minor on the rows without v and
    F_abc the one on the rows without a, b and c, over the leading columns
    of each block with x-blocks of l and l-1 columns: C(n-1, l) and
    C(n-3, l-1) terms, both from ``interpolation._block`` at g = 0, D as in
    ``verify_hirota``.  Then

        w1_abc = kappa_abc (D_a D_b)(D_c F_abc),
        kappa_abc = 2 (kappa_a kappa_c rho^b_ac - kappa_a kappa_b rho^c_ab
                       - kappa_b kappa_c rho^a_bc),

    with the constants of two families of identities, each zero-tested in
    full per run:
    (i) h_v := A d_v B - B d_v A + C d_v D - D d_v C = kappa_v D_v^2 for
    every v, h_v being the dx_v coefficient of beta_1;
    (ii) W^v_pq := D_p d_v D_q - D_q d_v D_p = rho^v_pq D_v F_abc for the
    three ways to split {a, b, c} into v and p < q.
    Why they hold (Lagrange and Vandermonde on the Veronese coframe,
    Zakharevich 2000; the three-term Grassmann-Pluecker relation, Sato 1981):
    1. beta(t) = q dp - p dq = sum_m beta_m t^m, p(t) = sum P_j t^j and
       q(t) = sum Q_i t^i, has t-degree <= n-1.  Differentiating
       p(node_i) = x_i q(node_i) gives beta(node_i) = q(node_i)^2 dx_i, so by
       Lagrange interpolation beta_1 = sum_i q(node_i)^2 [t^1]L_i(t) dx_i,
       L_i(t) = prod_{m != i} (t - node_m) / c_i, c_i = prod_{m != i}
       (node_i - node_m).
    2. q(node_i) is the row matrix bordered by the row (0 | N_i), N_i =
       (1, node_i, node_i^2, ...), since the Q_j are its cofactors along
       that row; adding x_i times it to row i leaves (N_i | 0).  In the
       Laplace expansion along the x-columns, (0 | N_i) joins every x-row
       subset S and (N_i | 0) every complement, and V(node_S, node_i) =
       V(node_S) prod_{m in S} (node_i - node_m), so term by term
       q(node_i) = +-c_i D_i.  Hence h_i = kappa_i D_i^2 with kappa_i =
       s c_i [t^1] prod_{m != i} (t - node_m), one scalar s per spec (s = 1
       for integer nodes).
    3. The Frobenius component h_a (d_b h_c - d_c h_b) - h_b (d_a h_c -
       d_c h_a) + h_c (d_a h_b - d_b h_a), grouped by the differentiated
       variable, is 2 kappa_a kappa_c D_a D_c W^b_ac - 2 kappa_a kappa_b
       D_a D_b W^c_ab - 2 kappa_b kappa_c D_b D_c W^a_bc, which (ii) turns
       into the formula above.  It reads nothing but h_v = kappa_v D_v^2,
       so it holds for any (A, B, C, D) of that form.  The mirror's
       beta_(n-2) is one: step 1 with [t^(n-2)] in place of [t^1] and
       step 2 as it stands give its kappa'_v = -s c_v sum_{m != v} node_m,
       which vanishes where the nodes other than v sum to 0.  (ii) does
       not read (A, B, C, D), so its component (a, b, c) is kappa'_abc
       D_a D_b D_c F_abc, kappa'_abc the formula above with kappa', and
       reads only h_a, h_b and h_c: a triple with kappa'_abc != 0 proves
       the mirror not integrable, with no component multiplied out.
    4. For v != q, row v of D_q is u + x_v w with u = (N_v | 0) and
       w = (0 | -N_v) cut to D's columns, so D is affine in x_v.  With K the
       rows not in {p, q, v}, r_p and r_q rows p and q, and [...] the
       determinant of the listed rows, W^v_pq = [K r_q u][K r_p w] -
       [K r_p u][K r_q w]: the x_v terms cancel.  The three-term Pluecker
       relation makes this [K r_q r_p][K u w] = +-D_v [K u w], and step 2's
       expansion gives [K u w] = +-prod_{m in K} (node_v - node_m) F.  So
       rho^v_pq = +-prod_{m not in {p,q,v}} (node_v - node_m) over the int
       nodes, with the sign (-1)^(l+1+i), i the number of p, q below v
       (measured on every order with k, l >= 1 up to n = 7 and pinned by
       the tests).
    The verdict rests on no unchecked identity: (i) and (ii) are computed,
    and steps 1-4 only say why they pass.  A failed check, an exponent of
    A, B, C or D above 1, a zero D or F, or a component whose division by
    kappa_abc's denominator leaves a remainder is an error
    (``HirotaWebError``) that names it; no second route recomputes the
    form.  A component with kappa_abc = 0 is absent, as the six-product
    formula leaves a zero component out.  D and F are nonzero, so each
    3-form is nonzero exactly when some constant of its own is.  With
    integer nodes the witness's constants combine to
    kappa_abc = (-1)^l 2 c_a c_b c_c (prod_{m not in {a,b,c}} node_m)^2,
    and the mirror's to kappa'_abc = (-1)^l 2 c_a c_b c_c (measured on every
    order with k, l >= 1 up to n = 6 and pinned by the tests): distinct
    nodes include at most one zero, so a triple holding it has kappa_abc
    != 0, and the mirror is settled at the first triple.  With nodes 1..n
    and k = (n-1)//2 a check takes 0.013-0.016 s at n = 6, 0.13-0.15 s at
    n = 7 and 1.2 s at n = 8 (74 MB), against 0.07, 0.9 and 9.7 s (95 MB)
    for the witness alone through the six-product formula on polynomials
    (2 vCPUs, Python 3.11.7, in-process runs).
    """
    if spec.is_symbolic:
        raise WebSpecError("flatness certification needs numeric nodes")
    if spec.n < 3:
        raise WebSpecError("flatness certification needs dimension at least 3")
    # A top of the largest byte of the keys' bitwise or is 1 for genuine
    # minors, and above 1 for a square, which the exponent guard reads.
    minors = _without_denominators([
        MultiPoly._from_packed(spec.n, m, _BYTE, max(reduce(or_, m, 0).to_bytes(spec.n, "little")))
        for m in _minor_maps(spec)])
    k, l = spec.k, spec.l
    p, q = minors[:k + 1], minors[k + 1:]
    if q[0].is_zero:
        raise DegenerateInterpolantError("denominator constant term vanishes")
    if k == 0 or l == 0:
        w1, cross_ok = {}, True
    else:
        scale = _denominator_lcm(spec.lambdas)
        int_nodes = [_tighten(v * scale) for v in spec.lambdas]
        w1, cross_ok = _factored_witness((q[0], p[1], q[1], p[0]),
                                         (q[l], p[k - 1], q[l - 1], p[k]), int_nodes, l)
    witness = DifferentialForm(spec.n_vars, 3, w1, q[0] ** 4)
    alpha1_ok = not w1
    if not alpha1_ok:
        status = "nonflat-certified"
    elif cross_ok:
        status = "flat-certified"
    else:
        raise HirotaWebError(
            "inconsistent certificates: alpha_1 integrable but the mirror element is not")
    return FlatnessVerdict(status, witness, alpha1_ok, cross_ok)


# -- restriction and transformation -----------------------------------------------


def _check_restriction(spec: WebSpec, coordinate: int) -> None:
    _check_count("coordinate", coordinate, error=DimensionError)
    if spec.is_symbolic:
        raise WebSpecError("restriction needs numeric nodes")
    if not 1 <= coordinate <= spec.n:
        raise DimensionError(f"coordinate {coordinate} out of range 1..{spec.n}")


def restrict(solution: HirotaSolution, coordinate: int,
             value: Scalar) -> RationalFunction:
    """Fix coordinate x_coordinate (1-based) to a constant.

    The result lives in n-1 densely reindexed variables and solves the
    lower-dimensional system whose node list omits the matching node.

    At value 0 and k >= 1 the result is a smaller spec's solution with the
    coordinates scaled, as exact ``RationalFunction`` equality (pinned by
    the tests on every order with k >= 1 up to n = 6, at every v):
    f_(n,k,l; nodes) at x_v = 0 is f_(n-1,k-1,l; nodes without node_v) at
    x_m / (node_m - node_v).  Why: at x_v = 0 row v of the row matrix is
    [1, node_v, ..., node_v^k, 0, ..., 0].  Subtracting node_v times each
    node column from the next, from the top power down, leaves row v a
    single 1, in column 0, and row m's node block (node_m - node_v)
    [1, ..., node_m^(k-1)] after its column 0.  Expanding along that 1 and
    dividing row m by node_m - node_v gives the row matrix of the data
    x_m / (node_m - node_v); the deleted top columns correspond, so P_k
    and Q_l become the smaller spec's P_(k-1) and Q_l times one common
    factor, which cancels in f.

    Shifting every coordinate by c keeps a solution in the family (pinned
    by the tests on every order with k >= l up to n = 6): f(x + c) = f(x)
    for k > l, and f(x + c) = f(x) + c for k = l.  Why: if p/q interpolates
    the data x, then (p + c q)/q interpolates x + c in the same (k, l) class
    when k >= l, so its leading coefficients are p_k + c q_k and q_l, and
    q_k = 0 unless k = l.
    """
    _check_restriction(solution.spec, coordinate)
    assignments = {coordinate - 1: _exact(value)}
    denominator = solution.f.den.eliminate(assignments)
    if denominator.is_zero:
        raise DegenerateRestrictionError(
            f"denominator vanishes identically at x{coordinate} = {value}")
    return RationalFunction(solution.f.num.eliminate(assignments), denominator)


def restricted_nodes(spec: WebSpec, coordinate: int) -> list[Scalar]:
    """Node list of the lower-dimensional system after fixing x_coordinate."""
    _check_restriction(spec, coordinate)
    return [v for i, v in enumerate(spec.lambdas, start=1) if i != coordinate]


@dataclass(frozen=True)
class Mobius:
    """A fractional-linear map t -> (a t + b)/(c t + d), ad - bc != 0."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _exact(getattr(self, name)))
        if self.a * self.d - self.b * self.c == 0:
            raise WebSpecError("degenerate fractional-linear map")

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    @classmethod
    def inversion(cls) -> "Mobius":
        """t -> 1/t."""
        return cls(Fraction(0), Fraction(1), Fraction(1), Fraction(0))

    @property
    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d


def _substitute_mobius(poly: MultiPoly, maps: Sequence[Mobius]
                       ) -> tuple[MultiPoly, MultiPoly]:
    """Compose a polynomial with per-variable fractional-linear maps, as a
    (numerator, denominator) pair.

    Clearing denominators: with D_v the degree of variable v, each term
    c prod x_v^e_v becomes c prod (a_v x_v + b_v)^e_v (c_v x_v + d_v)^(D_v - e_v)
    over the common denominator prod (c_v x_v + d_v)^(D_v), and the
    numerator is one sum of those products, each power built once.
    """
    n = poly.n_vars
    if all(m.is_identity for m in maps):
        return poly, MultiPoly.one(n)
    max_deg = [max(column) for column in zip(*poly.terms)] or [0] * n
    lin = {"num": [MultiPoly.variable(n, v) * maps[v].a + maps[v].b for v in range(n)],
           "den": [MultiPoly.variable(n, v) * maps[v].c + maps[v].d for v in range(n)]}

    @cache
    def power(kind: str, v: int, e: int) -> MultiPoly:
        return lin[kind][v] ** e

    one = MultiPoly.one(n)
    parts = []
    for exps, coeff in poly.terms.items():
        term = one
        for v, e in enumerate(exps):
            if e:
                term = term * power("num", v, e)
            if max_deg[v] - e:
                term = term * power("den", v, max_deg[v] - e)
        parts.append((term, one, coeff))
    numerator = _sum_of_products(n, parts)
    return numerator, prod((power("den", v, top) for v, top in enumerate(max_deg) if top),
                           start=one)


def transform(f: RationalFunction, outer: Mobius,
              inner: Sequence[Mobius]) -> RationalFunction:
    """The composed function outer(f(inner_1(x_1), ..., inner_n(x_n))).

    Solutions map to solutions of the same system; inversion outer and inner
    maps exchange the roles of the numerator and denominator orders.
    """
    if len(inner) != f.n_vars:
        raise DimensionError(
            f"expected {f.n_vars} coordinate maps, got {len(inner)}")
    # f.num and f.den compose to A/B and C/D, so f composes to (A D)/(B C).
    num_top, num_bottom = _substitute_mobius(f.num, inner)
    den_top, den_bottom = _substitute_mobius(f.den, inner)
    top, bottom = num_top * den_bottom, num_bottom * den_top
    numerator = top * outer.a + bottom * outer.b
    denominator = top * outer.c + bottom * outer.d
    if denominator.is_zero:
        raise ZeroDivisionError("outer map sends the function to infinity")
    return RationalFunction(numerator, denominator)


# -- structural properties of the leading coefficients ------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    ok: bool
    detail: str


def structural_properties(spec: WebSpec) -> list[PropertyCheck]:
    """The structural facts about the leading coefficients, and the
    interpolation identity of the minors they come from.

    1. both are homogeneous in the coordinates, of degrees l+1 and l;
    2. the numerator's degree exceeds the denominator's by one;
    3. each coefficient sum vanishes -- for the numerator when k >= 1 and
       for the denominator when l >= 1 (below those orders the defining
       column dependence does not exist and the sums are nonzero);
    4. the signed minors interpolate (``interpolation_check``).

    One pass writes all n+1 signed minors (``_minor_maps``), which the
    identity reads as they are; only P_k and Q_l are decoded.
    """
    maps = _minor_maps(spec)
    p_top, q_top = (_decoded(spec.n_vars, maps[c]) for c in (spec.k, spec.n))
    x_vars = range(spec.n)
    checks = []

    p_deg = p_top.homogeneous_degree(x_vars)
    q_deg = q_top.homogeneous_degree(x_vars)
    ok1 = (not p_top.is_zero and not q_top.is_zero
           and p_deg == spec.l + 1 and q_deg == spec.l)
    checks.append(PropertyCheck(
        "homogeneous",
        ok1,
        f"numerator degree {p_deg}, denominator degree {q_deg} "
        f"(expected {spec.l + 1} and {spec.l})"))

    ok2 = p_deg is not None and q_deg is not None and p_deg == q_deg + 1
    gap = p_deg - q_deg if (p_deg is not None and q_deg is not None) else None
    checks.append(PropertyCheck(
        "degree-gap", ok2, f"deg num - deg den = {gap} (expected 1)"))

    # Setting every coordinate to 1 leaves a polynomial in the nodes l1..ln
    # (a constant, for numeric nodes).
    ones = dict.fromkeys(range(spec.n), 1)
    node_names = spec.names()[spec.n:]
    p_sum = p_top.eliminate(ones)
    q_sum = q_top.eliminate(ones)
    p_ok = p_sum.is_zero if spec.k >= 1 else not p_sum.is_zero
    q_ok = q_sum.is_zero if spec.l >= 1 else not q_sum.is_zero
    p_claim = "zero" if spec.k >= 1 else "nonzero (order 0)"
    q_claim = "zero" if spec.l >= 1 else "nonzero (order 0)"
    checks.append(PropertyCheck(
        "coefficient-sums", p_ok and q_ok,
        f"numerator sum {p_sum.text(node_names)} (expected {p_claim}), "
        f"denominator sum {q_sum.text(node_names)} (expected {q_claim})"))
    checks.append(PropertyCheck(
        "interpolation-identity", _interpolation_identity(spec, maps),
        "P(node_i) - x_i Q(node_i) = 0 for all i"))
    return checks
