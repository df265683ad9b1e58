"""The coframe witness identity in its Q0^2-inflated form.

This is the route flatness certification took before it divided the identity
by Q0^2.  With gamma_a = Q0 dA - A dQ0 it checks

    Q0^2 d(beta_1) wedge beta_1 = 2 gamma_Q1 wedge gamma_P0 wedge gamma_P1,

where beta_1 = Q0 dP1 - P1 dQ0 + Q1 dP0 - P0 dQ1 is built here from the
signed minors exactly as they come (Fraction coefficients for rational
nodes, no denominators cleared).  It shares only the forms layer and the
minors with the library, so the tests use it as the oracle for the reduced
check and for the witness.  ``jet_determinant`` writes R out as one 4 x 4
determinant of values and partials per component, with no wedge product.

``six_product_wedge`` is the six-product formula for d(beta) wedge beta on
polynomials, and ``wedge_components`` on ``pair_pieces`` runs it on values
at a point; the tests compare the factored 3-forms of
``webs._factored_witness`` and the mirror's verdict with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from typing import Callable, Optional

from hirotaweb import DifferentialForm, MultiPoly, WebSpec, signed_minors
from hirotaweb.webs import _combine
from reference_exterior import d0 as gradient, neg, sub, total


def gamma(a: MultiPoly, q0: MultiPoly) -> DifferentialForm:
    """Q0 dA - A dQ0, the numerator of d(A/Q0) times Q0^2."""
    return sub(gradient(a).scale(q0), gradient(q0).scale(a))


def gamma_product(p0: MultiPoly, p1: MultiPoly,
                  q0: MultiPoly, q1: MultiPoly) -> DifferentialForm:
    """2 gamma_Q1 wedge gamma_P0 wedge gamma_P1."""
    return gamma(q1, q0).wedge(gamma(p0, q0)).wedge(gamma(p1, q0)).scale(2)


def raw_alpha1(p0: MultiPoly, p1: MultiPoly,
               q0: MultiPoly, q1: MultiPoly) -> DifferentialForm:
    """The degree-1 element of the unnormalized coframe."""
    return total([gradient(p1).scale(q0), neg(gradient(q0).scale(p1)),
                  gradient(p0).scale(q1), neg(gradient(q1).scale(p0))])


def jet_determinant(p0: MultiPoly, p1: MultiPoly,
                    q0: MultiPoly, q1: MultiPoly) -> DifferentialForm:
    """R as a 4 x 4 determinant per component: for each (a, b, c) the rows
    are Q0, Q1, P0, P1 and the columns (value, d_a, d_b, d_c), expanded by
    Leibniz's formula with no wedge product."""
    n = q0.n_vars
    components = {}
    for idx in combinations(range(n), 3):
        jets = [[a] + [a.derivative(v) for v in idx] for a in (q0, q1, p0, p1)]
        total = MultiPoly.zero(n)
        for perm in permutations(range(4)):
            product = MultiPoly.one(n)
            for row, column in enumerate(perm):
                product = product * jets[row][column]
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(4), 2))
            total = total - product if inversions % 2 else total + product
        components[idx] = total
    return DifferentialForm(n, 3, components)


def self_wedge(form: DifferentialForm) -> DifferentialForm:
    return form.exterior_derivative().wedge(form)


@dataclass(frozen=True)
class InflatedWitness:
    """The oracle's view of one web: P0, P1, Q0, Q1 as the minors give them
    (P1 or Q1 zero where the order lacks it), d(beta_1) wedge beta_1, and
    whether the inflated identity holds (None where it does not apply,
    k = 0 or l = 0)."""

    coefficients: tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]
    w1: DifferentialForm
    holds: Optional[bool]

    @property
    def witness(self) -> DifferentialForm:
        """d(alpha_1) wedge alpha_1 of the normalized coframe."""
        q0 = self.coefficients[2]
        return DifferentialForm(self.w1.n_vars, 3, self.w1.components, q0 ** 4)


def inflated_witness(spec: WebSpec) -> InflatedWitness:
    minors = signed_minors(spec)
    p, q = minors[:spec.k + 1], minors[spec.k + 1:]
    zero = MultiPoly.zero(spec.n_vars)
    coefficients = (p[0], p[1] if len(p) > 1 else zero,
                    q[0], q[1] if len(q) > 1 else zero)
    w1 = self_wedge(raw_alpha1(*coefficients))
    holds = None
    if spec.k >= 1 and spec.l >= 1:
        q0 = coefficients[2]
        holds = w1.scale(q0 * q0) == gamma_product(*coefficients)
    return InflatedWitness(coefficients, w1, holds)


def pair_pieces(x, dx: Callable, y, dy: Callable) -> tuple[Callable, Callable]:
    """The pieces of one pair (X, Y) of ``six_product_wedge``, each built
    once on first read: one(v) = X d_vY - Y d_vX and
    two(u, v) = d_uX d_vY - d_vX d_uY, from X and Y with ``dx`` and ``dy``
    giving their partials.  These are polynomials, or the pieces' values at
    a point when X, Y and the partials are numbers there (``_combine``
    takes either kind)."""

    @cache
    def one(v: int):
        return _combine([(dy(v), x, 1), (y, dx(v), -1)])

    @cache
    def two(u: int, v: int):
        return _combine([(dx(u), dy(v), 1), (dx(v), dy(u), -1)])

    return one, two


def wedge_components(ab: tuple[Callable, Callable], cd: tuple[Callable, Callable],
                     n: int, first_only: bool) -> dict[tuple[int, int, int], object]:
    """The nonzero (a, b, c) components of ``six_product_wedge`` from the
    pieces of the pairs (A, B) and (C, D), in index order, each one sum of
    six products; with ``first_only`` only the first nonzero one."""
    p, w = ab
    g, k = cd
    out = {}
    for i, j, m in combinations(range(n), 3):
        value = _combine([
            (w(i, j), g(m), 2), (w(i, m), g(j), -2), (w(j, m), g(i), 2),
            (k(i, j), p(m), 2), (k(i, m), p(j), -2), (k(j, m), p(i), 2)])
        if value:
            out[i, j, m] = value
            if first_only:
                break
    return out


def six_product_wedge(a: MultiPoly, b: MultiPoly, c: MultiPoly, d: MultiPoly,
                      first_only: bool = False) -> dict[tuple[int, int, int], MultiPoly]:
    """The nonzero components of d(beta) wedge beta for the polynomial
    1-form beta = A dB - B dA + C dD - D dC, any four polynomials.

    d(beta) = 2 (dA^dB + dC^dD), and dA^dB^(A dB - B dA) = 0, so

        d(beta) ^ beta = 2 [dA^dB^(C dD - D dC) + dC^dD^(A dB - B dA)].

    Each pair gives n one-form pieces (A dB - B dA)_v = A B_v - B A_v (the
    N_v of ``webs._first_factors`` for B over A) and C(n, 2) two-form pieces
    (dA^dB)_uv = A_u B_v - A_v B_u, and the (a, b, c) component is one sum
    of six products of them,
    2 (w_ab g_c - w_ac g_b + w_bc g_a + k_ab p_c - k_ac p_b + k_bc p_a)
    with w, p from (A, B) and k, g from (C, D).  Every derivative and piece
    is built when a component first reads it, once.  With ``first_only`` it
    stops at the first nonzero component, having built only what the
    components up to it read.
    """
    return wedge_components(pair_pieces(a, cache(a.derivative), b, cache(b.derivative)),
                            pair_pieces(c, cache(c.derivative), d, cache(d.derivative)),
                            a.n_vars, first_only)
