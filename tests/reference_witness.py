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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

from hirotaweb import DifferentialForm, MultiPoly, WebSpec, signed_minors


def gradient(a: MultiPoly) -> DifferentialForm:
    return DifferentialForm.from_function(a).exterior_derivative()


def gamma(a: MultiPoly, q0: MultiPoly) -> DifferentialForm:
    """Q0 dA - A dQ0, the numerator of d(A/Q0) times Q0^2."""
    return gradient(a).scale(q0) - gradient(q0).scale(a)


def gamma_product(p0: MultiPoly, p1: MultiPoly,
                  q0: MultiPoly, q1: MultiPoly) -> DifferentialForm:
    """2 gamma_Q1 wedge gamma_P0 wedge gamma_P1."""
    return gamma(q1, q0).wedge(gamma(p0, q0)).wedge(gamma(p1, q0)).scale(2)


def raw_alpha1(p0: MultiPoly, p1: MultiPoly,
               q0: MultiPoly, q1: MultiPoly) -> DifferentialForm:
    """The degree-1 element of the unnormalized coframe."""
    return (gradient(p1).scale(q0) - gradient(q0).scale(p1)
            + gradient(p0).scale(q1) - gradient(q1).scale(p0))


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
