"""The written-out residual: factors, residual numerators, sampled values and
degree bound by the second-derivative route.

Every factor is expanded as a polynomial straight from f = P/Q with
``MultiPoly.derivative``: N_i = P_i Q - P Q_i, (N_j)_k as the derivative of
the expanded N_j, and M_jk = (N_j)_k Q - 2 N_j Q_k = Q^3 f_jk, and a triple's
residual numerator is the cyclic sum of (node_j - node_k) N_i M_jk.  The
library never forms M_jk: it writes the numerator as Q B with brackets of
first partials of the N_i, on jets, and sampling never expands a factor.
This route shares only the polynomial arithmetic with it and imports no
factor code from the library, so the tests use it as the oracle for the
factors, the residual numerators, the sampled values and the degree bound.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from hirotaweb import MultiPoly, RationalFunction


def expanded_factors(f: RationalFunction, n: int
                     ) -> tuple[list[MultiPoly], dict, dict, list[MultiPoly]]:
    """(N, dN, M, Q') for variables 0..n-1: N[i], dN[j, k] = (N_j)_k for
    every ordered pair j != k, M[j, k] keyed both ways (it is symmetric, so
    it is expanded once per pair) and Q'[k] = Q_k."""
    num, den = f.num, f.den
    den_partials = [den.derivative(v) for v in range(n)]
    first = [num.derivative(v) * den - num * den_partials[v] for v in range(n)]
    dn = {(j, k): first[j].derivative(k) for j in range(n) for k in range(n) if j != k}
    second = {}
    for j, k in combinations(range(n), 2):
        second[j, k] = second[k, j] = dn[j, k] * den - 2 * first[j] * den_partials[k]
    return first, dn, second, den_partials


def expanded_residuals(nodes: Sequence, triples: Sequence[tuple[int, int, int]],
                       factors: tuple) -> list[MultiPoly]:
    """Residual numerators of 1-based triples as polynomials, written out as
    (node_j - node_k) N_i M_jk + (node_k - node_i) N_j M_ki + (node_i - node_j) N_k M_ij
    from the expanded factors (``expanded_factors(f, len(nodes))``)."""
    first, _, second, _ = factors
    residuals = []
    for triple in triples:
        i, j, k = (t - 1 for t in triple)
        residuals.append(first[i] * second[j, k] * (nodes[j] - nodes[k])
                         + first[j] * second[k, i] * (nodes[k] - nodes[i])
                         + first[k] * second[i, j] * (nodes[i] - nodes[j]))
    return residuals


def expanded_residual_values(nodes: Sequence, triples: Sequence[tuple[int, int, int]],
                             point: Sequence, factors: tuple) -> list[Fraction]:
    """Residual numerators of 1-based triples at a point, from the expanded
    factors (``expanded_factors(f, len(nodes))``) evaluated there."""
    first, _, second, _ = factors
    point = [Fraction(v) for v in point]
    node_vals = [v.evaluate(point) if isinstance(v, MultiPoly) else v for v in nodes]
    n_vals = [poly.evaluate(point) for poly in first]
    m_vals = {}
    for (j, k), poly in second.items():
        if (j, k) not in m_vals:
            m_vals[j, k] = m_vals[k, j] = poly.evaluate(point)
    values = []
    for triple in triples:
        i, j, k = (t - 1 for t in triple)
        values.append(n_vals[i] * m_vals[j, k] * (node_vals[j] - node_vals[k])
                      + n_vals[j] * m_vals[k, i] * (node_vals[k] - node_vals[i])
                      + n_vals[k] * m_vals[i, j] * (node_vals[i] - node_vals[j]))
    return values


def expanded_degree_bound(f: RationalFunction, factors: tuple, nodes_symbolic: bool,
                          triples: Sequence[tuple[int, int, int]]) -> int:
    """Degree bound from the expanded factors; a zero polynomial counts as
    degree 0, as ``MultiPoly.degree`` reports it."""
    first, dn, _, den_partials = factors
    diff_deg = 1 if nodes_symbolic else 0
    q_deg = f.den.degree()
    best = 0
    for triple in triples:
        for i, j, k in ((triple[0], triple[1], triple[2]),
                        (triple[1], triple[2], triple[0]),
                        (triple[2], triple[0], triple[1])):
            vi, vj, vk = i - 1, j - 1, k - 1
            m_deg = max(dn[vj, vk].degree() + q_deg,
                        first[vj].degree() + den_partials[vk].degree())
            best = max(best, diff_deg + first[vi].degree() + m_deg)
    return best
