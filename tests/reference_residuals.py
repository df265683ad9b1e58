"""The expanded route to sampled residual values and the degree bound.

This is the route sampled verification used before it moved to jets: every
factor N_i, (N_j)_k and M_jk is expanded as a polynomial and evaluated at the
point, and the degree bound reads the degrees of the expanded factors.  It
shares only the polynomial arithmetic with the library's jet route, so the
tests use it as the oracle for both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hirotaweb import MultiPoly


def expanded_residual_value(factors, nodes: Sequence, triple: tuple[int, int, int],
                            point: Sequence, cache: dict) -> Fraction:
    """Residual numerator of a 1-based triple at a point, from the expanded
    factors of a ``_ResidualFactors``; ``cache`` is shared per point."""
    point = [Fraction(v) for v in point]
    q_val = cache.get("den")
    if q_val is None:
        q_val = cache["den"] = factors.den.evaluate(point)

    def n_val(v: int) -> Fraction:
        key = ("n", v)
        if key not in cache:
            cache[key] = factors.n_poly(v).evaluate(point)
        return cache[key]

    def m_val(j: int, k: int) -> Fraction:
        a, b = (j, k) if j <= k else (k, j)
        key = ("m", a, b)
        if key not in cache:
            qk_key = ("dq", b)
            if qk_key not in cache:
                cache[qk_key] = factors.den_partial(b).evaluate(point)
            cache[key] = (factors.dn_poly(a, b).evaluate(point) * q_val
                          - 2 * n_val(a) * cache[qk_key])
        return cache[key]

    def node_val(v: int) -> Fraction:
        node = nodes[v]
        return node.evaluate(point) if isinstance(node, MultiPoly) else node

    i, j, k = (t - 1 for t in triple)
    return (n_val(i) * m_val(j, k) * (node_val(j) - node_val(k))
            + n_val(j) * m_val(k, i) * (node_val(k) - node_val(i))
            + n_val(k) * m_val(i, j) * (node_val(i) - node_val(j)))


def expanded_degree_bound(factors, nodes_symbolic: bool,
                          triples: Sequence[tuple[int, int, int]]) -> int:
    """Degree bound from the expanded factors; a zero polynomial counts as
    degree 0, as ``MultiPoly.degree`` reports it."""
    diff_deg = 1 if nodes_symbolic else 0
    q_deg = factors.den.degree()
    best = 0
    for triple in triples:
        for i, j, k in ((triple[0], triple[1], triple[2]),
                        (triple[1], triple[2], triple[0]),
                        (triple[2], triple[0], triple[1])):
            vi, vj, vk = i - 1, j - 1, k - 1
            m_deg = max(factors.dn_poly(vj, vk).degree() + q_deg,
                        factors.n_poly(vj).degree() + factors.den_partial(vk).degree())
            best = max(best, diff_deg + factors.n_poly(vi).degree() + m_deg)
    return best
