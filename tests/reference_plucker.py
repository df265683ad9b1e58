"""The factored proof written out in full: the constants of (A) and (B) from
unsplit sums, and each triple's T as one full sum of products.

``webs._factored_proof`` zero-tests (A) N_i = a_i D_i^2 and
(B) Q d_k D_j - D_j Q_k = b_jk D_k E_jk on x-halves, and settles a triple by
the signs of its three weights alone, relying on the three-term
Grassmann-Pluecker relation S_ijk = D_i E_jk - D_j E_ik + D_k E_ij = 0.
Here (A) and (B) are formed from the derivatives of P, Q and D, and T is
formed and zero-tested in full, so the tests use this route as the oracle
for the constants, the weight pattern and S_ijk = 0.  D and E are taken as
given (the library's minors), since the relation is about them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from hirotaweb import MultiPoly, RationalFunction


def ratio(lhs: MultiPoly, a: MultiPoly, b: MultiPoly) -> Optional[Fraction]:
    """The constant c with lhs = c a b, or None when there is none."""
    (exps, coeff), (exps_ab, coeff_ab) = lhs.leading_term(), (a * b).leading_term()
    if exps != exps_ab:
        return None
    c = Fraction(coeff, coeff_ab)
    return c if lhs == a * b * c else None


def unsplit_constants(f: RationalFunction, d: Sequence[MultiPoly], e: dict
                      ) -> Optional[tuple[list, dict]]:
    """(a, b): a_i with P_i Q - P Q_i = a_i D_i^2 for every 0-based i and
    b_jk with Q d_k D_j - D_j Q_k = b_jk D_k E_jk for every j < k, or None
    when one of them does not hold."""
    num, den = f.num, f.den
    n = len(d)
    a = [ratio(num.derivative(i) * den - num * den.derivative(i), d[i], d[i])
         for i in range(n)]
    b = {(j, k): ratio(den * d[j].derivative(k) - d[j] * den.derivative(k), d[k], e[j, k])
         for j, k in combinations(range(n), 2)}
    if None in a or None in b.values():
        return None
    return a, b


def weights(nodes: Sequence, a: Sequence, b: dict, triple: tuple[int, int, int]) -> list:
    """w = (node_q - node_r) a_p a_lo b_lo,hi over the rotations (p, q, r) of
    the 0-based triple, (lo, hi) the pair {q, r} in order."""
    out = []
    for p, q, r in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
        lo, hi = min(q, r), max(q, r)
        out.append((nodes[q] - nodes[r]) * a[p] * a[lo] * b[lo, hi])
    return out


def triple_sum(nodes: Sequence, d: Sequence[MultiPoly], e: dict, a: Sequence, b: dict,
               triple: tuple[int, int, int]) -> MultiPoly:
    """T = sum over the rotations (p, q, r) of w D_p E_lo,hi, formed in full:
    the triple's Q B is 2 D_i D_j D_k T."""
    total = MultiPoly.zero(len(d))
    rotations = (triple, triple[1:] + triple[:1], triple[2:] + triple[:2])
    for (p, q, r), w in zip(rotations, weights(nodes, a, b, triple)):
        total = total + d[p] * e[min(q, r), max(q, r)] * w
    return total


def plucker(d: Sequence[MultiPoly], e: dict, triple: tuple[int, int, int]) -> MultiPoly:
    """S_ijk = D_i E_jk - D_j E_ik + D_k E_ij for a 0-based triple i < j < k."""
    i, j, k = triple
    return d[i] * e[j, k] - d[j] * e[i, k] + d[k] * e[i, j]
