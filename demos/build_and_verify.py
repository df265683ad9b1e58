#!/usr/bin/env python3
"""Build rational solutions of the dispersionless Hirota system and prove,
in exact arithmetic, that every residual of the second-order system vanishes.

The solution in dimension n with numerator order k and denominator order l
(k + l + 1 = n) is the quotient of the two leading coefficients of the
rational interpolant through the nodes; everything below is derived from
determinants of the interpolation matrices.
"""

from fractions import Fraction

from hirotaweb import (WebSpec, build_solution, hirota_residual, verify_hirota, veronese_form,
                       web_triples)


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


banner("Dimension 3, orders [1/1], nodes 1, 2, 3")
spec = WebSpec.numeric(3, 1, 1)
sol = build_solution(spec)
print(f"numerator   P = {sol.p_top}")
print(f"denominator Q = {sol.q_top}")
print(f"solution    f = P/Q")
report = verify_hirota(sol)
print(f"residual system over {web_triples(3)}: {report.summary()}")
pencil = veronese_form(sol.f, sol.nodes())
print(f"annihilating pencil, t^1 coefficient: {pencil.coefficients[1]}")
print(f"residual of the triple (1, 2, 3): {hirota_residual(sol.f, sol.nodes(), (1, 2, 3))}")
print("the pencil is Frobenius integrable exactly when the residual vanishes")

banner("Dimension 4, orders [2/1], fully symbolic nodes")
spec4 = WebSpec.symbolic(4, 2, 1)
sol4 = build_solution(spec4)
names = spec4.names()
print("P =", sol4.p_top.text(names))
print()
print("Q =", sol4.q_top.text(names))
report4 = verify_hirota(sol4)
print()
print("symbolic verification in all four triples, valid for every choice of")
print("pairwise distinct nodes:", report4.summary())
for check in report4.checks:
    print(f"  triple {check.triple}: {check.detail}")

banner("Dimension 5, orders [2/2]: exact sampling with a soundness bound")
spec5 = WebSpec.symbolic(5, 2, 2)
sol5 = build_solution(spec5)
report5 = verify_hirota(sol5, mode="sampled", trials=3, bound=10 ** 6, seed=42)
print("the ten residual numerators evaluate to exact zero at three seeded")
print("integer points with coordinates in [-10^6, 10^6]")
print(f"degree bound {report5.degree_bound}; a nonzero numerator would survive one")
print(f"trial with probability at most {report5.per_trial_failure_bound} "
      f"(= {float(report5.per_trial_failure_bound):.2e})")
print(f"verdict: {report5.summary()}")

banner("Homogeneity")
print("f is homogeneous of degree 1: f(t x) = t f(x).  Check at one point:")
point = [Fraction(v) for v in (3, 5, 11)]
scaled = [2 * v for v in point]
f = sol.f
print(f"f{tuple(point)}  = {f.evaluate(point)}")
print(f"f(2x) = {f.evaluate(scaled)} = 2 f(x)")
