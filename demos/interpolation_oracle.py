#!/usr/bin/env python3
"""The rational interpolant two ways: determinant minors vs Gaussian
elimination, plus the degenerate configurations that have no interpolant."""

from fractions import Fraction

from hirotaweb import (DegenerateInterpolantError, WebSpec,
                       cauchy_interpolant, evaluate_interpolant,
                       random_numeric_instances, solve_oracle)

spec = WebSpec.numeric(3, 1, 1)
data = [Fraction(1), Fraction(2), Fraction(5)]
print("nodes 1, 2, 3 and data (1, 2, 5): find F = (p0 + p1 t)/(1 + q1 t)")
print()

interp = cauchy_interpolant(spec, x_values=data)
(p0, p1), (_, q1) = interp.p_coeffs, interp.q_coeffs
print(f"determinant route:  p0 = {p0}, p1 = {p1}, q1 = {q1}")
oracle = solve_oracle(spec, data)
print(f"elimination route:  p0 = {oracle[0]}, p1 = {oracle[1]}, q1 = {oracle[2]}")
print(f"F(0) = {evaluate_interpolant(interp, 0)}")
print(f"F(2) = {evaluate_interpolant(interp, 2)}   (the second node: F(2) = x2)")
try:
    evaluate_interpolant(interp, 4)
except Exception as exc:
    print(f"F(4) raises: {exc}")

print()
print("Unattainable data: (1, 1, 2) forces numerator and denominator to")
print("share the root at the third node, so the interpolant cannot exist.")
try:
    cauchy_interpolant(spec, x_values=[1, 1, 2])
except DegenerateInterpolantError as exc:
    print(f"  -> {exc}")
print()
print("Constant data never determines q1; elimination zeroes the free unknown:")
c = Fraction(7, 3)
print(f"  data (7/3, 7/3, 7/3) -> {solve_oracle(spec, [c, c, c])}")

print()
print("Agreement on random nondegenerate instances, all orders with n = 4:")
for k in range(4):
    l = 3 - k
    matched = sum(ok for _, _, ok in
                  random_numeric_instances(4, k, l, count=50, seed=77 + k))
    print(f"  [{k}/{l}]: {matched}/50 matched")
