#!/usr/bin/env python3
"""Certify webs flat or nonflat from the integrability of one coframe element.

The annihilating one-form pencil alpha^t = alpha_0 + t alpha_1 + ... has the
coefficient forms as a coframe; the web is flat exactly when alpha_1 (or its
mirror alpha_(n-2)) is Frobenius integrable.  Each component of a 3-form
d(beta) ^ beta is a constant times four smaller determinant minors, with
no exterior algebra: the witness is written out, and the mirror is
settled by its constants alone.  For k, l >= 1 the witness
d(alpha_1) ^ alpha_1, equal to 2 dq1 ^ dp0 ^ dp1, is a nonzero 3-form, so
those webs are nonflat on a dense open set; at k = 0 or l = 0 the
construction degenerates to polynomial interpolation and the webs are flat.

The full pencil's integrability is read from the residual proof: each
component of d(alpha^t) ^ alpha^t is a nonzero polynomial in t times one
residual bracket of verify_hirota (see veronese_form).
"""

from hirotaweb import WebSpec, build_solution, flatness_check, verify_hirota

print(f"{'order':>8} {'verdict':>20} {'alpha_1':>9} {'mirror':>8} {'witness built as'}")
for n in (3, 4, 5):
    for k in range(n):
        l = n - 1 - k
        verdict = flatness_check(WebSpec.numeric(n, k, l))
        identity = "2 dq1^dp0^dp1" if k >= 1 and l >= 1 else "n/a"
        print(f"  [{k}/{l}]n={n} {verdict.status:>20} "
              f"{str(verdict.alpha1_integrable):>9} "
              f"{str(verdict.cross_check_integrable):>8}  {identity}")

print()
print("The witness 3-form for the nonflat 3D web (nodes 1, 2, 3):")
verdict = flatness_check(WebSpec.numeric(3, 1, 1))
print(" ", verdict.witness.text())

print()
print("Frobenius integrability of the full pencil (equivalent to the PDE")
print("system) holds for the webs themselves:")
for n in (3, 4):
    spec = WebSpec.numeric(n, n - 2, 1)
    sol = build_solution(spec)
    ok = verify_hirota(sol).passed
    print(f"  n={n}, order [{spec.k}/{spec.l}]: d(alpha^t) ^ alpha^t == 0 "
          f"for every power of t: {ok}")
