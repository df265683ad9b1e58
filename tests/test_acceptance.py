"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every check is exact; the only tolerances are the per-criterion wall
clock budgets, which are asserted, and the sampled-mode failure probability
bound, which must stay below 1e-4 per trial.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from hirotaweb import (Mobius, PoleError, RationalFunction, WebSpec, build_solution,
                       coframe, flatness_check, interpolation_check,
                       random_numeric_instances,
                       restrict, restricted_nodes, structural_properties,
                       transform, verify_hirota, veronese_form)
from reference_forms import (closed_form_3d, closed_form_4d,
                             closed_form_5d_22, closed_form_5d_31,
                             common_scalar)
from reference_frobenius import frobenius_check


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} "
          f"({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget")


def orders(n):
    return [(k, n - 1 - k) for k in range(n)]


def test_criterion_01_closed_form_3d():
    with criterion(1, "3D symbolic solution equals the known closed form "
                      "up to one scalar", 1):
        sol = build_solution(WebSpec.symbolic(3, 1, 1))
        known_p, known_q = closed_form_3d()
        assert sol.f == RationalFunction(known_p, known_q)
        scalar = common_scalar(sol.p_top, sol.q_top, known_p, known_q)
        assert scalar is not None and scalar != 0
        print(f"       recorded 3D scalar: {scalar}")


def test_criterion_02_closed_form_4d():
    with criterion(2, "4D leading coefficients match the known closed form "
                      "by cross-multiplication", 5):
        sol = build_solution(WebSpec.symbolic(4, 2, 1))
        known_p, known_q = closed_form_4d()
        assert (sol.p_top * known_q - known_p * sol.q_top).is_zero
        scalar = common_scalar(sol.p_top, sol.q_top, known_p, known_q)
        assert scalar is not None and scalar != 0
        print(f"       recorded 4D scalar: {scalar}")


def test_criterion_03_closed_forms_5d():
    with criterion(3, "both 5D symbolic solutions match the known closed "
                      "forms up to one scalar", 60):
        for (k, l), fixture in (((3, 1), closed_form_5d_31),
                                ((2, 2), closed_form_5d_22)):
            sol = build_solution(WebSpec.symbolic(5, k, l))
            known_p, known_q = fixture()
            assert (sol.p_top * known_q - known_p * sol.q_top).is_zero
            scalar = common_scalar(sol.p_top, sol.q_top, known_p, known_q)
            assert scalar is not None and scalar != 0
            print(f"       recorded 5D [{k}/{l}] scalar: {scalar}")


def test_criterion_04_residual_system():
    with criterion(4, "residual system vanishes: symbolic proof for n <= 4 "
                      "in both node modes and n = 5 numeric; sampled proof "
                      "for n = 5 symbolic with failure bound <= 1e-4", 300):
        for n in (2, 3, 4):
            for k, l in orders(n):
                numeric = verify_hirota(build_solution(WebSpec.numeric(n, k, l)))
                assert numeric.passed, ("numeric", n, k, l)
                symbolic = verify_hirota(build_solution(WebSpec.symbolic(n, k, l)))
                assert symbolic.passed, ("symbolic", n, k, l)
        for k, l in orders(5):
            report = verify_hirota(build_solution(WebSpec.numeric(5, k, l)))
            assert report.passed, ("numeric", 5, k, l)
        for k, l in orders(5):
            report = verify_hirota(build_solution(WebSpec.symbolic(5, k, l)),
                                   mode="sampled", trials=3, bound=10 ** 6,
                                   seed=42)
            assert report.passed, ("sampled", 5, k, l)
            assert report.per_trial_failure_bound <= Fraction(1, 10 ** 4)


def test_criterion_05_structural_properties():
    with criterion(5, "homogeneity, degree gap, and coefficient-sum "
                      "properties for every order with n <= 6", 30):
        for n in range(2, 7):
            for k, l in orders(n):
                checks = structural_properties(WebSpec.numeric(n, k, l))
                assert all(c.ok for c in checks), (
                    n, k, l, [(c.name, c.detail) for c in checks if not c.ok])


def test_criterion_06_flatness_dichotomy():
    with criterion(6, "nonflat certificates with a nonzero witness and a "
                      "nonintegrable mirror for k, l >= 1 (n <= 5); flat "
                      "certificates for k = 0 or l = 0 (n <= 6)", 120):
        for n in (3, 4, 5):
            for k, l in orders(n):
                if k >= 1 and l >= 1:
                    verdict = flatness_check(WebSpec.numeric(n, k, l))
                    assert verdict.status == "nonflat-certified", (n, k, l)
                    assert not verdict.cross_check_integrable, (n, k, l)
                    assert not verdict.witness.is_zero
        for n in range(3, 7):
            for k, l in orders(n):
                if k == 0 or l == 0:
                    verdict = flatness_check(WebSpec.numeric(n, k, l))
                    assert verdict.status == "flat-certified", (n, k, l)
                    assert verdict.witness.is_zero


def test_criterion_07_frobenius_integrability():
    with criterion(7, "the annihilating one-form pencil is Frobenius "
                      "integrable for n = 3 and n = 4", 60):
        for n in (3, 4):
            for k, l in orders(n):
                spec = WebSpec.numeric(n, k, l)
                sol = build_solution(spec)
                pencil = veronese_form(sol.f, spec.lambdas).coefficients
                assert frobenius_check(pencil), (n, k, l)
                assert verify_hirota(sol).passed, (n, k, l)


def test_criterion_08_interpolation_identities():
    with criterion(8, "interpolation identity in both node modes (n <= 5) "
                      "and 100 seeded oracle agreements per order", 60):
        for n in range(2, 6):
            for k, l in orders(n):
                assert interpolation_check(WebSpec.numeric(n, k, l)), (n, k, l)
                assert interpolation_check(WebSpec.symbolic(n, k, l)), (n, k, l)
        for n in range(2, 6):
            for k, l in orders(n):
                count = 0
                for _, xs, matched in random_numeric_instances(
                        n, k, l, count=100, seed=1000 + 10 * n + k):
                    assert matched, (n, k, l, xs)
                    count += 1
                assert count == 100


def test_criterion_09_restriction_behavior():
    with criterion(9, "restricting the 4D solution: residuals survive; "
                      "x4 = 0 keeps homogeneity but breaks the sum "
                      "property, x4 = 1 breaks homogeneity", 10):
        sol = build_solution(WebSpec.numeric(4, 2, 1))
        remaining = restricted_nodes(sol.spec, 4)

        at_zero = restrict(sol, 4, 0)
        assert verify_hirota(at_zero, nodes=remaining).passed
        assert at_zero.num.homogeneous_degree() == 2
        assert at_zero.den.homogeneous_degree() == 1
        ones = [Fraction(1)] * 3
        sums = (at_zero.num.evaluate(ones), at_zero.den.evaluate(ones))
        assert sums != (0, 0)  # the zero-sum property fails for the pair
        print(f"       restricted coefficient sums at x4=0: {sums}")

        at_one = restrict(sol, 4, 1)
        assert verify_hirota(at_one, nodes=remaining).passed
        assert (at_one.num.homogeneous_degree() is None
                or at_one.den.homogeneous_degree() is None)


def test_criterion_10_transform_closure():
    with criterion(10, "20 seeded random fractional-linear transforms of "
                       "the 3D solution remain symbolic solutions", 60):
        rng = random.Random(20260810)

        def random_map():
            while True:
                a, b, c, d = (Fraction(rng.randint(-5, 5)) for _ in range(4))
                if a * d - b * c != 0:
                    return Mobius(a, b, c, d)

        sol = build_solution(WebSpec.numeric(3, 1, 1))
        for trial in range(20):
            moved = transform(sol.f, random_map(),
                              [random_map() for _ in range(3)])
            assert verify_hirota(moved, nodes=sol.nodes()).passed, trial


def test_criterion_11_coframe_veronese_proportionality():
    with criterion(11, "coframe sum and annihilating pencil are "
                       "proportional at 5 random parameters and 5 random "
                       "points per order, n <= 4", 30):
        rng = random.Random(31415)
        for n in (3, 4):
            for k, l in orders(n):
                spec = WebSpec.numeric(n, k, l)
                sol = build_solution(spec)
                pencil = veronese_form(sol.f, spec.lambdas)
                frame = coframe(spec)
                for _ in range(5):
                    mu = Fraction(rng.randint(-7, 7))
                    pencil_form = pencil.at(mu)
                    frame_form = frame.at(mu)
                    checked = 0
                    while checked < 5:
                        point = [Fraction(rng.randint(2, 50)) for _ in range(n)]
                        try:
                            a = [pencil_form.component((v,)).evaluate(point)
                                 for v in range(n)]
                            b = [frame_form.component((v,)).evaluate(point)
                                 for v in range(n)]
                        except PoleError:
                            continue  # random point hit a pole; redraw
                        # the wedge of the two covectors vanishes at the point
                        for i in range(n):
                            for j in range(i + 1, n):
                                assert a[i] * b[j] - a[j] * b[i] == 0, (n, k, l, mu)
                        checked += 1
