"""No value anywhere in the pipeline may silently become a float."""

from fractions import Fraction

from hirotaweb import (Mobius, WebSpec, build_solution, cauchy_interpolant,
                       coframe, flatness_check, restrict, solve_oracle,
                       transform, verify_hirota, veronese_form)


def _assert_exact_poly(poly):
    for coeff in poly.terms.values():
        assert isinstance(coeff, (int, Fraction)), coeff
        assert not isinstance(coeff, bool)


def _assert_exact_form(form):
    for coeff in form.components.values():
        _assert_exact_poly(coeff)
    _assert_exact_poly(form.den)


def test_pipeline_stays_exact():
    spec = WebSpec.numeric(4, 2, 1)
    sol = build_solution(spec)
    _assert_exact_poly(sol.p_top)
    _assert_exact_poly(sol.f.num)

    interp = cauchy_interpolant(spec, normalize=True,
                                x_values=[Fraction(1, 3), 2, -5, Fraction(7, 2)])
    for coeff in interp.p_coeffs + interp.q_coeffs:
        _assert_exact_poly(coeff)
    for value in solve_oracle(spec, [Fraction(1, 3), 2, -5, Fraction(7, 2)]):
        assert isinstance(value, Fraction)

    for alpha in coframe(spec).alphas:
        _assert_exact_form(alpha)
    for form in veronese_form(sol.f, spec.lambdas).coefficients:
        _assert_exact_form(form)
    _assert_exact_form(flatness_check(spec).witness)

    restricted = restrict(sol, 4, Fraction(-2, 3))
    _assert_exact_poly(restricted.num)
    moved = transform(sol.f, Mobius(1, Fraction(1, 2), 1, 0),
                      [Mobius(2, 0, 0, 1)] * 4)
    _assert_exact_poly(moved.num)
    _assert_exact_poly(moved.den)

    report = verify_hirota(sol, mode="sampled", trials=2, bound=10 ** 3, seed=9)
    assert isinstance(report.per_trial_failure_bound, Fraction)
