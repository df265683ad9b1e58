"""No value anywhere in the pipeline may silently become a float."""

import ast
from fractions import Fraction
from pathlib import Path

import hirotaweb
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

    interp = cauchy_interpolant(spec, x_values=[Fraction(1, 3), 2, -5, Fraction(7, 2)])
    for coeff in interp.p_coeffs + interp.q_coeffs:
        assert isinstance(coeff, (int, Fraction)), coeff
        assert not isinstance(coeff, bool)
    for value in solve_oracle(spec, [Fraction(1, 3), 2, -5, Fraction(7, 2)]):
        assert isinstance(value, Fraction)

    for alpha in coframe(spec).coefficients:
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


def test_numeric_solution_has_only_int_coefficients():
    # The content normalization divides integers exactly: no Fraction with
    # denominator 1 survives into f, P_k or Q_l.
    sol = build_solution(WebSpec.numeric(6, 2, 3))
    for poly in (sol.f.num, sol.f.den, sol.p_top, sol.q_top):
        assert poly.terms
        assert all(type(c) is int for c in poly.terms.values())


def test_rational_node_flatness_witness_has_only_int_coefficients():
    # The minors are cleared of node denominators before the coframe is
    # built, so the witness numerators and its denominator hold ints only.
    spec = WebSpec.numeric(5, 2, 2, [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                                     Fraction(5, 3), Fraction(-7, 5)])
    witness = flatness_check(spec).witness
    assert witness.components
    for poly in (*witness.components.values(), witness.den):
        assert poly.terms
        assert all(type(c) is int for c in poly.terms.values())


def test_library_source_makes_one_float():
    # The only float in the library is the decimal view of a failure bound,
    # made in webs._bound_text: any float literal, or a float() call
    # anywhere else, fails.
    offenders = []
    for path in sorted(Path(hirotaweb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if (path.name == "webs.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "_bound_text"):
                allowed.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offenders.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float" and id(node) not in allowed):
                offenders.append(f"{path.name}:{node.lineno}: float() call")
    assert not offenders, offenders
