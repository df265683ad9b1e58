"""No value anywhere in the pipeline may silently become a float."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import hirotaweb
from hirotaweb import (DifferentialForm, InexactNumberError, Mobius, MultiPoly,
                       RationalFunction, WebSpec, build_solution, cauchy_interpolant,
                       coframe, flatness_check, poly_text, poly_to_json, restrict,
                       solve_oracle, transform, verify_hirota, veronese_form)
from hirotaweb.polynomials import _exact


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


# The inexact coefficients that tests/test_cli_json.py smuggles past the
# constructor with ``_canonical=True``: a float, and a bool, which would
# otherwise read as the int 1.
_x = MultiPoly.variable(2, 0)
_SMUGGLED_POLYS = [
    MultiPoly(1, {(1,): 0.5}, _canonical=True),
    MultiPoly(2, {(1, 0): 1, (0, 1): 2.0}, _canonical=True),
    MultiPoly(1, {(1,): True}, _canonical=True),
]
_SMUGGLED_FORMS = [
    DifferentialForm(2, 1, {(0,): MultiPoly(2, {(1, 0): 0.5}, _canonical=True)}),
    DifferentialForm(2, 1, {(1,): _x}, MultiPoly(2, {(0, 0): 2.0}, _canonical=True)),
    DifferentialForm(2, 1, {(0,): _x, (1,): MultiPoly(2, {(0, 1): True}, _canonical=True)}),
]


@pytest.mark.parametrize("poly", _SMUGGLED_POLYS)
def test_polynomial_readers_refuse_a_smuggled_coefficient(poly):
    one = MultiPoly.one(poly.n_vars)
    for read in (poly_text, lambda p: poly_text(p, latex=True), MultiPoly.text, poly_to_json,
                 RationalFunction, lambda p: RationalFunction(one, p)):
        with pytest.raises(InexactNumberError, match="coefficients must be ints or Fractions"):
            read(poly)


@pytest.mark.parametrize("form", _SMUGGLED_FORMS)
def test_form_readers_refuse_a_smuggled_coefficient(form):
    for read in (DifferentialForm.to_json, DifferentialForm.text, str,
                 lambda w: [w.component(idx) for idx in ((0,), (1,))]):
        with pytest.raises(InexactNumberError, match="coefficients must be ints or Fractions"):
            read(form)


def test_exact_keeps_a_fraction_and_refuses_a_float():
    value = Fraction(3, 7)
    assert _exact(value) is value
    assert _exact(3) == 3 and type(_exact(3)) is Fraction
    with pytest.raises(InexactNumberError):
        _exact(0.5)


def test_constants_keep_ints_and_tighten_everything_else():
    assert MultiPoly.one(3).terms == {(0, 0, 0): 1}
    for value, expected in ((5, 5), (Fraction(6, 3), 2), (True, 1), ("3/4", Fraction(3, 4))):
        (coeff,) = MultiPoly.const(2, value).terms.values()
        assert coeff == expected and type(coeff) is type(expected)
    assert MultiPoly.const(2, 0).is_zero
    with pytest.raises(InexactNumberError):
        MultiPoly.const(2, 1.0)
