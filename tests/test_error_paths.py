"""Typed-error contracts across the library surface."""

from fractions import Fraction

import pytest

from hirotaweb import (DifferentialForm, DimensionError, InexactNumberError,
                       LambdaForm, Mobius, MultiPoly, RationalFunction, WebSpec,
                       WebSpecError, build_solution, cauchy_interpolant,
                       evaluate_interpolant, flatness_check, hirota_residual,
                       maximal_minors, poly_to_json, random_numeric_instances, restrict,
                       restricted_nodes, signed_minors, transform, verify_hirota,
                       veronese_form, web_triples)
from reference_exterior import poly_from_json
from reference_polynomials import exact_div


def test_polynomial_error_paths():
    x1 = MultiPoly.variable(2, 0)
    with pytest.raises(DimensionError):
        MultiPoly.variable(2, 5)
    with pytest.raises(DimensionError):
        MultiPoly(2, {(1,): Fraction(1)})
    with pytest.raises(DimensionError):
        x1.derivative(7)
    with pytest.raises(DimensionError):
        x1.evaluate([1])
    with pytest.raises(ValueError):
        MultiPoly.zero(2).leading_term()
    with pytest.raises(ValueError):
        x1.constant_value()
    with pytest.raises(ValueError):
        x1 ** -1
    with pytest.raises(ZeroDivisionError):
        exact_div(x1, MultiPoly.zero(2))
    with pytest.raises(DimensionError):
        x1.eliminate({2: 0})  # no such variable


def test_exponents_and_indices_must_be_ints():
    # A float exponent is inexact; a negative one or any other non-int
    # (a bool or a string included) is out of the ring.
    for exponent, error in ((1.5, InexactNumberError), (2.0, InexactNumberError),
                            (-1, DimensionError), (True, DimensionError),
                            ("1", DimensionError), (Fraction(1), DimensionError)):
        with pytest.raises(error):
            MultiPoly(1, {(exponent,): 1})
        with pytest.raises(error):
            MultiPoly(2, {(0, exponent): 1})
    x1 = MultiPoly.variable(2, 0)
    for index, error in ((0.0, InexactNumberError), (1.5, InexactNumberError),
                         ("0", DimensionError), (False, DimensionError)):
        with pytest.raises(error):
            MultiPoly.variable(2, index)
        with pytest.raises(error):
            x1.derivative(index)

    # A column index of signed_minors or maximal_minors likewise.
    matrix = [[1, 2, 3], [4, 5, 7]]
    for index, error in ((1.0, InexactNumberError), (0.5, InexactNumberError),
                         ("1", DimensionError), (True, DimensionError),
                         (False, DimensionError), (Fraction(1), DimensionError)):
        for spec in (WebSpec.numeric(3, 1, 1), WebSpec.symbolic(3, 1, 1)):
            with pytest.raises(error):
                signed_minors(spec, (index,))
            with pytest.raises(error):
                signed_minors(spec, (0, index))
        with pytest.raises(error):
            maximal_minors(matrix, (index,))
    with pytest.raises(DimensionError, match=r"out of range 0\.\.3"):
        signed_minors(WebSpec.numeric(3, 1, 1), (4,))
    with pytest.raises(DimensionError, match=r"out of range 0\.\.2"):
        maximal_minors(matrix, (-1,))

    # A triple index of hirota_residual, a coordinate of restrict and
    # restricted_nodes, and a variable of eliminate likewise.
    sol = build_solution(WebSpec.numeric(4, 1, 2))
    for index, error in ((1.0, InexactNumberError), ("1", DimensionError),
                         (True, DimensionError), (Fraction(1), DimensionError)):
        with pytest.raises(error):
            hirota_residual(sol.f, sol.nodes(), (index, 2, 3))
        with pytest.raises(error):
            hirota_residual(sol.f, sol.nodes(), (2, 3, index))
        with pytest.raises(error):
            restrict(sol, index, 0)
        with pytest.raises(error):
            restricted_nodes(sol.spec, index)
        with pytest.raises(error):
            x1.eliminate({index: 0})
        with pytest.raises(error):
            x1.eliminate({0: 1, index: 0})
    assert hirota_residual(sol.f, sol.nodes(), (1, 2, 3)).is_zero
    assert restricted_nodes(sol.spec, 1) == [2, 3, 4]
    assert x1.eliminate({0: 3}) == MultiPoly.const(1, 3)


def test_variable_counts_must_be_ints():
    # A float ring size is inexact; a negative one or any other non-int (a
    # bool included) is a DimensionError, on every constructor but the
    # kernel's own canonical path.
    builds = (lambda n: MultiPoly(n, {(1, 0): 1}), lambda n: MultiPoly(n),
              MultiPoly.zero, lambda n: MultiPoly.const(n, 3), MultiPoly.one,
              lambda n: MultiPoly.variable(n, 0))
    for n_vars, error in ((2.0, InexactNumberError), (1.5, InexactNumberError),
                          (True, DimensionError), (False, DimensionError),
                          ("2", DimensionError), (Fraction(2), DimensionError),
                          (-1, DimensionError)):
        for build in builds:
            with pytest.raises(error):
                build(n_vars)
    assert MultiPoly.zero(0).is_zero and MultiPoly.const(0, 5).constant_value() == 5


def test_poly_from_json_reads_only_exact_input():
    x1, x2 = (MultiPoly.variable(2, i) for i in range(2))
    p = Fraction(-3, 4) * x1 ** 2 * x2 + 5
    assert poly_from_json(poly_to_json(p)) == p
    term = {"c": "1/2", "e": [1, 0]}
    assert poly_from_json({"nvars": 2, "terms": [term]}) == Fraction(1, 2) * x1
    for data, error in (
            ({"nvars": 2, "terms": [{"c": 0.1, "e": [1, 0]}]}, InexactNumberError),
            ({"nvars": 1.9, "terms": []}, InexactNumberError),
            ({"nvars": 1.0, "terms": []}, InexactNumberError),
            ({"nvars": "2", "terms": []}, DimensionError),
            ({"nvars": -1, "terms": []}, DimensionError),
            ({"nvars": 1, "terms": [{"c": "1", "e": [1.5]}]}, InexactNumberError),
            ({"nvars": 1, "terms": [{"c": "1", "e": [-1]}]}, DimensionError),
            ({"nvars": 1, "terms": [{"c": "1", "e": ["1"]}]}, DimensionError),
            ({"nvars": 2, "terms": [{"c": "1", "e": [1]}]}, DimensionError)):
        with pytest.raises(error):
            poly_from_json(data)


def test_rational_function_conveniences():
    # Equality accepts polynomials and exact scalars on either side.
    x1, x2 = (MultiPoly.variable(2, i) for i in range(2))
    f = RationalFunction(x1 * x2 + x2, x2)
    assert f == x1 + 1 and x1 + 1 == f
    assert f != x1
    assert RationalFunction(2 * x1, x1) == 2
    assert RationalFunction(x1, 3 * x1) == Fraction(1, 3)
    assert RationalFunction(MultiPoly.zero(2), x2) == 0
    with pytest.raises(DimensionError):
        f == MultiPoly.variable(3, 0)  # a polynomial from another ring


def test_form_validation():
    x1 = MultiPoly.variable(3, 0)
    with pytest.raises(DimensionError):
        DifferentialForm(3, 1, {(0, 1): x1})      # arity mismatch
    with pytest.raises(DimensionError):
        DifferentialForm(3, 2, {(1, 1): x1})      # not strictly increasing
    with pytest.raises(DimensionError):
        DifferentialForm(3, 1, {(5,): x1})        # out of range
    with pytest.raises(ZeroDivisionError):
        DifferentialForm(3, 1, {(0,): x1}, 0)     # zero denominator
    with pytest.raises(DimensionError):
        DifferentialForm(3, 1, {(0,): x1}, MultiPoly.variable(2, 0))
    with pytest.raises(InexactNumberError):
        DifferentialForm(3, 1, {(0,): 1}).scale(0.5)
    zero = DifferentialForm(3, 1)
    assert zero.component((0,)).is_zero
    with pytest.raises(DimensionError):
        LambdaForm([])                            # no coefficient
    for other in (DifferentialForm(2, 1, {(0,): 1}), DifferentialForm(3, 2)):
        with pytest.raises(DimensionError):       # another ring or degree
            LambdaForm([zero, other])
    # The ring size, the degree and every component index are ints: a float
    # is inexact, any other non-int (a bool included) a DimensionError.  A
    # float degree would otherwise reach the JSON writer, a bool index would
    # read as dx1 or dx2, and a float index would fail only at render.
    one = MultiPoly.one(1)
    for value, error in ((1.0, InexactNumberError), (0.5, InexactNumberError),
                         (True, DimensionError), ("1", DimensionError),
                         (Fraction(1), DimensionError)):
        with pytest.raises(error):
            DifferentialForm(3, value, {(0,): x1})
        with pytest.raises(error):
            DifferentialForm(3, 1, {(value,): x1})
        with pytest.raises(error):
            DifferentialForm(3, 2, {(0, value): x1})
        with pytest.raises(error):
            DifferentialForm(value, 0, {}, one)
    with pytest.raises(DimensionError):
        DifferentialForm(3, -1)                   # negative degree
    form = DifferentialForm(3, 1, {(1,): x1})
    assert form.to_json()["degree"] == 1 and form.text() == "x1 dx2"


def test_public_counts_must_be_ints():
    # The counts of random_numeric_instances (checked as the first instance
    # is drawn) and of web_triples: a float is inexact, any other non-int (a
    # bool included) a spec error, and so is a negative sampling bound.
    good = {"n": 3, "k": 1, "l": 1, "count": 1, "seed": 1, "bound": 20}
    for name in ("n", "count", "seed", "bound"):
        for value, error in ((1.0, InexactNumberError), (1.5, InexactNumberError),
                             (True, WebSpecError), ("1", WebSpecError)):
            with pytest.raises(error):
                next(random_numeric_instances(**{**good, name: value}))
    with pytest.raises(WebSpecError, match="negative sampling bound -1"):
        next(random_numeric_instances(**{**good, "bound": -1}))
    for value, error in ((4.0, InexactNumberError), (True, WebSpecError),
                         (Fraction(4), WebSpecError)):
        with pytest.raises(error):
            web_triples(value)
    assert len(list(random_numeric_instances(**good))) == 1
    assert web_triples(4) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_web_level_error_paths():
    with pytest.raises(WebSpecError):
        verify_hirota(build_solution(WebSpec.numeric(3, 1, 1)), mode="guess")
    with pytest.raises(WebSpecError):
        verify_hirota(build_solution(WebSpec.numeric(3, 1, 1)),
                      mode="sampled", trials=0)
    with pytest.raises(WebSpecError):
        verify_hirota(build_solution(WebSpec.numeric(3, 1, 1)),
                      mode="sampled", bound=10)
    with pytest.raises(WebSpecError):
        verify_hirota(build_solution(WebSpec.numeric(3, 1, 1)).f)  # no nodes
    # symbolic mode checks the sampling arguments too, though it draws no point
    for bad, error in (({"trials": 1.5}, InexactNumberError),
                       ({"bound": 0.5}, InexactNumberError),
                       ({"seed": 2.5}, InexactNumberError),
                       ({"seed": "x"}, WebSpecError)):
        with pytest.raises(error):
            verify_hirota(build_solution(WebSpec.numeric(3, 1, 1)), **bad)
    sol = build_solution(WebSpec.symbolic(3, 1, 1))
    with pytest.raises(WebSpecError):
        restrict(sol, 1, 0)
    with pytest.raises(WebSpecError):
        flatness_check(WebSpec.symbolic(3, 1, 1))
    f = build_solution(WebSpec.numeric(3, 1, 1)).f
    with pytest.raises(DimensionError):
        veronese_form(f, [1, 2, 3, 4])
    with pytest.raises(DimensionError):
        transform(f, Mobius.identity(), [Mobius.identity()] * 2)


def test_repeated_nodes_are_refused():
    # Every residual term carries a node difference, so on repeated nodes
    # a function that fails at distinct nodes would pass.
    x = [MultiPoly.variable(6, v) for v in range(6)]
    f = RationalFunction(x[0] ** 2 * x[1] + x[2] ** 3)
    assert not verify_hirota(f, nodes=[1, 2, 3]).passed
    assert not verify_hirota(f, nodes=x[3:], mode="sampled").passed
    for nodes in ([5, 5, 5], [1, 5, Fraction(10, 2)], [x[3], x[4], x[3]],
                  [x[3], x[3] * 1, x[5]]):
        for mode in ("symbolic", "sampled"):
            with pytest.raises(WebSpecError, match="pairwise distinct"):
                verify_hirota(f, nodes=nodes, mode=mode)
        with pytest.raises(WebSpecError, match="pairwise distinct"):
            hirota_residual(f, nodes, (1, 2, 3))


def test_floats_rejected_at_value_boundaries():
    x1 = MultiPoly.variable(2, 0)
    with pytest.raises(InexactNumberError):
        WebSpec.numeric(3, 1, 1, [0.5, 1.5, 2.1])
    with pytest.raises(InexactNumberError):
        WebSpec(3, 1, 1, (Fraction(1, 2), 1, 2.0))
    with pytest.raises(InexactNumberError):
        MultiPoly.const(2, 0.5)
    with pytest.raises(InexactNumberError):
        MultiPoly(2, {(1, 0): 0.25})
    with pytest.raises(InexactNumberError):
        x1.evaluate([1, 0.5])
    with pytest.raises(InexactNumberError):
        x1.second_order_jet([1, 0.5])
    for combine in (lambda: x1 * 0.5, lambda: 0.5 * x1, lambda: x1 + 0.5,
                    lambda: 0.5 + x1, lambda: x1 - 0.5, lambda: 0.5 - x1):
        with pytest.raises(InexactNumberError):
            combine()
    with pytest.raises(InexactNumberError):
        Mobius(0.1, 0, 0, 1)
    with pytest.raises(InexactNumberError):
        restrict(build_solution(WebSpec.numeric(4, 2, 1)), 4, 0.5)
    # Horner's rule evaluates parameter polynomials; each entry point checks
    # the value, since a single coefficient is never multiplied by it.
    spec = WebSpec.numeric(3, 1, 1)
    for interp in (cauchy_interpolant(spec, x_values=[1, 2, 5]), cauchy_interpolant(spec)):
        with pytest.raises(InexactNumberError):
            evaluate_interpolant(interp, 0.5)
    # Dimensions, orders, seeds and exponents are ints: a float is inexact,
    # any other non-int (a bool included) a spec error.
    for bad in ((4.0, 1, 2), (3, 1.0, 1), (3, 1, 1.0)):
        with pytest.raises(InexactNumberError):
            WebSpec(*bad, None)
    for bad in ((3, True, 1), (True, 0, 0), (3, 1, Fraction(1)), ("3", 1, 1)):
        with pytest.raises(WebSpecError):
            WebSpec(*bad, None)
    sampled = WebSpec.numeric(3, 1, 1)
    with pytest.raises(InexactNumberError):
        verify_hirota(sampled, mode="sampled", seed=1.5)
    for seed in (True, "1", Fraction(1), None):
        with pytest.raises(WebSpecError):
            verify_hirota(sampled, mode="sampled", seed=seed)
    with pytest.raises(InexactNumberError):
        x1 ** 2.0
    for exponent in (True, Fraction(2)):
        with pytest.raises(WebSpecError):
            x1 ** exponent
    assert x1 ** 2 == x1 * x1 and WebSpec(3, 1, 1, None).n_vars == 6
    # exact values of every kind still pass, strings included
    assert WebSpec.numeric(3, 1, 1, ["1/2", Fraction(3, 2), 2]).lambdas == (
        Fraction(1, 2), Fraction(3, 2), Fraction(2))
    assert x1.evaluate([Fraction(1, 3), 7]) == Fraction(1, 3)
