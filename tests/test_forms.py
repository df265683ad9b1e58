"""Wedge products, exterior derivatives, and the graded-algebra laws."""

import json
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import hirotaweb.forms
import hirotaweb.ratfunc
from hirotaweb import (DifferentialForm, LambdaForm, MultiPoly,
                       RationalFunction, WebSpec, flatness_check, poly_from_json,
                       poly_text, signed_minors)
from reference_frobenius import frobenius_check, pencil_d, pencil_wedge
from reference_text import form_text


def var(n, i):
    return MultiPoly.variable(n, i)


def dform0(value):
    return DifferentialForm.from_function(value)


def test_wedge_of_coordinate_forms():
    dx1 = DifferentialForm.dx(3, 0)
    dx2 = DifferentialForm.dx(3, 1)
    w = dx1.wedge(dx2)
    assert w.degree == 2
    assert list(w.components) == [(0, 1)]
    assert w.component((0, 1)) == 1


def test_wedge_alternation():
    dx1 = DifferentialForm.dx(3, 0)
    assert dx1.wedge(dx1).is_zero


def test_wedge_bilinearity_with_function_coefficient():
    x1 = var(3, 0)
    a = DifferentialForm(3, 1, {(1,): x1})
    b = DifferentialForm.dx(3, 2)
    w = a.wedge(b)
    assert w == DifferentialForm(3, 2, {(1, 2): x1})


def test_exterior_derivative_of_x1_dx2():
    x1 = var(3, 0)
    a = DifferentialForm(3, 1, {(1,): x1})
    assert a.exterior_derivative() == DifferentialForm(3, 2, {(0, 1): 1})


def test_exterior_derivative_of_x1_dx1_vanishes():
    x1 = var(3, 0)
    a = DifferentialForm(3, 1, {(0,): x1})
    assert a.exterior_derivative().is_zero


def test_zero_form_checks():
    assert DifferentialForm.zero(3, 2).is_zero
    dx1x2 = DifferentialForm.dx(3, 0).wedge(DifferentialForm.dx(3, 1))
    assert (dx1x2 - dx1x2).is_zero


_coefficients = st.one_of(st.integers(-3, 3),
                          st.fractions(min_value=-2, max_value=2, max_denominator=3))
# Polynomials in three variables of degree at most 2 in each.
_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _coefficients,
                         max_size=4).map(lambda terms: MultiPoly(3, terms))
_dens = _polys.filter(lambda p: not p.is_zero)
_KEYS = {0: [()], 1: [(0,), (1,), (2,)], 2: [(0, 1), (0, 2), (1, 2)]}


@st.composite
def _random_form(draw, degree):
    """A form of the given degree over three variables, with a random
    nonzero polynomial denominator."""
    components = {key: draw(_polys) for key in _KEYS[degree]}
    return DifferentialForm(3, degree, components, draw(_dens))


def _sign(parity):
    return -1 if parity % 2 else 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1).flatmap(_random_form))
def test_d_squared_is_zero(a):
    assert a.exterior_derivative().exterior_derivative().is_zero


_degree_pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(_degree_pairs.flatmap(lambda d: st.tuples(_random_form(d[0]), _random_form(d[1]))))
def test_graded_anticommutativity(pair):
    a, b = pair
    assert a.wedge(b) == b.wedge(a).scale(_sign(a.degree * b.degree))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_leibniz_rule(data):
    # every degree pair up to (1, 2) and (2, 1) on every example: there d
    # acts on a 3-form and its result lies past the top degree
    for da, db in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1)]:
        a = data.draw(_random_form(da))
        b = data.draw(_random_form(db))
        lhs = a.wedge(b).exterior_derivative()
        rhs = (a.exterior_derivative().wedge(b)
               + a.wedge(b.exterior_derivative()).scale(_sign(a.degree)))
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2).flatmap(lambda d: st.tuples(_random_form(d), _random_form(d))))
def test_sum_then_difference_over_different_denominators(pair):
    a, b = pair
    assume(a.den != b.den)
    assert (a + b) - b == a
    assert (a + b) - a == b


def _form_from_json(n_vars, data):
    """A DifferentialForm rebuilt from ``to_json`` output: each component's
    num/den parsed, then all of them put over the product of the dens."""
    parsed = [(tuple(i - 1 for i in entry["idx"]), poly_from_json(entry["num"]),
               poly_from_json(entry["den"])) for entry in data["components"]]
    den = MultiPoly.one(n_vars)
    for _, _, d in parsed:
        den = den * d
    components = {}
    for idx, num, d in parsed:
        for other_idx, _, other in parsed:
            if other_idx != idx:
                num = num * other
        components[idx] = num
    return DifferentialForm(n_vars, data["degree"], components, den)


_forms = st.integers(0, 2).flatmap(_random_form)


@settings(max_examples=60, deadline=None)
@given(_forms)
def test_json_round_trip(form):
    data = json.loads(json.dumps(form.to_json()))
    assert data["degree"] == form.degree
    assert _form_from_json(form.n_vars, data) == form


def test_quotient_rule_on_a_zero_form():
    # d(x1/x2) = dx1/x2 - x1 dx2/x2^2 over the one denominator x2^2
    x1, x2 = var(3, 0), var(3, 1)
    form = DifferentialForm.from_function(RationalFunction(x1, x2))
    d = form.exterior_derivative()
    assert d.den == x2 * x2
    assert d == DifferentialForm(3, 1, {(0,): x2, (1,): -x1}, x2 * x2)
    assert d.component((0,)) == RationalFunction(MultiPoly.one(3), x2)


def _normalized_weights(n=3):
    """Normalized interpolant coefficient functions p0, p1, q1 for the
    three-node web with nodes 1, 2, 3."""
    spec = WebSpec.numeric(3, 1, 1)
    minors = signed_minors(spec)
    q0 = minors[2]
    p0 = RationalFunction(minors[0], q0)
    p1 = RationalFunction(minors[1], q0)
    q1 = RationalFunction(minors[3], q0)
    return p0, p1, q1


def test_coefficient_one_form_derivative_identity():
    # For alpha_1 = dp_1 + q_1 dp_0 - p_0 dq_1 the exterior derivative
    # collapses to 2 dq_1 ^ dp_0.
    p0, p1, q1 = _normalized_weights()
    dp0 = dform0(p0).exterior_derivative()
    dp1 = dform0(p1).exterior_derivative()
    dq1 = dform0(q1).exterior_derivative()
    alpha1 = dp1 + dp0.scale(q1) - dq1.scale(p0)
    lhs = alpha1.exterior_derivative()
    rhs = dq1.wedge(dp0).scale(MultiPoly.const(3, 2))
    assert lhs == rhs
    # and the web is not integrable along alpha_1 alone
    assert not lhs.wedge(alpha1).is_zero


def test_lambda_form_evaluation_and_convolution_degree():
    dx1 = DifferentialForm.dx(2, 0)
    dx2 = DifferentialForm.dx(2, 1)
    pencil = LambdaForm([-dx1, dx1 + dx2])  # (t-1) dx1 + t dx2
    at2 = pencil.at(2)
    assert at2 == dx1 + dx2.scale(MultiPoly.const(2, 2))
    wedge = pencil_wedge(pencil_d(pencil.coefficients), pencil.coefficients)
    assert len(wedge) == 3
    assert all(form.is_zero for form in wedge)


def test_form_text_rendering():
    # Each case against a fixed string and the per-component oracle, also
    # with names that contain spaces and signs.
    x1, x2, x3 = (var(3, i) for i in range(3))
    cases = [
        (DifferentialForm(3, 2, {(0, 2): x1 * Fraction(2, 3)}), "2/3x1 dx1^dx3"),
        # each component is rendered as its own normalized quotient
        (DifferentialForm(3, 1, {(0,): x1, (2,): 2}, 2 * x2),
         "(x1)/(2x2) dx1 + (1)/(x2) dx3"),
        # constant denominators, an int and a Fraction: the numerator times 1/d
        (DifferentialForm(3, 1, {(0,): 3 * x1}, 6), "1/2x1 dx1"),
        (DifferentialForm(3, 1, {(0,): x1 + 1, (2,): 3 * x2 - x3}, 6),
         "(1/6x1 + 1/6) dx1 + (1/2x2 - 1/6x3) dx3"),
        (DifferentialForm(3, 2, {(0, 1): x1, (1, 2): Fraction(1, 2) * x3}, Fraction(-2, 3)),
         "-3/2x1 dx1^dx2 + -3/4x3 dx2^dx3"),
        # a negative leading coefficient: the normal form flips the sign
        (DifferentialForm(3, 1, {(1,): x3 + 2}, 3 - 2 * x1 * x2),
         "(-x3 - 2)/(2x1x2 - 3) dx2"),
        # three scalings of one denominator, and one scaling shared twice
        (DifferentialForm(3, 1, {(0,): 2 * x1, (1,): x2, (2,): Fraction(1, 3) * x3 + 4 * x1},
                          4 * x1 + 2),
         "(x1)/(2x1 + 1) dx1 + (x2)/(4x1 + 2) dx2 + (12x1 + x3)/(12x1 + 6) dx3"),
        (DifferentialForm(3, 1, {(0,): 2 * x2, (2,): 4 * x3}, 2 * x1 - 4),
         "(x2)/(x1 - 2) dx1 + (2x3)/(x1 - 2) dx3"),
        # a 0-form has no basis part, and a sum over a constant is bracketed
        (DifferentialForm.from_function(RationalFunction(x1 + 1, x2 - x3)),
         "(x1 + 1)/(x2 - x3)"),
        (DifferentialForm(3, 0, {(): x1 - x2}, 2), "(1/2x1 - 1/2x2)"),
        (DifferentialForm.zero(3, 1), "0"),
        (DifferentialForm.zero(3, 0), "0"),
    ]
    names = ["p q", "r - s", "t"]
    for form, expected in cases:
        assert form.text() == form_text(form) == expected
        assert form.text(names) == form_text(form, names)


# Names with spaces, signs and brackets: the bracketing test reads the body's
# text, so a name may make a one-term body look like a sum.
_names = st.one_of(st.none(), st.lists(st.text("ab +-()", min_size=1, max_size=4),
                                       min_size=3, max_size=3))


@settings(max_examples=60, deadline=None)
@given(_forms, _names)
def test_text_is_the_per_component_text(form, names):
    assert form.text(names) == form_text(form, names)


def test_text_renders_each_denominator_scaling_once(monkeypatch):
    # The witness at n = 5 over nodes 5, 4, 6, 1, 3 has two denominator
    # scalings over ten components; a per-component route renders the
    # shared denominator once per component.
    witness = flatness_check(WebSpec.numeric(5, 3, 1, [5, 4, 6, 1, 3])).witness
    entries = list(witness._normalized())
    dens = {key: den for _, _, key, den in entries}
    assert len(dens) == 2 and len(entries) == 10
    expected = form_text(witness)
    rendered = []

    def spy(poly, *args, **kwargs):
        rendered.append(poly)
        return poly_text(poly, *args, **kwargs)

    for module in (hirotaweb.forms, hirotaweb.ratfunc):
        # raising=False: a module that does not import poly_text never calls it
        monkeypatch.setattr(module, "poly_text", spy, raising=False)
    assert witness.text() == expected
    assert sum(any(poly == den for den in dens.values()) for poly in rendered) == len(dens)


@st.composite
def _pencil(draw):
    """Two-term pencils of 1-forms with a flag saying whether the pencil is
    known to be integrable: g df_0 + t g df_1 is integrable, a pencil of
    random 1-forms in general is not."""
    integrable = draw(st.booleans())
    if integrable:
        g = DifferentialForm.from_function(draw(_polys))
        coefficients = [dform0(draw(_polys)).exterior_derivative().wedge(g)
                        for _ in range(2)]
    else:
        coefficients = [draw(_random_form(1)) for _ in range(2)]
    return LambdaForm(coefficients), integrable


@settings(max_examples=60, deadline=None)
@given(_pencil(), _dens, st.booleans())
def test_frobenius_invariant_under_function_scaling(drawn, h, divide):
    # d(h a) ^ (h a) = h^2 (d a ^ a) for a parameter-free scaling h, so the
    # verdict must not depend on clearing or introducing denominators.
    pencil, integrable = drawn
    factor = RationalFunction(MultiPoly.one(3), h) if divide else h
    scaled = LambdaForm([c.scale(factor) for c in pencil.coefficients])
    verdict = frobenius_check(pencil.coefficients)
    if integrable:
        assert verdict
    assert frobenius_check(scaled.coefficients) == verdict


def test_frobenius_of_closed_and_contact_pencils():
    x1, x2, x3 = (var(3, i) for i in range(3))
    closed = [dform0(x1 * x2).exterior_derivative(), dform0(x3 * x3).exterior_derivative()]
    assert frobenius_check(closed)
    contact = DifferentialForm(3, 1, {(1,): x1, (2,): 1})
    assert not frobenius_check([contact.scale(x3 + 5)])
    assert not frobenius_check([contact.scale(RationalFunction(x1, x3 + 5))])
    # closed numerators over different denominators: dx1 + t dx2/x3 is not
    # integrable, since the t^1 coefficient of d(alpha)^alpha is
    # dx1^dx2^dx3/x3^2
    split = [DifferentialForm.dx(3, 0), DifferentialForm(3, 1, {(1,): 1}, x3)]
    assert not frobenius_check(split)
