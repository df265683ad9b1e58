"""Unreduced quotients: normalization, equality, evaluation and the quotient rule."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hirotaweb import MultiPoly, PoleError, RationalFunction
from reference_ratfunc import derivative


def var(n, i):
    return MultiPoly.variable(n, i)


def rf(num, den=None):
    return RationalFunction(num, den)


def test_zero_denominator_rejected_at_construction():
    with pytest.raises(ZeroDivisionError):
        rf(var(2, 0), MultiPoly.zero(2))


def test_equality_ignores_common_factors():
    x1, x2, x3 = (var(3, i) for i in range(3))
    assert rf(x1, x2) == rf(x1 * x3, x2 * x3)
    assert rf(x1, x2) != rf(x2, x1)


def test_sign_and_content_normalization():
    x1, x2 = var(2, 0), var(2, 1)
    f = rf(2 * x1, -4 * x2)
    # denominator's leading coefficient is positive, joint content is 1
    assert f.den == 2 * x2
    assert f.num == -x1


def test_quotient_rule():
    x1, x2 = var(2, 0), var(2, 1)
    f = rf(x1, x2)
    assert derivative(f, 1) == rf(-x1, x2 * x2)
    assert derivative(f, 0) == rf(MultiPoly.one(2), x2)


def test_derivative_in_absent_variable_is_zero():
    x1, x2 = var(3, 0), var(3, 1)
    assert derivative(rf(x1, x2), 2).is_zero


def test_evaluation_and_pole():
    x1, x2 = var(2, 0), var(2, 1)
    f = rf(x1 + x2, x1 - x2)
    assert f.evaluate([3, 1]) == Fraction(2)
    with pytest.raises(PoleError):
        f.evaluate([1, 1])


def _random_poly(rng, n_vars, max_deg, terms):
    out = {}
    for _ in range(terms):
        exps = [0] * n_vars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n_vars)] += 1
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + Fraction(rng.randint(-4, 4))
    return MultiPoly(n_vars, out)


def _random_rf(rng, n_vars=3):
    num = _random_poly(rng, n_vars, 3, 4)
    den = _random_poly(rng, n_vars, 2, 3)
    while den.is_zero:
        den = _random_poly(rng, n_vars, 2, 3)
    return RationalFunction(num, den)


def test_derivative_agrees_with_central_finite_differences():
    # Exact rational evaluation of (f(x+h) - f(x-h)) / 2h with h = 10^-6,
    # compared to the exact derivative as floats.
    rng = random.Random(424242)
    h = Fraction(1, 10 ** 6)
    checked = 0
    while checked < 20:
        f = _random_rf(rng)
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        v = rng.randrange(3)
        try:
            up = [p + (h if i == v else 0) for i, p in enumerate(point)]
            down = [p - (h if i == v else 0) for i, p in enumerate(point)]
            numeric = (f.evaluate(up) - f.evaluate(down)) / (2 * h)
            exact = derivative(f, v).evaluate(point)
        except PoleError:
            continue
        if abs(float(f.den.evaluate(point))) < 1e-3:
            continue  # stay away from denominator zeros
        scale = max(1.0, abs(float(exact)))
        assert abs(float(numeric) - float(exact)) / scale <= 1e-8
        checked += 1


def _sum(f, g):
    return RationalFunction(f.num * g.den + g.num * f.den, f.den * g.den)


def _product(f, g):
    return RationalFunction(f.num * g.num, f.den * g.den)


def test_equality_is_congruence_for_addition():
    rng = random.Random(99)
    for _ in range(20):
        a = _random_rf(rng)
        c = _random_rf(rng)
        # a == b with b an unreduced rescaling of a
        scale = _random_poly(rng, 3, 1, 2)
        if scale.is_zero:
            continue
        b = RationalFunction(a.num * scale, a.den * scale)
        assert a == b
        # sums and products built from the parts respect the equality
        assert _sum(a, c) == _sum(b, c)
        assert _product(a, c) == _product(b, c)


_coefficients = st.one_of(st.integers(-30, 30),
                          st.fractions(min_value=-6, max_value=6, max_denominator=9))
_polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _coefficients,
                         max_size=8).map(lambda terms: MultiPoly(3, terms))
_factors = st.fractions(min_value=-50, max_value=50, max_denominator=60).filter(bool)


@settings(max_examples=100, deadline=None)
@given(_polys, _polys.filter(lambda p: not p.is_zero), _factors)
def test_normal_form_ignores_a_common_scalar(num, den, c):
    # Rendered witnesses rely on this: scaling both parts by any nonzero
    # rational leaves the stored numerator and denominator term for term.
    f, g = rf(num, den), rf(num * c, den * c)
    for a, b in ((f.num, g.num), (f.den, g.den)):
        assert list(a.terms.items()) == list(b.terms.items())
        assert all(type(x) is int for x in b.terms.values())
