"""Exact polynomial arithmetic, elimination, and determinants."""

import dataclasses
import inspect
import random
import re
from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

import hirotaweb
from hirotaweb import (DimensionError, HirotaWebError, MultiPoly, RationalFunction, WebSpec,
                       determinant, maximal_minors, poly_from_json, poly_text,
                       poly_to_json)
from hirotaweb import polynomials
from reference_interpolation import build_system_matrix, determinant_cofactor_naive
from reference_polynomials import (_det_bareiss, coefficient, cofactor_determinant,
                                   cofactor_minors, exact_div, halves, lex_leading,
                                   product_terms, sum_of_products_terms)
from reference_text import sorted_terms


def var(n, i):
    return MultiPoly.variable(n, i)


def const(n, c):
    return MultiPoly.const(n, c)


# -- arithmetic -----------------------------------------------------------------


def test_additive_inverse_cancels():
    x1 = var(3, 0)
    assert (x1 + (-x1)).is_zero


def test_difference_of_squares():
    x1, x2 = var(2, 0), var(2, 1)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_coefficient_cancellation():
    x1, x2, x3 = (var(3, i) for i in range(3))
    product = (x1 * x2 * Fraction(2, 3)) * (x3 * Fraction(3, 2))
    assert product == x1 * x2 * x3


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(DimensionError):
        var(2, 0) + var(3, 0)


def test_zero_terms_never_stored():
    p = MultiPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert list(p.terms) == [(1, 0)]
    assert (p - p).terms == {}


# -- derivatives ------------------------------------------------------------------


def test_power_rule():
    x1, x2 = var(2, 0), var(2, 1)
    p = x1 * x1 * x2
    assert p.derivative(0) == 2 * x1 * x2


def test_derivative_of_absent_variable_is_zero():
    x1 = var(3, 0)
    assert (x1 ** 3).derivative(1).is_zero


def test_derivative_linearity():
    x1, x2, x3 = (var(3, i) for i in range(3))
    assert (x1 * x2 + x1 * x3).derivative(0) == x2 + x3


def test_mixed_partials_commute():
    rng = random.Random(101)
    for _ in range(25):
        p = _random_poly(rng, n_vars=3, max_deg=3, terms=6)
        i, j = rng.randrange(3), rng.randrange(3)
        assert p.derivative(i).derivative(j) == p.derivative(j).derivative(i)


# -- elimination -------------------------------------------------------------------


def test_substitute_numeric_nodes_into_symbolic_display():
    # (l1-l2) x1x2 + (l2-l3) x2x3 + (l3-l1) x3x1 at nodes (1,2,3)
    n = 3
    x = [var(2 * n, i) for i in range(n)]
    lam = [var(2 * n, n + i) for i in range(n)]
    display = ((lam[0] - lam[1]) * x[0] * x[1]
               + (lam[1] - lam[2]) * x[1] * x[2]
               + (lam[2] - lam[0]) * x[2] * x[0])
    instantiated = display.eliminate({n: 1, n + 1: 2, n + 2: 3})
    y = [var(n, i) for i in range(n)]
    assert instantiated == -y[0] * y[1] - y[1] * y[2] + 2 * y[0] * y[2]


def test_substitution_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(20):
        p = _random_poly(rng, 3, 3, 5)
        q = _random_poly(rng, 3, 3, 5)
        sub = {0: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
               2: Fraction(rng.randint(-4, 4))}
        assert (p * q).eliminate(sub) == p.eliminate(sub) * q.eliminate(sub)
        assert (p + q).eliminate(sub) == p.eliminate(sub) + q.eliminate(sub)


# -- homogeneity -------------------------------------------------------------------


def test_homogeneous_degree_two():
    x1, x2, x3 = (var(3, i) for i in range(3))
    assert (x1 * x2 + x3 * x3).homogeneous_degree() == 2


def test_inhomogeneous_reports_none():
    x1, x2 = var(2, 0), var(2, 1)
    assert (x1 + x2 * x2).homogeneous_degree() is None


def test_zero_polynomial_degree_convention():
    z = MultiPoly.zero(3)
    assert z.homogeneous_degree() == 0
    assert z.is_zero


# -- determinants -------------------------------------------------------------------
# The library takes the determinants of numeric matrices only; the tests of
# polynomial matrices below pin the cofactor oracle that the closed-form
# signed_minors is checked against.


def test_identity_determinant():
    one, zero = const(1, 1), const(1, 0)
    m = [[one, zero], [zero, one]]
    assert cofactor_determinant(m) == one


def test_two_node_vandermonde():
    m = [[const(1, 1), const(1, 1)],
         [const(1, 1), const(1, 2)]]
    assert cofactor_determinant(m) == const(1, 1)


def test_three_by_three_with_coordinates():
    x1, x2, x3 = (var(3, i) for i in range(3))
    one = MultiPoly.one(3)
    m = [
        [one, one, -x1],
        [one, 2 * one, -x2],
        [one, 3 * one, -x3],
    ]
    assert cofactor_determinant(m) == -x1 + 2 * x2 - x3


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        determinant([[const(1, 1), const(1, 2)]])


def test_polynomial_matrices_are_refused():
    # The library's minors of polynomials are the closed-form signed_minors;
    # determinant and maximal_minors take numbers only.
    x = var(2, 0)
    with pytest.raises(HirotaWebError, match="signed_minors"):
        determinant([[x, const(2, 1)], [const(2, 2), x]])
    with pytest.raises(HirotaWebError, match="signed_minors"):
        maximal_minors([[x, const(2, 1)]])
    assert determinant([[0, 1], [2, 3]]) == -2


def _random_poly(rng, n_vars, max_deg, terms):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n_vars))
        if sum(exps) > max_deg:
            exps = tuple(0 for _ in exps)
        out[exps] = out.get(exps, Fraction(0)) + Fraction(rng.randint(-5, 5))
    return MultiPoly(n_vars, out)


def _random_matrix(rng, size, n_vars=2):
    return [[_random_poly(rng, n_vars, 2, 2) for _ in range(size)]
            for _ in range(size)]


def test_determinant_matches_naive_cofactor_oracle():
    rng = random.Random(2024)
    for size in range(1, 6):
        for _ in range(6):
            m = _random_matrix(rng, size)
            assert cofactor_determinant(m) == determinant_cofactor_naive(m)


def test_bareiss_path_matches_naive_on_seven_by_seven():
    # The fraction-free elimination is the oracle of the tests below; here
    # it is itself checked against plain Laplace expansion.
    rng = random.Random(99)
    m = [[const(1, rng.randint(-9, 9)) + var(1, 0) * rng.randint(-2, 2)
          for _ in range(7)] for _ in range(7)]
    assert _det_bareiss(m) == determinant_cofactor_naive(m)


def test_bareiss_path_multivariate_entries():
    rng = random.Random(77)
    m = [[const(2, rng.randint(-4, 4))
          + var(2, 0) * rng.randint(-2, 2)
          + var(2, 1) * rng.randint(-2, 2)
          for _ in range(7)] for _ in range(7)]
    assert _det_bareiss(m) == determinant_cofactor_naive(m)


def test_cofactor_matches_bareiss_to_dimension_nine():
    # The memoized cofactor expansion is the oracle of the closed-form
    # minors; Bareiss elimination is its own oracle, on constant matrices and on
    # the leading-coefficient interpolation matrices at every order for
    # n = 7, 8 and 9.
    rng = random.Random(7)
    for _ in range(3):
        m = [[const(1, rng.randint(-9, 9)) for _ in range(7)] for _ in range(7)]
        assert cofactor_determinant(m) == _det_bareiss(m)
    nodes = [-3, -1, 2, 4, 5, 7, 8, 10, 11]
    for n in (7, 8, 9):
        for k in range(1, n - 1):
            spec = WebSpec.numeric(n, k, n - 1 - k, nodes[:n])
            for which in ("P-top", "Q-top"):
                m = build_system_matrix(spec, which)
                assert cofactor_determinant(m) == _det_bareiss(m)


def test_bareiss_handles_zero_pivots():
    # leading principal minors vanish, forcing row swaps inside elimination
    rng = random.Random(13)
    size = 7
    m = [[const(1, 0)] * size for _ in range(size)]
    for i in range(size):
        m[i][size - 1 - i] = const(1, rng.randint(1, 5)) + var(1, 0)
    assert _det_bareiss(m) == determinant_cofactor_naive(m)


def test_determinant_alternating_on_row_swap():
    rng = random.Random(5)
    for _ in range(10):
        m = _random_matrix(rng, 3)
        swapped = [m[1], m[0], m[2]]
        assert cofactor_determinant(swapped) == -cofactor_determinant(m)
        repeated = [m[0], m[0], m[2]]
        assert cofactor_determinant(repeated).is_zero


def test_determinant_multilinear_in_rows():
    rng = random.Random(6)
    for _ in range(10):
        base = [[_random_poly(rng, 2, 2, 2) for _ in range(3)] for _ in range(3)]
        r1 = [_random_poly(rng, 2, 2, 2) for _ in range(3)]
        r2 = [_random_poly(rng, 2, 2, 2) for _ in range(3)]
        a = Fraction(rng.randint(-3, 3))
        combo = [p * a + q for p, q in zip(r1, r2)]
        det_combo = cofactor_determinant([combo, base[1], base[2]])
        det_1 = cofactor_determinant([r1, base[1], base[2]])
        det_2 = cofactor_determinant([r2, base[1], base[2]])
        assert det_combo == det_1 * a + det_2


def test_maximal_minors_agree_with_column_deletion():
    rng = random.Random(17)
    rows = [[_random_poly(rng, 2, 2, 2) for _ in range(4)] for _ in range(3)]
    minors = cofactor_minors(rows)
    for skip in range(4):
        sub = [[rows[i][j] for j in range(4) if j != skip] for i in range(3)]
        assert minors[skip] == determinant_cofactor_naive(sub)


# -- rendering and JSON ----------------------------------------------------------------


def test_text_rendering_graded_lex_descending():
    x1, x2, x3 = (var(3, i) for i in range(3))
    p = x2 * x3 - 2 * x1 * x3 + x1 * x2
    assert poly_text(p) == "x1x2 - 2x1x3 + x2x3"
    assert poly_text(-x1 + 2 * x2 - x3) == "-x1 + 2x2 - x3"
    assert poly_text(MultiPoly.zero(3)) == "0"
    assert poly_text(x1 * Fraction(2, 3)) == "2/3x1"
    assert poly_text(x1 ** 2 * x2 + const(3, 5)) == "x1^2x2 + 5"


@st.composite
def _many_terms(draw):
    n_vars = draw(st.integers(0, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * n_vars)
    return MultiPoly(n_vars, draw(st.dictionaries(exponents, st.integers(-9, 9), max_size=40)))


@settings(max_examples=200, deadline=None)
@given(_many_terms())
def test_sorted_terms_is_the_descending_grlex_order(poly):
    # The oracle's lex-then-stable-degree sort, and the term walk's sort by
    # rank, against one sort on grlex_key.
    expected = sorted(poly.terms, key=polynomials.grlex_key, reverse=True)
    assert [(sum(e), e, poly.terms[e]) for e in expected] == sorted_terms(poly)
    walked = polynomials._Catalog().walk(poly * 1)
    assert walked == ([poly.terms[e] for e in expected], expected)


def test_mixed_integer_and_fractional_coefficients():
    # integral coefficients are stored as ints, fractional ones as Fraction;
    # the two mix transparently and never produce floats
    x1, x2 = var(2, 0), var(2, 1)
    p = x1 * Fraction(1, 2) + x2 * 3
    q = x1 * 2 + x2
    product = p * q
    assert product == x1 * x1 + x2 * x2 * 3 + x1 * x2 * Fraction(13, 2)
    for poly in (p, q, product, p + q, p - q, exact_div(p * q, q)):
        for coeff in poly.terms.values():
            assert isinstance(coeff, (int, Fraction))
            assert not isinstance(coeff, float)
    half = exact_div(x1, x1 * 2)
    assert half == MultiPoly.const(2, Fraction(1, 2))
    assert poly_from_json(poly_to_json(p)) == p


# -- second-order jets ---------------------------------------------------------------

_coefficients = st.one_of(st.integers(-20, 20),
                          st.fractions(min_value=-5, max_value=5, max_denominator=7))


@st.composite
def _poly_and_point(draw):
    n_vars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * n_vars)
    terms = draw(st.dictionaries(exponents, _coefficients, max_size=6))
    coordinate = st.one_of(st.integers(-6, 6),
                           st.fractions(min_value=-3, max_value=3, max_denominator=5))
    point = draw(st.lists(coordinate, min_size=n_vars, max_size=n_vars))
    count = draw(st.integers(0, n_vars))
    return MultiPoly(n_vars, terms), point, count


@settings(max_examples=200, deadline=None)
@given(_poly_and_point())
def test_second_order_jet_matches_derivatives(case):
    p, point, count = case
    rest = {v: point[v] for v in range(count, p.n_vars)}
    value, grad, hess = p.eliminate(rest).second_order_jet(point[:count])
    assert value == p.evaluate(point)
    assert len(grad) == count and len(hess) == count
    for a in range(count):
        pa = p.derivative(a)
        assert grad[a] == pa.evaluate(point)
        for b in range(count):
            assert hess[a][b] == pa.derivative(b).evaluate(point)


def test_second_order_jet_stays_integral_and_checks_sizes():
    x, y, z = (var(3, i) for i in range(3))
    p = x * x * y + 3 * y * z * z - z + 4
    value, grad, hess = p.eliminate({2: 0}).second_order_jet([2, -1])
    assert (value, grad, hess) == (0, [-4, 4], [[-2, 4], [4, 0]])
    assert all(type(v) is int for v in [value, *grad, *hess[0], *hess[1]])
    with pytest.raises(DimensionError):
        p.second_order_jet([1, 2])
    with pytest.raises(DimensionError):
        p.second_order_jet([1, 2, 3, 4])


@st.composite
def _poly_matrix(draw, extra_cols=0):
    """A random r x (r + extra_cols) matrix, r in 1..5, whose entries have
    int or Fraction coefficients in one or two variables."""
    size = draw(st.integers(1, 5))
    n_vars = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 2)] * n_vars)
    entry = st.dictionaries(exponents, _coefficients, max_size=3).map(
        lambda terms: MultiPoly(n_vars, terms))
    return draw(st.lists(st.lists(entry, min_size=size + extra_cols,
                                  max_size=size + extra_cols),
                         min_size=size, max_size=size))


@settings(max_examples=60, deadline=None)
@given(_poly_matrix())
def test_determinant_routes_agree(m):
    expected = determinant_cofactor_naive(m)
    assert cofactor_determinant(m) == expected
    assert _det_bareiss(m) == expected


@settings(max_examples=60, deadline=None)
@given(_poly_matrix(extra_cols=1), st.data())
def test_maximal_minors_column_subset_matches_full_list(m, data):
    columns = data.draw(st.lists(st.integers(0, len(m)), max_size=len(m) + 1))
    every = cofactor_minors(m)
    assert cofactor_minors(m, columns) == [every[c] for c in columns]


def test_maximal_minors_at_eight_by_nine_match_bareiss():
    rng = random.Random(8)
    m = [[const(1, rng.randint(-9, 9)) + var(1, 0) * rng.randint(-1, 1)
          for _ in range(9)] for _ in range(8)]
    every = cofactor_minors(m)
    assert every == [_det_bareiss([row[:c] + row[c + 1:] for row in m])
                     for c in range(9)]
    assert cofactor_minors(m, (8, 3)) == [every[8], every[3]]
    with pytest.raises(DimensionError):
        maximal_minors(m, (9,))


# -- integer-exact coefficients --------------------------------------------------------


def _is_tight(poly):
    """Every stored coefficient is an int unless it is not integral."""
    return all(type(c) is int or c.denominator != 1 for c in poly.terms.values())


_scalars = st.one_of(st.integers(-6, 6),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _two_polys(draw):
    n_vars = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * n_vars)
    p, q = (MultiPoly(n_vars, draw(st.dictionaries(exponents, _coefficients, max_size=6)))
            for _ in range(2))
    return p, q


@settings(max_examples=150, deadline=None)
@given(_two_polys(), _scalars, st.data())
def test_every_operation_stores_integral_coefficients_as_ints(polys, scalar, data):
    p, q = polys
    var = data.draw(st.integers(0, p.n_vars - 1))
    results = [p + q, p - q, p + scalar, scalar - p, p * scalar, scalar * p, p * q,
               p ** 2, p.derivative(var), p.eliminate({var: scalar})]
    if not q.is_zero:
        results += [exact_div(p * q, q), exact_div(p, MultiPoly.const(p.n_vars, 2))]
        f = RationalFunction(p, q)
        results += [f.num, f.den]
        assert all(type(c) is int for c in [*f.num.terms.values(), *f.den.terms.values()])
    for result in results:
        assert _is_tight(result), result.terms


def test_scaling_by_a_fraction_returns_to_ints():
    x1, x2 = var(2, 0), var(2, 1)
    p = (x1 * 4 + x2 * 6) * Fraction(1, 2)
    assert p.terms == {(1, 0): 2, (0, 1): 3}
    assert all(type(c) is int for c in p.terms.values())
    half = x1 * Fraction(1, 2)
    assert all(type(c) is int for c in (half + half).terms.values())
    assert all(type(c) is int for c in (half * 2).terms.values())
    assert type((half * half * 4).terms[(2, 0)]) is int
    assert type((half * x1).derivative(0).terms[(1, 0)]) is int
    assert type((x1 * x2).eliminate({1: Fraction(1, 2)}).terms[(1,)]) is Fraction
    assert type((x1 * x2 * 2).eliminate({1: Fraction(1, 2)}).terms[(1,)]) is int


def test_evaluate_sums_integral_points_exactly_and_returns_fractions():
    x, y = var(2, 0), var(2, 1)
    p = x * x * 3 - y * 2 + 1
    for point, expected in (([2, 5], 3), ([Fraction(4, 2), 5], 3),
                            ([Fraction(1, 2), 1], Fraction(-1, 4))):
        value = p.evaluate(point)
        assert value == expected and type(value) is Fraction
    assert type((p * Fraction(1, 3)).evaluate([2, 5])) is Fraction
    f = RationalFunction(p, y * 2)
    assert f.evaluate([2, 5]) == Fraction(3, 10)
    assert type(f.evaluate([2, 5])) is Fraction


# -- packed products ----------------------------------------------------------------------


@st.composite
def _product_operands(draw):
    """Two operands in 0..3 variables, up to 12 terms each, with int and
    Fraction coefficients; exponents are small, or up to 2^20."""
    n_vars = draw(st.integers(0, 3))
    top = draw(st.sampled_from((3, 2 ** 20)))
    exponents = st.tuples(*[st.integers(0, top)] * n_vars)
    p, q = (MultiPoly(n_vars, draw(st.dictionaries(exponents, _coefficients, max_size=12)))
            for _ in range(2))
    return p, q


@settings(max_examples=200, deadline=None)
@given(_product_operands())
def test_product_matches_the_tuple_reference(operands):
    # Empty, one-term, small and wide operands alike, the 0-variable ring
    # included.
    p, q = operands
    product = p * q
    assert product.terms == product_terms(p, q)
    assert _is_tight(product)


def test_packed_product_edge_operands():
    n = 3
    x = [var(n, i) for i in range(n)]
    wide = sum(((x[0] ** (2 ** 20)) * x[1] ** i * (i + 1) for i in range(9)),
               MultiPoly.zero(n)) + x[2] ** (2 ** 19) * Fraction(1, 3)
    for other in (wide, wide * Fraction(3, 2), MultiPoly.const(n, 5),
                  MultiPoly.const(n, Fraction(-2, 7)), MultiPoly.zero(n),
                  x[1] ** (2 ** 20) * Fraction(3, 1)):
        for a, b in ((wide, other), (other, wide)):
            assert (a * b).terms == product_terms(a, b)
            assert _is_tight(a * b)
    assert (wide * wide).leading_term() == ((2 ** 21, 16, 0), 81)
    # A one-term operand with a Fraction coefficient can make every
    # coefficient integral: the shifted terms are tightened to ints.
    half = MultiPoly.const(n, Fraction(1, 2)) * x[0]
    assert (half * (2 * x[1] + 4 * x[2])).terms == {(1, 1, 0): 1, (1, 0, 1): 2}
    assert _is_tight(half * (2 * x[1] + 4 * x[2]))
    empty = MultiPoly.const(0, Fraction(3, 2))
    assert (empty * empty).terms == {(): Fraction(9, 4)}
    assert (empty * MultiPoly.const(0, 2)).terms == {(): 3}
    assert type((empty * MultiPoly.const(0, 2)).terms[()]) is int
    assert (empty * MultiPoly.zero(0)).is_zero


# -- sums of products ---------------------------------------------------------------------

_part_scales = st.one_of(st.integers(-4, 4),
                         st.sampled_from((Fraction(0), Fraction(-3), Fraction(2, 1))),
                         st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def _sum_parts(draw):
    """1 to 4 (a, b, scale) parts in one ring of 0..3 variables: int and
    Fraction coefficients and scales, empty operands, exponents small or up
    to 2^20.  Half the draws repeat their first parts with swapped operands
    and negated scales, so that the sum cancels to exactly zero."""
    n_vars = draw(st.integers(0, 3))
    top = draw(st.sampled_from((3, 2 ** 20)))
    exponents = st.tuples(*[st.integers(0, top)] * n_vars)
    polys = st.dictionaries(exponents, _coefficients, max_size=10).map(
        lambda terms: MultiPoly(n_vars, terms))
    parts = draw(st.lists(st.tuples(polys, polys, _part_scales), min_size=1, max_size=4))
    cancel = draw(st.booleans())
    if cancel:
        parts = parts[:2] + [(b, a, -s) for a, b, s in parts[:2]]
    return n_vars, parts, cancel


@settings(max_examples=200, deadline=None)
@given(_sum_parts())
def test_sum_of_products_matches_the_scaled_tuple_references(case):
    n_vars, parts, cancel = case
    expected = {}
    for a, b, scale in parts:
        for e, c in product_terms(a, b).items():
            expected[e] = expected.get(e, Fraction(0)) + c * scale
    expected = {e: c for e, c in expected.items() if c}
    result = polynomials._sum_of_products(n_vars, parts)
    assert result.n_vars == n_vars
    assert result.terms == expected
    assert _is_tight(result)
    if cancel:
        assert result.is_zero


@st.composite
def _square_parts(draw):
    """1 to 3 parts in one ring of 0..3 variables, each a square (a, a,
    scale) or a product of two, the operands held packed at a bit width of
    1 to 3 (exponents up to 3), or as exponent tuples: int and Fraction
    coefficients and scales, one-term and zero operands."""
    n_vars = draw(st.integers(0, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * n_vars)

    def operand():
        terms = draw(st.dictionaries(exponents, _coefficients, max_size=draw(
            st.sampled_from((0, 1, 1, 8)))))
        poly = MultiPoly(n_vars, terms)
        top = poly._top_exponent()
        width = draw(st.integers(max(top.bit_length(), 1), 3) | st.none())
        if width is None:
            return poly
        return MultiPoly._from_packed(n_vars, polynomials._pack(n_vars, poly.terms, width),
                                      width, top if poly else 0)

    parts = []
    for _ in range(draw(st.integers(1, 3))):
        a = operand()
        parts.append((a, a if draw(st.booleans()) else operand(), draw(_part_scales)))
    return n_vars, parts


@settings(max_examples=300, deadline=None)
@given(_square_parts())
def test_squares_sum_each_pair_of_terms_once(case):
    # A square sums the pairs i <= j of its terms, the off-diagonal ones
    # doubled: the terms, their order and their int or Fraction types are
    # the tuple product's.
    n_vars, parts = case
    result = polynomials._sum_of_products(n_vars, parts)
    assert list(result.terms.items()) == list(sum_of_products_terms(parts).items())
    assert _is_tight(result)


def test_a_square_forms_half_the_term_pairs():
    # Each term is multiplied by itself and by the later terms only: for
    # Q0 at n = 6, k = 3, n (n + 1) / 2 coefficient products for n terms,
    # where the product of two distinct operands forms n^2.  Q0^4 is two
    # such squarings.
    pairs = []

    class Counted(int):
        def __mul__(self, other):
            pairs.append(1)
            return int(self) * int(other)

        __rmul__ = __mul__

    q0 = hirotaweb.signed_minors(WebSpec.numeric(6, 3, 2))[4]
    counted = MultiPoly(q0.n_vars, {e: Counted(c) for e, c in q0.terms.items()},
                        _canonical=True)
    square = polynomials._sum_of_products(q0.n_vars, [(counted, counted, 1)])
    n = len(q0)
    assert len(pairs) == n * (n + 1) // 2 and n > 10
    pairs.clear()
    assert polynomials._sum_of_products(q0.n_vars, [(counted, MultiPoly(
        q0.n_vars, dict(counted.terms), _canonical=True), 1)]) == square
    assert len(pairs) == n * n
    assert square == MultiPoly(q0.n_vars, product_terms(q0, q0))
    assert q0 ** 4 == square * square


def test_sum_of_products_scales_rings_and_edges():
    x, y = var(2, 0), var(2, 1)
    p = x * 2 + y * Fraction(1, 3)
    # An integral Fraction scale acts as the int it equals.
    total = polynomials._sum_of_products(2, [(p, x, Fraction(-3)), (y, y, 1)])
    assert total == x * x * -6 - x * y + y * y
    assert all(type(c) is int for c in total.terms.values())
    assert polynomials._sum_of_products(2, []).is_zero
    assert polynomials._sum_of_products(2, [(p, p, 0), (p, MultiPoly.zero(2), 5)]).is_zero
    assert polynomials._sum_of_products(0, [(const(0, 3), const(0, Fraction(1, 2)), 2)]
                                        ).terms == {(): 3}
    with pytest.raises(DimensionError):
        polynomials._sum_of_products(2, [(p, var(3, 0), 1)])
    with pytest.raises(DimensionError):
        polynomials._sum_of_products(3, [(p, p, 1)])
    with pytest.raises(hirotaweb.InexactNumberError):
        polynomials._sum_of_products(2, [(p, p, 0.5)])


# -- packed maps kept with each polynomial ------------------------------------------------

# The bit width grows at each power of two: sums of two of these exponents
# land on both sides of the switches at 4, 128, 256, 512 and 2^21.
_width_exponents = st.sampled_from((0, 1, 2, 3, 127, 128, 255, 256, 2 ** 20))
_STATES = ("terms", "packed", "unpacked", "used")


def _in_state(poly, state):
    """``poly`` as built from its terms, held packed only (a product by one,
    never read), packed and then read, or built from terms and packed by an
    earlier product."""
    if state == "terms":
        return poly
    if state == "used":
        poly * poly
        return poly
    packed = poly * MultiPoly.one(poly.n_vars)
    if state == "unpacked":
        packed.terms
    return packed


@st.composite
def _stated_parts(draw):
    """1 to 3 (a, b, scale) parts in one ring of 0..3 variables, each
    operand in a drawn state, and sometimes negated or scaled first; half
    the draws repeat every part with swapped operands and negated scales."""
    n_vars = draw(st.integers(0, 3))
    exponents = st.tuples(*[_width_exponents] * n_vars)

    def operand():
        poly = _in_state(MultiPoly(n_vars, draw(st.dictionaries(exponents, _coefficients,
                                                                max_size=6))),
                         draw(st.sampled_from(_STATES)))
        change = draw(st.sampled_from((None, "neg", "scale")))
        if change == "neg":
            return -poly
        return poly * draw(_scalars) if change == "scale" else poly

    parts = [(operand(), operand(), draw(_part_scales))
             for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):             # a sum that cancels to exactly zero
        parts += [(b, a, -s) for a, b, s in parts]
    return n_vars, parts


@settings(max_examples=200, deadline=None)
@given(_stated_parts(), _part_scales)
def test_kernel_results_match_the_ordered_reference(case, c):
    n_vars, parts = case
    result = polynomials._sum_of_products(n_vars, parts)
    counted = len(result), bool(result), result.is_zero
    expected = sum_of_products_terms(parts)
    assert counted == (len(expected), bool(expected), not expected)
    assert list(result.terms.items()) == list(expected.items())
    assert _is_tight(result)
    # A result read once is an operand like any other.
    one = MultiPoly.one(n_vars)
    again = polynomials._sum_of_products(n_vars, [(result, one, 1)])
    assert again == result and list(again.terms) == list(expected)
    # Sums, differences, negations and scalings are the kernel on the
    # constant 1, terms and order alike; a - a cancels to zero.
    a, b = parts[0][0], parts[-1][1]
    k = MultiPoly.const(n_vars, c)
    for combined, linear in ((a + b, [(a, one, 1), (b, one, 1)]),
                             (a - b, [(a, one, 1), (b, one, -1)]),
                             (a - a, [(a, one, 1), (a, one, -1)]),
                             (-a, [(a, one, -1)]), (c * a, [(a, one, c)]),
                             (a * c, [(a, one, c)]), (c + a, [(a, one, 1), (k, one, 1)]),
                             (c - a, [(k, one, 1), (a, one, -1)])):
        assert list(combined.terms.items()) == list(sum_of_products_terms(linear).items())
        assert _is_tight(combined)
    assert (a - a).is_zero
    with pytest.raises(DimensionError):
        a + MultiPoly.zero(n_vars + 1)
    with pytest.raises(DimensionError):
        a - MultiPoly.one(n_vars + 1)
    with pytest.raises(hirotaweb.InexactNumberError):
        a * 0.5
    with pytest.raises(hirotaweb.InexactNumberError):
        a + 0.5
    # Quotient equality with unequal denominators is cross-multiplication.
    if b and result:
        f, g = RationalFunction(a, b), RationalFunction(result, b * result)
        assert (f == g) == (product_terms(f.num, g.den) == product_terms(g.num, f.den))
        assert RationalFunction(a * result, b * result) == f


def test_carries_stay_inside_each_variable():
    # Each sum e + e needs one bit more than e, in the lower variable, where
    # a field too narrow would carry into the next one.
    x, y = var(2, 0), var(2, 1)
    for e in (1, 2, 3, 128, 255, 2 ** 16 - 1, 2 ** 31):
        assert (x ** e * y * x ** e).terms == {(2 * e, 1): 1}
        assert (y * x ** e * (x ** e * 3)).terms == {(2 * e, 1): 3}
        assert (x ** e * y * (x + 1)).terms == {(e + 1, 1): 1, (e, 1): 1}


@st.composite
def _rekeyed_case(draw):
    """A polynomial in 0..4 variables with exponents below 2**bits, and two
    widths that hold them."""
    n_vars = draw(st.integers(0, 4))
    bits = draw(st.integers(1, 21))
    exponents = st.tuples(*[st.integers(0, 2 ** bits - 1)] * n_vars)
    poly = MultiPoly(n_vars, draw(st.dictionaries(exponents, _coefficients, max_size=12)))
    return poly, draw(st.integers(bits, bits + 3)), draw(st.integers(bits, bits + 3))


@settings(max_examples=200, deadline=None)
@given(_rekeyed_case())
def test_a_map_keyed_again_equals_packing_its_terms(case):
    # Narrower, wider or the same width, order included; a polynomial held
    # packed is taken at another width without building exponent tuples.
    poly, old, new = case
    n_vars, terms = poly.n_vars, poly.terms
    packed = polynomials._pack(n_vars, terms, old)
    expected = list(polynomials._pack(n_vars, terms, new).items())
    assert list(polynomials._rekeyed(n_vars, packed, old, new).items()) == expected
    held = MultiPoly._from_packed(n_vars, packed, old, poly._top_exponent())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "_unpack", None)      # any call fails
        assert list(held._packed_at(new).items()) == expected
    assert held._terms is None and held == poly


_proof_coefficients = st.one_of(st.integers(-9, 9), st.integers(10 ** 29, 10 ** 30 - 1),
                                st.integers(-10 ** 30 + 1, -10 ** 29),
                                st.fractions(min_value=-3, max_value=3, max_denominator=5))


@st.composite
def _affine_parts(draw):
    """1 to 3 (a, b, scale) parts of polynomials affine in each of 0..6
    variables (zero and one-term ones included), each held as terms or
    packed at width 1, 2 or 3, and extra monomials with exponents up to 2."""
    n_vars = draw(st.integers(0, 6))
    exponents = st.tuples(*[st.integers(0, 1)] * n_vars)

    def operand():
        poly = MultiPoly(n_vars, draw(st.dictionaries(exponents, _proof_coefficients,
                                                      max_size=draw(st.sampled_from((1, 12))))))
        width = draw(st.sampled_from((None, 1, 2, 3)))
        if width:
            poly._packed_at(width)
        return poly

    parts = [(operand(), operand(), draw(st.integers(-3, 3)))
             for _ in range(draw(st.integers(1, 3)))]
    extra = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n_vars), max_size=4))
    return n_vars, parts, extra


def _packed_key(exps, width):
    return sum(e << v * width for v, e in enumerate(exps))


@settings(max_examples=200, deadline=None)
@given(_affine_parts())
@example((2, [(MultiPoly(2, {(1, 0): 1}), MultiPoly(2, {(1, 0): 1, (0, 1): 1}), 1)], [(0, 1)]))
def test_packed_proof_helpers_match_the_tuple_oracles(case):
    # The x_v-halves, one coefficient of a sum of products and the leading
    # pair, read off packed keys at the kernel's width 2 for a product of
    # two affine polynomials, against their exponent-tuple routes.  The
    # monomials include every one where m - key borrows for some key of a:
    # at width 1 the example's x2 - x1 would read as x1, a key of b.
    n_vars, parts, extra = case
    width = 2
    monomials = set(extra)
    for a, b, _ in parts:
        for p in (a, b):
            for v in range(n_vars):
                upper, lower = polynomials._halves(p, v, width)
                assert (upper.terms, lower.terms) == halves(p, v)
        monomials |= set(product_terms(a, b))
        monomials |= {tuple(0 if e else 1 for e in exps) for exps in a.terms}
        if a and b:
            (ea, ca), (eb, cb) = lex_leading(a), lex_leading(b)
            lead = tuple(x + y for x, y in zip(ea, eb))
            key, c = polynomials._leading_pair(a, b, width)
            assert key == _packed_key(lead, width)
            assert c == ca * cb == product_terms(a, b)[lead] != 0
        # A polynomial held packed reads its graded-lex leading term
        # without unpacking.
        held = a * MultiPoly.one(n_vars)
        if held:
            assert held.leading_term() == a.leading_term() and held._terms is None
    for m in monomials:
        assert (polynomials._coefficient(parts, _packed_key(m, width), width)
                == coefficient(parts, m)), m


def test_counts_do_not_unpack(monkeypatch):
    x, y = var(2, 0), var(2, 1)

    def refuse(*args):
        raise AssertionError("a product was unpacked")

    # x + y and x - y built from terms: a sum is a kernel result, held
    # packed at width 1, which the width-2 products below would unpack.
    x_plus_y = MultiPoly(2, {(1, 0): 1, (0, 1): 1})
    x_minus_y = MultiPoly(2, {(1, 0): 1, (0, 1): -1})
    monkeypatch.setattr(polynomials, "_unpack", refuse)
    square = x_plus_y * x_minus_y       # the xy terms cancel
    zero = polynomials._sum_of_products(2, [(x_plus_y, x_minus_y, 1), (x, x, -1), (y, y, 1)])
    # square * (x + y) takes square at its own width (top 2 + 1 < 2**2).
    counted = [(p, len(p), bool(p), p.is_zero)
               for p in (square, zero, x * x, square * x_plus_y)]
    monkeypatch.undo()
    for p, length, truth, empty in counted:
        assert (length, truth, empty) == (len(p.terms), bool(p.terms), not p.terms)
    assert [c[1:] for c in counted] == [(2, True, False), (0, False, True),
                                        (1, True, False), (4, True, False)]
    # A sum that cancels keeps no bound wider than its exponents need.
    assert zero._top_exponent() == 0


def test_terms_keep_the_collection_order():
    # (x + y)(y + x + 1): x + y has fewer terms and goes outside, and each
    # monomial sits where a pair first reaches it.
    x, y = var(2, 0), var(2, 1)
    assert list(((x + y) * (y + x + 1)).terms) == [(1, 1), (2, 0), (1, 0), (0, 2), (0, 1)]


def test_negation_and_scaling_do_not_share_a_packed_map():
    x, y = var(2, 0), var(2, 1)
    for p in (x * x + y, (x + 2) * (y + 3)):
        p * p                           # packs p at the width that p * p takes
        expected = product_terms(p, p)
        for changed, factor in ((-p, -1), (p * 3, 3), (3 * p, 3),
                                (p * Fraction(1, 2), Fraction(1, 2))):
            assert (changed * p).terms == {e: c * factor for e, c in expected.items()}
            assert (changed - p * factor).is_zero


def test_each_linear_operation_is_one_kernel_call(monkeypatch):
    x, y = var(2, 0), var(2, 1)
    p = x * x + y * 3
    kernel, calls = polynomials._sum_of_products, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(polynomials, "_sum_of_products", counted)
    for operation in (lambda: p + x, lambda: p - x, lambda: 2 + p, lambda: p - 2,
                      lambda: 2 - p, lambda: -p, lambda: p * 3,
                      lambda: Fraction(1, 2) * p, lambda: p * 0, lambda: p * x):
        calls.clear()
        operation()
        assert len(calls) == 1


def test_powers_multiply_from_the_first_factor():
    x, y = var(2, 0), var(2, 1)
    for p in (x + y * Fraction(1, 2) - 3, (x - y) * (x + y), x * 7, MultiPoly.zero(2)):
        assert p ** 0 == MultiPoly.one(2)
        assert p ** 1 == p
        assert p ** 4 == p * p * p * p
        assert p ** 5 == p * p * p * p * p
        assert (p ** 4).terms == product_terms(p * p * p, p)


def test_the_corrupted_control_builds_no_polynomial_jet_and_forms_no_product(monkeypatch):
    # verify_hirota refutes every triple of the corrupted n = 6 control by
    # its nonzero q B at one integer point, so no B is built: no polynomial
    # jet, and no product of polynomials.  With the probe at the origin,
    # where q = Q(0) = 0, each triple counts the terms of Q B instead, which
    # is never read term by term (B, a few dozen terms, is unpacked where
    # Q B takes it at a wider field).
    spec = WebSpec.numeric(6, 2, 3, [3, 1, 7, 2, 9, 5])
    sol = hirotaweb.build_solution(spec)
    x1 = var(spec.n_vars, 0)
    p = sol.p_top + x1 * x1
    corrupted = hirotaweb.HirotaSolution(spec, RationalFunction(p, sol.q_top), p, sol.q_top)
    unpacked = []
    unpack = polynomials._unpack
    monkeypatch.setattr(polynomials, "_unpack",
                        lambda n, packed, width: unpacked.append(len(packed))
                        or unpack(n, packed, width))
    monkeypatch.setattr(hirotaweb.webs, "_probe_point",
                        lambda n_vars, n, symbolic: (0,) * n_vars)
    report = hirotaweb.verify_hirota(corrupted)
    counts = (1408, 1417, 1416, 1419, 1411, 1402, 1410, 1412, 1407, 1404,
              1170, 1170, 1161, 1173, 1161, 1164, 1173, 1167, 1173, 1160)
    assert max(unpacked, default=0) < min(counts)
    assert [c.detail for c in report.checks] == [
        f"nonzero residual numerator with {count} term(s)" for count in counts]
    monkeypatch.undo()
    monkeypatch.setattr(hirotaweb.webs, "_polynomial_jet",
                        lambda *args: pytest.fail("a polynomial jet was built"))
    products = []
    multiply = MultiPoly.__mul__

    def counted(*args):
        products.append(1)
        return multiply(*args)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    report = hirotaweb.verify_hirota(corrupted)
    assert products == []
    assert not report.passed and len(report.checks) == 20
    assert all(not c.ok and re.fullmatch(
        r"nonzero residual value q\*B = -?\d+ at x = \(3, 4, -8, -1, 7, 6\)", c.detail)
        for c in report.checks)


# -- ring axioms, JSON and exact division --------------------------------------------


@st.composite
def _polys_in_one_ring(draw, count, min_vars=0):
    """``count`` polynomials in one ring of 0..3 variables with int and
    Fraction coefficients."""
    n_vars = draw(st.integers(min_vars, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * n_vars)
    return [MultiPoly(n_vars, draw(st.dictionaries(exponents, _coefficients, max_size=5)))
            for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(_polys_in_one_ring(3))
def test_ring_axioms(polys):
    a, b, c = polys
    zero, one = MultiPoly.zero(a.n_vars), MultiPoly.one(a.n_vars)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + zero == a and zero + a == a
    assert a * one == a and one * a == a
    assert (a * zero).is_zero and (a - a).is_zero
    assert a + (-a) == zero


@settings(max_examples=150, deadline=None)
@given(_polys_in_one_ring(1))
@example([MultiPoly.const(0, Fraction(-3, 4))])
@example([MultiPoly.zero(0)])
def test_json_round_trip(polys):
    (p,) = polys
    data = poly_to_json(p)
    back = poly_from_json(data)
    assert back == p and back.n_vars == p.n_vars
    assert _is_tight(back)
    degrees = [sum(term["e"]) for term in data["terms"]]
    assert degrees == sorted(degrees, reverse=True)


@settings(max_examples=150, deadline=None)
@given(_polys_in_one_ring(2))
def test_exact_division_round_trip_and_failure(polys):
    a, b = polys
    if not b.is_zero:
        assert exact_div(a * b, b) == a
    x1, x2 = var(2, 0), var(2, 1)
    with pytest.raises(ArithmeticError):
        exact_div(x1 * x1 + x2, x1 + x2)


# -- numeric matrices ---------------------------------------------------------------


_numbers = st.one_of(st.integers(-9, 9),
                     st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def _numeric_minor_matrix(draw):
    """An r x (r+1) matrix of ints and rationals, r in 1..9, often made rank
    deficient: a row repeated or scaled into another, or zero columns."""
    r = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(_numbers, min_size=r + 1, max_size=r + 1),
                         min_size=r, max_size=r))
    damage = draw(st.sampled_from(("none", "repeat", "scale", "zero column",
                                   "two zero columns")))
    if damage in ("repeat", "scale") and r > 1:
        source, target = draw(st.permutations(range(r)))[:2]
        factor = 1 if damage == "repeat" else draw(_numbers.filter(bool))
        rows[target] = [factor * v for v in rows[source]]
    elif damage != "none":
        count = 1 if damage == "zero column" else 2
        for col in draw(st.permutations(range(r + 1)))[:count]:
            for row in rows:
                row[col] = 0
    return rows


@settings(max_examples=100, deadline=None)
@given(_numeric_minor_matrix())
@example([[0, 0, 1], [0, 0, 2]])
@example([[Fraction(1, 2), Fraction(1, 3)]])
def test_numeric_minors_match_constant_polynomial_minors(rows):
    # Numeric matrices take the library's fraction-free elimination, constant
    # polynomial ones the cofactor oracle and the test's own Bareiss route: numbers in,
    # numbers out, and a plain int wherever a minor is integral.
    wrapped = [[MultiPoly.const(1, v) for v in row] for row in rows]
    numeric = maximal_minors(rows)
    assert numeric == [m.constant_value() for m in cofactor_minors(wrapped)]
    assert numeric == [_det_bareiss([row[:c] + row[c + 1:] for row in wrapped])
                       .constant_value() for c in range(len(rows) + 1)]
    assert all(type(m) is int or m.denominator > 1 for m in numeric)
    square = determinant([row[1:] for row in rows])
    assert square == numeric[0]
    assert type(square) is int or square.denominator > 1


def test_nine_by_ten_numeric_minors_match_constant_polynomial_minors():
    # Numbers take the fraction-free elimination and constant polynomials
    # the cofactor oracle; both give the same minors.
    rng = random.Random(12)
    rows = [[rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)))
             for _ in range(10)] for _ in range(9)]
    wrapped = [[MultiPoly.const(1, v) for v in row] for row in rows]
    expected = [m.constant_value() for m in cofactor_minors(wrapped)]
    assert maximal_minors(rows) == expected
    assert determinant([row[1:] for row in rows]) == expected[0]
    assert determinant([[0, 0], [1, 2]]) == 0


def test_public_names_resolve_and_leave_out_ring_division():
    for name in hirotaweb.__all__:
        assert getattr(hirotaweb, name) is not None, name
    assert "determinant" in hirotaweb.__all__
    for gone in ("exact_div", "InexactDivisionError"):
        assert gone not in hirotaweb.__all__
        assert not hasattr(hirotaweb, gone)
        assert not hasattr(polynomials, gone)
    # One substitution route (eliminate) and one parameter-polynomial type.
    assert not hasattr(MultiPoly, "substitute")
    assert "Coframe" not in hirotaweb.__all__
    assert isinstance(hirotaweb.coframe(WebSpec.numeric(3, 1, 1)), hirotaweb.LambdaForm)
    # A quotient is a value: no field arithmetic, no second restriction route,
    # and a data point reaches the interpolant only through cauchy_interpolant.
    for gone in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "eliminate", "from_scalar"):
        assert not hasattr(RationalFunction, gone), gone
    assert "x_values" not in inspect.signature(hirotaweb.evaluate_interpolant).parameters
    # The interpolant is two coefficient lists, always normalized at a data
    # point, and Horner's rule is the one evaluation of a parameter polynomial.
    assert "normalize" not in inspect.signature(hirotaweb.cauchy_interpolant).parameters
    assert ([f.name for f in dataclasses.fields(hirotaweb.CauchyInterpolant)]
            == ["p_coeffs", "q_coeffs"])
    assert not hasattr(hirotaweb.interpolation, "_poly_in_param")
    # eliminate is the one route that fixes variables to numbers: a jet is
    # read in every variable, and fixing some first is eliminate's job.
    assert list(inspect.signature(MultiPoly.second_order_jet).parameters) == [
        "self", "values"]
    # The pencil's Frobenius verdict is the residual verdict: the exterior
    # algebra of whole parameter polynomials lives in the tests as an oracle.
    assert "frobenius_check" not in hirotaweb.__all__
    assert not hasattr(hirotaweb.webs, "frobenius_check")
    for gone in ("d", "wedge", "coefficient", "is_zero", "form_degree", "n_vars"):
        assert not hasattr(hirotaweb.LambdaForm, gone), gone
