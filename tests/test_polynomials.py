"""Exact polynomial arithmetic, substitution, and determinants."""

import random
from fractions import Fraction
from unittest import mock

import pytest

from hypothesis import given, settings, strategies as st

from hirotaweb import (DimensionError, InexactDivisionError, MultiPoly,
                       PolyMatrix, RationalFunction, WebSpec, determinant,
                       exact_div, maximal_minors, poly_from_json, poly_text,
                       poly_to_json)
from hirotaweb import polynomials
from hirotaweb.polynomials import _det_bareiss
from reference_interpolation import build_system_matrix, determinant_cofactor_naive
from reference_polynomials import product_terms


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


# -- substitution ------------------------------------------------------------------


def test_substitute_single_variable():
    x1, x2, x3 = (var(3, i) for i in range(3))
    assert (x1 * x2 + x3).substitute({2: 0}) == x1 * x2


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
        sub = {0: _random_poly(rng, 3, 2, 3), 2: Fraction(rng.randint(-4, 4))}
        assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)


def test_euler_scaling_of_homogeneous_polynomial():
    # Homogeneous p of degree d scales as t^d under x -> t x, with t carried
    # as one extra ring variable.
    x1, x2, x3 = (var(3, i) for i in range(3))
    p = x1 * x2 + x3 * x3
    t = var(4, 3)
    scaled = p.substitute({i: var(4, i) * t for i in range(3)}, n_vars=4)
    lifted = p.substitute({}, n_vars=4)
    assert scaled == lifted * t * t


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


def test_identity_determinant():
    one, zero = const(1, 1), const(1, 0)
    m = PolyMatrix.from_rows([[one, zero], [zero, one]])
    assert determinant(m) == one


def test_two_node_vandermonde():
    m = PolyMatrix.from_rows([[const(1, 1), const(1, 1)],
                              [const(1, 1), const(1, 2)]])
    assert determinant(m) == const(1, 1)


def test_three_by_three_with_coordinates():
    x1, x2, x3 = (var(3, i) for i in range(3))
    one = MultiPoly.one(3)
    m = PolyMatrix.from_rows([
        [one, one, -x1],
        [one, 2 * one, -x2],
        [one, 3 * one, -x3],
    ])
    assert determinant(m) == -x1 + 2 * x2 - x3


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        determinant(PolyMatrix.from_rows([[const(1, 1), const(1, 2)]]))


def _random_poly(rng, n_vars, max_deg, terms):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n_vars))
        if sum(exps) > max_deg:
            exps = tuple(0 for _ in exps)
        out[exps] = out.get(exps, Fraction(0)) + Fraction(rng.randint(-5, 5))
    return MultiPoly(n_vars, out)


def _random_matrix(rng, size, n_vars=2):
    entries = [[_random_poly(rng, n_vars, 2, 2) for _ in range(size)]
               for _ in range(size)]
    return PolyMatrix.from_rows(entries)


def test_determinant_matches_naive_cofactor_oracle():
    rng = random.Random(2024)
    for size in range(1, 6):
        for _ in range(6):
            m = _random_matrix(rng, size)
            assert determinant(m) == determinant_cofactor_naive(m)


def test_bareiss_path_matches_naive_on_seven_by_seven():
    # Dimension 7 is still expanded by cofactors, so the fraction-free
    # elimination path is called directly.
    rng = random.Random(99)
    entries = [[const(1, rng.randint(-9, 9)) + var(1, 0) * rng.randint(-2, 2)
                for _ in range(7)] for _ in range(7)]
    m = PolyMatrix.from_rows(entries)
    assert _det_bareiss(m) == determinant_cofactor_naive(m)


def test_bareiss_path_multivariate_entries():
    rng = random.Random(77)
    entries = [[const(2, rng.randint(-4, 4))
                + var(2, 0) * rng.randint(-2, 2)
                + var(2, 1) * rng.randint(-2, 2)
                for _ in range(7)] for _ in range(7)]
    m = PolyMatrix.from_rows(entries)
    assert _det_bareiss(m) == determinant_cofactor_naive(m)


def test_cofactor_matches_bareiss_on_seven_by_seven():
    # The memoized cofactor path covers dimension 7; Bareiss stays the
    # route above it and serves as the oracle here.
    rng = random.Random(7)
    for _ in range(3):
        m = PolyMatrix.from_rows([[const(1, rng.randint(-9, 9)) for _ in range(7)]
                                  for _ in range(7)])
        assert determinant(m) == _det_bareiss(m)
    for k in range(1, 6):
        spec = WebSpec.numeric(7, k, 6 - k, [-3, -1, 2, 4, 5, 7, 8])
        for which in ("P-top", "Q-top"):
            m = build_system_matrix(spec, which)
            assert determinant(m) == _det_bareiss(m)


def test_bareiss_handles_zero_pivots():
    # leading principal minors vanish, forcing row swaps inside elimination
    rng = random.Random(13)
    size = 7
    entries = [[const(1, 0)] * size for _ in range(size)]
    for i in range(size):
        entries[i][size - 1 - i] = const(1, rng.randint(1, 5)) + var(1, 0)
    m = PolyMatrix.from_rows(entries)
    assert _det_bareiss(m) == determinant_cofactor_naive(m)


def test_determinant_alternating_on_row_swap():
    rng = random.Random(5)
    for _ in range(10):
        m = _random_matrix(rng, 3)
        rows = [[m.entry(i, j) for j in range(3)] for i in range(3)]
        swapped = PolyMatrix.from_rows([rows[1], rows[0], rows[2]])
        assert determinant(swapped) == -determinant(m)
        repeated = PolyMatrix.from_rows([rows[0], rows[0], rows[2]])
        assert determinant(repeated).is_zero


def test_determinant_multilinear_in_rows():
    rng = random.Random(6)
    for _ in range(10):
        base = [[_random_poly(rng, 2, 2, 2) for _ in range(3)] for _ in range(3)]
        r1 = [_random_poly(rng, 2, 2, 2) for _ in range(3)]
        r2 = [_random_poly(rng, 2, 2, 2) for _ in range(3)]
        a = Fraction(rng.randint(-3, 3))
        combo = [p * a + q for p, q in zip(r1, r2)]
        det_combo = determinant(PolyMatrix.from_rows([combo, base[1], base[2]]))
        det_1 = determinant(PolyMatrix.from_rows([r1, base[1], base[2]]))
        det_2 = determinant(PolyMatrix.from_rows([r2, base[1], base[2]]))
        assert det_combo == det_1 * a + det_2


def test_maximal_minors_agree_with_column_deletion():
    rng = random.Random(17)
    rows = [[_random_poly(rng, 2, 2, 2) for _ in range(4)] for _ in range(3)]
    m = PolyMatrix.from_rows(rows)
    minors = maximal_minors(m)
    for skip in range(4):
        sub = PolyMatrix.from_rows(
            [[rows[i][j] for j in range(4) if j != skip] for i in range(3)])
        assert minors[skip] == determinant_cofactor_naive(sub)


def test_exact_division_round_trip_and_failure():
    rng = random.Random(31)
    for _ in range(15):
        a = _random_poly(rng, 2, 3, 4)
        b = _random_poly(rng, 2, 2, 3)
        if b.is_zero:
            continue
        assert exact_div(a * b, b) == a
    x1, x2 = var(2, 0), var(2, 1)
    with pytest.raises(InexactDivisionError):
        exact_div(x1 * x1 + x2, x1 + x2)


# -- rendering and JSON ----------------------------------------------------------------


def test_text_rendering_graded_lex_descending():
    x1, x2, x3 = (var(3, i) for i in range(3))
    p = x2 * x3 - 2 * x1 * x3 + x1 * x2
    assert poly_text(p) == "x1x2 - 2x1x3 + x2x3"
    assert poly_text(-x1 + 2 * x2 - x3) == "-x1 + 2x2 - x3"
    assert poly_text(MultiPoly.zero(3)) == "0"
    assert poly_text(x1 * Fraction(2, 3)) == "2/3x1"
    assert poly_text(x1 ** 2 * x2 + const(3, 5)) == "x1^2x2 + 5"


def test_json_round_trip():
    rng = random.Random(8)
    for _ in range(20):
        p = _random_poly(rng, 4, 3, 6)
        data = poly_to_json(p)
        assert poly_from_json(data) == p
        degrees = [sum(term["e"]) for term in data["terms"]]
        assert degrees == sorted(degrees, reverse=True)


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
    value, grad, hess = p.second_order_jet(point, count)
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
    value, grad, hess = p.second_order_jet([2, -1, 0], 2)
    assert (value, grad, hess) == (0, [-4, 4], [[-2, 4], [4, 0]])
    assert all(type(v) is int for v in [value, *grad, *hess[0], *hess[1]])
    with pytest.raises(DimensionError):
        p.second_order_jet([1, 2], 1)
    with pytest.raises(DimensionError):
        p.second_order_jet([1, 2, 3], 4)


@st.composite
def _poly_matrix(draw, extra_cols=0):
    """A random r x (r + extra_cols) matrix, r in 1..5, whose entries have
    int or Fraction coefficients in one or two variables."""
    size = draw(st.integers(1, 5))
    n_vars = draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, 2)] * n_vars)
    entry = st.dictionaries(exponents, _coefficients, max_size=3).map(
        lambda terms: MultiPoly(n_vars, terms))
    rows = draw(st.lists(st.lists(entry, min_size=size + extra_cols,
                                  max_size=size + extra_cols),
                         min_size=size, max_size=size))
    return PolyMatrix.from_rows(rows)


@settings(max_examples=60, deadline=None)
@given(_poly_matrix())
def test_determinant_routes_agree(m):
    expected = determinant_cofactor_naive(m)
    assert determinant(m) == expected
    assert _det_bareiss(m) == expected


@settings(max_examples=60, deadline=None)
@given(_poly_matrix(extra_cols=1), st.data())
def test_maximal_minors_column_subset_matches_full_list(m, data):
    columns = data.draw(st.lists(st.integers(0, m.rows), max_size=m.cols))
    every = maximal_minors(m)
    assert maximal_minors(m, columns) == [every[c] for c in columns]


def test_maximal_minors_column_subset_on_the_elimination_path():
    # Above the cofactor limit each requested minor is its own determinant.
    rng = random.Random(8)
    m = PolyMatrix.from_rows([[const(1, rng.randint(-9, 9)) + var(1, 0) * rng.randint(-1, 1)
                               for _ in range(9)] for _ in range(8)])
    every = maximal_minors(m)
    assert maximal_minors(m, (8, 3)) == [every[8], every[3]]
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
               p ** 2, p.derivative(var), p.eliminate({var: scalar}),
               p.substitute({var: q}), p.substitute({var: scalar})]
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
def test_product_matches_the_tuple_reference_on_both_sides_of_the_cutoff(operands):
    p, q = operands
    expected = product_terms(p, q)
    # The library's cutoff, then every product packed, then none packed.
    for cutoff in (polynomials._PACKED_PRODUCT_MIN_TERMS, 0, 10 ** 9):
        with mock.patch.object(polynomials, "_PACKED_PRODUCT_MIN_TERMS", cutoff):
            product = p * q
        assert product.terms == expected
        assert _is_tight(product)


def test_packed_product_edge_operands():
    n = 3
    x = [var(n, i) for i in range(n)]
    wide = sum(((x[0] ** (2 ** 20)) * x[1] ** i * (i + 1) for i in range(9)),
               MultiPoly.zero(n)) + x[2] ** (2 ** 19) * Fraction(1, 3)
    assert len(wide.terms) >= polynomials._PACKED_PRODUCT_MIN_TERMS
    for other in (wide, wide * Fraction(3, 2), MultiPoly.const(n, 5),
                  MultiPoly.const(n, Fraction(-2, 7)), MultiPoly.zero(n)):
        for a, b in ((wide, other), (other, wide)):
            assert (a * b).terms == product_terms(a, b)
    assert (wide * wide).leading_term() == ((2 ** 21, 16, 0), 81)
    empty = MultiPoly.const(0, Fraction(3, 2))
    with mock.patch.object(polynomials, "_PACKED_PRODUCT_MIN_TERMS", 0):
        assert (empty * empty).terms == {(): Fraction(9, 4)}
        assert (empty * MultiPoly.const(0, 2)).terms == {(): 3}
        assert type((empty * MultiPoly.const(0, 2)).terms[()]) is int
        assert (empty * MultiPoly.zero(0)).is_zero
