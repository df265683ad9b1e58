"""Solutions, residual verification, web geometry, restriction, transforms."""

import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hirotaweb import (DegenerateInterpolantError, DegenerateRestrictionError,
                       DifferentialForm, DimensionError, HirotaSolution, HirotaWebError,
                       InexactNumberError, Mobius,
                       MultiPoly, PoleError, RationalFunction, WebSpec, WebSpecError,
                       build_solution, flatness_check, hirota_residual, restrict, restricted_nodes,
                       signed_minors, structural_properties, transform,
                       verify_hirota, veronese_form, web_triples, webs)
from hirotaweb import polynomials
from hirotaweb.polynomials import _unpack, poly_to_json
from hirotaweb.interpolation import _block
from hirotaweb.cli import RunConfig, build_parser, config_from_args, run as cli_run
from hirotaweb.webs import (_degree_bound, _denominator_lcm,
                            _derivative_degrees, _factored_witness, _minor_degrees,
                            _polynomial_jet, _residual, _residual_factors,
                            _sampled_factors, _self_wedge, _spec_factors,
                            _without_denominators)
from reference_exterior import (add, at, coframe, coframe_element, d0, degree, dx,
                                is_degenerate_order, neg, sub, total)
from reference_forms import closed_form_3d, closed_form_4d, common_scalar
from reference_frobenius import frobenius_check, pencil_self_wedge
from reference_polynomials import cofactor_determinant
from reference_plucker import plucker, ratio, triple_sum, unsplit_constants, weights
from reference_ratfunc import derivative
from reference_residuals import (expanded_degree_bound, expanded_factors,
                                 expanded_residual_values, expanded_residuals)
from reference_text import form_text
from reference_witness import (gamma_product, inflated_witness, jet_determinant,
                               raw_alpha1, self_wedge)


def nodes(*values):
    return [Fraction(v) for v in values]


# -- solution construction ---------------------------------------------------------


def test_build_solution_three_nodes():
    sol = build_solution(WebSpec.numeric(3, 1, 1))
    x = [MultiPoly.variable(3, i) for i in range(3)]
    expected = RationalFunction(x[0] * x[1] - 2 * x[0] * x[2] + x[1] * x[2],
                                -x[0] + 2 * x[1] - x[2])
    assert sol.f == expected
    assert not is_degenerate_order(sol)


def test_symbolic_solution_matches_closed_form():
    sol = build_solution(WebSpec.symbolic(3, 1, 1))
    known_p, known_q = closed_form_3d()
    assert sol.f == RationalFunction(known_p, known_q)


def test_symbolic_4d_solution_matches_closed_form_up_to_scalar():
    sol = build_solution(WebSpec.symbolic(4, 2, 1))
    known_p, known_q = closed_form_4d()
    assert (sol.p_top * known_q - known_p * sol.q_top).is_zero
    assert common_scalar(sol.p_top, sol.q_top, known_p, known_q) is not None


def test_symbolic_node_solution_dimension_eight():
    # The 8 x 8 leading minors of the symbolic-node row matrix expand to
    # 8! terms each, past the sizes any other test builds.
    sol = build_solution(WebSpec(8, 3, 4, None))
    coordinates = range(8)
    for minor, degree in ((sol.p_top, 5), (sol.q_top, 4)):
        assert minor.n_vars == 16
        assert len(minor.terms) == 40320
        assert minor.homogeneous_degree(coordinates) == degree


# -- residuals ------------------------------------------------------------------------


def test_linear_function_has_zero_residual():
    n = 3
    f = RationalFunction(sum((MultiPoly.variable(n, i) for i in range(n)),
                             MultiPoly.zero(n)))
    assert hirota_residual(f, nodes(1, 2, 3), (1, 2, 3)).is_zero


def test_product_plus_coordinate_residual_is_constant():
    # f = x1 x2 + x3: only f_12 = 1 survives, leaving node_1 - node_2 = -1.
    n = 3
    x = [MultiPoly.variable(n, i) for i in range(n)]
    f = RationalFunction(x[0] * x[1] + x[2])
    residual = hirota_residual(f, nodes(1, 2, 3), (1, 2, 3))
    assert residual == -1


def test_solution_residual_vanishes():
    sol = build_solution(WebSpec.numeric(3, 1, 1))
    assert hirota_residual(sol.f, sol.nodes(), (1, 2, 3)).is_zero


@pytest.mark.parametrize("spec", [WebSpec.numeric(4, 1, 2), WebSpec.symbolic(4, 1, 2)])
def test_genuine_residual_is_zero_over_one(spec):
    # B is zero on a genuine triple, so the residual is 0/1 and Q^5, which
    # with symbolic nodes is by far the largest polynomial, is never built.
    sol = build_solution(spec)
    for triple in web_triples(spec.n):
        residual = hirota_residual(sol.f, sol.nodes(), triple)
        assert residual.num.is_zero
        assert residual.den == MultiPoly.one(spec.n_vars)


def test_bad_triple_rejected():
    from hirotaweb import DimensionError
    sol = build_solution(WebSpec.numeric(3, 1, 1))
    with pytest.raises(DimensionError):
        hirota_residual(sol.f, sol.nodes(), (1, 1, 2))
    with pytest.raises(DimensionError):
        hirota_residual(sol.f, sol.nodes(), (1, 2, 4))


def test_hirota_residual_refuses_more_nodes_than_variables():
    # Refused before any derivative is taken, whichever triple is asked for.
    f = RationalFunction(MultiPoly.variable(3, 0) * MultiPoly.variable(3, 1))
    for triple in ((1, 2, 3), (1, 2, 4)):
        with pytest.raises(DimensionError,
                           match="function has 3 variables but 4 nodes were given"):
            hirota_residual(f, nodes(1, 2, 3, 4), triple)


def test_verify_refuses_nodes_beside_a_solution():
    # A solution carries its own nodes, so nodes passed beside it are refused,
    # even its own: at other nodes its function fails the system.
    sol = build_solution(WebSpec.numeric(4, 2, 1))
    other = nodes(5, -1, 7, 2)
    assert not verify_hirota(sol.f, nodes=other).passed
    for node_list in (other, sol.nodes()):
        for mode in ("symbolic", "sampled"):
            with pytest.raises(WebSpecError, match="carries its own nodes"):
                verify_hirota(sol, nodes=node_list, mode=mode)


def test_verify_three_nodes_symbolic_mode():
    report = verify_hirota(build_solution(WebSpec.numeric(3, 1, 1)))
    assert report.passed and len(report.checks) == 1


def test_verify_four_nodes_symbolic_lambda():
    report = verify_hirota(build_solution(WebSpec.symbolic(4, 2, 1)))
    assert report.passed and len(report.checks) == 4
    # all four residuals vanish independently, consistent with the rank-3
    # dependence of the four equations
    assert all(check.ok for check in report.checks)


def test_verify_rejects_non_solution():
    n = 3
    x = [MultiPoly.variable(n, i) for i in range(n)]
    fake = RationalFunction(x[0] * x[1] + x[2])
    report = verify_hirota(fake, nodes=nodes(1, 2, 3))
    assert not report.passed
    assert not report.checks[0].ok


def test_verify_sampled_five_nodes():
    sol = build_solution(WebSpec.numeric(5, 2, 2))
    report = verify_hirota(sol, mode="sampled", trials=3, bound=10 ** 6, seed=42)
    assert report.passed and len(report.checks) == 10
    assert report.per_trial_failure_bound <= Fraction(1, 10 ** 4)
    assert report.degree_bound == report.per_trial_failure_bound * (2 * 10 ** 6 + 1)


def test_bound_text_shows_the_exact_fraction_and_its_decimal():
    report = verify_hirota(build_solution(WebSpec.numeric(4, 1, 2)), mode="sampled",
                           trials=2, bound=10 ** 6, seed=3)
    bound = report.per_trial_failure_bound
    text = webs._bound_text(bound)
    assert text in report.summary()
    exact, decimal = re.fullmatch(r"(\S+) \(= (\d\.\d{3}e[-+]\d{2})\)", text).groups()
    assert Fraction(exact) == bound
    # the decimal view is the fraction rounded to four significant digits
    mantissa, exponent = decimal.split("e")
    assert abs(Fraction(mantissa) * Fraction(10) ** int(exponent) - bound) \
        <= Fraction(5, 10 ** 4) * Fraction(10) ** int(exponent)
    assert webs._bound_text(Fraction(1, 3)) == "1/3 (= 3.333e-01)"


def test_verify_sampled_catches_non_solution():
    n = 3
    x = [MultiPoly.variable(n, i) for i in range(n)]
    fake = RationalFunction(x[0] * x[1] * x[2] + x[0])
    report = verify_hirota(fake, nodes=nodes(1, 2, 3), mode="sampled",
                           trials=2, bound=10 ** 3, seed=5)
    assert not report.passed


def _sampled_cases():
    """Every order for n <= 5 with numeric and symbolic nodes, each as the
    genuine solution and as the corrupted control P_k + x1^2."""
    for n in range(3, 6):
        for k in range(n):
            for spec in (WebSpec.numeric(n, k, n - 1 - k),
                         WebSpec.symbolic(n, k, n - 1 - k)):
                for corrupt in (False, True):
                    yield pytest.param(spec, corrupt, id=f"{spec.describe()}"
                                       f"{' corrupted' if corrupt else ''}")


def _residual_function(spec, corrupt):
    sol = build_solution(spec)
    if not corrupt:
        return sol.f
    x1 = MultiPoly.variable(spec.n_vars, 0)
    return RationalFunction(sol.p_top + x1 * x1, sol.q_top)


def _function_bound(f, n, symbolic):
    """The degree bound of a function, from the degrees read off its terms."""
    return _degree_bound(_derivative_degrees(f.num, n), _derivative_degrees(f.den, n),
                         n, symbolic)


def _sampled_residuals(f, node_list, point, triples):
    """The library's residual values q B at a point, from integer jets."""
    q, first, brackets = _sampled_factors(f, node_list, point)
    return [q * _residual(first, brackets, triple) for triple in triples]


def _library_factors(f, node_list):
    """The N_i and G_jk on polynomial jets in x_1..x_n."""
    n = len(node_list)
    return _residual_factors(node_list, _polynomial_jet(f.num, range(n)),
                             _polynomial_jet(f.den, range(n)))


@pytest.mark.parametrize("spec,corrupt", list(_sampled_cases()))
def test_jet_route_matches_expanded_oracle(spec, corrupt):
    f = _residual_function(spec, corrupt)
    n = spec.n
    node_list = [spec.node(i) for i in range(1, n + 1)]
    oracle = expanded_factors(f, n)
    triples = web_triples(n)
    # the polynomial factors: N_i, and G_jk = node_j d_j N_k - node_k d_k N_j
    # by the product rule on jets, against the derivatives of the expanded N_i
    first, brackets = _library_factors(f, node_list)
    dn = oracle[1]
    assert first == oracle[0]
    assert brackets == {(j, k): dn[k, j] * node_list[j] - dn[j, k] * node_list[k]
                        for j, k in combinations(range(n), 2)}
    assert _function_bound(f, n, spec.is_symbolic) == expanded_degree_bound(
        f, oracle, spec.is_symbolic, triples)
    rng = random.Random(f"{spec.describe()} {corrupt}")
    for _ in range(2):
        point = [rng.randint(-50, 50) for _ in range(spec.n_vars)]
        assert _sampled_residuals(f, node_list, point, triples) == \
            expanded_residual_values(node_list, triples, point, oracle)


_NODE_KINDS = {
    "integer": lambda n: WebSpec.numeric(n, 0, n - 1),
    "zero": lambda n: WebSpec.numeric(n, 0, n - 1, nodes(0, -2, 1, 3, 5)[:n]),
    "rational": lambda n: WebSpec.numeric(n, 0, n - 1,
                                          nodes("1/2", "-2/3", "3/4", "5/3", "-7/5")[:n]),
    "symbolic": lambda n: WebSpec.symbolic(n, 0, n - 1),
}


# Symbolic nodes at n = 4 only: at n = 5 a corrupted residual in ten variables
# multiplies factors of about 2,000 and 22,000 terms, minutes per triple.
@pytest.mark.parametrize("n,k,kind", [(n, k, kind) for n in (4, 5) for k in range(n)
                                      for kind in _NODE_KINDS
                                      if n == 4 or kind != "symbolic"])
def test_fused_residual_matches_the_written_out_sum(n, k, kind, monkeypatch):
    # On corrupted solutions with l >= 1 the residuals are nonzero, so the
    # kernel's sum over the three products must keep exactly the terms that
    # the written-out products and sums keep, and Q times it must be the
    # written-out residual of the second-derivative route.  verify_hirota
    # must print that residual's value at the probe point where it is
    # nonzero, and count its terms where the value is 0: everywhere once
    # the probe sits at the origin, where q = Q(0) = 0.
    # hirota_residual builds the jets of its own triple's three variables
    # only, so it is compared on every triple.
    base = _NODE_KINDS[kind](n)
    spec = WebSpec(n, k, n - 1 - k, base.lambdas)
    f = _residual_function(spec, corrupt=True)
    node_list = [spec.node(i) for i in range(1, n + 1)]
    first, brackets = _library_factors(f, node_list)
    triples = web_triples(n)
    oracle = expanded_factors(f, n)
    point = webs._probe_point(f.n_vars, n, kind == "symbolic")
    values = expanded_residual_values(node_list, triples, point, oracle)
    details, counted = [], []
    for triple, written, value in zip(triples, expanded_residuals(node_list, triples, oracle),
                                      values):
        a, b, c = (t - 1 for t in triple)
        bracket = (first[a] * brackets[b, c] - first[b] * brackets[a, c]
                   + first[c] * brackets[a, b])
        assert _residual(first, brackets, triple) == bracket
        assert f.den * bracket == written
        assert hirota_residual(f, node_list, triple) == RationalFunction(written, f.den ** 5)
        count = ("residual numerator is 0" if written.is_zero else
                 f"nonzero residual numerator with {len(written.terms)} term(s)")
        counted.append(count)
        details.append(f"nonzero residual value q*B = {value} at x = {point}" if value
                       else count)
    report = verify_hirota(f, nodes=node_list, mode="symbolic")
    assert [check.detail for check in report.checks] == details
    # At l = 0 the solution is linear, and adding x1^2, which has no mixed
    # second partial, leaves it a solution; at every other order every
    # triple fails.
    failed = 0 if k == n - 1 else len(details)
    assert sum(not check.ok for check in report.checks) == failed
    _probe_at_origin(monkeypatch)
    at_origin = verify_hirota(f, nodes=node_list, mode="symbolic")
    assert [check.detail for check in at_origin.checks] == counted
    assert [check.ok for check in at_origin.checks] == [check.ok for check in report.checks]


def test_jet_route_handles_zero_coordinates():
    spec = WebSpec.numeric(4, 2, 1)
    f = _residual_function(spec, corrupt=True)
    oracle = expanded_factors(f, 4)
    point = [0, 3, 0, -2]
    triples = web_triples(4)
    assert _sampled_residuals(f, list(spec.lambdas), point, triples) == \
        expanded_residual_values(list(spec.lambdas), triples, point, oracle)


@st.composite
def _residual_instances(draw, kinds=("integer", "zero", "rational", "symbolic")):
    """Sparse P, Q that are not solutions, n = 3..5, and nodes of one of the
    ``kinds``: integers, integers with a zero, rationals or ring variables
    (then P and Q live in 2n variables, the last n being the nodes)."""
    n = draw(st.integers(3, 5))
    kind = draw(st.sampled_from(kinds))
    n_vars = 2 * n if kind == "symbolic" else n
    polys = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n_vars),
        st.sampled_from([-3, -2, -1, 1, 2, 4, Fraction(1, 2), Fraction(-2, 3)]),
        min_size=1, max_size=5).map(lambda terms: MultiPoly(n_vars, terms))
    f = RationalFunction(draw(polys), draw(polys))
    if kind == "symbolic":
        node_list = [MultiPoly.variable(n_vars, n + i) for i in range(n)]
    elif kind == "rational":
        node_list = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                                  min_size=n, max_size=n, unique=True))
    else:
        nonzero = st.integers(-6, 6).filter(bool)
        node_list = draw(st.lists(nonzero, min_size=n, max_size=n, unique=True))
        if kind == "zero":
            node_list[draw(st.integers(0, n - 1))] = 0
    points = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n_vars, max_size=n_vars),
                           min_size=2, max_size=2))
    return f, node_list, kind == "symbolic", points


@settings(max_examples=100, deadline=None)
@given(_residual_instances())
def test_bracket_route_matches_the_second_derivative_route(instance):
    # R = Q B holds for any P, Q and nodes: the written-out residual
    # sum (node_j - node_k) N_i M_jk equals Q B on every triple, as
    # polynomials and as sampled values.  The degree bound, read off the
    # factor formulas, is at least the oracle's, read off the expanded
    # factors (they differ when leading forms cancel, as they may here),
    # which bounds every written-out residual.
    f, node_list, symbolic, points = instance
    n = len(node_list)
    triples = web_triples(n)
    oracle = expanded_factors(f, n)
    written = expanded_residuals(node_list, triples, oracle)
    first, brackets = _library_factors(f, node_list)
    assert [f.den * _residual(first, brackets, triple) for triple in triples] == written
    expanded_bound = expanded_degree_bound(f, oracle, symbolic, triples)
    assert _function_bound(f, n, symbolic) >= expanded_bound
    assert max(degree(residual) for residual in written) <= expanded_bound
    for point in points:
        assert _sampled_residuals(f, node_list, point, triples) == \
            expanded_residual_values(node_list, triples, point, oracle)


def test_sampled_bare_function_with_symbolic_nodes():
    spec = WebSpec.symbolic(4, 1, 2)
    sol = build_solution(spec)
    genuine = verify_hirota(sol.f, nodes=sol.nodes(), mode="sampled", seed=3)
    assert genuine.passed and len(genuine.checks) == 4
    assert genuine.degree_bound == verify_hirota(sol, mode="sampled", seed=3).degree_bound
    corrupted = verify_hirota(_residual_function(spec, True), nodes=sol.nodes(),
                              mode="sampled", seed=3)
    assert not corrupted.passed


def test_sampled_bare_function_with_node_polynomials_in_few_variables():
    # Nodes x4, x5, x4 + x5 + 1 of a 5-variable ring: a point is drawn again
    # only where two node values coincide, so one trial is found at once.
    x = [MultiPoly.variable(5, v) for v in range(5)]
    f = RationalFunction(x[0] * x[1] + x[2])
    node_list = [x[3], x[4], x[3] + x[4] + 1]
    sampled = verify_hirota(f, nodes=node_list, mode="sampled", trials=1)
    symbolic = verify_hirota(f, nodes=node_list)
    assert not sampled.passed and not symbolic.passed
    assert [c.ok for c in sampled.checks] == [c.ok for c in symbolic.checks]


def test_sampled_points_give_distinct_node_values(monkeypatch):
    # With nodes x4, x5, x4 + x5 the values coincide where x4 = 0, x5 = 0 or
    # x4 = x5, although the coordinates x4, x5, x6 are distinct there: the
    # first point of seed 827 has x4 = 0.  A linear f passes every triple,
    # so every point is evaluated.
    x = [MultiPoly.variable(6, v) for v in range(6)]
    node_list = [x[3], x[4], x[3] + x[4]]
    seen = []
    sampled = webs._sampled_factors

    def spy(f, node_list, point):
        seen.append([v.evaluate(point) for v in node_list])
        return sampled(f, node_list, point)

    monkeypatch.setattr(webs, "_sampled_factors", spy)
    report = verify_hirota(RationalFunction(x[0] + x[1] + x[2]), nodes=node_list,
                           mode="sampled", trials=3, bound=10 ** 3, seed=827)
    assert report.passed
    assert len(seen) == 3 and all(len(set(values)) == 3 for values in seen)


def test_sampled_rejects_too_few_variables():
    from hirotaweb import DimensionError
    f = RationalFunction(MultiPoly.variable(3, 0))
    with pytest.raises(DimensionError):
        verify_hirota(f, nodes=nodes(1, 2, 3, 4), mode="sampled")


def test_verify_refuses_inexact_nodes_trials_and_bound():
    # Float nodes would turn the residual values into floating point in
    # either mode, and a float trial count or bound is refused before any
    # point is drawn; other non-ints are spec errors.
    f = build_solution(WebSpec.numeric(3, 1, 1)).f
    for mode in ("symbolic", "sampled"):
        with pytest.raises(InexactNumberError):
            verify_hirota(f, nodes=[1.0, 2.0, 3.0], mode=mode)
    for kw in (dict(trials=2.0), dict(bound=10.0 ** 6)):
        with pytest.raises(InexactNumberError):
            verify_hirota(f, nodes=nodes(1, 2, 3), mode="sampled", **kw)
    for kw in (dict(trials="2"), dict(bound=Fraction(10 ** 6)), dict(trials=None)):
        with pytest.raises(WebSpecError):
            verify_hirota(f, nodes=nodes(1, 2, 3), mode="sampled", **kw)
    # exact nodes of every kind still pass
    assert verify_hirota(f, nodes=[1, Fraction(2), "3"], mode="sampled").passed


def test_sampled_symbolic_nodes_dimension_seven():
    sol = build_solution(WebSpec.symbolic(7, 3, 3))
    report = verify_hirota(sol, mode="sampled", trials=3, seed=42)
    assert report.passed and len(report.checks) == 35


# -- sampling a symbolic-node spec through the numeric-node closed form ------------


_SYMBOLIC_ORDERS = [(n, k) for n in range(2, 8) for k in range(n)]


@lru_cache(maxsize=1)   # the examples of one order run in a row
def _symbolic_minors(n, k):
    return signed_minors(WebSpec.symbolic(n, k, n - 1 - k))


def _point_with_distinct_nodes(rng, n, bound):
    while True:
        point = [rng.randint(-bound, bound) for _ in range(2 * n)]
        if len(set(point[n:])) == n:
            return point


@pytest.mark.parametrize("n,k", _SYMBOLIC_ORDERS)
@settings(max_examples=4, deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9),
                          st.fractions(min_value=-9, max_value=9, max_denominator=4)),
                min_size=7, max_size=7, unique=True))
@example([0, -1, 2, -3, 4, -5, 6])
def test_symbolic_minors_at_fixed_nodes_are_the_numeric_minors(n, k, values):
    # The identity that makes the printed f the certified one: the closed
    # form with node variables, fixed to numbers by eliminate, is the closed
    # form at those numbers, column by column and term by term.
    lambdas = values[:n]
    numeric = signed_minors(WebSpec(n, k, n - 1 - k, lambdas))
    fixed = dict(enumerate(lambdas, start=n))
    for c, (minor, expected) in enumerate(zip(_symbolic_minors(n, k), numeric)):
        assert minor.eliminate(fixed) == expected, c


@pytest.mark.parametrize("n,k", _SYMBOLIC_ORDERS)
def test_spec_factors_are_the_built_solutions_up_to_its_scalar(n, k):
    # RationalFunction scales P_k and Q_l by one rational c, so Q takes c and
    # every N_i and G_jk takes c^2.
    spec = WebSpec.symbolic(n, k, n - 1 - k)
    sol = build_solution(spec)
    exps, coeff = next(iter(sol.q_top.terms.items()))
    c = Fraction(sol.f.den.terms[exps], coeff)
    rng = random.Random(f"spec factors {n} {k}")
    for _ in range(3):
        point = _point_with_distinct_nodes(rng, n, 10 ** 3)
        q, first, brackets = _spec_factors(spec, point)
        built_q, built_first, built_brackets = _sampled_factors(sol.f, sol.nodes(), point)
        assert q and built_q == c * q
        assert built_first == [c * c * v for v in first]
        assert built_brackets == {key: c * c * v for key, v in brackets.items()}


@pytest.mark.parametrize("n,k", [(n, k) for n, k in _SYMBOLIC_ORDERS if n <= 6])
def test_spec_and_built_solution_give_one_sampled_report(n, k):
    spec = WebSpec.symbolic(n, k, n - 1 - k)
    sol = build_solution(spec)
    for seed in (42, 5):
        assert verify_hirota(spec, mode="sampled", seed=seed) == \
            verify_hirota(sol, mode="sampled", seed=seed)


@pytest.mark.parametrize("n,k", _SYMBOLIC_ORDERS + [(8, 0), (8, 3), (8, 7)])
def test_closed_form_degree_tables_match_the_terms(n, k):
    # Both tables equal the ones read off the built f, so the degree bound
    # of a sampled spec is the one of its built solution, including the
    # loose bound at l = 0.
    spec = WebSpec.symbolic(n, k, n - 1 - k)
    sol = build_solution(spec)
    assert _minor_degrees(spec, spec.l + 1, spec.k) == _derivative_degrees(sol.f.num, n)
    assert _minor_degrees(spec, spec.l, spec.l) == _derivative_degrees(sol.f.den, n)


@pytest.mark.parametrize("spec,mode", [(WebSpec.numeric(4, 1, 2), "symbolic"),
                                       (WebSpec.numeric(4, 1, 2), "sampled"),
                                       (WebSpec.symbolic(4, 1, 2), "symbolic")])
def test_any_other_spec_is_verified_through_its_built_solution(spec, mode):
    sol = build_solution(spec)
    assert verify_hirota(spec, mode=mode) == verify_hirota(sol, mode=mode)
    with pytest.raises(WebSpecError, match="spec carries its own nodes"):
        verify_hirota(spec, nodes=sol.nodes(), mode=mode)


# -- the factored proof ----------------------------------------------------------


_NODE_CLASSES = {
    "integer": nodes(2, -1, 3, 5, -4, 7),
    "zero": nodes(0, 2, -3, 1, 4, -5),
    "rational": nodes("1/2", "-2/3", "3/4", "5/3", "-7/5", "2/7"),
}

# Seven nodes per class: positive integers out of order, mixed signs, a zero
# node, and non-integer rationals (their lcm scales them to ints).
_PLUCKER_NODES = {
    "integer": nodes(2, 5, 1, 7, 3, 6, 4),
    "negative": nodes(-3, 5, -1, 2, -7, 4, -6),
    "zero": nodes(0, -2, 3, 1, 5, 7, -1),
    "rational": nodes("1/2", "-2/3", "3/4", "5/3", "-7/5", "2/7", "-9/4"),
}
_PLUCKER_ORDERS = [(n, k) for n in range(3, 8) for k in range(1, n - 1)]


def _refuse_brackets(monkeypatch):
    """Make the expanded route raise, so that a report can only come from
    the factored proof."""
    def refuse(*args):
        raise AssertionError("the expanded residual route ran")
    monkeypatch.setattr(webs, "_residual_factors", refuse)


def _probe_at_origin(monkeypatch):
    """Move the probe to the origin, where q = Q(0) = 0 for every l >= 1, so
    that each probe there reads 0."""
    monkeypatch.setattr(webs, "_probe_point", lambda n_vars, n, symbolic: (0,) * n_vars)


def _probe_reads_zero(monkeypatch):
    """Make every probe read 0, so that each open triple takes the full B test."""
    sampled = webs._sampled_factors
    monkeypatch.setattr(webs, "_sampled_factors", lambda *args: (0, *sampled(*args)[1:]))


def _corrupted(sol):
    """The solution with x1^2 added to its numerator, as the benchmark does."""
    x1 = MultiPoly.variable(sol.spec.n_vars, 0)
    p = sol.p_top + x1 * x1
    return HirotaSolution(sol.spec, RationalFunction(p, sol.q_top), p, sol.q_top)


def _row_matrix_minor(n, node_list, rows, size, g, x_missing):
    """The rows' matrix over the columns of ``_block``'s minor g: the
    block that spares a column, l^0..l^(r-size) or, with ``x_missing``,
    -x l^0..-x l^size, omits its power top - g; the other block is
    l^0..l^(r-size-1) or -x l^0..-x l^(size-1).  With ``node_list`` None
    the nodes are the variables l_1..l_n of the 2n ring."""
    r = len(rows)
    ring = n if node_list else 2 * n
    p_top, q_top = (r - size - 1, size) if x_missing else (r - size, size - 1)
    pe = [e for e in range(p_top + 1) if x_missing or e != p_top - g]
    qe = [e for e in range(q_top + 1) if not x_missing or e != q_top - g]
    matrix = []
    for i in rows:
        node = (MultiPoly.const(n, node_list[i]) if node_list
                else MultiPoly.variable(ring, n + i))
        matrix.append([node ** e for e in pe]
                      + [MultiPoly.variable(ring, i) * -node ** e for e in qe])
    return matrix


@pytest.mark.parametrize("n,node_class",
                         [(n, c) for c in sorted(_PLUCKER_NODES) for n in range(3, 7)]
                         + [(n, "symbolic") for n in range(3, 6)])
def test_leading_minors_are_the_cofactor_determinants(n, node_class):
    # The one writer against the cofactor expansion, at numeric and at
    # symbolic nodes, on all rows, the rows without i (D_i at size l, g = 0)
    # and the rows without j and k (E_jk at size l - 1, g = 0), at every
    # size, with the spare column in either block and every g; and Q_l as
    # the minor over all rows.  A numeric minor over r rows has one term
    # per x-row subset, a symbolic one r! distinct terms.  Numeric minors
    # are keyed at 2 bits a variable, as the factored proofs take them, and
    # symbolic ones at a byte, as signed_minors takes them.
    node_list = _PLUCKER_NODES[node_class][:n] if node_class in _PLUCKER_NODES else None
    ring, width = (n, 2) if node_list else (2 * n, 8)
    for k in range(1, n - 1):
        l = n - 1 - k
        q_top = signed_minors(WebSpec(n, k, l, node_list and tuple(node_list)), (n,))[0]
        q_block = _block(n, node_list, range(n), l, {0: 1}, True, width)[0]
        assert MultiPoly(ring, _unpack(ring, q_block, width)) == q_top
    for drop in [()] + [(i,) for i in range(n)] + list(combinations(range(n), 2)):
        rows = [r for r in range(n) if r not in drop]
        for size in range(len(rows) + 1):
            for x_missing in (False, True):
                spare = size if x_missing else len(rows) - size
                minors = _block(n, node_list, rows, size, dict.fromkeys(range(spare + 1), 1),
                                x_missing, width)
                for g, terms in minors.items():
                    matrix = _row_matrix_minor(n, node_list, rows, size, g, x_missing)
                    assert (MultiPoly(ring, _unpack(ring, terms, width))
                            == cofactor_determinant(matrix)), (rows, size, g)
                assert len(minors[0]) == (comb(len(rows), size) if node_list
                                          else factorial(len(rows)))


@pytest.mark.parametrize("node_class", sorted(_PLUCKER_NODES))
@pytest.mark.parametrize("n,k", _PLUCKER_ORDERS)
def test_factored_proof_certifies_every_triple(n, k, node_class, monkeypatch):
    # With the expanded route refused, the factored identities alone pass
    # every triple; a wrong weight or sign would fail the triple there
    # instead of falling back.  The report is the expanded route's, which a
    # bare function with the same nodes still takes.
    spec = WebSpec.numeric(n, k, n - 1 - k, _PLUCKER_NODES[node_class][:n])
    sol = build_solution(spec)
    expanded = verify_hirota(sol.f, nodes=sol.nodes())
    _refuse_brackets(monkeypatch)
    report = verify_hirota(sol)
    assert report.passed and len(report.checks) == comb(n, 3)
    assert report == expanded
    assert verify_hirota(spec) == expanded


def test_factored_proof_at_n9_expands_no_bracket(monkeypatch):
    _refuse_brackets(monkeypatch)
    report = verify_hirota(WebSpec.numeric(9, 4, 4))
    assert report.passed and len(report.checks) == 84
    assert {c.detail for c in report.checks} == {"residual numerator is 0"}


def test_the_factored_routes_build_no_exponent_tuples(monkeypatch):
    # Every minor is written packed at the kernel's width for a product of
    # two, and halves and constants are read off packed keys: the proof
    # packs only Q and P, which signed_minors hands over as exponent
    # tuples, and neither unpacks nor keys again any map; flatness_check,
    # the witness's (D_a D_b)(D_c F) products and Q0^4 included, unpacks
    # nothing.
    spec = WebSpec.numeric(6, 2, 3, [-2, -5, -6, -9, -8, -3])
    f = build_solution(spec).f
    packed, unpacked, rekeyed = [], [], []
    pack, unpack, rekey = polynomials._pack, polynomials._unpack, polynomials._rekeyed
    monkeypatch.setattr(polynomials, "_pack", lambda n_vars, terms, width: packed.append(
        terms) or pack(n_vars, terms, width))
    monkeypatch.setattr(polynomials, "_unpack", lambda *args: unpacked.append(args)
                        or unpack(*args))
    monkeypatch.setattr(polynomials, "_rekeyed", lambda *args: rekeyed.append(args)
                        or rekey(*args))
    assert webs._factored_proof(f, list(spec.lambdas), 3) == set(web_triples(6))
    assert len(packed) == 2 and packed[0] is f.den.terms and packed[1] is f.num.terms
    assert unpacked == rekeyed == []
    assert not flatness_check(WebSpec.numeric(6, 3, 2)).is_flat
    assert unpacked == []


def _int_nodes(spec):
    """The nodes scaled to ints, as verify_hirota hands them to the proof."""
    return [int(v * _denominator_lcm(spec.lambdas)) for v in spec.lambdas]


def _spy_proportion(monkeypatch, change=lambda index, value: value):
    """Record every value ``_proportion`` returns, in call order: in
    ``_factored_proof`` the n constants of (A), then those of (B) in
    ``combinations`` order.  ``change`` maps a call's index and value to the
    value handed back."""
    returned = []
    proportion = webs._proportion

    def spy(*args):
        returned.append(change(len(returned), proportion(*args)))
        return returned[-1]
    monkeypatch.setattr(webs, "_proportion", spy)
    return returned


@st.composite
def _proportion_case(draw):
    """(parts, a, b) in 1..4 variables with exponents up to 3: parts sum to
    (p/q) a b, split across two products, and sometimes a third part that
    may break the proportion."""
    n_vars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * n_vars)
    poly = st.dictionaries(exponents, st.integers(-9, 9), max_size=6).map(
        lambda terms: MultiPoly(n_vars, terms))
    a, b, extra = draw(poly), draw(poly), draw(poly)
    assume(a and b)
    p, q = draw(st.integers(-5, 5)), draw(st.integers(1, 4))
    split = draw(st.sets(st.sampled_from(sorted(a.terms))))
    a1 = MultiPoly(n_vars, {e: c for e, c in a.terms.items() if e in split})
    a2 = MultiPoly(n_vars, {e: c for e, c in a.terms.items() if e not in split})
    parts = [(a1, b, p), (b, a2, p)]
    if draw(st.booleans()):
        parts.append((extra, draw(poly), 1))
    return parts, a * q, b


@settings(max_examples=150, deadline=None)
@given(_proportion_case())
def test_a_proportion_is_read_at_the_kernel_width(case):
    # Exponents up to 3 need 3 bits a variable in a product: a narrower
    # width would merge monomials and misread the constant.  The result is
    # the constant of the full identity, or None when there is none.
    parts, a, b = case
    total = polynomials._sum_of_products(a.n_vars, parts)
    expected = Fraction(0) if total.is_zero else ratio(total, a, b)
    assert webs._proportion(parts, a, b) == expected


@pytest.mark.parametrize("n,k,node_class",
                         [(n, k, c) for c in sorted(_PLUCKER_NODES) for n, k in _PLUCKER_ORDERS]
                         + [(8, k, "1..8") for k in range(1, 7)]
                         + [(n, k, f"{c}, six") for c in sorted(_NODE_CLASSES)
                            for n, k in _PLUCKER_ORDERS if n <= 6])
def test_the_pluecker_relation_and_the_weight_pattern(n, k, node_class, monkeypatch):
    # S_ijk = D_i E_jk - D_j E_ik + D_k E_ij is 0 for every triple, with D
    # and E as _block writes them; the constants the halves give are those of
    # the unsplit (A) and (B), in closed form a_i = s c_i and
    # b_jk = u prod_{m not in {j, k}} (node_k - node_m); every triple's
    # weights are (w, -w, w), and T, formed in full, is 0.  The weights are
    # settled in ints: every a_i times the lcm L_a of their denominators and
    # every b_jk times L_b, so each weight is L_a^2 L_b times the oracle's.
    classes = {**_PLUCKER_NODES, **{f"{c}, six": v for c, v in _NODE_CLASSES.items()}}
    lambdas = classes[node_class][:n] if node_class in classes else None
    sol = build_solution(WebSpec.numeric(n, k, n - 1 - k, lambdas))
    int_nodes = _int_nodes(sol.spec)
    returned = _spy_proportion(monkeypatch)
    settled, by_sign = [], webs._settled_by_sign
    monkeypatch.setattr(webs, "_settled_by_sign",
                        lambda *args: settled.append(args) or by_sign(*args))
    proved = webs._factored_proof(sol.f, int_nodes, sol.spec.l)
    others = [[r for r in range(n) if r != i] for i in range(n)]
    d = [webs._minor(int_nodes, rows, n - 1 - k) for rows in others]
    e = {(i, j): webs._minor(int_nodes, [r for r in others[i] if r != j], n - 2 - k)
         for i, j in combinations(range(n), 2)}
    a, b = unsplit_constants(sol.f, d, e)
    assert returned == a + list(b.values())
    s = {a[i] / prod(int_nodes[i] - int_nodes[m] for m in others[i]) for i in range(n)}
    u = {b[i, j] / prod(int_nodes[j] - int_nodes[m] for m in range(n) if m not in (i, j))
         for i, j in b}
    assert len(s) == 1 and len(u) == 1 and s.pop() > 0
    [(_, a_int, b_int)] = settled
    scale_a, scale_b = _denominator_lcm(a), _denominator_lcm(b.values())
    assert a_int == [x * scale_a for x in a] and b_int == {p: x * scale_b for p, x in b.items()}
    assert {type(x) for x in [*a_int, *b_int.values(), *int_nodes]} == {int}
    for triple in combinations(range(n), 3):
        assert plucker(d, e, triple).is_zero, triple
        w = weights(int_nodes, a, b, triple)
        assert w[0] == -w[1] == w[2] != 0, triple
        assert weights(int_nodes, a_int, b_int, triple) == [x * scale_a ** 2 * scale_b
                                                            for x in w], triple
        assert triple_sum(int_nodes, d, e, a, b, triple).is_zero, triple
    assert proved == set(web_triples(n))


def test_a_weight_that_breaks_the_pattern_leaves_its_triples_to_the_probe_and_b(
        monkeypatch):
    # (A) and (B) hold, but b_24 is doubled after its zero test: the weights
    # of every triple holding 2 and 4 break (w, -w, w) and their T is not 0,
    # so exactly those triples are left out, and each is probed and then
    # zero-tested through B, which passes it.
    sol = build_solution(WebSpec.numeric(6, 2, 3, _PLUCKER_NODES["integer"][:6]))
    pair = 6 + list(combinations(range(6), 2)).index((1, 3))
    _spy_proportion(monkeypatch, lambda index, value: 2 * value if index == pair else value)
    proved, settled = [], []
    factored, residual = webs._factored_proof, webs._residual
    monkeypatch.setattr(webs, "_factored_proof",
                        lambda *args: proved.append(factored(*args)) or proved[-1])
    monkeypatch.setattr(webs, "_residual", lambda first, brackets, triple: settled.append(
        (triple, isinstance(first[0], MultiPoly))) or residual(first, brackets, triple))
    report = verify_hirota(sol)
    left_out = sorted(t for t in web_triples(6) if {2, 4} <= set(t))
    assert len(left_out) == 4 and proved == [set(web_triples(6)) - set(left_out)]
    # each left-out triple: its probe value, then B on polynomial jets
    assert settled == [(t, on_polynomials) for t in left_out for on_polynomials in (False, True)]
    assert report.passed and report == verify_hirota(sol.f, nodes=sol.nodes())


@pytest.mark.parametrize("spec", [WebSpec.numeric(5, 2, 2), WebSpec.numeric(4, 1, 2,
                                                                           nodes(0, "1/2", -3, 2))])
@pytest.mark.parametrize("which,v", [("num", 0), ("num", -1), ("den", 0), ("den", -1)])
@pytest.mark.parametrize("tuple_held", [False, True])
def test_a_squared_variable_skips_the_factored_proof(spec, which, v, tuple_held, monkeypatch):
    # The halves need f affine in every x_v, so a square in P or Q ends the
    # proof before any (A) test: it never reaches the packed helpers.  The
    # square is found in a polynomial held packed and in one held as
    # exponent tuples only, which has no packed map to read.
    f = build_solution(spec).f
    x = MultiPoly.variable(spec.n, v % spec.n)
    parts = {"num": f.num, "den": f.den}
    parts[which] = parts[which] + x * x
    if tuple_held:
        parts[which] = MultiPoly(spec.n, dict(parts[which].terms))
        assert parts[which]._packed is None
    returned = _spy_proportion(monkeypatch)
    for helper in ("_halves", "_coefficient", "_leading_pair"):
        monkeypatch.setattr(webs, helper, lambda *args: pytest.fail("a helper was reached"))
    squared = RationalFunction(parts["num"], parts["den"])
    assert webs._factored_proof(squared, _int_nodes(spec), spec.l) == set()
    assert returned == []


def test_a_tuple_held_square_falls_back_to_the_expanded_route():
    # P with x1^2 built from exponent tuples, never packed: the guard reads
    # its exact top exponent, and the report is the bare function's.
    sol = build_solution(WebSpec.numeric(5, 2, 2))
    square = (2,) + (0,) * 4
    terms = dict(sol.p_top.terms)
    terms[square] = terms.get(square, 0) + 1
    p = MultiPoly(5, terms)
    assert p._packed is None
    corrupted = HirotaSolution(sol.spec, RationalFunction(p, sol.q_top), p, sol.q_top)
    report = verify_hirota(corrupted)
    assert not report.passed
    assert report == verify_hirota(corrupted.f, nodes=corrupted.nodes())


def test_an_affine_corruption_fails_a_and_falls_back(monkeypatch):
    # P + x1 x2 stays affine in every x_v, so it passes the guard and fails
    # (A) at i = 1 in full; no triple is proved, and the report is the bare
    # function's.
    sol = build_solution(WebSpec.numeric(5, 2, 2))
    x = [MultiPoly.variable(5, v) for v in range(5)]
    p = sol.p_top + x[0] * x[1]
    corrupted = HirotaSolution(sol.spec, RationalFunction(p, sol.q_top), p, sol.q_top)
    returned = _spy_proportion(monkeypatch)
    assert webs._factored_proof(corrupted.f, _int_nodes(sol.spec), 2) == set()
    assert returned == [None]
    report = verify_hirota(corrupted)
    assert not report.passed
    assert report == verify_hirota(corrupted.f, nodes=corrupted.nodes())


@pytest.mark.parametrize("spec", [WebSpec.numeric(6, 2, 3, [3, 1, 7, 2, 9, 5]),
                                  WebSpec.numeric(4, 1, 2, nodes(0, "1/2", -3, 2)),
                                  WebSpec.numeric(3, 1, 1)])
def test_a_corrupted_solution_falls_back_to_the_expanded_route(spec, monkeypatch):
    # x1^2 added to P ends the factored proof before (A), since f is no
    # longer affine in x1, so no triple is proved by factors and the
    # whole report, failing details included, is the bare function's: each
    # triple is refuted at the probe point, or zero-tested through B once
    # the probe sits at the origin, where q = Q(0) = 0.
    corrupted = _corrupted(build_solution(spec))
    proved = []
    factored = webs._factored_proof
    monkeypatch.setattr(webs, "_factored_proof",
                        lambda *args: proved.append(factored(*args)) or proved[-1])
    report = verify_hirota(corrupted)
    assert proved == [set()]
    assert report == verify_hirota(corrupted.f, nodes=corrupted.nodes())
    assert not report.passed
    assert all(c.detail.startswith("nonzero residual value q*B = ")
               for c in report.checks if not c.ok)
    _probe_at_origin(monkeypatch)
    at_origin = verify_hirota(corrupted)
    assert at_origin == verify_hirota(corrupted.f, nodes=corrupted.nodes())
    assert [c.ok for c in at_origin.checks] == [c.ok for c in report.checks]
    assert all(c.detail.startswith("nonzero residual numerator with ")
               for c in at_origin.checks if not c.ok)


def test_triples_the_factors_leave_open_take_the_expanded_route(monkeypatch):
    # Triples missing from the factored result are probed at one point,
    # evaluated once, and then checked on the expanded route, built once
    # from the polynomial jets of P and Q, and give its details.
    sol = build_solution(WebSpec.numeric(5, 2, 2))
    monkeypatch.setattr(webs, "_factored_proof", lambda *args: {(1, 2, 3), (2, 4, 5)})
    probed, jets = [], []
    sampled, jet = webs._sampled_factors, webs._polynomial_jet
    monkeypatch.setattr(webs, "_sampled_factors",
                        lambda *args: probed.append(1) or sampled(*args))
    monkeypatch.setattr(webs, "_polynomial_jet", lambda *args: jets.append(1) or jet(*args))
    assert verify_hirota(sol) == verify_hirota(sol.f, nodes=sol.nodes())
    assert len(probed) == 2   # once for the solution, once for the bare function
    assert len(jets) == 4     # P and Q, for each of the two


@pytest.mark.parametrize("spec", [WebSpec.numeric(5, 0, 4), WebSpec.numeric(5, 4, 0),
                                  WebSpec.symbolic(4, 1, 2)])
def test_orders_without_factors_keep_the_expanded_route(spec, monkeypatch):
    monkeypatch.setattr(webs, "_factored_proof", lambda *args: pytest.fail("factored"))
    assert verify_hirota(spec).passed


def test_vacuous_two_node_verification():
    report = verify_hirota(build_solution(WebSpec.numeric(2, 1, 0, [0, 1])))
    assert report.passed and report.checks == ()
    assert web_triples(2) == []


def test_solution_homogeneity_degree_one():
    # p_top(t x) q_top(x) = t p_top(x) q_top(t x) at seeded integer x and t.
    rng = random.Random(1618)
    for spec in (WebSpec.numeric(3, 1, 1), WebSpec.numeric(4, 2, 1)):
        sol = build_solution(spec)
        for _ in range(10):
            x = [rng.randint(-50, 50) for _ in range(spec.n)]
            t = rng.randint(-9, 9)
            tx = [t * v for v in x]
            assert (sol.p_top.evaluate(tx) * sol.q_top.evaluate(x)
                    == t * sol.p_top.evaluate(x) * sol.q_top.evaluate(tx))


# -- annihilating form and Frobenius integrability -------------------------------------


def test_veronese_two_nodes_direct_expansion():
    f = RationalFunction(MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1))
    pencil = veronese_form(f, [0, 1])
    dx1, dx2 = dx(2, 0), dx(2, 1)
    assert pencil.coefficients[0] == neg(dx1)
    assert pencil.coefficients[1] == add(dx1, dx2)


def test_veronese_at_node_collapses_to_coordinate_form():
    # at node i only dx_i survives, scaled by f_i times the product of the
    # node differences
    sol = build_solution(WebSpec.numeric(3, 1, 1))
    values = [Fraction(1), Fraction(2), Fraction(3)]
    pencil = veronese_form(sol.f, values)
    for i, lam in enumerate(values):
        at_node = at(pencil, lam)
        assert set(at_node.components) <= {(i,)}
        scale = Fraction(1)
        for j, other in enumerate(values):
            if j != i:
                scale *= lam - other
        d = derivative(sol.f, i)
        assert at_node.component((i,)) == RationalFunction(d.num * scale, d.den)


def test_veronese_leading_coefficient_is_df():
    sol = build_solution(WebSpec.numeric(4, 2, 1))
    pencil = veronese_form(sol.f, [1, 2, 3, 4])
    assert pencil.coefficients[3] == d0(sol.f)


def test_veronese_builds_gradients_only(monkeypatch):
    # N_i reads P, Q and their first partials, so no second partial is built.
    sol = build_solution(WebSpec.numeric(5, 2, 2))
    calls = []
    derivative_of = MultiPoly.derivative
    monkeypatch.setattr(MultiPoly, "derivative",
                        lambda poly, v: calls.append(v) or derivative_of(poly, v))
    veronese_form(sol.f, list(sol.spec.lambdas))
    assert sorted(calls) == sorted(list(range(5)) * 2)


def test_veronese_rejects_repeated_nodes():
    f = RationalFunction(MultiPoly.variable(2, 0))
    with pytest.raises(WebSpecError):
        veronese_form(f, [1, 1])


def test_frobenius_constant_coordinate_form():
    assert frobenius_check([dx(3, 0)])


def test_frobenius_contact_form_fails():
    x1 = MultiPoly.variable(3, 0)
    contact = DifferentialForm(3, 1, {(1,): x1, (2,): 1})
    assert not frobenius_check([contact])


@pytest.mark.parametrize("spec", [WebSpec.numeric(3, 1, 1),
                                  WebSpec.numeric(4, 2, 1),
                                  WebSpec.numeric(4, 1, 2)])
def test_frobenius_for_web_solutions(spec):
    sol = build_solution(spec)
    assert frobenius_check(veronese_form(sol.f, spec.lambdas).coefficients)
    assert verify_hirota(sol).passed


def test_frobenius_rejects_non_solution_pencil():
    # the pencil built from a function that does not solve the system
    # cannot be integrable for every parameter power
    x = [MultiPoly.variable(3, i) for i in range(3)]
    fake = RationalFunction(x[0] * x[1] + x[2])
    assert not frobenius_check(veronese_form(fake, [1, 2, 3]).coefficients)
    assert not verify_hirota(fake, nodes=nodes(1, 2, 3)).passed


def _linear_product(roots):
    """The coefficients of prod (t - r) over the roots, lowest power first."""
    coefficients = [Fraction(1)]
    for r in roots:
        coefficients = [a - r * b for a, b in zip([0] + coefficients, coefficients + [0])]
    return coefficients


def _check_pencil_identity(f, node_list):
    """(d beta^t ^ beta^t)_abc = -C(t) prod_{m not in {a,b,c}} (t - node_m) B_abc
    at every power of t, beta^t = Q^2 alpha^t being the pencil's numerators,
    C(t) = prod_m (t - node_m) and B_abc the library's residual bracket; the
    left side comes from the oracle's exterior algebra."""
    n = len(node_list)
    pencil = veronese_form(f, node_list).coefficients
    lhs = pencil_self_wedge(pencil)
    assert all(form.den == MultiPoly.one(n) for form in lhs)
    first, brackets = _library_factors(f, node_list)
    for triple in web_triples(n):
        idx = tuple(t - 1 for t in triple)
        factor = _linear_product(list(node_list) + [node_list[m] for m in range(n)
                                                    if m not in idx])
        factor += [0] * (len(lhs) - len(factor))
        bracket = _residual(first, brackets, triple)
        for form, c in zip(lhs, factor):
            assert form.components.get(idx, MultiPoly.zero(n)) == bracket * -c, (triple, c)
    assert frobenius_check(pencil) == verify_hirota(f, nodes=node_list).passed


@pytest.mark.parametrize("node_class", sorted(_NODE_CLASSES))
@pytest.mark.parametrize("n, k", [(n, k) for n in (3, 4, 5) for k in range(n)])
def test_pencil_integrability_is_the_residual_bracket(n, k, node_class):
    # Every (component, power) pair, for the genuine solution and for P + x1^2.
    spec = WebSpec.numeric(n, k, n - 1 - k, _NODE_CLASSES[node_class][:n])
    for corrupt in (False, True):
        _check_pencil_identity(_residual_function(spec, corrupt), list(spec.lambdas))


@settings(max_examples=60, deadline=None)
@given(_residual_instances(kinds=("integer", "zero", "rational")))
def test_pencil_identity_holds_for_any_p_q_and_nodes(instance):
    f, node_list, _, _ = instance
    _check_pencil_identity(f, node_list)


# -- refutation at a point ------------------------------------------------------------


_PROBE_ORDERS = ([(n, k, node_class) for n in (3, 4, 5) for k in range(n)
                  for node_class in sorted(_NODE_CLASSES)]
                 + [(6, k, "integer") for k in range(6)]
                 + [(4, k, "symbolic") for k in range(4)])


@pytest.mark.parametrize("n,k,node_class", _PROBE_ORDERS)
def test_the_probe_keeps_the_full_tests_verdicts_and_exit_codes(n, k, node_class,
                                                                monkeypatch):
    # A triple fails exactly when its B is nonzero, so the CLI's statuses
    # and exit code, for the genuine solution and for the corrupted control,
    # are those of the full B test, to which every probe that reads 0 (here
    # every probe) leaves its triple.
    lambdas = None if node_class == "symbolic" else tuple(_NODE_CLASSES[node_class][:n])
    cfg = RunConfig(command="verify", n=n, k=k, l=n - 1 - k, lambdas=lambdas, format="json")
    corrupted = _corrupted(build_solution(WebSpec(n, k, n - 1 - k, lambdas)))

    def outcomes():
        runs = [cli_run(cfg, solution_override=override) for override in (None, corrupted)]
        return [(code, [r["status"] for r in json.loads(text)["results"]])
                for code, text in runs]

    probed = outcomes()
    _probe_reads_zero(monkeypatch)
    assert outcomes() == probed
    assert [code for code, _ in probed] == [0, 0 if k == n - 1 else 1]


@pytest.mark.parametrize("node_class", sorted(_NODE_CLASSES))
def test_the_probe_takes_the_nodes_as_given_and_the_polynomial_routes_as_ints(
        node_class, monkeypatch):
    # The factored proof and B take the nodes scaled to ints by the lcm of
    # their denominators (1 for integral nodes, which stay ints); the probe
    # takes them as given, so its value is the one sampled mode reports.
    spec = WebSpec.numeric(5, 2, 2, _NODE_CLASSES[node_class][:5])
    given = list(spec.lambdas)
    scale = _denominator_lcm(given)
    seen = []
    for name, position in (("_factored_proof", 1), ("_sampled_factors", 1),
                           ("_residual_factors", 0)):
        def spy(*args, _name=name, _position=position, _real=getattr(webs, name)):
            seen.append((_name, args[_position]))
            return _real(*args)
        monkeypatch.setattr(webs, name, spy)
    _probe_reads_zero(monkeypatch)
    assert not verify_hirota(_corrupted(build_solution(spec))).passed
    routes = {}
    for name, node_list in seen:
        routes.setdefault(name, []).append([(type(v), v) for v in node_list])
    scaled = [(int, v * scale) for v in given]
    assert routes["_factored_proof"] == [scaled]
    assert routes["_sampled_factors"] == [[(type(v), v) for v in given]]
    # once inside the probe, with the given nodes, and once for B
    assert routes["_residual_factors"] == [[(type(v), v) for v in given], scaled]


@pytest.mark.parametrize("spec", [WebSpec.numeric(5, 2, 2, _NODE_CLASSES["rational"][:5]),
                                  WebSpec.symbolic(3, 1, 1)], ids=["rational", "symbolic"])
def test_every_symbolic_mode_route_refutes_with_the_written_out_value(spec):
    # The printed value is q B at the printed point, with the nodes as given:
    # the written-out residual's value there.  Rational nodes tell it from
    # the value at the nodes scaled to integers, which is that value times
    # the lcm of their denominators.
    corrupted = _corrupted(build_solution(spec))
    node_list = corrupted.nodes()
    subjects = [(verify_hirota(corrupted), corrupted.f, node_list),
                (verify_hirota(corrupted.f, nodes=node_list), corrupted.f, node_list)]
    if not spec.is_symbolic:
        restricted = restrict(corrupted, spec.n, Fraction(1, 3))
        nodes_left = restricted_nodes(spec, spec.n)
        subjects.append((verify_hirota(restricted, nodes=nodes_left), restricted, nodes_left))
    for report, f, node_list in subjects:
        oracle = expanded_factors(f, len(node_list))
        assert not report.passed
        for check in report.checks:
            value, point = re.fullmatch(r"nonzero residual value q\*B = (\S+) at x = \((.*)\)",
                                        check.detail).groups()
            point = [int(v) for v in point.split(", ")]
            assert len(point) == f.n_vars
            assert Fraction(value) == expanded_residual_values(node_list, [check.triple],
                                                               point, oracle)[0]


# -- coframe ------------------------------------------------------------------------------


def _normalized_coefficients(spec):
    minors = signed_minors(spec)
    q0 = minors[spec.k + 1]
    p = [RationalFunction(minors[j], q0) for j in range(spec.k + 1)]
    q = [RationalFunction(minors[spec.k + 1 + j], q0) for j in range(spec.l + 1)]
    return p, q


def test_coframe_degree_one_element_three_terms():
    spec = WebSpec.numeric(3, 1, 1)
    frame = coframe(spec)
    p, q = _normalized_coefficients(spec)
    expected = total([d0(p[1]), d0(p[0]).scale(q[1]), neg(d0(q[1]).scale(p[0]))])
    assert frame.coefficients[1] == expected


def test_coframe_lagrange_case_is_exact_gradient_frame():
    spec = WebSpec.numeric(3, 2, 0)
    frame = coframe(spec)
    p, _ = _normalized_coefficients(spec)
    for m in range(3):
        assert frame.coefficients[m] == d0(p[m])


def test_coframe_two_nodes_line_case():
    # Two-point interpolation by a line: alpha_0 ~ dx1, alpha_1 ~ d(x2 - x1).
    spec = WebSpec.numeric(2, 1, 0, [0, 1])
    frame = coframe(spec)
    x1, x2 = (MultiPoly.variable(2, i) for i in range(2))
    assert frame.coefficients[0] == d0(RationalFunction(x1))
    assert frame.coefficients[1] == d0(RationalFunction(x2 - x1))


@pytest.mark.parametrize("n,k", [(n, k) for n in (3, 4) for k in range(n)])
def test_coframe_is_frobenius_integrable(n, k):
    # The coframe is a multiple of the annihilating pencil, so it passes the
    # same per-coefficient integrability test.
    assert frobenius_check(coframe(WebSpec.numeric(n, k, n - 1 - k)).coefficients)


@pytest.mark.parametrize("spec", [WebSpec.numeric(3, 1, 1),
                                  WebSpec.numeric(4, 2, 1),
                                  WebSpec.numeric(4, 0, 3)])
def test_coframe_proportional_to_veronese_pencil(spec):
    # The two annihilator candidates agree projectively: their wedge
    # vanishes identically at random parameter values.
    rng = random.Random(2718)
    sol = build_solution(spec)
    pencil = veronese_form(sol.f, spec.lambdas)
    frame = coframe(spec)
    for _ in range(5):
        mu = Fraction(rng.randint(-8, 8))
        pencil_form = at(pencil, mu)
        frame_form = at(frame, mu)
        assert not pencil_form.is_zero and not frame_form.is_zero
        assert pencil_form.wedge(frame_form).is_zero


# -- flatness --------------------------------------------------------------------------


@pytest.mark.parametrize("n, k", [(3, 1), (4, 1), (4, 0), (5, 2), (6, 2), (6, 5)])
def test_flatness_check_takes_no_exterior_derivative_or_wedge(n, k, monkeypatch):
    # Both 3-forms come from one formula on gradients: the exterior algebra
    # stays out of flatness_check, nonflat and flat orders alike.
    def refused(*args):
        raise AssertionError("flatness_check used the exterior algebra")

    for name in ("exterior_derivative", "wedge", "scale"):
        monkeypatch.setattr(DifferentialForm, name, refused)
    spec = WebSpec.numeric(n, k, n - 1 - k)
    assert flatness_check(spec).is_flat == (k == 0 or k == n - 1)


def test_flatness_three_nodes_nonflat_with_witness_identity():
    spec = WebSpec.numeric(3, 1, 1)
    verdict = flatness_check(spec)
    assert verdict.status == "nonflat-certified"
    assert not verdict.is_flat
    assert not verdict.witness.is_zero
    # independent recomputation of both sides from normalized coefficients
    p, q = _normalized_coefficients(spec)
    alpha1 = total([d0(p[1]), d0(p[0]).scale(q[1]), neg(d0(q[1]).scale(p[0]))])
    w1 = alpha1.exterior_derivative().wedge(alpha1)
    rhs = d0(q[1]).wedge(d0(p[0])).wedge(d0(p[1])).scale(
        MultiPoly.const(spec.n_vars, 2))
    assert verdict.witness == w1
    assert w1 == rhs


def test_flatness_lagrange_case_is_flat():
    verdict = flatness_check(WebSpec.numeric(4, 3, 0))
    assert verdict.status == "flat-certified"
    assert verdict.alpha1_integrable and verdict.cross_check_integrable
    assert verdict.witness.is_zero


def test_flatness_reciprocal_lagrange_case_is_flat():
    verdict = flatness_check(WebSpec.numeric(4, 0, 3))
    assert verdict.status == "flat-certified"


def test_flatness_dichotomy_small_dimensions():
    for n in (3, 4, 5):
        for k in range(n):
            l = n - 1 - k
            verdict = flatness_check(WebSpec.numeric(n, k, l))
            expected_flat = (k == 0 or l == 0)
            assert verdict.is_flat == expected_flat, (n, k, l)


def _mirror_is_integrable(spec):
    """d(beta_(n-2)) wedge beta_(n-2) == 0, from the whole 3-form, where
    flatness_check stops at the first nonzero component."""
    minors = _without_denominators(signed_minors(spec))
    form = coframe_element(minors[:spec.k + 1], minors[spec.k + 1:], spec.n - 2)
    return form.exterior_derivative().wedge(form).is_zero


def test_flatness_dichotomy_dimension_six():
    # the cheap corners of n = 6; the remaining orders run in acceptance
    for k, l in ((1, 4), (4, 1), (5, 0), (0, 5)):
        spec = WebSpec.numeric(6, k, l)
        verdict = flatness_check(spec)
        assert verdict.is_flat == (k == 0 or l == 0), (k, l)
        assert verdict.cross_check_integrable == _mirror_is_integrable(spec), (k, l)


def test_flatness_needs_dimension_three():
    with pytest.raises(WebSpecError):
        flatness_check(WebSpec.numeric(2, 1, 0, [0, 1]))


@pytest.mark.parametrize("node_class", sorted(_NODE_CLASSES))
@pytest.mark.parametrize("n, k", [(n, k) for n in (3, 4, 5, 6) for k in range(n)])
def test_witness_text_is_the_per_component_text(n, k, node_class):
    # The library renders the witness from its one normal form; the oracle
    # renders each component as its own RationalFunction.
    spec = WebSpec.numeric(n, k, n - 1 - k, _NODE_CLASSES[node_class][:n])
    witness = flatness_check(spec).witness
    assert witness.text() == form_text(witness)


@pytest.mark.parametrize("node_class", sorted(_NODE_CLASSES))
@pytest.mark.parametrize("n, k", [(n, k) for n in (3, 4, 5) for k in range(n)])
def test_reduced_witness_identity_agrees_with_the_gamma_product(n, k, node_class):
    spec = WebSpec.numeric(n, k, n - 1 - k, _NODE_CLASSES[node_class][:n])
    verdict = flatness_check(spec)
    oracle = inflated_witness(spec)
    assert (oracle.holds is not None) == (k >= 1 and n - 1 - k >= 1)
    assert oracle.holds in (None, True)
    # on the minors as they come: w1 = 2R, and with the oracle's
    # w1 Q0^2 = gamma product, 2R Q0^2 = gamma product
    p0, p1, q0, q1 = oracle.coefficients
    assert DifferentialForm(n, 3, _self_wedge(q0, p1, q1, p0)) == oracle.w1
    assert jet_determinant(*oracle.coefficients).scale(2) == oracle.w1
    # cleared denominators leave every rendered witness component unchanged
    witness = verdict.witness
    assert witness.to_json() == oracle.witness.to_json()
    # and the shared denominator dicts render as each component's own quotient
    assert witness.to_json() == {"degree": 3, "components": [
        {"idx": [i + 1 for i in idx],
         "num": poly_to_json(witness.component(idx).num),
         "den": poly_to_json(witness.component(idx).den)}
        for idx in sorted(witness.components)]}
    assert verdict.cross_check_integrable == _mirror_is_integrable(spec)


_small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4),
    st.one_of(st.integers(-4, 4),
              st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    max_size=4).map(lambda terms: MultiPoly(4, terms))


def _witness_form(p0, p1, q0, q1):
    """d(beta_1) wedge beta_1 by the library's one formula, as a 3-form."""
    return DifferentialForm(q0.n_vars, 3, _self_wedge(q0, p1, q1, p0))


@settings(max_examples=60, deadline=None)
@given(st.tuples(_small_polys, _small_polys, _small_polys, _small_polys))
def test_reduced_witness_identity_holds_for_any_four_polynomials(polys):
    # An identity of the exterior algebra: it pins every sign and term of the
    # formula whatever the minors are.
    p0, p1, q0, q1 = polys
    w1 = self_wedge(raw_alpha1(p0, p1, q0, q1))
    assert _witness_form(p0, p1, q0, q1) == w1
    assert w1.scale(q0 * q0) == gamma_product(p0, p1, q0, q1)


@settings(max_examples=60, deadline=None)
@given(st.tuples(_small_polys, _small_polys, _small_polys, _small_polys))
def test_witness_right_side_is_twice_the_jet_determinant(polys):
    # R_abc = det of the rows Q0, Q1, P0, P1 over the columns (value, d_a,
    # d_b, d_c).  Adding a multiple of one row to another leaves R as it is,
    # so the check that the formula sees a change scales a row instead.
    p0, p1, q0, q1 = polys
    r = jet_determinant(p0, p1, q0, q1)
    assert _witness_form(p0, p1, q0, q1) == r.scale(2)
    if not r.is_zero:
        assert _witness_form(p0 * 3, p1, q0, q1) != r.scale(2)


@pytest.mark.parametrize("node_class", sorted(_NODE_CLASSES))
@pytest.mark.parametrize("n, k", [(n, k) for n in (3, 4, 5, 6) for k in range(n)])
def test_mirror_formula_is_the_exterior_algebra_self_wedge(n, k, node_class):
    # The formula on (Q_l, P_(k-1), Q_(l-1), P_k), a missing minor zero, is
    # d(beta_(n-2)) wedge beta_(n-2) of the whole mirror element, in full.
    l = n - 1 - k
    spec = WebSpec.numeric(n, k, l, _NODE_CLASSES[node_class][:n])
    minors = _without_denominators(signed_minors(spec))
    p_list, q_list = minors[:k + 1], minors[k + 1:]
    zero = MultiPoly.zero(n)
    formula = _self_wedge(q_list[l], p_list[k - 1] if k else zero,
                          q_list[l - 1] if l else zero, p_list[k])
    assert DifferentialForm(n, 3, formula) == self_wedge(coframe_element(p_list, q_list, n - 2))
    # the mirror test's first nonzero component is the formula's first
    first = _self_wedge(q_list[l], p_list[k - 1] if k else zero,
                        q_list[l - 1] if l else zero, p_list[k], first_only=True)
    assert list(first.items()) == list(formula.items())[:1]


@settings(max_examples=60, deadline=None)
@given(_small_polys, _small_polys)
def test_flat_elements_have_zero_self_wedge(a, b):
    # d(A dB - B dA) = 2 dA wedge dB, and its wedge with A dB - B dA is zero
    # for any polynomials A and B: the structural reason k = 0 or l = 0 is flat.
    beta = sub(d0(b).scale(a), d0(a).scale(b))
    assert beta.exterior_derivative() == d0(a).wedge(d0(b)).scale(2)
    assert beta.exterior_derivative().wedge(beta).is_zero


def test_flatness_refuses_a_corrupted_vanishing_q0(monkeypatch):
    genuine = webs.signed_minors

    def zero_q0(spec):
        minors = genuine(spec)
        minors[spec.k + 1] = MultiPoly.zero(spec.n_vars)
        return minors

    monkeypatch.setattr(webs, "signed_minors", zero_q0)
    with pytest.raises(DegenerateInterpolantError):
        flatness_check(WebSpec.numeric(4, 2, 1, nodes("1/2", -1, 3, 5)))


def test_flatness_refuses_corrupted_minors_with_inconsistent_certificates(monkeypatch):
    # Small stand-in minors P0..P3, Q0..Q3 at n = 7 with P1 = Q1 = 0: alpha_1
    # vanishes, so it is integrable, while the mirror element
    # Q2 dP3 - P3 dQ2 + Q3 dP2 - P2 dQ3 is not.
    x = [MultiPoly.variable(7, i) for i in range(7)]
    zero = MultiPoly.zero(7)
    monkeypatch.setattr(webs, "signed_minors", lambda spec: [
        x[0], zero, x[1], x[2], x[3] + 1, zero, x[4], x[5]])
    with pytest.raises(HirotaWebError, match="inconsistent certificates"):
        flatness_check(WebSpec.numeric(7, 3, 3))


# -- the factored witness ---------------------------------------------------------------

_WITNESS_ORDERS = [(n, k) for n in range(3, 7) for k in range(1, n - 1)]


def _witness_pieces(spec):
    """(Q0, P1, Q1, P0) with denominators cleared, as flatness_check takes
    them, and the nodes scaled to ints."""
    minors = _without_denominators(signed_minors(spec))
    p, q = minors[:spec.k + 1], minors[spec.k + 1:]
    scale = _denominator_lcm(spec.lambdas)
    return (q[0], p[1], q[1], p[0]), [int(v * scale) for v in spec.lambdas]


@pytest.mark.parametrize("node_class", sorted(_NODE_CLASSES))
@pytest.mark.parametrize("n, k", _WITNESS_ORDERS)
def test_factored_witness_is_the_self_wedge(n, k, node_class):
    # Every component, in the same order, and every zero component absent.
    spec = WebSpec.numeric(n, k, n - 1 - k, _NODE_CLASSES[node_class][:n])
    pieces, int_nodes = _witness_pieces(spec)
    factored = _factored_witness(*pieces, int_nodes, spec.l)
    assert factored is not None
    assert list(factored.items()) == list(_self_wedge(*pieces).items())


def test_factored_witness_is_the_self_wedge_at_n7():
    spec = WebSpec.numeric(7, 2, 4, nodes(3, -1, 4, "1/5", 9, -2, 6))
    pieces, int_nodes = _witness_pieces(spec)
    assert list(_factored_witness(*pieces, int_nodes, 4).items()) == list(
        _self_wedge(*pieces).items())


@pytest.mark.parametrize("node_class", sorted(_NODE_CLASSES))
@pytest.mark.parametrize("n, k", _WITNESS_ORDERS)
def test_witness_constants_have_closed_forms(n, k, node_class):
    # kappa_v = s c_v [t^1] prod_{m != v} (t - node_m), with one scalar s per
    # spec (s = 1 for integer nodes), and, over the int nodes,
    # rho^v_pq = (-1)^(l + 1 + i) prod_{m not in {p, q, v}} (node_v - node_m),
    # i the number of p, q below v (flatness_check's docstring).  With s = 1
    # they combine to kappa_abc = (-1)^l 2 c_a c_b c_c (prod_{m not in
    # {a, b, c}} node_m)^2.
    l = n - 1 - k
    node_list = _NODE_CLASSES[node_class][:n]
    spec = WebSpec.numeric(n, k, l, node_list)
    (a, b, c, d), int_nodes = _witness_pieces(spec)
    everyone = range(n)
    minors = [webs._minor(int_nodes, [r for r in everyone if r != v], l) for v in everyone]
    spans = [prod(node_list[v] - node_list[m] for m in everyone if m != v)
             for v in everyone]
    kappa, scalars = [], set()
    for v in everyone:
        kappa.append(webs._proportion([(a, b.derivative(v), 1), (b, a.derivative(v), -1),
                                       (c, d.derivative(v), 1), (d, c.derivative(v), -1)],
                                      minors[v], minors[v]))
        closed = spans[v] * _linear_product(node_list[:v] + node_list[v + 1:])[1]
        if closed:
            scalars.add(kappa[v] / closed)
        else:
            assert kappa[v] == 0
    assert len(scalars) == 1
    assert node_class == "rational" or scalars == {1}
    for triple in combinations(everyone, 3):
        f = webs._minor(int_nodes, [r for r in everyone if r not in triple], l - 1)
        rho = []
        for below, v in enumerate(triple):
            p, q = (t for t in triple if t != v)
            rho.append(webs._proportion([(minors[p], minors[q].derivative(v), 1),
                                         (minors[q], minors[p].derivative(v), -1)],
                                        minors[v], f))
            closed = prod(int_nodes[v] - int_nodes[m] for m in everyone if m not in triple)
            assert rho[-1] == (-1) ** (l + 1 + below) * closed, (triple, v)
        if node_class != "rational":
            i, j, m = triple
            constant = 2 * (kappa[i] * kappa[m] * rho[1] - kappa[i] * kappa[j] * rho[2]
                            - kappa[j] * kappa[m] * rho[0])
            outside = prod(node_list[r] for r in everyone if r not in triple)
            assert constant == (-1) ** l * 2 * spans[i] * spans[j] * spans[m] * outside ** 2


def _corrupt_p0(monkeypatch):
    """P0 + x1^2 in place of P0, so check (i) fails at v = 1."""
    genuine = webs.signed_minors

    def corrupted(spec):
        minors = genuine(spec)
        minors[0] = minors[0] + MultiPoly.variable(spec.n_vars, 0) ** 2
        return minors

    monkeypatch.setattr(webs, "signed_minors", corrupted)


@pytest.mark.parametrize("lambdas", [(3, 1, 7, 2, 9), (0, "1/2", -3, 2, 5)])
def test_a_failed_witness_check_falls_back_to_the_self_wedge(lambdas, monkeypatch):
    # The whole witness, and so every output byte, is then _self_wedge's.
    cfg = RunConfig(command="flatness", n=5, k=2, l=2,
                    lambdas=tuple(Fraction(v) for v in lambdas), format="json")
    _corrupt_p0(monkeypatch)
    returned = []
    factored = webs._factored_witness
    monkeypatch.setattr(webs, "_factored_witness",
                        lambda *args: returned.append(factored(*args)) or returned[-1])
    code, text = cli_run(cfg)
    assert returned == [None]
    monkeypatch.setattr(webs, "_factored_witness", lambda *args: None)
    assert cli_run(cfg) == (code, text)


def test_a_square_in_a_witness_minor_fails_the_exponent_guard(monkeypatch):
    # P1 + 3 x1^2 Q0 in place of P1.  The x-halves of (i) split it wrongly
    # at x1 (x1^2 Q0 lands in both halves so that its terms cancel in h_1,
    # and h_v changes at no other v, since the new term is Q0 times a
    # function of x1), so without the exponent guard (i) passes with the
    # genuine constants and the witness of the genuine minors comes out;
    # the guard sends it to _self_wedge, which computes the true one.
    genuine = webs.signed_minors
    spec = WebSpec.numeric(5, 2, 2, (3, 1, 7, 2, 9))
    genuine_witness = flatness_check(spec).witness

    def corrupted(spec):
        minors = genuine(spec)
        x1 = MultiPoly.variable(spec.n_vars, 0)
        minors[1] = minors[1] + 3 * x1 * x1 * minors[spec.k + 1]
        return minors

    monkeypatch.setattr(webs, "signed_minors", corrupted)
    minors = _without_denominators(webs.signed_minors(spec))
    pieces = (minors[spec.k + 1], minors[1], minors[spec.k + 2], minors[0])
    assert _factored_witness(*pieces, list(spec.lambdas), spec.l) is None
    witness = flatness_check(spec).witness
    assert witness == DifferentialForm(spec.n_vars, 3, _self_wedge(*pieces), pieces[0] ** 4)
    assert witness != genuine_witness


def test_witness_check_i_reads_halves_and_builds_no_partial(monkeypatch):
    # (i) takes h_v from the x-halves of (Q0, P1, Q1, P0), as (ii) does: no
    # derivative is taken, and each of the four, which signed_minors hands
    # over as exponent tuples, is packed once; nothing is unpacked.
    spec = WebSpec.numeric(6, 3, 2)
    (a, b, c, d), _ = _witness_pieces(spec)
    expected = list(_self_wedge(a, b, c, d).items())
    # kappa_v off the unsplit h_v, with its partials
    kappa = [webs._proportion([(a, b.derivative(v), 1), (b, a.derivative(v), -1),
                               (c, d.derivative(v), 1), (d, c.derivative(v), -1)],
                              *[webs._minor(list(spec.lambdas), [r for r in range(6) if r != v],
                                            spec.l)] * 2) for v in range(6)]
    pieces, int_nodes = _witness_pieces(spec)
    returned = _spy_proportion(monkeypatch)
    packed, unpacked, derived = [], [], []
    pack, unpack, derivative = polynomials._pack, polynomials._unpack, MultiPoly.derivative
    monkeypatch.setattr(polynomials, "_pack", lambda n_vars, terms, width: packed.append(
        terms) or pack(n_vars, terms, width))
    monkeypatch.setattr(polynomials, "_unpack", lambda *args: unpacked.append(args)
                        or unpack(*args))
    monkeypatch.setattr(MultiPoly, "derivative", lambda self, v: derived.append(v)
                        or derivative(self, v))
    factored = _factored_witness(*pieces, int_nodes, spec.l)
    assert derived == [] and unpacked == []
    assert list(factored.items()) == expected and factored
    assert returned[:6] == kappa and all(kappa)
    assert len(packed) == 4 and all(any(terms is poly.terms for poly in pieces)
                                    for terms in packed[:4])


def test_a_division_with_a_remainder_falls_back_to_the_self_wedge(monkeypatch):
    # Constants off by a factor 7 leave a remainder in the components'
    # division, so the witness is _self_wedge's, not a rounded one.
    spec = WebSpec.numeric(5, 2, 2, (3, 1, 7, 2, 9))
    expected = flatness_check(spec).witness
    pieces, int_nodes = _witness_pieces(spec)
    proportion = webs._proportion
    monkeypatch.setattr(webs, "_proportion", lambda *args: proportion(*args) / 7)
    assert _factored_witness(*pieces, int_nodes, 2) is None
    assert flatness_check(spec).witness == expected


@pytest.mark.parametrize("spec", [WebSpec.numeric(3, 1, 1), WebSpec.numeric(5, 2, 2),
                                  WebSpec.numeric(5, 1, 3, (0, 2, -3, 1, 4)),
                                  WebSpec.numeric(6, 3, 2, _NODE_CLASSES["rational"]),
                                  WebSpec.numeric(5, 0, 4), WebSpec.numeric(5, 4, 0)])
def test_a_nonflat_witness_never_takes_the_self_wedge(spec, monkeypatch):
    # k, l >= 1: the witness is factored and the mirror is refuted at the
    # probe point, so _self_wedge is never called; k = 0 or l = 0: the
    # witness comes from it as a whole, and the mirror, zero at the point,
    # from its full test.
    calls = []
    wedge = webs._self_wedge
    monkeypatch.setattr(webs, "_self_wedge", lambda *args, first_only=False: calls.append(
        first_only) or wedge(*args, first_only=first_only))
    verdict = flatness_check(spec)
    assert calls == ([] if not verdict.is_flat else [False, True])


@pytest.mark.parametrize("argv", ["flatness --n 5 --k 2 --l 2 --lambdas=-1,0,2,3,5",
                                  "flatness --n 4 --k 1 --l 2 --lambdas=1/2,-2/3,3/4,5/3",
                                  "flatness --n 6 --k 3 --l 2",
                                  "flatness --n 3 --k 1 --l 1"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_probe_forced_to_zero_takes_the_full_mirror_test(argv, fmt, monkeypatch):
    # A zero at the point proves nothing, so the mirror goes to its full
    # polynomial test, which finds the same verdict: the report is unchanged.
    args = argv.split() + ["--format", fmt]
    config = config_from_args(build_parser().parse_args(args))
    expected = cli_run(config)
    calls = []
    wedge = webs._self_wedge
    monkeypatch.setattr(webs, "_wedge_at", lambda *args: {})
    monkeypatch.setattr(webs, "_self_wedge", lambda *args, first_only=False: calls.append(
        first_only) or wedge(*args, first_only=first_only))
    assert cli_run(config) == expected
    assert calls == [True]


@pytest.mark.parametrize("node_class", sorted(_NODE_CLASSES))
@pytest.mark.parametrize("n, k", [(n, k) for n in (3, 4, 5, 6) for k in range(n)])
def test_the_mirror_probe_is_the_self_wedge_at_the_point(n, k, node_class):
    # The formula on the minors' jets at the probe point gives every
    # component's value there, and the probe's one entry is the first that
    # is nonzero.
    l = n - 1 - k
    spec = WebSpec.numeric(n, k, l, _NODE_CLASSES[node_class][:n])
    minors = _without_denominators(signed_minors(spec))
    p, q = dict(enumerate(minors[:k + 1])), dict(enumerate(minors[k + 1:]))
    zero = MultiPoly.zero(n)
    mirror = (q[l], p.get(k - 1, zero), q.get(l - 1, zero), p[k])
    point = webs._probe_point(n, n, False)
    components = _self_wedge(*mirror)
    values = {triple: components[triple].evaluate(point) if triple in components else 0
              for triple in combinations(range(n), 3)}
    nonzero = [(triple, value) for triple, value in values.items() if value]
    jets = [poly.second_order_jet(point) for poly in mirror]
    pieces = [webs._pair_pieces(x[0], x[1].__getitem__, y[0], y[1].__getitem__)
              for x, y in (jets[:2], jets[2:])]
    assert list(webs._wedge_components(*pieces, n, False).items()) == nonzero
    assert list(webs._wedge_at(*mirror, point).items()) == nonzero[:1]
    assert bool(nonzero) == bool(components) == (k >= 1 and l >= 1)


# -- restriction -----------------------------------------------------------------------


def test_restriction_to_zero_keeps_homogeneity_breaks_sums():
    sol = build_solution(WebSpec.numeric(4, 2, 1))
    restricted = restrict(sol, 4, 0)
    remaining = restricted_nodes(sol.spec, 4)
    assert remaining == nodes(1, 2, 3)
    assert verify_hirota(restricted, nodes=remaining).passed
    assert restricted.num.homogeneous_degree() == 2
    assert restricted.den.homogeneous_degree() == 1
    # the zero-coefficient-sum property fails for the pair: the restricted
    # denominator's sum is a Vandermonde-type product, never zero
    ones = [Fraction(1)] * 3
    assert restricted.den.evaluate(ones) != 0


def test_restricted_nodes_rejects_out_of_range_coordinate():
    from hirotaweb import DimensionError
    spec = WebSpec.numeric(4, 2, 1)
    for coordinate in (0, 5, 9):
        with pytest.raises(DimensionError):
            restricted_nodes(spec, coordinate)
    assert restricted_nodes(spec, 1) == nodes(2, 3, 4)


def test_restriction_to_nonzero_loses_homogeneity():
    sol = build_solution(WebSpec.numeric(4, 2, 1))
    restricted = restrict(sol, 4, 1)
    assert verify_hirota(restricted, nodes=nodes(1, 2, 3)).passed
    assert (restricted.num.homogeneous_degree() is None
            or restricted.den.homogeneous_degree() is None)


def test_restriction_down_to_dimension_two_is_vacuous():
    sol = build_solution(WebSpec.numeric(3, 1, 1))
    restricted = restrict(sol, 3, 0)
    report = verify_hirota(restricted, nodes=nodes(1, 2))
    assert report.passed and report.checks == ()


def test_repeated_restriction():
    sol = build_solution(WebSpec.numeric(5, 2, 2))
    once = restrict(sol, 5, 0)
    assert verify_hirota(once, nodes=nodes(1, 2, 3, 4)).passed
    spec4 = WebSpec.numeric(4, 2, 1, [1, 2, 3, 4])
    again = HirotaSolution(spec4, once, once.num, once.den)
    twice = restrict(again, 4, 2)
    assert verify_hirota(twice, nodes=nodes(1, 2, 3)).passed


def test_degenerate_restriction_detected():
    spec = WebSpec.numeric(3, 1, 1)
    x1 = MultiPoly.variable(3, 0)
    artificial = HirotaSolution(spec, RationalFunction(MultiPoly.one(3), x1),
                                MultiPoly.one(3), x1)
    with pytest.raises(DegenerateRestrictionError):
        restrict(artificial, 1, 0)


@pytest.mark.parametrize("n,k,node_class", [(n, k, node_class) for n in range(3, 7)
                                            for k in range(1, n)
                                            for node_class in sorted(_NODE_CLASSES)])
def test_restriction_to_zero_is_the_smaller_spec_at_scaled_coordinates(n, k, node_class):
    # (R0) in the restrict docstring: f_(n,k,l) at x_v = 0 is f_(n-1,k-1,l)
    # over the other nodes at x_m / (node_m - node_v), for every v.
    lambdas = _NODE_CLASSES[node_class][:n]
    sol = build_solution(WebSpec.numeric(n, k, n - 1 - k, lambdas))
    for v in range(1, n + 1):
        others = [node for i, node in enumerate(lambdas, start=1) if i != v]
        smaller = build_solution(WebSpec.numeric(n - 1, k - 1, n - 1 - k, others))
        scaling = [Mobius(1, 0, 0, node - lambdas[v - 1]) for node in others]
        assert restrict(sol, v, 0) == transform(smaller.f, Mobius.identity(), scaling)


@pytest.mark.parametrize("n,k,node_class", [(n, k, node_class) for n in range(2, 7)
                                            for k in range((n + 1) // 2, n)
                                            for node_class in sorted(_NODE_CLASSES)])
@pytest.mark.parametrize("c", [3, Fraction(-5, 2)])
def test_a_shift_of_every_coordinate_keeps_the_family(n, k, node_class, c):
    # (T) in the restrict docstring: f(x + c) is f for k > l and f + c for k = l.
    l = n - 1 - k
    f = build_solution(WebSpec.numeric(n, k, l, _NODE_CLASSES[node_class][:n])).f
    shift = Mobius(1, c, 0, 1)
    expected = f if k > l else transform(f, shift, [Mobius.identity()] * n)
    assert transform(f, Mobius.identity(), [shift] * n) == expected


# -- transformation ---------------------------------------------------------------------


def test_identity_transform_is_identity():
    sol = build_solution(WebSpec.numeric(3, 1, 1))
    assert transform(sol.f, Mobius.identity(),
                     [Mobius.identity()] * 3) == sol.f


def test_inversion_swaps_orders():
    sol21 = build_solution(WebSpec.numeric(4, 2, 1))
    sol12 = build_solution(WebSpec.numeric(4, 1, 2))
    swapped = transform(sol21.f, Mobius.inversion(), [Mobius.inversion()] * 4)
    assert swapped == sol12.f
    # in dimension 3 the orders coincide and the solution is invariant
    sol3 = build_solution(WebSpec.numeric(3, 1, 1))
    assert transform(sol3.f, Mobius.inversion(), [Mobius.inversion()] * 3) == sol3.f


def test_affine_outer_transform_still_solves():
    sol = build_solution(WebSpec.numeric(3, 1, 1))
    shifted = transform(sol.f, Mobius(2, 1, 0, 1), [Mobius.identity()] * 3)
    assert verify_hirota(shifted, nodes=sol.nodes()).passed


def test_degenerate_map_rejected():
    with pytest.raises(WebSpecError):
        Mobius(1, 2, 2, 4)


def _random_mobius(rng):
    while True:
        a, b, c, d = (Fraction(rng.randint(-4, 4)) for _ in range(4))
        if a * d - b * c != 0:
            return Mobius(a, b, c, d)


def test_transform_closure_on_random_maps():
    rng = random.Random(1234)
    sol = build_solution(WebSpec.numeric(3, 1, 1))
    for _ in range(5):
        outer = _random_mobius(rng)
        inner = [_random_mobius(rng) for _ in range(3)]
        moved = transform(sol.f, outer, inner)
        assert verify_hirota(moved, nodes=sol.nodes()).passed


def _apply(m, t):
    """The value of a fractional-linear map at a number; PoleError at its pole."""
    den = m.c * t + m.d
    if not den:
        raise PoleError(f"map pole at {t}")
    return (m.a * t + m.b) / den


_maps = st.tuples(*[st.integers(-4, 4)] * 4).filter(
    lambda t: t[0] * t[3] != t[1] * t[2]).map(lambda t: Mobius(*t))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 1, 1), (4, 2, 1), (4, 0, 3)]), _maps,
       st.lists(_maps, min_size=4, max_size=4), st.integers(0, 2 ** 32))
def test_transform_evaluates_as_the_composition(order, outer, inner, seed):
    # transform(f, outer, inner) at x is outer(f(inner_1(x_1), ..., inner_n(x_n)));
    # points where either side meets a pole are skipped.
    n, k, l = order
    f = build_solution(WebSpec.numeric(n, k, l)).f
    moved = transform(f, outer, inner[:n])
    rng = random.Random(seed)
    checked = 0
    for _ in range(100):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        try:
            expected = _apply(outer, f.evaluate([_apply(m, t) for m, t in zip(inner, x)]))
            got = moved.evaluate(x)
        except PoleError:
            continue
        assert got == expected, x
        checked += 1
        if checked == 3:
            break
    assert checked == 3


# -- structural properties ------------------------------------------------------------------


def test_structural_properties_nondegenerate():
    checks = structural_properties(WebSpec.numeric(4, 2, 1))
    assert all(c.ok for c in checks)
    assert [c.name for c in checks] == ["homogeneous", "degree-gap", "coefficient-sums",
                                        "interpolation-identity"]


def test_structural_properties_take_the_minors_once(monkeypatch):
    # The leading pair and the interpolation identity read one list of minors,
    # so a perturbed minor shows in the fourth check.
    spec = WebSpec.numeric(4, 1, 2)
    minors = signed_minors(spec)
    perturbed = list(minors)
    perturbed[0] = perturbed[0] + MultiPoly.one(spec.n_vars)
    calls = []

    def counted(_spec, *args):
        calls.append(args)
        return perturbed

    monkeypatch.setattr(webs, "signed_minors", counted)
    checks = structural_properties(spec)
    assert calls == [()]
    assert [c.ok for c in checks] == [True, True, True, False]


def test_structural_properties_degenerate_orders():
    # At k = 0 or l = 0 the corresponding coefficient sum is provably
    # nonzero (a Vandermonde), and the checker expects exactly that.
    for spec in (WebSpec.numeric(4, 3, 0), WebSpec.numeric(4, 0, 3)):
        checks = structural_properties(spec)
        assert all(c.ok for c in checks), [(c.name, c.detail) for c in checks]
