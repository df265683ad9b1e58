"""Interpolation matrices, coefficient extraction, and the elimination oracle."""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hirotaweb import (DegenerateInterpolantError, DimensionError, InexactNumberError,
                       MultiPoly, PoleError,
                       RationalFunction, WebSpec, WebSpecError,
                       cauchy_interpolant, evaluate_interpolant,
                       highest_coefficients, interpolant_matches_oracle,
                       interpolation_check, maximal_minors,
                       random_numeric_instances, row_matrix, signed_minors,
                       solve_oracle)
from hirotaweb import interpolation
from hirotaweb.cli import EXIT_CONFIG, EXIT_OK, main
from hirotaweb.polynomials import _tighten
from reference_forms import closed_form_3d, common_scalar
from reference_interpolation import (build_system_matrix, normalized_interpolant,
                                     point_coefficients, row_matrix_products,
                                     solve_oracle_fractions, top_coefficients)
import reference_interpolation
import reference_polynomials
from reference_polynomials import cofactor_determinant, cofactor_signed_minors


def test_spec_validation():
    with pytest.raises(WebSpecError):
        WebSpec(3, 1, 0)                 # k + l + 1 != n
    with pytest.raises(WebSpecError):
        WebSpec.numeric(3, 1, 1, [1, 1, 2])   # repeated nodes
    with pytest.raises(WebSpecError):
        WebSpec(1, 0, 0)


def test_spec_nodes_take_their_number_form_once():
    # An integral node is kept as an int, any other as a Fraction, so no
    # route converts the nodes again; value, equality, hash and text are
    # those of the Fractions given.
    spec = WebSpec(3, 1, 1, (Fraction(2), "1/2", -3))
    assert [type(v) for v in spec.lambdas] == [int, Fraction, int]
    assert spec.lambdas == (2, Fraction(1, 2), -3)
    assert [type(v) for v in WebSpec.numeric(3, 1, 1).lambdas] == [int] * 3
    given = WebSpec(3, 1, 1, tuple(map(Fraction, (1, 2, 3))))
    assert given == WebSpec.numeric(3, 1, 1) and hash(given) == hash(WebSpec.numeric(3, 1, 1))
    assert spec.describe() == "n=3 k=1 l=1 nodes=2,1/2,-3"


def test_denominator_top_matrix_three_nodes():
    spec = WebSpec.numeric(3, 1, 1)
    m = build_system_matrix(spec, "Q-top")
    x = [MultiPoly.variable(3, i) for i in range(3)]
    one = MultiPoly.one(3)
    assert m == [
        [one, one, -x[0]],
        [one, 2 * one, -x[1]],
        [one, 3 * one, -x[2]],
    ]


def test_numerator_top_matrix_three_nodes():
    spec = WebSpec.numeric(3, 1, 1)
    m = build_system_matrix(spec, "P-top")
    x = [MultiPoly.variable(3, i) for i in range(3)]
    one = MultiPoly.one(3)
    assert m == [
        [one, -x[0], -x[0]],
        [one, -x[1], -2 * x[1]],
        [one, -x[2], -3 * x[2]],
    ]


def test_full_numerator_matrix_two_nodes_with_parameter_row():
    spec = WebSpec.numeric(2, 1, 0, [0, 1])
    m = build_system_matrix(spec, "P-full")
    # ring gains one trailing parameter variable
    x1, x2, t = (MultiPoly.variable(3, i) for i in range(3))
    one, zero = MultiPoly.one(3), MultiPoly.zero(3)
    assert m == [
        [one, zero, -x1],
        [one, one, -x2],
        [one, t, zero],
    ]


def test_highest_coefficients_three_nodes_numeric():
    spec = WebSpec.numeric(3, 1, 1)
    p_top, q_top = highest_coefficients(spec)
    x = [MultiPoly.variable(3, i) for i in range(3)]
    assert p_top == x[0] * x[1] - 2 * x[0] * x[2] + x[1] * x[2]
    assert q_top == -x[0] + 2 * x[1] - x[2]


def test_highest_coefficients_match_symbolic_closed_form():
    spec = WebSpec.symbolic(3, 1, 1)
    p_top, q_top = highest_coefficients(spec)
    known_p, known_q = closed_form_3d()
    assert RationalFunction(p_top, q_top) == RationalFunction(known_p, known_q)
    assert common_scalar(p_top, q_top, known_p, known_q) == -1


ALL_ORDERS = ([WebSpec.numeric(n, k, n - 1 - k)
               for n in range(2, 7) for k in range(n)]
              + [WebSpec.symbolic(n, k, n - 1 - k)
                 for n in range(2, 6) for k in range(n)])


@pytest.mark.parametrize("spec", ALL_ORDERS, ids=lambda s: s.describe())
def test_highest_coefficients_are_signed_top_determinants(spec):
    # The leading coefficients come from the row matrix's minors at columns
    # k and n; the oracle expands the separate P-top and Q-top matrices.
    p_top, q_top = highest_coefficients(spec)
    assert (p_top, q_top) == top_coefficients(spec)
    every = signed_minors(spec)
    assert (p_top, q_top) == (every[spec.k], every[spec.n])
    assert signed_minors(spec, (spec.n, 0)) == [every[spec.n], every[0]]


# -- the closed form of the signed minors -------------------------------------------


_node_numbers = st.one_of(st.integers(-4, 4), st.just(0),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4))
CLOSED_FORM_ORDERS = [(n, k) for n in range(2, 8) for k in range(n)]


@pytest.mark.parametrize("n,k", CLOSED_FORM_ORDERS,
                         ids=[f"n{n}k{k}" for n, k in CLOSED_FORM_ORDERS])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_closed_form_minors_match_the_cofactor_oracle(n, k, data):
    # Integer nodes, nodes with zero, mixed signs and non-integer rationals:
    # symmetric pairs such as -1, 1 make some e_m of a row subset vanish.
    lambdas = data.draw(st.one_of(
        st.lists(_node_numbers, min_size=n, max_size=n, unique=True),
        st.just([(-1) ** i * (i // 2) for i in range(1, n + 1)])), label="nodes")
    spec = WebSpec.numeric(n, k, n - 1 - k, lambdas)
    minors = signed_minors(spec)
    assert minors == cofactor_signed_minors(spec)
    assert all(type(c) is int or c.denominator > 1
               for minor in minors for c in minor.terms.values())
    assert interpolation_check(spec)


@pytest.mark.parametrize("n,k", [(n, k) for n, k in CLOSED_FORM_ORDERS if n <= 6],
                         ids=[f"n{n}k{k}" for n, k in CLOSED_FORM_ORDERS if n <= 6])
def test_closed_form_symbolic_minors_match_the_cofactor_oracle(n, k):
    spec = WebSpec.symbolic(n, k, n - 1 - k)
    assert signed_minors(spec) == cofactor_signed_minors(spec)
    assert interpolation_check(spec)


@pytest.mark.parametrize("n", range(2, 7))
def test_closed_form_structure(n):
    # Symbolic minors are exactly n! monomials with coefficients +-1.  With
    # numeric nodes P_k has C(n, l+1) terms and Q_l has C(n, l); a lower
    # coefficient can only lose terms, and does where an e_m of the nodes
    # vanishes (the zero node alone, or the pair 1, -1).  Every minor is
    # multilinear in x, of x-degree l + 1 in the numerator and l in the
    # denominator.
    lost = 0
    for k in range(n):
        l = n - 1 - k
        for spec in (WebSpec.symbolic(n, k, l),
                     WebSpec.numeric(n, k, l, [0, 1, -1, Fraction(1, 2), 3, -5][:n])):
            minors = signed_minors(spec)
            for c, minor in enumerate(minors):
                size = l + 1 if c <= k else l
                x_parts = [exps[:n] for exps in minor.terms]
                assert all(set(x) <= {0, 1} and sum(x) == size for x in x_parts), c
                if spec.is_symbolic:
                    assert len(minor.terms) == math.factorial(n), c
                    assert set(minor.terms.values()) <= {1, -1}, c
                else:
                    assert len(set(x_parts)) == len(x_parts) <= math.comb(n, size), c
                    lost += math.comb(n, size) - len(x_parts)
            if not spec.is_symbolic:
                assert len(minors[k].terms) == math.comb(n, l + 1)
                assert len(minors[n].terms) == math.comb(n, l)
    assert lost > 0


def test_closed_form_column_choices():
    # Any column list, repeats included, reads the same entries as the full
    # list; a column outside 0..n is refused.
    for spec in (WebSpec.numeric(5, 2, 2), WebSpec.symbolic(4, 1, 2)):
        every = signed_minors(spec)
        for columns in ((spec.n, 0), (2, 2, 4), ()):
            assert signed_minors(spec, columns) == [every[c] for c in columns]
        with pytest.raises(DimensionError):
            signed_minors(spec, (spec.n + 1,))


def test_one_writer_serves_both_node_kinds(monkeypatch):
    # Every signed minor, at numeric and at symbolic nodes alike, comes from
    # the one closed-form writer, one call per block of columns: a second
    # writer for either node kind would leave its count at zero.
    genuine = interpolation._block
    calls = {"numeric": 0, "symbolic": 0}

    def counted(n, nodes, *args):
        calls["symbolic" if nodes is None else "numeric"] += 1
        return genuine(n, nodes, *args)

    monkeypatch.setattr(interpolation, "_block", counted)
    for spec in (WebSpec.numeric(4, 1, 2, [3, -1, 0, 5]), WebSpec.symbolic(4, 1, 2)):
        assert signed_minors(spec) == cofactor_signed_minors(spec)
    assert calls == {"numeric": 2, "symbolic": 2}


def test_lagrange_degeneration():
    # l = 0: the denominator's only coefficient is the node Vandermonde,
    # a nonzero constant, and the solution becomes polynomial.
    spec = WebSpec.numeric(3, 2, 0)
    p_top, q_top = highest_coefficients(spec)
    assert q_top.is_constant and not q_top.is_zero
    assert q_top.constant_value() == Fraction(2)  # (2-1)(3-1)(3-2)


def test_lagrange_denominator_is_vandermonde_symbolically():
    spec = WebSpec.symbolic(4, 3, 0)
    minors = signed_minors(spec)
    q0 = minors[4]
    _, node = __import__("reference_forms").xl_ring(4)
    vandermonde = MultiPoly.one(8)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            vandermonde = vandermonde * (node(j) - node(i))
    assert q0 == vandermonde


def test_interpolant_normalized_at_data_point():
    spec = WebSpec.numeric(3, 1, 1)
    interp = cauchy_interpolant(spec, x_values=[1, 2, 5])
    assert interp.p_coeffs == (Fraction(1, 2), Fraction(1, 4))
    assert interp.q_coeffs == (1, Fraction(-1, 4))
    assert all(type(c) in (int, Fraction) for c in interp.p_coeffs + interp.q_coeffs)


def test_interpolant_identity_data():
    spec = WebSpec.numeric(3, 1, 1)
    interp = cauchy_interpolant(spec, x_values=[1, 2, 3])
    assert interp.p_coeffs == (0, 1) and interp.q_coeffs == (1, 0)


def test_interpolant_unattainable_point():
    # The linear system solves, but numerator and denominator share the
    # root at node 3, so the normalized interpolant does not exist.
    spec = WebSpec.numeric(3, 1, 1)
    with pytest.raises(DegenerateInterpolantError):
        cauchy_interpolant(spec, x_values=[1, 1, 2])
    p0, p1, q1 = solve_oracle(spec, [1, 1, 2])
    assert (p0, p1, q1) == (1, Fraction(-1, 3), Fraction(-1, 3))
    assert 1 + q1 * 3 == 0  # the shared root at node 3


@pytest.mark.parametrize("spec", [WebSpec.numeric(3, 1, 1), WebSpec.numeric(4, 0, 3),
                                  WebSpec.symbolic(3, 2, 0)], ids=WebSpec.describe)
def test_interpolant_without_data_holds_the_signed_minors(spec):
    interp = cauchy_interpolant(spec)
    assert len(interp.p_coeffs) == spec.k + 1 and len(interp.q_coeffs) == spec.l + 1
    assert list(interp.p_coeffs + interp.q_coeffs) == signed_minors(spec)


@pytest.mark.parametrize("spec", [
    WebSpec.numeric(3, 1, 1),
    WebSpec.numeric(4, 2, 1),
    WebSpec.numeric(2, 1, 0, [0, 1]),
    WebSpec.symbolic(3, 1, 1),
    WebSpec.symbolic(4, 1, 2),
])
def test_interpolation_identity(spec):
    assert interpolation_check(spec)


@pytest.mark.parametrize("spec", [
    WebSpec.numeric(4, 1, 2),
    WebSpec.numeric(5, 2, 2, [0, -1, 2, Fraction(1, 2), 3]),
    WebSpec.symbolic(4, 2, 1),
    WebSpec.symbolic(5, 0, 4),
], ids=WebSpec.describe)
def test_interpolation_identity_fails_on_a_minor_off_by_one_term(spec):
    # Each row is one pass over all n + 1 maps: dropping one term of one
    # minor, doubling it, adding a term it lacks or flipping the minor's
    # sign leaves that term (or the minor) times a nonzero row entry
    # uncancelled.
    minors = interpolation._minor_maps(spec)
    assert interpolation._interpolation_identity(spec, minors)
    rng = random.Random(spec.describe())
    for column, minor in enumerate(minors):
        key, coeff = rng.choice(sorted(minor.items()))
        absent = next(e for e in itertools.product(range(3), repeat=spec.n_vars)
                      if int.from_bytes(bytes(e), "little") not in minor)
        dropped = {other: c for other, c in minor.items() if other != key}
        for perturbed_minor in (dropped, {**minor, key: 2 * coeff},
                                {**minor, int.from_bytes(bytes(absent), "little"): 1},
                                {other: -c for other, c in minor.items()}):
            perturbed = minors[:column] + [perturbed_minor] + minors[column + 1:]
            assert not interpolation._interpolation_identity(spec, perturbed), column


@pytest.mark.parametrize(
    "spec",
    [WebSpec.numeric(n, k, n - 1 - k) for n in (3, 4, 5) for k in range(n)]
    + [WebSpec.symbolic(3, k, 2 - k) for k in range(3)],
    ids=WebSpec.describe)
def test_interpolation_check_rejects_a_perturbed_minor(spec, monkeypatch):
    # interpolation_check reads the maps of the one writer: the minor plus 1
    # (its constant key 0 raised by 1) fails the identity.
    minors = interpolation._minor_maps(spec)
    for column in range(spec.n + 1):
        perturbed = list(minors)
        perturbed[column] = {**minors[column], 0: minors[column].get(0, 0) + 1}
        monkeypatch.setattr(interpolation, "_minor_maps",
                            lambda _spec, minors=perturbed: minors)
        assert not interpolation_check(spec), column


_IDENTITY_NODES = {"integer": [3, -1, 4, 1, 5, 9], "zero": [0, 2, -3, 1, 5, -4],
                   "rational": [Fraction(1, 2), -2, Fraction(3, 4), 5, Fraction(-7, 5), 2]}


@pytest.mark.parametrize("node_class", [None] + sorted(_IDENTITY_NODES))
@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 7) for k in range(n)])
def test_interpolation_identity_is_the_kernel_identity(n, k, node_class):
    # The identity on the writer's maps and the kernel's sums of products
    # on the decoded minors give one verdict, a pass, on every order with
    # n <= 6 at every node class; the decoded maps are signed_minors'.
    lambdas = None if node_class is None else tuple(_IDENTITY_NODES[node_class][:n])
    spec = WebSpec(n, k, n - 1 - k, lambdas)
    minors = interpolation._minor_maps(spec)
    decoded = [interpolation._decoded(spec.n_vars, m) for m in minors]
    assert decoded == signed_minors(spec)
    assert interpolation._interpolation_identity(spec, minors) is True
    assert reference_interpolation.kernel_identity(spec, decoded) is True


_identity_specs = st.sampled_from(
    [WebSpec(n, k, n - 1 - k, lambdas) for n in (2, 3, 4) for k in range(n)
     for lambdas in (None, tuple(_IDENTITY_NODES["zero"][:n]),
                     tuple(_IDENTITY_NODES["rational"][:n]))])


@settings(max_examples=150, deadline=None)
@given(_identity_specs, st.data())
def test_interpolation_identity_matches_the_kernel_on_drawn_maps(spec, data):
    # Each minor's map with drawn coefficients added at drawn keys, of
    # exponents up to 2 in every variable (a sum of 0 drops the key): the
    # two identities give one verdict, True where every change cancels.
    coefficients = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    exponents = st.lists(st.integers(0, 2), min_size=spec.n_vars, max_size=spec.n_vars)
    minors = []
    for minor in interpolation._minor_maps(spec):
        minor = dict(minor)
        for exps, coeff in data.draw(st.lists(st.tuples(exponents, coefficients), max_size=3)):
            key = int.from_bytes(bytes(exps), "little")
            minor[key] = minor.get(key, 0) + coeff
        minors.append({key: _tighten(c) for key, c in minor.items() if c})
    decoded = [interpolation._decoded(spec.n_vars, m) for m in minors]
    assert (interpolation._interpolation_identity(spec, minors)
            == reference_interpolation.kernel_identity(spec, decoded))


def test_solve_oracle_examples():
    spec = WebSpec.numeric(3, 1, 1)
    assert solve_oracle(spec, [1, 2, 5]) == (Fraction(1, 2), Fraction(1, 4), Fraction(-1, 4))
    assert solve_oracle(spec, [1, 2, 3]) == (0, 1, 0)
    c = Fraction(7, 3)
    assert solve_oracle(spec, [c, c, c]) == (c, 0, 0)


_oracle_numbers = st.one_of(st.integers(-3, 3),
                           st.fractions(min_value=-2, max_value=2, max_denominator=4))


@st.composite
def _oracle_instance(draw):
    """A spec with n in 2..6 and distinct integer, zero or rational nodes,
    with data that is arbitrary or constant (a rank-deficient but consistent
    system); small values make singular systems frequent."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(0, n - 1))
    nodes = draw(st.lists(_oracle_numbers, min_size=n, max_size=n, unique=True))
    data = draw(st.one_of(st.lists(_oracle_numbers, min_size=n, max_size=n),
                          _oracle_numbers.map(lambda c: [c] * n)))
    return WebSpec.numeric(n, k, n - 1 - k, nodes), data


@settings(max_examples=300, deadline=None)
@given(_oracle_instance())
@example((WebSpec.numeric(2, 0, 1, [1, 2]), [2, 1]))       # inconsistent
@example((WebSpec.numeric(3, 1, 1, [0, Fraction(1, 2), -1]),
          [Fraction(5, 3)] * 3))                           # rank deficient
def test_integer_oracle_matches_fraction_elimination(instance):
    # The integer Gauss-Jordan oracle returns the same Fractions as the
    # Fraction elimination, free unknowns at zero, and raises the same error
    # on an inconsistent system.
    spec, xs = instance
    try:
        expected = solve_oracle_fractions(spec, xs)
    except DegenerateInterpolantError as exc:
        with pytest.raises(DegenerateInterpolantError, match=str(exc)):
            solve_oracle(spec, xs)
        return
    solution = solve_oracle(spec, xs)
    assert solution == expected
    assert all(type(v) is Fraction for v in solution)


def test_integer_oracle_covers_consistent_and_inconsistent_singular_systems():
    # Nodes 1, 2 with data 2, 1: the rows [1, -2 | 2] and [1, -2 | 1] clash.
    with pytest.raises(DegenerateInterpolantError, match="singular"):
        solve_oracle(WebSpec.numeric(2, 0, 1, [1, 2]), [2, 1])
    # Constant data leaves the q unknowns free; they are set to zero.
    spec = WebSpec.numeric(4, 1, 2, [0, Fraction(1, 2), -3, 5])
    c = Fraction(-7, 4)
    assert solve_oracle(spec, [c] * 4) == (c, 0, 0, 0)
    assert solve_oracle_fractions(spec, [c] * 4) == (c, 0, 0, 0)


def _fraction_verdict(spec, xs, oracle_xs):
    """``cauchy_interpolant`` at ``xs`` compared with the Fraction
    elimination at ``oracle_xs``, or the message of the first degeneracy,
    the determinant route's first."""
    try:
        interp = cauchy_interpolant(spec, xs)
        expected = solve_oracle_fractions(spec, oracle_xs)
    except DegenerateInterpolantError as exc:
        return str(exc)
    return interp.p_coeffs + interp.q_coeffs[1:] == expected


def _integer_verdict(spec, xs):
    try:
        return interpolant_matches_oracle(spec, xs)
    except DegenerateInterpolantError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_oracle_instance())
@example((WebSpec.numeric(3, 0, 2), [-1, 0, 0]))           # q0 = 0
@example((WebSpec.numeric(3, 1, 1), [1, 1, 2]))            # unattainable
@example((WebSpec.numeric(2, 0, 1, [1, 2]), [2, 1]))       # q0 = 0, inconsistent
@example((WebSpec.numeric(4, 1, 2, [0, Fraction(1, 2), -3, 5]),
          [Fraction(-7, 4)] * 4))                          # constant data, q0 = 0
@example((WebSpec.numeric(5, 2, 2, [0, -1, 2, -3, 4]), [3, -2, 0, 5, -1]))
def test_integer_verdict_equals_the_fraction_comparison(instance):
    # Cross-multiplying the point minors with the elimination's int pairs
    # gives the verdict of comparing the two routes' Fractions, and a
    # degenerate point raises the same error with the same message.
    spec, xs = instance
    assert _integer_verdict(spec, xs) == _fraction_verdict(spec, xs, xs)


@settings(max_examples=300, deadline=None)
@given(_oracle_instance(), st.data())
def test_integer_verdict_sees_a_disagreement(instance, data):
    # With the elimination fed other data of the same length (often
    # constant, so some unknowns are free), or with one minor other than q0
    # moved by one, the verdict is the Fraction comparison of the two
    # routes, False wherever the values differ.
    spec, xs = instance
    other = data.draw(st.one_of(
        st.just(xs), st.lists(_oracle_numbers, min_size=spec.n, max_size=spec.n),
        _oracle_numbers.map(lambda c: [c] * spec.n)))
    bump = data.draw(st.one_of(st.none(), st.integers(0, spec.n).filter(
        lambda c: c != spec.k + 1)))
    eliminate, minors = interpolation._oracle_pairs, interpolation._point_minors

    def bumped(spec, xs):
        out = minors(spec, xs)
        if bump is not None:
            out[bump] += 1
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interpolation, "_oracle_pairs",
                      lambda spec, _xs: eliminate(spec, other))
        patch.setattr(interpolation, "_point_minors", bumped)
        assert _integer_verdict(spec, xs) == _fraction_verdict(spec, xs, other)


def test_the_integer_verdict_builds_no_fraction(monkeypatch):
    # At integer nodes and data neither route nor the comparison builds a
    # Fraction, constant data included; solve_oracle still returns
    # Fractions, built from the same pairs.
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    instances = [(WebSpec.numeric(5, k, 4 - k, [3, -1, 0, 7, -5]), data)
                 for k in range(5) for data in ([2, -3, 5, 1, 9], [4] * 5)]
    expected = [_fraction_verdict(spec, xs, xs) for spec, xs in instances]
    assert expected.count(True) == 7     # constant data makes q0 vanish for k = 1..3
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(refuse))
        assert [_integer_verdict(spec, xs) for spec, xs in instances] == expected
        with pytest.raises(AssertionError, match="a Fraction was built"):
            solve_oracle(*instances[0])


def test_point_minors_never_expand_cofactors(monkeypatch):
    # No library module expands cofactors: the cofactor expansion lives in
    # the tests as an oracle, and the library refuses polynomial matrices.
    # With that oracle patched to raise and every polynomial product, sum
    # and difference refused, the numeric minors (the point interpolant and
    # the oracle at n = 16) and the closed-form signed_minors still finish.
    for path in Path(interpolation.__file__).parent.glob("*.py"):
        assert "_det_cofactor" not in path.read_text(encoding="utf-8"), path.name

    def refuse(*args, **kwargs):
        raise AssertionError("polynomial arithmetic in a minor")

    monkeypatch.setattr(reference_polynomials, "_det_cofactor", refuse)
    spec = WebSpec.numeric(4, 1, 2, [3, -1, Fraction(1, 2), 0])
    interp = cauchy_interpolant(spec, x_values=[2, Fraction(-3, 5), 7, 1])
    assert list(interp.p_coeffs + interp.q_coeffs[1:]) == list(
        solve_oracle(spec, [2, Fraction(-3, 5), 7, 1]))
    assert main(["oracle", "--n", "16", "--k", "8", "--l", "7",
                 "--trials", "10", "--seed", "1"]) == EXIT_OK
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    for spec in (WebSpec.numeric(5, 2, 2), WebSpec.symbolic(5, 2, 2)):
        assert len(signed_minors(spec)) == 6
    with pytest.raises(AssertionError, match="polynomial arithmetic"):
        reference_polynomials.cofactor_signed_minors(WebSpec.numeric(3, 1, 1))


def test_oracle_refuses_more_nodes_than_the_sampling_range_holds(capsys):
    # Distinct nodes are drawn from the 2 * bound + 1 integers in
    # [-bound, bound]; more nodes than that could never be drawn, and the
    # call itself refuses, before any instance is drawn.
    with pytest.raises(WebSpecError, match="41 integers"):
        random_numeric_instances(42, 20, 21, 1, seed=0)
    with pytest.raises(WebSpecError, match="5 integers"):
        random_numeric_instances(6, 2, 3, 1, seed=0, bound=2)
    start = time.perf_counter()
    assert main(["oracle", "--n", "42", "--k", "20", "--l", "21"]) == EXIT_CONFIG
    assert time.perf_counter() - start < 0.5
    assert "41 integers" in capsys.readouterr().err


@pytest.mark.parametrize("count, bound, error, match", [
    (1, 2.0, InexactNumberError, "float bound"),
    (1.5, 20, InexactNumberError, "float count"),
    (-1, 20, WebSpecError, "negative instance count -1"),
])
def test_random_instances_refuse_bad_arguments_at_the_call(count, bound, error, match):
    # The call itself checks, before any instance is drawn: no next() needed.
    with pytest.raises(error, match=match):
        random_numeric_instances(3, 1, 1, count, seed=0, bound=bound)


def test_random_instances_of_count_zero_draw_nothing():
    assert list(random_numeric_instances(3, 1, 1, 0, seed=0)) == []


def test_evaluate_interpolant():
    spec = WebSpec.numeric(3, 1, 1)
    interp = cauchy_interpolant(spec, x_values=[1, 2, 5])
    assert evaluate_interpolant(interp, 0) == Fraction(1, 2)
    assert evaluate_interpolant(interp, 2) == 2
    with pytest.raises(PoleError):
        evaluate_interpolant(interp, 4)


def test_evaluate_interpolant_symbolic_data():
    # With symbolic data the value is a rational function of the coordinates:
    # F(node_i) must come out as x_i.
    spec = WebSpec.numeric(3, 1, 1)
    interp = cauchy_interpolant(spec)
    f_at_node = evaluate_interpolant(interp, 2)
    assert f_at_node == RationalFunction(MultiPoly.variable(3, 1))


def test_unnormalized_top_coefficients_consistent():
    for spec in (WebSpec.numeric(4, 2, 1), WebSpec.symbolic(3, 1, 1),
                 WebSpec.numeric(5, 2, 2)):
        interp = cauchy_interpolant(spec)
        p_top, q_top = highest_coefficients(spec)
        assert interp.p_coeffs[spec.k] == p_top
        assert interp.q_coeffs[spec.l] == q_top


@pytest.mark.parametrize("n,k,l", [(3, 1, 1), (4, 2, 1), (5, 2, 2), (5, 3, 1)])
def test_leading_coefficient_degrees_and_sums(n, k, l):
    spec = WebSpec.numeric(n, k, l)
    p_top, q_top = highest_coefficients(spec)
    assert p_top.homogeneous_degree() == l + 1
    assert q_top.homogeneous_degree() == l
    ones = [Fraction(1)] * n
    assert p_top.evaluate(ones) == 0
    if l >= 1:
        assert q_top.evaluate(ones) == 0


def test_oracle_equivalence_on_random_instances():
    for spec, xs, matched in random_numeric_instances(4, 2, 1, count=25, seed=11):
        assert matched, (spec.describe(), xs)
    for spec, xs, matched in random_numeric_instances(3, 0, 2, count=25, seed=12):
        assert matched, (spec.describe(), xs)


def _coefficients_in_last_variable(poly):
    """Split a polynomial by powers of its last ring variable, returning the
    coefficient polynomials in the ring without that variable."""
    n = poly.n_vars
    buckets = {}
    for exps, coeff in poly.terms.items():
        buckets.setdefault(exps[-1], {})[exps[:-1]] = coeff
    top = max(buckets) if buckets else 0
    return [MultiPoly(n - 1, buckets.get(j, {})) for j in range(top + 1)]


@pytest.mark.parametrize("spec", [WebSpec.numeric(3, 1, 1),
                                  WebSpec.numeric(4, 1, 2),
                                  WebSpec.symbolic(3, 2, 0)])
def test_minor_extraction_agrees_with_full_determinants(spec):
    # The coefficient lists must equal the full (n+1) x (n+1) determinants
    # expanded in powers of the trailing parameter variable.
    minors = signed_minors(spec)
    p_det = cofactor_determinant(build_system_matrix(spec, "P-full"))
    q_det = cofactor_determinant(build_system_matrix(spec, "Q-full"))
    p_coeffs = _coefficients_in_last_variable(p_det)
    q_coeffs = _coefficients_in_last_variable(q_det)
    for j, expected in enumerate(minors[:spec.k + 1]):
        assert p_coeffs[j] == expected, ("P", j)
    for j, expected in enumerate(minors[spec.k + 1:]):
        assert q_coeffs[j] == expected, ("Q", j)


def test_full_matrix_with_numeric_parameter():
    # Pinning the parameter to a node value makes the full determinant
    # vanish after the data row substitution P(node_i) = x_i Q(node_i);
    # check instead at a fresh value against the coefficient lists.
    spec = WebSpec.numeric(3, 1, 1)
    minors = signed_minors(spec)
    at = Fraction(7, 2)
    p_det = cofactor_determinant(build_system_matrix(spec, "P-full", param=at))
    expected = MultiPoly.zero(3)
    for j in range(spec.k + 1):
        expected = expected + minors[j] * at ** j
    assert p_det == expected


def test_evaluate_symbolic_interpolant_at_data_point():
    # F(0) = p_0/q_0 from the symbolic minors evaluated at the data point
    # matches the interpolant built at that point.
    spec = WebSpec.numeric(3, 1, 1)
    values = point_coefficients(spec, [1, 2, 5])
    normalized = cauchy_interpolant(spec, x_values=[1, 2, 5])
    assert values[0] / values[spec.k + 1] == evaluate_interpolant(normalized, Fraction(0))


# -- sympy as an independent oracle ------------------------------------------------


def _to_sympy(sympy, poly, symbols):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s ** e for s, e in zip(symbols, exps)])
                       for exps, c in poly.terms.items()])


def _sympy_terms(sympy, expr, symbols):
    """The exponent-tuple map of a sympy expression, Fraction coefficients."""
    terms = sympy.Poly(expr, *symbols).as_dict()
    return {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items() if c}


_SYMPY_SPECS = ([WebSpec(n, k, n - 1 - k) for n in (2, 3, 4) for k in range(n)]
                + [WebSpec.numeric(8, 3, 4, [-3, -1, 0, Fraction(1, 2), 2, 4, 5, 7])])


@pytest.mark.parametrize("spec", _SYMPY_SPECS, ids=str)
def test_maximal_minors_match_sympy(spec):
    # sympy is a test-only dependency: each column deletion of the row
    # matrix is converted to a sympy matrix and its determinant taken over
    # sympy's own polynomial domain; signed, it is the closed-form minor.
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(f"v0:{spec.n_vars}")
    rows = [[_to_sympy(sympy, entry, symbols) for entry in row] for row in row_matrix(spec)]
    for c, minor in enumerate(signed_minors(spec)):
        dm = sympy.Matrix([row[:c] + row[c + 1:] for row in rows]).to_DM()
        det = dm.domain.to_sympy(dm.det()) * (-1) ** (spec.n + c)
        assert _sympy_terms(sympy, det, symbols) == minor.terms, c


# -- the interpolant at a data point ---------------------------------------------


def _library_coefficients(spec, xs):
    """The coefficients of ``cauchy_interpolant`` at a data point, or the
    kind of DegenerateInterpolantError it raises."""
    try:
        interp = cauchy_interpolant(spec, x_values=xs)
    except DegenerateInterpolantError as exc:
        return _degeneracy(exc)
    assert len(interp.p_coeffs) == spec.k + 1 and len(interp.q_coeffs) == spec.l + 1
    assert all(type(c) in (int, Fraction) for c in interp.p_coeffs + interp.q_coeffs)
    assert interp.q_coeffs[0] == 1
    return list(interp.p_coeffs + interp.q_coeffs)


def _reference_coefficients(spec, xs):
    try:
        return point_coefficients(spec, xs, normalize=True)
    except DegenerateInterpolantError as exc:
        return _degeneracy(exc)


def _point_minors(spec, xs):
    """The signed maximal minors of the row matrix at a data point: entry c
    is (-1)^(n+c) times the minor without column c."""
    minors = maximal_minors(row_matrix(spec, xs))
    return [m if (spec.n + c) % 2 == 0 else -m for c, m in enumerate(minors)]


def _degeneracy(exc):
    text = str(exc)
    assert ("constant term" in text) != ("unattainable" in text), text
    return "q0 = 0" if "constant term" in text else "unattainable"


_numbers = st.one_of(st.integers(-4, 4), st.just(0),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))
ORDERS = [(n, k) for n in range(2, 6) for k in range(n)]


@pytest.mark.parametrize("n,k", ORDERS, ids=[f"n{n}k{k}" for n, k in ORDERS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_point_coefficients_match_the_symbolic_route(n, k, data):
    # Nodes and data are integers, contain zeros, or are non-integer
    # rationals; small ranges make both degenerate cases frequent.
    lambdas = data.draw(st.lists(_numbers, min_size=n, max_size=n, unique=True))
    xs = data.draw(st.lists(_numbers, min_size=n, max_size=n))
    spec = WebSpec.numeric(n, k, n - k - 1, lambdas)
    # The unnormalized minors agree on every instance, including those
    # where q_0 vanishes and the normalized route raises.
    assert _point_minors(spec, xs) == point_coefficients(spec, xs, normalize=False)
    assert _library_coefficients(spec, xs) == _reference_coefficients(spec, xs)


def test_point_coefficients_degenerate_in_the_same_cases():
    # Every data point in {-1, 0, 1, 2}^n at two node sets, every order for
    # n = 2..4: both degeneracies occur, and exactly where the symbolic
    # route has them.
    seen = set()
    for n in (2, 3, 4):
        for lambdas in (range(n), [Fraction(1, 2), -3, Fraction(5, 3), 2][:n]):
            for k in range(n):
                spec = WebSpec.numeric(n, k, n - k - 1, lambdas)
                for xs in itertools.product((-1, 0, 1, 2), repeat=n):
                    ours = _library_coefficients(spec, xs)
                    assert ours == _reference_coefficients(spec, xs)
                    if isinstance(ours, str):
                        seen.add(ours)
    assert seen == {"q0 = 0", "unattainable"}


def test_numeric_row_matrix_holds_ints_where_integral():
    spec = WebSpec.numeric(3, 1, 1, [2, Fraction(1, 2), -1])
    rows = row_matrix(spec, [Fraction(4), Fraction(-6, 3), Fraction(1, 3)])
    assert rows == [[1, 2, -4, -8],
                    [1, Fraction(1, 2), 2, 1],
                    [1, -1, Fraction(-1, 3), Fraction(1, 3)]]
    assert all(type(v) is int for row in rows for v in row if v.denominator == 1)


def _interpolant_or_error(route, spec, xs):
    try:
        return route(spec, xs)
    except DegenerateInterpolantError as exc:
        return str(exc)


@st.composite
def _point_instance(draw):
    """A spec with n in 2..5 and distinct integer, zero or rational nodes,
    with integer, zero or rational data; small ranges make both
    degeneracies frequent."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(0, n - 1))
    nodes = draw(st.lists(_numbers, min_size=n, max_size=n, unique=True))
    data = draw(st.lists(_numbers, min_size=n, max_size=n))
    return WebSpec.numeric(n, k, n - 1 - k, nodes), data


@settings(max_examples=300, deadline=None)
@given(_point_instance())
@example((WebSpec.numeric(3, 0, 2), [-1, 0, 0]))           # q0 = 0
@example((WebSpec.numeric(3, 1, 1), [1, 1, 2]))            # unattainable
def test_point_interpolant_matches_the_normalized_route(instance):
    # Attainability tested on the unnormalized minors gives the same
    # coefficients, and the same error with the same message, as the route
    # that normalizes first.
    spec, xs = instance
    ours = _interpolant_or_error(cauchy_interpolant, spec, xs)
    assert ours == _interpolant_or_error(normalized_interpolant, spec, xs)
    if not isinstance(ours, str):
        assert all(type(c) is Fraction for c in ours.p_coeffs + ours.q_coeffs)


def test_point_interpolant_degeneracies_keep_their_messages():
    with pytest.raises(DegenerateInterpolantError,
                       match="^denominator constant term vanishes at this data point$"):
        cauchy_interpolant(WebSpec.numeric(3, 0, 2), [-1, 0, 0])
    with pytest.raises(DegenerateInterpolantError,
                       match="^numerator and denominator share a root at node 3: "
                             "unattainable data point$"):
        cauchy_interpolant(WebSpec.numeric(3, 1, 1), [1, 1, 2])


def _assert_tight(entry):
    terms = entry.terms if isinstance(entry, MultiPoly) else {(): entry}
    for coeff in terms.values():
        assert coeff and type(coeff) in (int, Fraction), coeff
        assert type(coeff) is int or coeff.denominator > 1, coeff


@pytest.mark.parametrize("spec", [
    WebSpec.numeric(4, 1, 2), WebSpec.numeric(4, 2, 1, [0, -3, 5, 2]),
    WebSpec.numeric(3, 0, 2, [Fraction(1, 2), 0, Fraction(-4, 3)]),
    WebSpec.numeric(2, 1, 0, [0, 1]), WebSpec.symbolic(3, 1, 1), WebSpec.symbolic(4, 0, 3),
], ids=WebSpec.describe)
def test_row_matrix_entries_are_the_product_built_monomials(spec):
    rows = row_matrix(spec)
    assert rows == row_matrix_products(spec)
    for row in rows:
        for entry in row:
            assert isinstance(entry, MultiPoly) and len(entry) <= 1
            _assert_tight(entry)


@settings(max_examples=200, deadline=None)
@given(_point_instance())
def test_row_matrix_at_a_data_point_matches_the_product_built_one(instance):
    spec, xs = instance
    rows = row_matrix(spec, xs)
    assert rows == row_matrix_products(spec, xs)
    for row in rows:
        for entry in row:
            if entry:
                _assert_tight(entry)


def test_oracle_comparison_expands_no_polynomial(monkeypatch):
    # At a data point the minors are numbers: a polynomial product or any
    # nonconstant polynomial means the symbolic route came back.
    products, nonconstant = [0], []
    multiply, initialize = MultiPoly.__mul__, MultiPoly.__init__

    def counted(self, other):
        products[0] += 1
        return multiply(self, other)

    def watched(self, *args, **kwargs):
        initialize(self, *args, **kwargs)
        if not self.is_constant:
            nonconstant.append(self)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    monkeypatch.setattr(MultiPoly, "__init__", watched)
    n = 5
    for k in range(n):
        spec = WebSpec.numeric(n, k, n - k - 1, [3, -1, 4, 7, -5])
        products[0] = 0
        assert interpolant_matches_oracle(spec, [2, -3, 5, 1, 9])
        assert products[0] <= n
    assert not nonconstant


def test_random_instances_accept_what_the_symbolic_route_accepts():
    # The rejection sampling keeps exactly the instances whose symbolic
    # normalization and elimination succeed, in the order they are drawn;
    # data in [-2, 2] makes rejections frequent.
    rejected = 0
    for n, k, seed, bound in ((3, 1, 3, 2), (4, 1, 3, 2), (4, 0, 7, 2), (5, 2, 11, 20)):
        l = n - k - 1
        rng = random.Random(seed)
        expected = []
        while len(expected) < 12:
            lambdas = [rng.randint(-bound, bound) for _ in range(n)]
            if len(set(lambdas)) != n:
                continue
            xs = [Fraction(rng.randint(-bound, bound)) for _ in range(n)]
            spec = WebSpec.numeric(n, k, l, lambdas)
            try:
                point_coefficients(spec, xs, normalize=True)
                solve_oracle(spec, xs)
            except DegenerateInterpolantError:
                rejected += 1
                continue
            expected.append((spec, xs))
        drawn = random_numeric_instances(n, k, l, 12, seed, bound=bound)
        assert [(spec, xs) for spec, xs, _ in drawn] == expected
    assert rejected > 0
