"""The term walk (``polynomials._Catalog``) against the term-by-term renderers.

Every writer of the library (``poly_text`` in text and LaTeX,
``poly_to_json``, ``DifferentialForm.text`` and ``to_json``, and the CLI's
JSON writer) reads its terms from one walk over a catalog of decoded packed
keys; ``reference_text`` reads exponent tuples one term at a time.  The two
must agree byte for byte on polynomials held as exponent tuples and packed
at any width, and on the objects the commands print.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from hirotaweb import (DifferentialForm, MultiPoly, WebSpec, flatness_check, poly_text,
                       poly_to_json, signed_minors)
from hirotaweb import polynomials
from hirotaweb.cli import RunConfig, _json_text, execute, render

import reference_text
from test_webs import _NODE_CLASSES


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _held(n_vars: int, terms: dict, state: str, extra: int) -> MultiPoly:
    """The polynomial held as exponent tuples only, as its packed map only
    at ``extra`` bits more than its largest exponent needs, or built by the
    kernel and then read (both maps)."""
    poly = MultiPoly(n_vars, terms)
    if state == "tuples":
        return poly
    if state == "packed":
        top = poly._top_exponent()
        width = max(top.bit_length(), 1) + extra
        return MultiPoly._from_packed(n_vars, polynomials._pack(n_vars, poly.terms, width),
                                      width, top)
    both = poly * 1
    both.terms
    return both


_coefficients = (st.integers(-9, 9).filter(bool) | st.integers(-10 ** 30, 10 ** 30)
                 | st.fractions(max_denominator=12))
_states = st.sampled_from(("tuples", "packed", "both"))


@st.composite
def _polys(draw, min_vars=0):
    """Polynomials in 0..4 variables with exponents up to 12, held in any
    of the three ways."""
    n_vars = draw(st.integers(min_vars, 4))
    exponents = st.tuples(*[st.integers(0, 12) | st.integers(0, 2)] * n_vars)
    terms = draw(st.dictionaries(exponents, _coefficients, max_size=8))
    return _held(n_vars, terms, draw(_states), draw(st.integers(0, 2)))


def _names(n_vars: int):
    return st.none() | st.lists(st.text("ab +-^{}", min_size=1, max_size=3),
                                min_size=n_vars, max_size=n_vars)


def _spy(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(polynomials, name)
    monkeypatch.setattr(polynomials, name,
                        lambda *args: calls.append(args[1]) or original(*args))
    return calls


@settings(max_examples=300, deadline=None)
@given(_polys().flatmap(lambda poly: st.tuples(st.just(poly), _names(poly.n_vars))))
@example((MultiPoly.zero(0), None))
@example((MultiPoly.const(0, Fraction(-3, 4)), []))
def test_every_writer_walks_a_polynomial_as_the_term_by_term_renderer(case):
    poly, names = case
    held = poly._terms, poly._packed
    written = ([poly_text(poly, names, latex) for latex in (False, True)], poly.text(),
               poly_to_json(poly), _json_text({"p": [poly, {"q": poly}]}))
    # the writers neither packed nor unpacked it
    assert (poly._terms, poly._packed) == held
    expected = reference_text.poly_json(poly)
    assert written == ([reference_text.poly_text(poly, names, latex) for latex in (False, True)],
                       reference_text.poly_text(poly), expected,
                       _dumps({"p": [expected, {"q": expected}]}))


def test_walk_edge_cases():
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    half = Fraction(1, 2)
    cases = [
        (-x1 * x2 * half + x2 ** 11 - 3, "x2^11 - 1/2x1x2 - 3",
         "x_2^{11} - \\frac{1}{2}x_1x_2 - 3"),
        (-x2 ** 11 + x1, "-x2^11 + x1", "-x_2^{11} + x_1"),
        (x1 - x1, "0", "0"),
        ((x1 + x2) ** 2, "x1^2 + 2x1x2 + x2^2", "x_1^{2} + 2x_1x_2 + x_2^{2}"),
        (MultiPoly.const(2, Fraction(-7, 3)), "-7/3", "-\\frac{7}{3}"),
    ]
    for poly, text, latex in cases:
        assert poly_text(poly) == text == reference_text.poly_text(poly)
        assert poly_text(poly, ["x_1", "x_2"], latex=True) == latex
    assert poly_text(MultiPoly.const(0, 5)) == "5"
    assert poly_to_json(MultiPoly.const(0, 5)) == {"nvars": 0, "terms": [{"c": "5", "e": []}]}


@st.composite
def _forms(draw):
    """Forms whose numerators and denominator are held in any of the three
    ways: a negative leading denominator coefficient, constant
    denominators (int and Fraction) and numerators whose normalizations
    repeat and differ."""
    degree = draw(st.integers(0, 3))
    n_vars = draw(st.integers(max(degree, 1), 4))
    exponents = st.tuples(*[st.integers(0, 12) | st.integers(0, 2)] * n_vars)
    polys = st.dictionaries(exponents, _coefficients, max_size=6)

    def held(terms):
        return _held(n_vars, terms, draw(_states), draw(st.integers(0, 2)))

    den_terms = draw(polys.filter(lambda t: MultiPoly(n_vars, t))
                     | st.builds(lambda c: {(0,) * n_vars: c}, _coefficients.filter(bool)))
    base = draw(polys)
    scales = st.sampled_from((1, 2, -3, Fraction(1, 2), Fraction(-4, 9)))
    indices = st.sampled_from(sorted(combinations(range(n_vars), degree)))
    components = {}
    for idx, (own, scale, reuse) in draw(st.dictionaries(
            indices, st.tuples(polys, scales, st.booleans()), max_size=4)).items():
        terms = base if reuse else own
        components[idx] = held({e: c * scale for e, c in terms.items()})
    return DifferentialForm(n_vars, degree, components, held(den_terms))


@settings(max_examples=200, deadline=None)
@given(_forms(), st.data())
def test_every_writer_walks_a_form_as_the_per_component_renderer(form, data):
    names = data.draw(_names(form.n_vars))
    expected = reference_text.form_json(form)
    assert form.text(names) == reference_text.form_text(form, names)
    assert form.to_json() == expected
    assert _json_text([{"w": form}, form]) == _dumps([{"w": expected}, expected])


def _orders():
    for n in range(2, 7):
        for k in range(n):
            for node_class in sorted(_NODE_CLASSES):
                yield pytest.param(n, k, node_class, id=f"n{n}-k{k}-{node_class}")


@pytest.mark.parametrize("n, k, node_class", list(_orders()))
def test_printed_objects_match_the_term_by_term_renderer(n, k, node_class):
    # Every signed minor (P_k and Q_l among them) in text, LaTeX and JSON,
    # and from n = 3 on the flatness witness in text and JSON.
    spec = WebSpec.numeric(n, k, n - 1 - k, _NODE_CLASSES[node_class][:n])
    names = [f"x_{{{i}}}" for i in range(1, n + 1)]
    for minor in signed_minors(spec):
        assert poly_text(minor) == reference_text.poly_text(minor)
        assert poly_text(minor, names, True) == reference_text.poly_text(minor, names, True)
        assert poly_to_json(minor) == reference_text.poly_json(minor)
    if n >= 3:
        witness = flatness_check(spec).witness
        expected = reference_text.form_json(witness)
        assert witness.text() == reference_text.form_text(witness)
        assert witness.to_json() == expected
        assert _json_text({"w": witness}) == _dumps({"w": expected})


def test_rendering_the_n6_witness_packs_and_unpacks_no_map(monkeypatch):
    # In every format: text, the JSON dicts and the CLI's JSON text.
    report = execute(RunConfig("flatness", 6, 3, 2, tuple(map(Fraction, range(1, 7))),
                               format="json"))
    witness = report.objects["witness"]
    packed, unpacked = _spy(monkeypatch, "_pack"), _spy(monkeypatch, "_unpack")
    text, as_json, report_text = witness.text(), witness.to_json(), render(report, "json")
    assert packed == unpacked == []
    assert json.loads(report_text)["objects"] == {"witness": as_json}
    assert text.startswith("(") and len(text) > 10 ** 5


def test_a_form_walks_its_denominator_once(monkeypatch):
    # Each writer walks the denominator first and then every numerator, each
    # once, through one catalog.
    witness = flatness_check(WebSpec.numeric(5, 3, 1, [5, 4, 6, 1, 3])).witness
    walk = polynomials._Catalog.walk
    walked = []
    monkeypatch.setattr(polynomials._Catalog, "walk",
                        lambda self, poly: walked.append((self, poly)) or walk(self, poly))
    order = [witness.den, *(witness.components[idx] for idx in sorted(witness.components))]
    for write in (DifferentialForm.text, DifferentialForm.to_json,
                  lambda w: _json_text({"w": w})):
        walked.clear()
        write(witness)
        assert [poly for _, poly in walked] == order
        assert len({id(catalog) for catalog, _ in walked}) == 1
