"""The JSON report writer: byte for byte ``json.dumps(x, indent=2,
sort_keys=True)``, which stays here as the oracle and nowhere in the library.
Polynomials and forms are written from their terms, and must come out as
the dumps of their ``poly_to_json`` and ``to_json`` dicts."""

import json
import operator
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from hirotaweb import DifferentialForm, MultiPoly, WebSpec, flatness_check, poly_to_json
from hirotaweb import cli, polynomials
from hirotaweb.cli import RunConfig, _json_text, execute, render

from test_cli_golden import GOLDEN


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


_ints = st.integers() | st.integers(-10 ** 40, 10 ** 40)
# Quotes, backslashes, control characters and non-ASCII (BMP and astral).
_text = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t/aZ é€ 😀') | st.characters())
_leaves = st.none() | st.booleans() | _ints | _text
# Dicts shaped like polynomial terms, also with an extra key, an empty "e" or
# a bool in "e": the writer has no special case for them, so each is written
# as any other dict.
_terms = st.fixed_dictionaries(
    {"c": _text, "e": st.lists(_ints | st.booleans(), max_size=4)},
    optional={"x": _leaves})
_pure_terms = st.fixed_dictionaries(
    {"c": _text, "e": st.lists(_ints, min_size=1, max_size=4)})


def _containers(children):
    return (st.lists(children, max_size=4)
            | st.dictionaries(_text, children, max_size=4)
            # bools next to ints, in a list that looks like an int list
            | st.lists(_ints | st.booleans(), max_size=5)
            | st.lists(_pure_terms, min_size=1, max_size=3)
            # the first item term-shaped, later ones not necessarily
            | st.tuples(_pure_terms, st.lists(children, min_size=1, max_size=3))
              .map(lambda pair: [pair[0], *pair[1]]))


_trees = st.recursive(_leaves | _terms | st.just([]) | st.just({}), _containers,
                      max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(_trees)
def test_writer_matches_json_dumps(tree):
    assert _json_text(tree) == dumps(tree)


def _reused(tree, times: int):
    """The same objects twice at one depth and once a level deeper, nested."""
    for _ in range(times):
        tree = [tree, {"k": tree}, tree]
    return tree


@settings(max_examples=200, deadline=None)
@given(st.builds(_reused, _trees, st.integers(1, 3)))
def test_writer_matches_json_dumps_on_shared_subtrees(tree):
    assert _json_text(tree) == dumps(tree)


# One term-list object twice at one depth and once at another, next to an
# equal but distinct list: a shared object is written in full each time.
_TERMS = [{"c": "-3/4", "e": [2, 0, 1]}, {"c": "5", "e": [0, 1, 1]}]
_SHARED = {"components": [{"den": {"nvars": 3, "terms": _TERMS},
                           "num": {"nvars": 3, "terms": list(_TERMS)}},
                          {"den": {"nvars": 3, "terms": _TERMS}}],
           "outer": _TERMS}


@pytest.mark.parametrize("tree", [
    [[], {}, [[]], [{}], {"a": {}, "b": [[], []]}],
    [True, 1, False, 0, None, -1],
    {"e": [1, True], "c": "1"},
    [{"c": "1", "e": []}, {"c": "-2/3", "e": [0, 0]}],
    [{"c": "1", "e": [1]}, {"c": "1", "e": [1], "x": None}],
    [{"c": "1", "e": [1]}, {"c": 1, "e": [1]}],
    [{"c": "1", "e": [1]}, 7],
    [-(10 ** 50), 10 ** 50],
    _SHARED,
])
def test_writer_edge_cases(tree):
    assert _json_text(tree) == dumps(tree)


@pytest.mark.parametrize("tree", [
    1.5, float("nan"), float("inf"), [0, 1, 2.0], {"a": [{"b": -0.0}]},
    [{"c": "1", "e": [1.0]}], [{"c": 0.5, "e": [1]}],
    {1: "a"}, {"a": {None: 1}}, {"a": 1, 2: 3},
    (1, 2), {"a": Fraction(1, 2)},
])
def test_writer_refuses_what_the_library_never_emits(tree):
    # Floats at any depth, non-str keys and any other type raise TypeError.
    with pytest.raises(TypeError):
        _json_text(tree)


def test_golden_json_reports_are_json_dumps_output():
    # Independent of the writer: every recorded --format json report is the
    # stdlib's indent-2, sorted-keys rendering of what it parses to.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reports = [entry["stdout"] for argv, entry in golden.items()
               if argv.endswith("--format json")]
    assert len(reports) == 36
    for stdout in reports:
        text = stdout.removesuffix("\n")
        assert dumps(json.loads(text)) == text


@pytest.mark.parametrize("n,k,nodes", [
    (5, 2, ("1/2", "-2/3", "3/4", "5/3", "-7/5")),
    (6, 2, ("0", "2", "3", "5", "7", "9")),
])
def test_nonflat_witness_report_matches_json_dumps(n, k, nodes):
    nodes = tuple(Fraction(v) for v in nodes)
    report = execute(RunConfig("flatness", n, k, n - 1 - k, nodes, format="json"))
    text = render(report, "json")
    payload = json.loads(text)
    assert payload["results"] == report.results
    assert payload["results"][0]["detail"] == "nonflat-certified"
    witness = flatness_check(WebSpec.numeric(n, k, n - 1 - k, nodes)).witness
    assert payload["objects"] == {"witness": witness.to_json()}
    assert payload["objects"]["witness"]["components"]
    assert text == dumps(payload)


# Polynomials and forms as the library builds them: int and Fraction
# coefficients, the zero polynomial and the 0-variable ring, the empty form,
# and components whose normalized denominators repeat and differ (each
# numerator is a drawn one times a scale from a small set).
_coefficients = (st.integers(-9, 9) | st.integers(-10 ** 30, 10 ** 30)
                 | st.fractions(max_denominator=12))


def _polys(n_vars: int, min_size: int = 0):
    exponents = st.tuples(*[st.integers(0, 3)] * n_vars)
    return st.dictionaries(exponents, _coefficients, min_size=min_size, max_size=5).map(
        lambda terms: MultiPoly(n_vars, terms)).filter(lambda p: min_size == 0 or p)


@st.composite
def _forms(draw):
    degree = draw(st.integers(0, 3))
    n_vars = draw(st.integers(degree, 4))
    indices = st.sampled_from(sorted(combinations(range(n_vars), degree)))
    scales = st.sampled_from((1, 1, 2, -3, Fraction(1, 2), Fraction(-4, 9)))
    base = draw(_polys(n_vars))
    components = draw(st.dictionaries(
        indices, st.tuples(_polys(n_vars), scales, st.booleans()), max_size=4))
    den = draw(_polys(n_vars, min_size=1))
    return DifferentialForm(n_vars, degree, {
        idx: (base if reuse else own) * scale
        for idx, (own, scale, reuse) in components.items()}, den)


_library_values = st.integers(0, 4).flatmap(_polys) | _forms()


def _as_json(value):
    return value.to_json() if isinstance(value, DifferentialForm) else poly_to_json(value)


def _nested(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


@settings(max_examples=300, deadline=None)
@given(_library_values, st.integers(0, 4))
def test_writer_writes_library_values_as_their_json_dicts(value, depth):
    assert _json_text(_nested(value, depth)) == dumps(_nested(_as_json(value), depth))


@settings(max_examples=100, deadline=None)
@given(st.lists(_library_values, min_size=1, max_size=3), st.integers(0, 2))
def test_writer_shares_nothing_between_values_but_their_layout(values, depth):
    # The values at one depth and again one deeper, in one call: exponent
    # texts and denominators met before must be written as the dicts say.
    tree = {"a": _nested(values, depth), "b": [values, _nested(values, depth)]}
    as_json = [_as_json(value) for value in values]
    assert _json_text(tree) == dumps(
        {"a": _nested(as_json, depth), "b": [as_json, _nested(as_json, depth)]})


@pytest.mark.parametrize("poly", [
    MultiPoly(1, {(1,): 0.5}, _canonical=True),
    MultiPoly(2, {(1, 0): 1, (0, 1): 2.0}, _canonical=True),
    MultiPoly(1, {(1,): True}, _canonical=True),
    MultiPoly(1, {(1.0,): 1}, _canonical=True),
    MultiPoly(2, {(1, True): 1}, _canonical=True),
])
def test_writer_refuses_an_inexact_term_smuggled_past_the_constructor(poly):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _json_text({"p": poly})


_x = MultiPoly.variable(2, 0)


@pytest.mark.parametrize("form", [
    DifferentialForm(2, 1, {(0,): MultiPoly(2, {(1, 0): 0.5}, _canonical=True)}),
    DifferentialForm(2, 1, {(1,): _x}, MultiPoly(2, {(0, 0): 2.0}, _canonical=True)),
    DifferentialForm(2, 1, {(0,): _x, (1,): MultiPoly(2, {(0, 1): True}, _canonical=True)}),
])
def test_writer_refuses_an_inexact_form_term_before_normalizing(form):
    # The stdlib encoder's TypeError, not an AttributeError from the
    # normalization, and a bool is refused before it could become an int.
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _json_text({"w": form})


def test_writer_keeps_rings_and_widths_apart():
    # One call over polynomials whose packed keys coincide: key 0 in rings
    # of 0, 1 and 2 variables; key 2 at widths 1 (x2) and 2 (x1^2); key 8 at
    # widths 2 (x2^2) and 3 (x2, packed wider by a product).  Kernel-built
    # ones sit beside hand-built ones, which the writer packs itself, and
    # beside zero polynomials of three kinds.
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    wide = MultiPoly(2, {(0, 1): 1})
    assert wide * MultiPoly(2, {(4, 0): 1}) and wide._width == 3
    kernel = [x2 * 1, x1 * x1, x2 * x2, x1 * x2 - 3 * x2 * x2 + Fraction(1, 2),
              MultiPoly.const(1, 5) * 1]
    assert [p._width for p in kernel] == [1, 2, 2, 2, 1]
    hand = [MultiPoly.const(0, 1), MultiPoly.const(1, 1), MultiPoly.const(2, -7),
            MultiPoly(2, {(2, 0): 1}), MultiPoly(2, {(0, 1): Fraction(-2, 3), (3, 1): 4}),
            wide]
    zeros = [MultiPoly.zero(0), MultiPoly.zero(3), x1 - x1]
    polys = kernel + hand + zeros
    text = _json_text({"a": polys, "b": [polys[::-1], {"c": polys}], "d": polys[0]})
    # the writer read the kernel-built ones from their packed maps
    assert all(p._terms is None for p in kernel)
    as_json = [poly_to_json(p) for p in polys]
    assert text == dumps({"a": as_json, "b": [as_json[::-1], {"c": as_json}],
                          "d": as_json[0]})


def test_rendering_a_witness_unpacks_at_most_its_denominator(monkeypatch):
    # n = 6, k = 3: the form's numerators and its scaled denominator are
    # written from their packed maps, and the shared denominator's leading
    # sign is read off its packed keys: nothing is unpacked.
    report = execute(RunConfig("flatness", 6, 3, 2, tuple(map(Fraction, range(1, 7))),
                               format="json"))
    unpacked = []
    unpack = polynomials._unpack
    monkeypatch.setattr(polynomials, "_unpack", lambda *args: unpacked.append(args[1])
                        or unpack(*args))
    text = render(report, "json")
    assert unpacked == []
    witness = report.objects["witness"]
    assert text == dumps(json.loads(text))
    assert json.loads(text)["objects"] == {"witness": witness.to_json()}


def test_each_witness_denominator_scaling_is_written_once(monkeypatch):
    # n = 6, k = 3: 20 components share two scalings of (c Q0)^4.  Each
    # scaling's pieces are built once, and a component's second chunk is
    # the text of its scaling alone, one string: joined where the scaling
    # switches and shared by the components up to the next switch, so only
    # the current scaling's text is held joined, and joining the chunk
    # returns that string uncopied.
    witness = flatness_check(WebSpec.numeric(6, 3, 2)).witness
    layout = cli._PolyLayout("\n      ")
    rows = list(witness._normalized(layout.catalog.walk))
    own = {key: layout.pieces(6, *den) for _, _, den, key in rows}
    assert len(rows) == 20 and len(own) == 2
    built = []
    pieces = cli._PolyLayout.pieces
    monkeypatch.setattr(cli._PolyLayout, "pieces",
                        lambda self, *args: built.append(pieces(self, *args)) or built[-1])
    chunks = list(cli._form_json(witness, "\n", {}))
    assert len(built) == len(rows) + len(own)
    keys = [key for *_, key in rows]
    assert len(chunks) == 3 * len(rows) + 2
    texts = [chunk[0] for chunk in chunks[2:-1:3]]
    assert all(len(chunk) == 1 for chunk in chunks[2:-1:3])
    assert all("".join(chunk) is chunk[0] for chunk in chunks[2:-1:3])
    assert texts == ["".join(own[key]) for key in keys]
    switches = sum(a != b for a, b in zip(keys, keys[1:]))
    assert switches and len({id(text) for text in texts}) == switches + 1
    assert all((text is before) == (key == key_before) for text, before, key, key_before
               in zip(texts[1:], texts, keys[1:], keys))
    assert json.loads("".join(chain.from_iterable(chunks))) == witness.to_json()
