"""The JSON report writer: byte for byte ``json.dumps(x, indent=2,
sort_keys=True)``, which stays here as the oracle and nowhere in the library."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hirotaweb.cli import RunConfig, _json_text, execute, render

from test_cli_golden import GOLDEN


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


_ints = st.integers() | st.integers(-10 ** 40, 10 ** 40)
# Quotes, backslashes, control characters and non-ASCII (BMP and astral).
_text = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t/aZ é€ 😀') | st.characters())
_leaves = st.none() | st.booleans() | _ints | _text
# Term-shaped dicts, also with an extra key, an empty "e" or a bool in "e",
# which must leave the fast path.
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


# One term-list object twice at one depth and once at another, as a shared
# denominator recurs in a witness, next to an equal but distinct list.
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
    assert len(reports) == 35
    for stdout in reports:
        text = stdout.removesuffix("\n")
        assert dumps(json.loads(text)) == text


def test_nonflat_witness_report_matches_json_dumps():
    nodes = tuple(Fraction(v) for v in ("1/2", "-2/3", "3/4", "5/3", "-7/5"))
    report = execute(RunConfig("flatness", 5, 2, 2, nodes, format="json"))
    text = render(report, "json")
    payload = json.loads(text)
    assert payload["results"] == report.results
    assert payload["results"][0]["detail"] == "nonflat-certified"
    assert payload["objects"] == report.objects
    assert report.objects["witness"]["components"]
    assert text == dumps(payload)
