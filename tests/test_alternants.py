"""The numeric-node minors read off one alternant table.

At numeric nodes every coefficient of a row-matrix minor is
+-V(S) V(S') e_g, and ``interpolation._Alternants`` holds the V and e
values of one node list keyed by row bitmask.  These tests hold the writer
to the earlier closed form, which computes every value afresh
(``reference_interpolation.closed_form_block``), to the exact determinant of
the substituted row matrix, and to the table's own contract: it is read
against its own nodes only, and one call's table is not the next call's.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hirotaweb import WebSpec, build_solution, row_matrix, signed_minors, webs
from hirotaweb import interpolation
from hirotaweb.interpolation import _Alternants, _block
from hirotaweb.polynomials import determinant
from reference_interpolation import (closed_form_block, closed_form_signed_minors,
                                     vandermonde)
from test_webs import _NODE_CLASSES

# The six nodes of each class and a seventh of the same kind, for n = 7.
_SEVEN = {name: values + [Fraction(extra)]
          for (name, values), extra in zip(sorted(_NODE_CLASSES.items()),
                                           ("-6", "6", "-9/4"))}
_ORDERS = [(n, k) for n in range(2, 8) for k in range(n)]


def _row_sets(n):
    """The D, E and F row sets: all rows but one, two or three."""
    return [[r for r in range(n) if r not in drop]
            for size in (1, 2, 3) for drop in combinations(range(n), size)]


@pytest.mark.parametrize("node_class", sorted(_SEVEN))
@pytest.mark.parametrize("n,k", _ORDERS)
def test_signed_minors_match_the_closed_form(n, k, node_class):
    spec = WebSpec.numeric(n, k, n - 1 - k, _SEVEN[node_class][:n])
    assert signed_minors(spec) == closed_form_signed_minors(spec)


@pytest.mark.parametrize("node_class", sorted(_SEVEN))
@pytest.mark.parametrize("n,k", [(n, k) for n, k in _ORDERS if 1 <= k <= n - 2])
def test_proof_minors_match_the_closed_form(n, k, node_class):
    # D, E and F at their sizes in the factored proof and witness, every
    # one read off a single table, as one proof reads them.
    nodes, l = _SEVEN[node_class][:n], n - 1 - k
    table = _Alternants(nodes, True)
    for rows in _row_sets(n):
        size = l - (len(rows) < n - 1)
        if size < 0:
            continue
        assert (_block(n, table, rows, size, {0: 1}, False, webs._PAIR_WIDTH)
                == closed_form_block(nodes, rows, size, {0: 1}, False, webs._PAIR_WIDTH))


@st.composite
def _block_case(draw):
    nodes = draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                          min_size=2, max_size=7, unique=True))
    if draw(st.booleans()) and 0 not in nodes:
        nodes[draw(st.integers(0, len(nodes) - 1))] = Fraction(0)
    n = len(nodes)
    rows = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    size = draw(st.integers(0, len(rows)))
    x_missing = draw(st.booleans())
    spare = size if x_missing else len(rows) - size
    gs = draw(st.sets(st.integers(0, spare), min_size=1))
    signs = {g: draw(st.sampled_from((1, -1))) for g in sorted(gs)}
    return nodes, rows, size, signs, x_missing


@settings(max_examples=200, deadline=None)
@given(_block_case(), st.sampled_from((2, 8)), st.booleans())
def test_block_matches_the_closed_form(case, width, keep_reads):
    nodes, rows, size, signs, x_missing = case
    table = _Alternants(nodes, keep_reads)
    for _ in range(2):
        assert (_block(len(nodes), table, rows, size, signs, x_missing, width)
                == closed_form_block(nodes, rows, size, signs, x_missing, width))


def test_a_minor_at_int_nodes_and_g_zero_is_returned_as_written(monkeypatch):
    # With every node an int and every g 0, no coefficient can be an
    # integral Fraction or 0, so the written map is returned without the
    # tightening copy: the proofs' D, E and F minors and the leading
    # coefficients.  Integral Fraction nodes or a g above 0 still take it.
    copied = []
    tightened = interpolation._tightened
    monkeypatch.setattr(interpolation, "_tightened",
                        lambda terms: copied.append(terms) or tightened(terms))
    ints = [3, 1, 7, 0, -2, 9]
    for nodes, signs, copies in ((ints, {0: 1}, 0), ([Fraction(v) for v in ints], {0: 1}, 1),
                                 (ints, {0: 1, 1: -1}, 2), (ints, {0: -1}, 0)):
        for x_missing in (False, True):
            copied.clear()
            out = _block(6, _Alternants(nodes, True), range(6), 3, signs, x_missing, 8)
            assert out == closed_form_block(nodes, range(6), 3, signs, x_missing, 8)
            assert all(type(c) is int and c for terms in out.values() for c in terms.values())
            assert len(copied) == copies
    copied.clear()
    spec = WebSpec.numeric(6, 2, 3, ints)
    expected = closed_form_signed_minors(spec)
    assert interpolation.highest_coefficients(spec) == (expected[2], expected[6])
    assert copied == []


def _point_matrix(nodes, xs, rows, size, g, x_missing):
    """The substituted rows over the columns of ``_block``'s minor g."""
    r = len(rows)
    p_top, q_top = (r - size - 1, size) if x_missing else (r - size, size - 1)
    pe = [e for e in range(p_top + 1) if x_missing or e != p_top - g]
    qe = [e for e in range(q_top + 1) if not x_missing or e != q_top - g]
    return [[nodes[i] ** e for e in pe] + [-xs[i] * nodes[i] ** e for e in qe] for i in rows]


@pytest.mark.parametrize("node_class", sorted(_SEVEN))
@pytest.mark.parametrize("n", range(3, 8))
def test_minor_values_are_the_determinants_of_the_substituted_matrix(n, node_class):
    # An independent route: at integer points, every signed minor is the
    # sign times the exact determinant of the row matrix without its
    # column, and every _block minor over a row subset the determinant of
    # those rows over its columns.
    rng = random.Random(n)
    nodes = _SEVEN[node_class][:n]
    for k in range(n):
        spec = WebSpec.numeric(n, k, n - 1 - k, nodes)
        xs = [rng.randint(-9, 9) for _ in range(n)]
        matrix = row_matrix(spec, xs)
        for c, minor in enumerate(signed_minors(spec)):
            dropped = [row[:c] + row[c + 1:] for row in matrix]
            assert minor.evaluate(xs) == (-1) ** (n + c) * determinant(dropped)
    table = _Alternants(nodes, True)
    xs = [rng.randint(-9, 9) for _ in range(n)]
    for rows in [list(range(n))] + _row_sets(n)[:n + 3]:
        for size in range(len(rows) + 1):
            for x_missing in (False, True):
                spare = size if x_missing else len(rows) - size
                minors = _block(n, table, rows, size, dict.fromkeys(range(spare + 1), 1),
                                x_missing, 8)
                for g, terms in minors.items():
                    value = sum(c * math.prod(xs[v] for v in range(n) if key >> 8 * v & 1)
                                for key, c in terms.items())
                    assert value == determinant(_point_matrix(nodes, xs, rows, size, g,
                                                              x_missing))


def test_the_table_is_read_against_its_own_nodes_only():
    # Two node lists with the same row masks, interleaved: a value kept for
    # one list and read for the other would break the second or third call.
    a = WebSpec.numeric(6, 2, 3, [3, -1, 4, 1, -5, 9])
    b = WebSpec.numeric(6, 2, 3, [2, 7, -1, 8, 0, -3])
    for spec in (a, b, a):
        assert signed_minors(spec) == closed_form_signed_minors(spec)
    table = _Alternants([2, 7, -1, 8, 0, -3], True)
    assert [table.vandermonde(mask) for mask in range(64)] == [
        vandermonde([table.nodes[i] for i in range(6) if mask >> i & 1]) for mask in range(64)]


def test_each_proof_reads_its_own_table(monkeypatch):
    # The factored proof on nodes 1..6, then on -1..-6: every minor either
    # proof writes equals the closed form at that proof's nodes.
    written = []
    minor = webs._minor

    def recorded(table, rows, size):
        out = minor(table, rows, size)
        written.append((list(table.nodes), rows, size, out))
        return out

    monkeypatch.setattr(webs, "_minor", recorded)
    for nodes in ([1, 2, 3, 4, 5, 6], [-1, -2, -3, -4, -5, -6]):
        spec = WebSpec.numeric(6, 2, 3, nodes)
        proved = webs._factored_proof(build_solution(spec).f, nodes, 3)
        assert proved == set(combinations(range(1, 7), 3))
    assert {tuple(entry[0]) for entry in written} == {(1, 2, 3, 4, 5, 6),
                                                      (-1, -2, -3, -4, -5, -6)}
    for nodes, rows, size, out in written:
        packed = closed_form_block(nodes, rows, size, {0: 1}, False, webs._PAIR_WIDTH)[0]
        assert out == webs.MultiPoly._from_packed(6, packed, webs._PAIR_WIDTH, 1)


def _counting_table(monkeypatch):
    """Patch the table so that every V it computes, rather than reads, is
    counted, in one list per table built."""
    counts = []

    class Counting(_Alternants):
        def __init__(self, nodes, keep_reads):
            super().__init__(nodes, keep_reads)
            counts.append(0)

        def get(self, mask):
            value = super().get(mask)
            counts[-1] += value is None
            return value

    monkeypatch.setattr(interpolation, "_Alternants", Counting)
    monkeypatch.setattr(webs, "_Alternants", Counting)
    return counts


def test_every_call_computes_its_own_values(monkeypatch):
    # Two identical calls build a table each and compute as many V values,
    # signed_minors one table for both blocks and the proof one for all its
    # minors: a cache that outlived its call would serve the second for free.
    counts = _counting_table(monkeypatch)
    spec = WebSpec.numeric(7, 3, 3, [2, -1, 3, 5, -4, 7, 6])
    assert signed_minors(spec) == signed_minors(spec)
    assert len(counts) == 2 and counts[0] == counts[1] > 0
    f = build_solution(WebSpec.numeric(6, 2, 3)).f
    del counts[:]
    for _ in range(2):
        webs._factored_proof(f, [1, 2, 3, 4, 5, 6], 3)
    assert len(counts) == 2 and counts[0] == counts[1] > 0
