"""Golden CLI outputs: exact stdout and exit code of fixed invocations.

``golden/cli_outputs.json`` maps each argv, written as one shell-style string, to
the stdout and exit code that ``hirotaweb.cli.main`` produced for it.  Any
change to rendering, signs or term order of the printed objects shows up
here byte for byte.  ``PYTHONPATH=src python tests/test_cli_golden.py``
records the argvs that the file lacks and prints how many it added; it never
rewrites an entry that is already there.  To re-record an entry after an
intended output change, delete it from the file and run the recorder.
"""

import hashlib
import io
import json
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hirotaweb.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

# n = 4 at three orders; symbolic nodes wherever the command takes them.
K1, K2, K0 = "--n 4 --k 1 --l 2", "--n 4 --k 2 --l 1", "--n 4 --k 0 --l 3"
INVOCATIONS = [
    f"generate {K1}",
    f"generate {K2} --lambdas 1/2,-1,3,5",
    f"generate {K2} --lambdas symbolic",
    f"verify {K2}",
    f"verify {K1} --lambdas symbolic",
    f"verify {K2} --lambdas symbolic --mode sampled --trials 2 --seed 5",
    f"flatness {K1}",
    f"flatness {K0} --lambdas=-2,1/3,4,7",
    f"restrict {K2} --fix x4=0",
    f"restrict {K1} --fix x2=-3/2",
    f"properties {K1}",
    f"properties {K2} --lambdas symbolic",
    f"oracle {K1} --trials 5 --seed 3",
]
# Nonflat witnesses at n = 5, with a zero node and with non-integer nodes.
WITNESSES = [
    "flatness --n 5 --k 2 --l 2 --lambdas=-1,0,2,3,5",
    "flatness --n 5 --k 2 --l 2 --lambdas=1/2,-2/3,3/4,5/3,-7/5",
]
# Flatness with rational nodes at n = 4, at both orders that print the
# witness identity: the certificate is computed on minors cleared of node
# denominators, and its rendering is pinned here.
RATIONAL_FLATNESS = [
    f"flatness {K1} --lambdas=1/2,-2/3,3/4,5/3",
    f"flatness {K2} --lambdas=-3/2,1/5,2/3,7/4",
]
# Symbolic proofs at n = 5 with negative integer and with rational nodes, and
# a restriction to a rational value (it goes through eliminate): these cover
# coefficients that pass between ints and Fractions.
EXACTNESS = [
    "verify --n 5 --k 2 --l 2 --mode symbolic --lambdas=-1,-2,-3,-4,-5",
    "verify --n 5 --k 2 --l 2 --mode symbolic --lambdas=1/2,-2/3,3/4,5/3,-7/5",
    "restrict --n 5 --k 2 --l 2 --lambdas=1/2,-2/3,3/4,5/3,-7/5 --fix x3=2/5",
]
# The oracle at n = 5, at two orders: each accepted instance compares the
# determinant interpolant at a data point with Gaussian elimination, and the
# rejection sampling must accept the same instances in the same order.
ORACLE = [
    "oracle --n 5 --k 2 --l 2 --trials 20 --seed 3",
    "oracle --n 5 --k 0 --l 4 --trials 20 --seed 7",
]
# Symbolic proofs at n = 6, where every triple residual is a large sum of
# products: two orders with default integer nodes and one with rational nodes.
PROOFS_6 = [
    "verify --n 6 --k 2 --l 3 --mode symbolic",
    "verify --n 6 --k 3 --l 2 --mode symbolic",
    "verify --n 6 --k 2 --l 3 --mode symbolic --lambdas=1/2,-2/3,3/4,5/3,-7/5,2/7",
]
# Symbolic proofs at n = 7, the frontier of the proof: default integer nodes
# and rational nodes, at two orders.  Text only: the JSON carries the same
# per-triple details.
PROOFS_7 = [
    "verify --n 7 --k 3 --l 3 --mode symbolic",
    "verify --n 7 --k 2 --l 4 --mode symbolic --lambdas=1/2,-2/3,3/4,5/3,-7/5,2/7,-9/4",
]
# Dimension 8 at default nodes 1..8: the 8 x 9 row matrix is larger than
# any other entry's, and its minors were checked against fraction-free
# elimination when these outputs were recorded.
DIMENSION_8 = [
    "generate --n 8 --k 3 --l 4",
    "properties --n 8 --k 3 --l 4",
]
# Sampled checks with symbolic nodes at n = 5 and n = 7, where the node
# coordinates are fixed to numbers before the jets are read: the extreme orders
# (Q without x at l = 0, P without the l's at k = 0) and a middle one.  With
# numeric nodes the elimination fixes nothing.
SAMPLED = [
    "verify --n 7 --k 3 --l 3 --lambdas symbolic --mode sampled --trials 3 --seed 1",
    "verify --n 5 --k 4 --l 0 --lambdas symbolic --mode sampled",
    "verify --n 5 --k 0 --l 4 --lambdas symbolic --mode sampled",
    "verify --n 5 --k 2 --l 2 --mode sampled --lambdas=1/2,-2/3,3/4,5/3,-7/5",
]
# The oracle at n = 12 and n = 16, where each numeric point minor is an
# r x r determinant with r up to 9 and the elimination oracle solves a
# 16 x 16 system: text only, since the JSON carries the same instances.
ORACLE_LARGE = [
    "oracle --n 12 --k 6 --l 5 --trials 10 --seed 1",
    "oracle --n 16 --k 8 --l 7 --trials 10 --seed 1",
]
# A nonflat witness whose components normalize to two distinct multiples of
# the common denominator (c Q0)^4: JSON only, since the text carries the same
# quotients.
WITNESS_SCALES = [
    "flatness --n 5 --k 3 --l 1 --lambdas=5,4,6,1,3",
]
# Symbolic minors at n = 6 and n = 5: every one of the n + 1 signed minors is
# printed with all its terms, and LaTeX renders P_k and Q_l in full, so the
# sign and term order of the closed-form minors are pinned here.
SYMBOLIC_MINORS = [
    ("properties --n 6 --k 2 --l 3 --lambdas symbolic", "text"),
    ("generate --n 5 --k 1 --l 3 --lambdas symbolic", "latex"),
]
# Sampled checks with symbolic nodes at n = 7 and n = 8, JSON only: these
# views print no polynomial, so the symbolic f is never built and the degree
# bound comes from (k, l).  At l = 0 the bound is looser than the residual's
# true degree, and its value is pinned here.
SAMPLED_FRONTIER = [
    "verify --n 7 --k 6 --l 0 --lambdas symbolic --mode sampled",
    "verify --n 8 --k 3 --l 4 --lambdas symbolic --mode sampled",
]
# Symbolic proofs at n = 8, past the frontier of expanding each triple's
# residual: default integer nodes, and mixed-sign nodes with a zero and a
# non-integer node, whose minors lose terms.
PROOFS_8 = [
    ("verify --n 8 --k 3 --l 4 --mode symbolic", "text"),
    ("verify --n 8 --k 3 --l 4 --mode symbolic --lambdas=0,-2,3,1/2,5,7,-1,4", "json"),
]
# Flatness at n = 3, where the mirror element alpha_(n-2) is alpha_1 itself
# and its integrability is reported once.
FLATNESS_3 = ["flatness --n 3 --k 1 --l 1"]
ARGVS = ([f"{invocation} --format {fmt}"
          for fmt in ("text", "json", "latex") for invocation in INVOCATIONS]
         + [f"{argv} --format {fmt}"
            for fmt in ("text", "json")
            for argv in (WITNESSES + EXACTNESS + RATIONAL_FLATNESS + ORACLE
                         + DIMENSION_8 + PROOFS_6 + SAMPLED + FLATNESS_3)]
         + [f"{argv} --format text" for argv in ORACLE_LARGE + PROOFS_7]
         + [f"{argv} --format json" for argv in WITNESS_SCALES + SAMPLED_FRONTIER]
         + [f"{argv} --format {fmt}" for argv, fmt in SYMBOLIC_MINORS + PROOFS_8])


def _capture(argv: str) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(shlex.split(argv))
    return {"exit": code, "stdout": buffer.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_the_invocations(golden):
    assert sorted(golden) == sorted(ARGVS)


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_output_matches_golden(argv, golden):
    assert _capture(argv) == golden[argv]


# The witness text at the frontier, n = 6 and 7 with nodes 1..n: the sha256
# of stdout, recorded from the per-component renderer before text was
# written from the forms' normal form.  Too large for the golden file
# (1.2 MB and 10.7 MB), so only the digests are kept.
FRONTIER_TEXT = {
    "flatness --n 6 --k 2 --l 3 --format text":
        "1c2cdb00131e15b27de52e88ca137404bb96a728cde4cfcfdc5ae1dc6b582bf4",
    "flatness --n 7 --k 3 --l 3 --format text":
        "ad0c6c13f97d75c0547a6086b44352531ddb88b28b6f20c50ad85d09ff5d2663",
}


@pytest.mark.parametrize("argv", sorted(FRONTIER_TEXT))
def test_frontier_witness_text_matches_its_digest(argv):
    captured = _capture(argv)
    assert captured["exit"] == 0
    assert hashlib.sha256(captured["stdout"].encode()).hexdigest() == FRONTIER_TEXT[argv]


# The witness JSON at the frontier, every order with k, l >= 1 at n = 6 and
# k = l = 3 at n = 7, nodes 1..n: the sha256 of stdout, recorded while the
# writer still unpacked every polynomial into exponent tuples and the
# mirror element was tested by building its polynomial pieces.  Up to 83 MB,
# so only the digests are kept.
FRONTIER_JSON = {
    "flatness --n 6 --k 1 --l 4 --format json":
        "f09b67acfade408c709e6d577a441145b869702adb7623e90bbbff82fab68dcc",
    "flatness --n 6 --k 2 --l 3 --format json":
        "b2b226ba96c2134b2f5a3fbdc2056dff0ded50aef27c5c92e886cca5e2f46929",
    "flatness --n 6 --k 3 --l 2 --format json":
        "2527ab70901c1db1ceaf0b0ac4b510617cf1c79d746e4f660885d2443ecb0cd9",
    "flatness --n 6 --k 4 --l 1 --format json":
        "71f0914ab348c14c4949022c27b21ea943a04a4050dfb5c1e94a473eff2f220e",
    "flatness --n 7 --k 3 --l 3 --format json":
        "6b8f6ee2d3d65603787be47fe137c1b209c44f418a8545f6685367bfd9cc7c96",
}


@pytest.mark.parametrize("argv", sorted(FRONTIER_JSON))
def test_frontier_witness_json_matches_its_digest(argv):
    captured = _capture(argv)
    assert captured["exit"] == 0
    assert hashlib.sha256(captured["stdout"].encode()).hexdigest() == FRONTIER_JSON[argv]


if __name__ == "__main__":
    record = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    missing = [argv for argv in ARGVS if argv not in record]
    record.update((argv, _capture(argv)) for argv in missing)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"added {len(missing)} invocations to {GOLDEN}")
