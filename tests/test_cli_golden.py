"""Golden CLI outputs: exact stdout and exit code of fixed invocations.

``golden/cli_outputs.json`` maps each argv, written as one shell-style string, to
the stdout and exit code that ``hirotaweb.cli.main`` produced for it.  Any
change to rendering, signs or term order of the printed objects shows up
here byte for byte.  To record the file again from the current code, run
``PYTHONPATH=src python tests/test_cli_golden.py``; do that only when an
output change is intended.
"""

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
# Symbolic proofs at n = 5 with negative integer and with rational nodes, and
# a restriction to a rational value (it goes through eliminate): these cover
# coefficients that pass between ints and Fractions.
EXACTNESS = [
    "verify --n 5 --k 2 --l 2 --mode symbolic --lambdas=-1,-2,-3,-4,-5",
    "verify --n 5 --k 2 --l 2 --mode symbolic --lambdas=1/2,-2/3,3/4,5/3,-7/5",
    "restrict --n 5 --k 2 --l 2 --lambdas=1/2,-2/3,3/4,5/3,-7/5 --fix x3=2/5",
]
ARGVS = ([f"{invocation} --format {fmt}"
          for fmt in ("text", "json", "latex") for invocation in INVOCATIONS]
         + [f"{argv} --format {fmt}"
            for fmt in ("text", "json") for argv in WITNESSES + EXACTNESS])


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


if __name__ == "__main__":
    record = {argv: _capture(argv) for argv in ARGVS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(record)} invocations in {GOLDEN}")
