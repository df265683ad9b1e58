"""Every demo script runs to completion as its own process and prints the
stdout pinned in ``golden/demo_outputs.json``.

The demos are deterministic, so any change to what they print shows up here
byte for byte.  To record the file again from the current code, run
``PYTHONPATH=src python tests/test_demos.py``; do that only when an output
change is intended.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demo_outputs.json"


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, golden):
    result = _run(demo)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout == golden[demo.name]


def test_demos_found(golden):
    assert len(DEMOS) >= 5
    assert sorted(golden) == [demo.name for demo in DEMOS]


if __name__ == "__main__":
    record = {}
    for demo in DEMOS:
        result = _run(demo)
        if result.returncode != 0:
            sys.exit(f"{demo.name} failed:\n{result.stderr[-2000:]}")
        record[demo.name] = result.stdout
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"recorded {len(record)} demos in {GOLDEN}")
