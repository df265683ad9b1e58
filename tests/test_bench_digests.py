"""Benchmark outputs: every job of every benchmark workload prints what it
printed when the digests were recorded.

``golden/bench_digests.json`` maps ``"<workload>:<seed>"``, for all four
workloads of ``perfbench/workloads.py`` at seeds 1 to 3, to the list of the
sha256 digests of each job's ``f"{exit code}\\n{stdout}"``, in job order: the
same digest the benchmark's audit takes.  The jobs run in this process
through ``hirotaweb.cli.run``, as the benchmark runs them.  This module reads
``perfbench/`` and edits nothing there.

``PYTHONPATH=src python tests/test_bench_digests.py`` records the keys that
the file lacks; it never rewrites a key that is already there.  To re-record
a key after an intended output change, delete it from the file and run the
recorder.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import hirotaweb
import hirotaweb.cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "bench_digests.json"
SEEDS = (1, 2, 3)


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
KEYS = [f"{name}:{seed}" for name in workloads.WORKLOADS for seed in SEEDS]


def _digests(key: str) -> list[str]:
    name, seed = key.split(":")
    digests = []
    for job in workloads.build_jobs(name, int(seed)):
        override = workloads.corrupted_solution(hirotaweb, job) if job.corrupt else None
        code, text = hirotaweb.cli.run(hirotaweb.cli.RunConfig(**job.config),
                                       solution_override=override)
        digests.append(hashlib.sha256(f"{code}\n{text}".encode()).hexdigest())
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_workload_and_seed(golden):
    assert sorted(golden) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_benchmark_jobs_print_the_recorded_outputs(key, golden):
    assert _digests(key) == golden[key]


if __name__ == "__main__":
    record = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    missing = [key for key in KEYS if key not in record]
    record.update((key, _digests(key)) for key in missing)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"added {len(missing)} keys to {GOLDEN}")
