"""Job lists of the four certification workloads and their known-answer checks.

A job is one call of ``hirotaweb.cli.run``.  The seed picks values only: the
node *structure* of every job is fixed.  Integer nodes are distinct
magnitudes from 1..9 sharing one seeded sign, so no sum of nodes cancels and
every minor keeps its full support (mixed signs drop terms from some minors
and change the work a job does).  Jobs that need a zero node or non-integer
rational nodes name that class themselves.

The expected verdicts come from the mathematics, not from the code under
test: genuine solutions pass all C(n,3) triples, a solution corrupted by
adding x1^2 to its numerator fails, a web is flat exactly when k = 0 or
l = 0, and the determinant interpolant agrees with elimination.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional

SAMPLED_TRIALS = 3
SAMPLED_BOUND = 10 ** 6
ORACLE_TRIALS = 40


@dataclass(frozen=True)
class Job:
    """One certification request: the keyword arguments of ``RunConfig``
    (never ``max_workers``), plus whether the solution is corrupted."""

    config: dict
    corrupt: bool = False

    @property
    def label(self) -> str:
        c = self.config
        nodes = "symbolic" if c["lambdas"] is None else ",".join(map(str, c["lambdas"]))
        tag = " corrupted" if self.corrupt else ""
        return f"{c['command']} n={c['n']} k={c['k']} nodes={nodes}{tag}"


def int_nodes(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    sign = rng.choice((-1, 1))
    return tuple(Fraction(sign * v) for v in rng.sample(range(1, 10), n))


def zero_node(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Node 1 is zero; the others are same-sign integers."""
    return (Fraction(0),) + int_nodes(rng, n - 1)


def rational_nodes(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    """Distinct same-sign non-integers p/q with p in 1..9 and q in 2..5."""
    sign = rng.choice((-1, 1))
    pool = sorted({Fraction(p, q) for p in range(1, 10) for q in range(2, 6)
                   if p % q})
    return tuple(sign * v for v in rng.sample(pool, n))


def make_job(command: str, n: int, k: int, lambdas, corrupt: bool = False,
             **extra) -> Job:
    config = {"command": command, "n": n, "k": k, "l": n - 1 - k,
              "lambdas": lambdas, **extra}
    return Job(config, corrupt)


def proof_numeric(rng: random.Random) -> list[Job]:
    jobs = [make_job("verify", 5, k, int_nodes(rng, 5), mode="symbolic")
            for k in range(5)]
    jobs += [make_job("verify", 6, k, int_nodes(rng, 6), mode="symbolic")
             for k in range(1, 5)]
    jobs.append(make_job("verify", 6, 2, rational_nodes(rng, 6), mode="symbolic"))
    jobs.append(make_job("verify", 6, 2, int_nodes(rng, 6), corrupt=True,
                     mode="symbolic"))
    return jobs


def sampled_symbolic(rng: random.Random) -> list[Job]:
    def sampled(k: int, corrupt: bool = False) -> Job:
        return make_job("verify", 5, k, None, corrupt=corrupt, mode="sampled",
                    trials=SAMPLED_TRIALS, bound=SAMPLED_BOUND,
                    seed=rng.randrange(2 ** 31))

    # k = 4 first: the first job is the warm-up, and it is the cheapest.
    return [sampled(k) for k in range(4, -1, -1)] + [sampled(2, corrupt=True)]


def flatness(rng: random.Random) -> list[Job]:
    jobs = [make_job("flatness", 5, k, int_nodes(rng, 5), format="json")
            for k in range(5)]
    jobs += [make_job("flatness", 6, k, int_nodes(rng, 6), format="json")
             for k in (0, 1, 3, 4, 5)]
    jobs.append(make_job("flatness", 5, 2, zero_node(rng, 5), format="json"))
    jobs.append(make_job("flatness", 5, 2, rational_nodes(rng, 5), format="json"))
    return jobs


def interp_oracle(rng: random.Random) -> list[Job]:
    jobs = []
    for n in (4, 5):
        for k in range(n):
            jobs.append(make_job("oracle", n, k, int_nodes(rng, n),
                             trials=ORACLE_TRIALS, seed=rng.randrange(2 ** 31)))
            jobs.append(make_job("properties", n, k, None))
            jobs.append(make_job("generate", n, k, int_nodes(rng, n), format="latex"))
    return jobs


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], list[Job]]
    pass_seconds: float   # baseline time of one pass over the job list


# pass_seconds is the median pass time at the baseline (2 vCPUs, Python
# 3.11.7), in reference seconds.  It converts --seconds into a fixed number
# of passes, so a run measures the same jobs on every commit.
# Why each workload exists: perfbench/README.md.
WORKLOADS = {
    "proof-numeric": Workload(proof_numeric, 9.22),
    "sampled-symbolic": Workload(sampled_symbolic, 7.30),
    "flatness": Workload(flatness, 7.96),
    "interp-oracle": Workload(interp_oracle, 2.58),
}


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one workload; the same seed gives the same list."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))


def corrupted_solution(hw, job: Job):
    """The job's genuine solution with x1^2 added to its numerator."""
    c = job.config
    spec = hw.WebSpec(c["n"], c["k"], c["l"], c["lambdas"])
    sol = hw.build_solution(spec)
    x1 = hw.MultiPoly.variable(spec.n_vars, 0)
    p = sol.p_top + x1 * x1
    return hw.HirotaSolution(spec, hw.RationalFunction(p, sol.q_top), p, sol.q_top)


PROPERTY_NAMES = {"homogeneous", "degree-gap", "coefficient-sums",
                  "interpolation-identity"}


def check_verdict(job: Job, code: Optional[int], text: str) -> Optional[str]:
    """Why the job's output contradicts the known answer, or None if it agrees."""
    c = job.config
    if job.corrupt:
        if code != 1:
            return f"exit {code}, expected 1 for a corrupted solution"
        if "[FAIL]" not in text:
            return "corrupted solution reported no [FAIL]"
        return None
    if code != 0:
        return f"exit {code}, expected 0"
    command = c["command"]
    if command == "verify":
        passed = len(re.findall(r"^\[PASS\] triple ", text, re.M))
        if passed != comb(c["n"], 3) or "[FAIL]" in text:
            return f"{passed} passing triples, expected {comb(c['n'], 3)}"
    elif command == "flatness":
        results = {r["name"]: r for r in json.loads(text)["results"]}
        flat = c["k"] == 0 or c["l"] == 0
        want = "flat-certified" if flat else "nonflat-certified"
        got = results.get("flatness", {}).get("detail")
        if got != want:
            return f"flatness status {got!r}, expected {want!r}"
        if ("witness identity" in results) == flat:
            return "witness identity present exactly when it should be absent"
        if any(r["status"] != "pass" for r in results.values()):
            return "a flatness result did not pass"
    elif command == "oracle":
        trials = c["trials"]
        if f"{trials}/{trials} random instances matched" not in text:
            return "oracle did not match every instance"
    elif command == "properties":
        passed = set(re.findall(r"^\[PASS\] (\S+):", text, re.M))
        if passed != PROPERTY_NAMES or "[FAIL]" in text:
            return f"passing properties {sorted(passed)}"
    elif command == "generate":
        if "\\item generate: pass" not in text or "f = \\frac{" not in text:
            return "LaTeX report lacks the solution or the pass line"
    else:
        return f"no known answer for command {command!r}"
    return None
