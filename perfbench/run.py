"""Certificate benchmark for hirotaweb.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the certification jobs of one workload in this process and one thread,
in a closed loop with one client: each job is a call of
``hirotaweb.cli.run`` that starts when the previous one returns.  Every
verdict is checked against its known answer, and each job's output must be
byte-identical across the passes of a run.

``--seconds`` sets the number of passes over the job list from the
workload's baseline pass time, so every commit measures the same jobs; a run
stops early only on a machine so slow that it would not exit in time.
``--trace 0`` prints the end-to-end metrics, with times in reference
seconds (see ``reference.py``): each job is gauged against a fixed
reference computation run before, during and after it, which takes out the
drift of a shared host's speed.  ``--trace 1`` alternates untraced and
traced passes, a third as many of each, and prints the per-layer metrics and
the tracing overhead, as measured.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import sys

# Every set-up then compiles the library from source, in every checkout.
sys.dont_write_bytecode = True

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import time
from pathlib import Path

import layers
import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "hirotaweb"
SETUP_REPEATS = 7
TAIL_PERCENTILE = 90
MEASURE_LIMIT_S = 120
# Interval of the reference samples taken while a job runs.
TICK_S = 0.2


def import_library():
    """Import the package afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    hw = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(hw.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"{PACKAGE} was imported from {hw.__file__}, not from {SRC}")
    return hw


def set_up(workload, seed):
    """Import the library, build the job inputs and run one warm-up job."""
    hw = import_library()
    jobs = workloads.build_jobs(workload, seed)
    inputs = [(hw.cli.RunConfig(**job.config),
               workloads.corrupted_solution(hw, job) if job.corrupt else None)
              for job in jobs]
    hw.cli.run(*inputs[0])
    return hw, jobs, inputs


def in_reference_seconds(wall, cpu, samples):
    """(wall, cpu) of a job in reference seconds, from the reference
    samples (wall, cpu) taken right before, during and right after it."""
    ref_wall = statistics.median(w for w, _ in samples)
    ref_cpu = statistics.median(c for _, c in samples)
    return (wall * reference.REFERENCE_WALL_S / ref_wall,
            cpu * reference.REFERENCE_CPU_S / ref_cpu)


class Audit:
    """Verdict and determinism checks over all passes of a run."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.digests = [None] * len(jobs)
        self.attempted = 0
        self.failures = []

    def check(self, outputs):
        for index, (job, (code, text)) in enumerate(zip(self.jobs, outputs)):
            self.attempted += 1
            if code is None:
                reason = text
            else:
                try:
                    reason = workloads.check_verdict(job, code, text)
                except (ValueError, KeyError, TypeError) as exc:
                    reason = f"unreadable output: {exc!r}"
            digest = hashlib.sha256(f"{code}\n{text}".encode()).digest()
            if reason is None:
                if self.digests[index] is None:
                    self.digests[index] = digest
                elif self.digests[index] != digest:
                    reason = "output differs from an earlier pass"
            if reason is not None:
                self.failures.append(f"{job.label}: {reason}")


def run_pass(cli, inputs, audit, trace=None):
    """One pass over the job list: per job (wall s, cpu s) as measured and
    (wall s, cpu s) in reference seconds.  Every job is bracketed by
    reference samples; outputs are checked after the pass, outside the
    timed intervals."""
    gc.collect()
    outputs, measured, scaled = [], [], []
    before = reference.gauge()
    for config, override in inputs:
        # A traced pass takes no samples inside the job: they would count
        # as self time of whichever span they interrupted.
        ticks = reference.Ticker(TICK_S if trace is None else 0)
        with ticks:
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                outputs.append(cli.run(config, solution_override=override))
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                outputs.append((None, f"raised {exc!r}"))
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        tick_wall, tick_cpu = ticks.spent()
        wall, cpu = wall - tick_wall, cpu - tick_cpu
        if trace is not None:
            trace.end_job()
        after = reference.gauge()
        measured.append((wall, cpu))
        scaled.append(in_reference_seconds(wall, cpu, before + ticks.samples + after))
        before = after
    audit.check(outputs)
    return measured, scaled


def rounds(count):
    """Yield up to ``count`` round numbers.  After two rounds, stop only
    when the next one would end past MEASURE_LIMIT_S, so a run on a very
    slow machine still exits in time."""
    start = time.perf_counter()
    for done in range(count):
        if done >= 2:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > MEASURE_LIMIT_S:
                return
        yield done


def percentile(values, p):
    """The p-th percentile of ``values`` by nearest rank."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1]


def measure(hw, inputs, passes, audit):
    """End-to-end metrics in reference seconds, with the measured time in
    the notes."""
    measured, scaled = [], []
    for _ in rounds(passes):
        m, s = run_pass(hw.cli, inputs, audit)
        measured.append(m)
        scaled.append(s)
    # A job's latency is its median over the passes, so every job of the
    # list counts once and a slow moment of the host counts less.
    latencies = [statistics.median(p[job][0] for p in scaled)
                 for job in range(len(inputs))]
    metrics = {
        "wall_s": (statistics.median(sum(w for w, _ in p) for p in scaled), "s"),
        "cpu_s": (statistics.median(sum(c for _, c in p) for p in scaled), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (percentile(latencies, TAIL_PERCENTILE), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    measured_wall = statistics.median(sum(w for w, _ in p) for p in measured)
    notes = {"wall_s": f"median of {len(scaled)} passes; measured {measured_wall:.4f} s",
             "job_p50_s": f"over {len(latencies)} jobs, each the median of its passes",
             "job_tail_s": f"p{TAIL_PERCENTILE} over the same {len(latencies)} jobs"}
    return metrics, notes


def measure_traced(hw, inputs, pairs, audit):
    modules = [m for name, m in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    plain, traced, per_pass = [], [], []
    self_total = 0.0
    for _ in rounds(pairs):
        plain.append(sum(w for w, _ in run_pass(hw.cli, inputs, audit)[0]))
        trace = tracer.Tracer(layers.COUNTERS)
        trace.install(modules)
        try:
            traced.append(sum(w for w, _ in run_pass(hw.cli, inputs, audit, trace)[0]))
        finally:
            trace.uninstall()
        self_total += sum(b.get("self_s", 0.0) for b in trace.totals.values())
        per_pass.append(layers.layer_values(trace.totals, trace.wrapped))
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    untraced_wall, traced_wall = statistics.median(plain), statistics.median(traced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    metrics["trace.self_time_coverage"] = (self_total / sum(traced), "ratio")
    notes = {"trace.overhead_ratio":
             f"traced over untraced job time, median of {len(traced)} passes each"}
    absent = [m for m, *_ in layers.METRICS if m not in metrics]
    if absent:
        notes["absent"] = ", ".join(absent)
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    reference.gauge()  # warm-up
    before = reference.gauge()
    setups, measured_setups = [], []
    for _ in range(SETUP_REPEATS):
        wall, cpu = time.perf_counter(), time.process_time()
        hw, jobs, inputs = set_up(args.workload, args.seed)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        after = reference.gauge()
        setups.append(in_reference_seconds(wall, cpu, before + after)[0])
        measured_setups.append(wall)
        before = after

    workload = workloads.WORKLOADS[args.workload]
    passes = max(2, round(args.seconds / workload.pass_seconds))
    audit = Audit(jobs)
    if args.trace:
        # One traced and one untraced pass per pair, a third as many pairs
        # as passes: a traced run then takes about as long as an untraced one.
        metrics, notes = measure_traced(hw, inputs, max(1, passes // 3), audit)
    else:
        metrics, notes = measure(hw, inputs, passes, audit)
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
        notes["setup_s"] = (f"median of {SETUP_REPEATS} set-ups; "
                            f"measured {statistics.median(measured_setups):.4f} s")

    failed = len(audit.failures)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, "
          f"{audit.attempted} attempted, {failed} failed, "
          f"failed_ratio {failed / audit.attempted}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:>16.6f} {unit}{note}")
    if "absent" in notes:
        print(f"  absent (public name gone): {notes['absent']}")
    for failure in audit.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": audit.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
