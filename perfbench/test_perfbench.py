"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

import json
import signal
import time
import types

import pytest

import reference
import run
import tracer
import workloads


def test_self_times_on_nested_spans():
    spans = [
        ("job", 0.0, 10.0, None),
        ("build", 1.0, 4.0, 0),
        ("mul", 2.0, 3.0, 1),
        ("check", 5.0, 9.0, 0),
        ("mul", 6.0, 6.5, 3),
        ("mul", 7.0, 8.0, 3),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 0.5, 1.0])
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [("outer", 0.0, 10.0, None), ("a", 2.0, 6.0, 0), ("b", 4.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(2.0)


def _toy_package():
    """Two modules: ``core`` defines the code, ``front`` imports from it."""
    core = types.ModuleType("toy.core")
    exec(
        "class Num:\n"
        "    def __init__(self, v): self.v = v\n"
        "    def __mul__(self, o): return Num(self.v * (o.v if isinstance(o, Num) else o))\n"
        "    __rmul__ = __mul__\n"
        "    def _private(self): return self\n"
        "def square(x):\n"
        "    return x * x\n"
        "def _helper(x):\n"
        "    return square(x)\n",
        core.__dict__)
    front = types.ModuleType("toy.front")
    front.square = core.square
    exec("def run(x):\n    return square(x)\n", front.__dict__)
    return core, front


def test_tracer_wraps_lookup_sites_and_aliases_but_not_private_names():
    core, front = _toy_package()
    original = core.square
    trace = tracer.Tracer({"core.Num.mul": lambda args, result: {"products": 1}})
    trace.install([core, front])
    try:
        assert front.square is not original
        assert front.square is core.square
        assert (2 * core.Num(3)).v == 6            # __rmul__ reports to mul
        front.run(core.Num(4))
        core._helper(core.Num(5))
        total = trace.end_job()
    finally:
        trace.uninstall()
    assert core.square is original and front.square is original
    assert "core._helper" not in trace.wrapped
    assert "core.Num._private" not in trace.wrapped
    totals = trace.totals
    assert totals["core.Num.mul"]["calls"] == 3
    assert totals["core.Num.mul"]["products"] == 3
    assert totals["core.square"]["calls"] == 2
    assert totals["front.run"]["calls"] == 1
    assert total == pytest.approx(sum(b["self_s"] for b in totals.values()))


def test_tracer_self_time_covers_top_level_spans():
    core, front = _toy_package()
    trace = tracer.Tracer()
    trace.install([core, front])
    try:
        front.run(core.Num(4))
        duration = sum(end - start for _, start, end, parent in trace.spans
                       if parent is None)
        total = trace.end_job()
    finally:
        trace.uninstall()
    assert total == pytest.approx(duration)


def _flatness_text(status, witness):
    results = [{"name": "flatness", "status": "pass", "detail": status}]
    if witness:
        results.append({"name": "witness identity", "status": "pass", "detail": ""})
    return json.dumps({"results": results})


def test_verdict_checker_rejects_wrong_exit_code():
    verify = workloads.make_job("verify", 4, 2, None, mode="symbolic")
    good = "\n".join(f"[PASS] triple {t}: residual numerator is 0"
                     for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
    assert workloads.check_verdict(verify, 0, good) is None
    assert workloads.check_verdict(verify, 1, good) is not None
    assert workloads.check_verdict(verify, 0, good.rsplit("\n", 1)[0]) is not None
    corrupted = workloads.make_job("verify", 4, 2, None, corrupt=True, mode="symbolic")
    failing = "[FAIL] triple (1, 2, 3): nonzero residual numerator"
    assert workloads.check_verdict(corrupted, 1, failing) is None
    assert workloads.check_verdict(corrupted, 0, failing) is not None


def test_verdict_checker_rejects_wrong_flatness_status():
    nonflat = workloads.make_job("flatness", 5, 2, None, format="json")
    flat = workloads.make_job("flatness", 5, 0, None, format="json")
    assert workloads.check_verdict(nonflat, 0, _flatness_text("nonflat-certified", True)) is None
    assert workloads.check_verdict(flat, 0, _flatness_text("flat-certified", False)) is None
    assert workloads.check_verdict(nonflat, 0, _flatness_text("flat-certified", True)) is not None
    assert workloads.check_verdict(flat, 0, _flatness_text("nonflat-certified", False)) is not None
    assert workloads.check_verdict(nonflat, 0, _flatness_text("nonflat-certified", False)) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_job_list(name):
    first = workloads.build_jobs(name, 7)
    assert first == workloads.build_jobs(name, 7)
    other = workloads.build_jobs(name, 8)
    assert [j.label.split(" nodes=")[0] for j in first] == \
        [j.label.split(" nodes=")[0] for j in other]
    assert all("max_workers" not in j.config for j in first)


def test_node_classes_keep_their_structure():
    rng = workloads.random.Random(0)
    for _ in range(50):
        ints = workloads.int_nodes(rng, 6)
        assert len(set(ints)) == 6 and 0 not in ints
        assert len({v > 0 for v in ints}) == 1
        zero = workloads.zero_node(rng, 5)
        assert zero[0] == 0 and 0 not in zero[1:]
        rational = workloads.rational_nodes(rng, 6)
        assert len(set(rational)) == 6
        assert all(v.denominator > 1 for v in rational)


def test_percentile_by_nearest_rank():
    samples = [float(i) for i in range(30, 0, -1)]
    assert run.percentile(samples, 90) == 27.0
    assert run.percentile(samples, 50) == 15.0
    assert run.percentile(samples[:6], 90) == 30.0


def test_reference_seconds_scale_by_the_median_sample():
    samples = [(0.002, 0.001), (0.010, 0.003), (0.004, 0.002)]
    wall, cpu = run.in_reference_seconds(1.0, 0.5, samples)
    assert wall == pytest.approx(reference.REFERENCE_WALL_S / 0.004)
    assert cpu == pytest.approx(0.5 * reference.REFERENCE_CPU_S / 0.002)


def test_ticker_samples_while_a_job_runs_and_then_stops():
    with reference.Ticker(0.02) as ticks:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(ticks.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert ticks.spent()[0] == pytest.approx(sum(w for w, _ in ticks.samples))
