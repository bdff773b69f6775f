"""Self-tests of the benchmark's own arithmetic and tracing.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import measure  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, self_times, union_length  # noqa: E402


# -- the percentile rule --------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (0, None), (10, None), (19, None), (20, 50.0), (99, 50.0),
    (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected
    if expected is not None:
        assert n - measure.nearest_rank(expected, n) >= measure.MIN_BEYOND


def test_latency_summary_reports_sample_count_and_tail():
    samples = [float(i) for i in range(1, 1001)]      # 1 .. 1000
    summary = measure.latency_summary(samples)
    assert summary["n"] == 1000
    assert summary["p50"] == 500.0
    assert summary["tail_p"] == 99.0
    assert summary["tail"] == 990.0                   # 10 samples beyond


def test_latency_summary_with_too_few_samples_falls_back_to_max():
    summary = measure.latency_summary([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "tail_p": None, "tail": 3.0}


# -- host pace ------------------------------------------------------------------


def test_pace_factor_scales_to_the_reference_seconds():
    pacer = measure.Pacer()
    pacer.samples = [0.04, 0.02, 0.02]
    # Kernel at 30 ms on average around the stretch: a slow host.
    assert pacer.factor(0, 1) == pytest.approx(
        measure.REFERENCE_SECONDS / 0.03)
    assert pacer.factor(1, 2) == pytest.approx(
        measure.REFERENCE_SECONDS / 0.02)


def test_pacer_mark_times_the_kernel():
    pacer = measure.Pacer()
    assert [pacer.mark(), pacer.mark()] == [0, 1]
    assert all(sample > 0 for sample in pacer.samples)


def test_reference_kernel_is_deterministic():
    assert measure.reference_kernel() == measure.reference_kernel()


def test_host_rates_are_paced_per_unit_or_per_window():
    whole = measure.UnitResult(bytes=2_000_000, seconds=1.0, pace=0.5)
    windowed = measure.UnitResult(
        bytes=9, seconds=9.0, windows=[(10, 1_000_000, 0.5),
                                       (10, 3_000_000, 1.0)])
    assert measure.host_rates([whole, windowed]) == pytest.approx(
        [4.0, 2.0, 3.0])


def test_host_outcome_takes_window_medians_and_a_pooled_p99():
    def unit(ops_seconds, windows):
        return measure.UnitResult(
            op_seconds=ops_seconds, windows=windows,
            outcome={"user_bytes": 400, "stored_bytes": 100})
    # 1000 ops over two units: 1..1000 ms, so the p99 is 990 ms.
    first = unit([i / 1e3 for i in range(1, 501)],
                 [(10, 0, 0.01), (10, 0, 0.02)])
    second = unit([i / 1e3 for i in range(501, 1001)], [(10, 0, 0.04)])
    outcome = measure.host_outcome([first, second])
    assert outcome["kiops"] == pytest.approx(0.5)      # median 500 ops/s
    assert outcome["mean_ms"] == pytest.approx(2.0)
    assert outcome["p99_ms"] == pytest.approx(990.0)
    assert outcome["reduction_ratio"] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        measure.host_outcome([unit([0.001] * 999, [(1, 0, 0.001)])])


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_of_nested_and_overlapping_children():
    #        0 root [0, 10]
    #        1  child [1, 4]      2  child [3, 6] (overlaps 1)
    #        3   grandchild [2, 3] under 1
    #        4  child [8, 12] sticks out of the root: clipped to [8, 10]
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    selfs = list(self_times(start, end, parent))
    # root: 10 minus the union [1, 6] + [8, 10] = 10 - 7
    assert selfs == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_self_times_of_stack_nested_spans_sum_to_root():
    start = [0.0, 0.5, 0.6, 2.0]
    end = [5.0, 1.5, 1.0, 3.0]
    parent = [-1, 0, 1, 0]
    assert sum(self_times(start, end, parent)) == pytest.approx(5.0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


# -- the tracer's wrappers ------------------------------------------------------


class Toy:
    def leaf(self, x):
        return x + 1

    def outer(self, x):
        return self.leaf(x) * 2

    def process(self, n):
        total = 0
        for _ in range(n):
            got = yield "tick"
            total += got
        return total


TOY_BOUNDARIES = (
    (__name__, "Toy.leaf", "toy.leaf", "call"),
    (__name__, "Toy.outer", "toy.outer", "call"),
    (__name__, "Toy.process", "toy.process", "gen"),
)


def test_call_spans_nest_and_uninstall_restores():
    original = Toy.__dict__["leaf"]
    tracer = Tracer()
    tracer.install(TOY_BOUNDARIES)
    try:
        assert Toy().outer(1) == 4
    finally:
        tracer.uninstall()
    assert Toy.__dict__["leaf"] is original
    names = [tracer.names[n] for n in tracer.name]
    assert names == ["toy.outer", "toy.leaf"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] \
        <= tracer.end[0]


def test_generator_spans_per_resumption_pass_values_through():
    tracer = Tracer()
    tracer.install(TOY_BOUNDARIES)
    try:
        def driver():
            return (yield from Toy().process(3))
        gen = driver()
        assert next(gen) == "tick"
        assert gen.send(1) == "tick"
        assert gen.send(2) == "tick"
        with pytest.raises(StopIteration) as stop:
            gen.send(3)
    finally:
        tracer.uninstall()
    assert stop.value.value == 6
    # Four resumptions: the start and the three sends.
    assert [tracer.names[n] for n in tracer.name] == ["toy.process"] * 4


def test_generator_wrapper_forwards_thrown_exceptions():
    def body():
        try:
            yield "wait"
        except KeyError:
            return "interrupted"

    tracer = Tracer()
    gen = tracer._wrap_gen("toy.body", body)()
    assert next(gen) == "wait"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "interrupted"
    assert tracer.span_count() == 2


def test_tracing_leaves_sim_reports_unchanged():
    run.import_program()
    from repro.core.calibration import run_mode
    from repro.core.modes import IntegrationMode
    from tracing import BOUNDARIES
    import workloads

    plain = workloads.digest(run_mode(IntegrationMode.GPU_COMP, 128,
                                      payload=True))
    tracer = Tracer()
    tracer.install(BOUNDARIES)
    try:
        from repro.core import calibration
        traced = workloads.digest(calibration.run_mode(
            IntegrationMode.GPU_COMP, 128, payload=True))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.span_count() > 0
    assert tracer.covered_seconds(0) > 0


# -- failure counting -----------------------------------------------------------


class Flaky:
    """A workload whose odd units raise and whose unit 2 fails a check."""

    def unit(self, index, **kwargs):
        if index % 2:
            raise RuntimeError("boom")
        result = measure.UnitResult(ops=5)
        if index == 2:
            result.failed = 2
            result.fail("two reads returned wrong bytes")
        return result


def test_failed_operations_are_counted_against_attempted():
    units = [run.run_unit(Flaky(), i) for i in range(4)]
    assert [u.ops for u in units] == [5, 1, 5, 1]
    assert [u.failed for u in units] == [0, 1, 2, 1]
    assert "boom" in units[1].failures[0]
    attempted, failed = measure.tally(units)
    assert (attempted, failed) == (12, 4)
    assert measure.success_fraction(attempted, failed) == pytest.approx(
        8 / 12)


def test_success_fraction_rejects_impossible_counts():
    with pytest.raises(ValueError):
        measure.success_fraction(0, 0)
    with pytest.raises(ValueError):
        measure.success_fraction(3, 4)


def test_unit_result_defaults_are_not_shared():
    a, b = measure.UnitResult(), measure.UnitResult()
    a.fail("x")
    assert b.failures == []
    assert dataclasses.asdict(b)["ops"] == 0
