"""Self-tests of the benchmark's own logic; none of them runs a workload."""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench.openloop import RungResult, make_traffic
from perfbench.stats import Rung, max_rate_meeting, middle_rate, percentile, summarize, tail_percentile
from perfbench.trace import Installation, Span, Tracer, layer_table, self_times, timed_iteration
from perfbench.workloads import LADDER, WORKLOADS, StepClock, build_inputs, step_rates


@pytest.mark.parametrize(
    "n,expected",
    [(0, None), (19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"),
     (200, "95"), (999, "95"), (1000, "99"), (9999, "99"), (10000, "99.9")],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank_and_counts_failures_as_misses():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    with_failures = samples[:98] + [math.inf, math.inf]
    assert percentile(with_failures, 99) == math.inf
    assert percentile(with_failures, 98) == 98
    summary = summarize(samples)
    assert summary == {"n": 100, "p50": 50, "tail": "p90", "p90": 90}


def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id, name, start, end, parent, 0, "main")


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(1, 0.0, 10.0, name="outer"),
        _span(2, 1.0, 3.0, parent=1, name="inner"),
        _span(3, 2.0, 5.0, parent=1, name="inner"),  # overlaps its sibling
        _span(4, 8.0, 12.0, parent=1, name="inner"),  # runs past its parent
        _span(5, 1.5, 2.5, parent=2, name="leaf"),  # a grandchild of the outer span
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[5] == pytest.approx(1.0)
    table = layer_table(spans)
    assert table["inner"]["count"] == 3
    assert table["inner"]["total_ms"] == pytest.approx(1e3 * (2.0 + 3.0 + 4.0))
    assert table["outer"]["self_ms"] == pytest.approx(4e3)


def test_tracer_nests_spans_and_top_level_records_the_outermost_call_only():
    class Layer:
        def __call__(self, depth):
            return self(depth - 1) + 1 if depth else 0

    tracer = Tracer()
    installation = Installation(tracer)
    installation.span(Layer, "__call__", "layer", top_level=True)
    try:
        with tracer.region("stage"):
            assert Layer()(3) == 3
        assert list(timed_iteration(tracer, "wait", [1, 2])) == [1, 2]
    finally:
        installation.uninstall()
    assert Layer.__call__.__name__ == "__call__" and not hasattr(Layer.__call__, "__wrapped__")
    names = [span.name for span in tracer.spans]
    assert names.count("layer") == 1 and names.count("wait") == 3
    stage = next(span for span in tracer.spans if span.name == "stage")
    layer = next(span for span in tracer.spans if span.name == "layer")
    assert layer.parent == stage.span_id


def test_a_muted_region_records_only_its_own_span():
    class Layer:
        def __call__(self):
            return 1

    tracer = Tracer(muted="harness")
    installation = Installation(tracer)
    installation.span(Layer, "__call__", "layer")
    try:
        with tracer.region("stage"):
            Layer()()
            tracer.count("calls", 1)
            with tracer.region("harness"):
                Layer()()
                tracer.count("calls", 1)
            Layer()()
    finally:
        installation.uninstall()
    assert [span.name for span in tracer.spans] == ["layer", "harness", "layer", "stage"]
    assert tracer.counts == {"calls": 1}
    assert layer_table(tracer.spans)["harness"]["self_ms"] == pytest.approx(
        layer_table(tracer.spans)["harness"]["total_ms"])


def test_max_rate_meeting_applies_the_limit_and_the_backlog_rule():
    ladder = [
        Rung(150, 151, 150, 20.0),
        Rung(300, 290, 289, 60.0),
        Rung(600, 600, 560, 90.0),  # met the limit but fell behind its schedule
        Rung(2400, 2400, 1500, 900.0),
    ]
    assert max_rate_meeting(ladder, limit_ms=250.0) == 300
    assert max_rate_meeting(ladder, limit_ms=10.0) == 0.0


def test_achieved_rate_ignores_the_last_replies_latency_but_not_a_backlog():
    due = np.arange(1000) / 1000.0  # 1000 rps for one second
    on_time = due + 0.02
    on_time[-5:] += 0.3  # slow last replies do not make the rung look slow
    assert middle_rate(on_time) == pytest.approx(1000.0, rel=1e-6)
    backlogged = np.arange(1000) / 800.0  # a server that completes 800 per second
    assert middle_rate(backlogged) == pytest.approx(800.0)
    assert middle_rate([1.0]) == 0.0


def test_failed_requests_count_as_misses_of_the_ladder_limit():
    latency = np.full(100, 5.0)
    latency[:2] = np.inf  # two failed requests: beyond the 99th percentile
    result = RungResult(
        offered_rps=300, scheduled_rps=300, sent=100, ok=98, failed=2, latency_ms=latency,
        late_ms=np.zeros(100), achieved_rps=300, server={},
    )
    assert result.rung().p99_ms == math.inf
    assert max_rate_meeting([result.rung()], limit_ms=250.0) == 0.0


def test_traffic_is_reproducible_from_the_seed():
    def traffic(seed):
        return make_traffic(np.random.default_rng(seed), 300.0, 4.0, (3, 4, 4), 0.2, 128, 16)

    first, again, other = traffic(7), traffic(7), traffic(8)
    for field in ("due_s", "payloads", "source", "checked"):
        np.testing.assert_array_equal(getattr(first, field), getattr(again, field))
    assert not np.array_equal(first.due_s, other.due_s)
    assert len(first.due_s) == 1200 and np.all(np.diff(first.due_s) > 0)
    repeats = np.flatnonzero(first.source != np.arange(len(first.source)))
    assert 0.15 < len(repeats) / len(first.source) < 0.25
    for i in repeats:
        assert 0 < i - first.source[i]
        np.testing.assert_array_equal(first.payloads[i], first.payloads[first.source[i]])


def test_every_rung_supports_a_p99(tmp_path):
    workload = WORKLOADS["serve_open_loop"]
    inputs = build_inputs(workload, 3, 1.0, str(tmp_path))
    assert [rung.rate for rung in inputs.traffic] == [rate for rate, _ in LADDER]
    for rung in inputs.traffic:
        assert tail_percentile(len(rung.due_s)) in ("99", "99.9")


def test_workload_inputs_are_reproducible_from_the_seed(tmp_path):
    workload = WORKLOADS["serve_open_loop"]
    first = build_inputs(workload, 3, 1.0, str(tmp_path))
    again = build_inputs(workload, 3, 1.0, str(tmp_path))
    other = build_inputs(workload, 4, 1.0, str(tmp_path))
    for a, b in zip(first.traffic, again.traffic):
        np.testing.assert_array_equal(a.payloads, b.payloads)
        np.testing.assert_array_equal(a.due_s, b.due_s)
    assert not np.array_equal(first.traffic[0].payloads, other.traffic[0].payloads)
    # Training data is pinned to the table benches' seed.
    np.testing.assert_array_equal(first.test[0][0], other.test[0][0])


def test_step_rates_come_from_the_intervals_between_batch_requests():
    clock = StepClock([10, 20, 30])
    assert list(clock) == [10, 20, 30] and list(clock) == [10, 20, 30]
    assert [len(marks) for marks in clock.passes] == [4, 4]
    # The first intervals of a pass (prefetch queue filling, first step) are
    # left out; the rest are step times.
    passes = [[0.0, 0.001, 0.002, 0.003, 1.003, 3.003], [5.0, 5.1, 5.2, 5.3, 5.8]]
    assert step_rates(passes, 50) == pytest.approx([50.0, 25.0, 100.0])


def test_run_exits_nonzero_without_the_source_tree(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_quick", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode == 2
    assert process.stdout == ""
