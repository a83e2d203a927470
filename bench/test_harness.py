"""Tests for the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import worker  # puts src/ on the path, so the package imports below resolve
from harness import cycle_median, error_rate, open_loop_latencies, percentile, samples_beyond, self_times, tail_percentile
from tracing import NEGOTIATION, Tracer, merge_summaries
from workloads import JunkFlood, Results

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 99.5) == 100
    assert percentile([7], 99) == 7
    assert percentile([3, 1, 2], 50) == 2


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    chosen = tail_percentile(n)
    assert chosen == expected
    assert samples_beyond(n, chosen) >= 10


def test_tail_needs_ten_samples_beyond_the_median():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_self_time_subtracts_only_direct_children():
    # A [0,100] holds B [10,40] and C [50,70]; B holds D [15,25]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 70]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [50, 20, 10, 20]


def test_tracer_self_times_add_up_to_the_outer_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    inner = tracer.wrap("inner", lambda: (leaf(), leaf()))
    outer = tracer.wrap("outer", lambda: (inner(), time.sleep(0.001)))
    leaf = tracer.wrap("leaf", leaf)
    tracer.begin_op(1, NEGOTIATION)
    outer()
    tracer.end_op()
    outer()  # outside any operation: not summarised
    spans = tracer.summary()["spans"][NEGOTIATION]
    assert {name: entry[0] for name, entry in spans.items()} == {"outer": 1, "inner": 1, "leaf": 2}
    assert sum(entry[2] for entry in spans.values()) == spans["outer"][1]
    assert spans["inner"][2] < spans["inner"][1]


def test_merged_summaries_add_counts_and_union_keys():
    a = {"spans": {"k": {"x": [1, 10, 5]}}, "counters": {"k": {"c": 2}},
         "parsed_ops": [1], "translate_keys": {"k": [["e", "Function"]]}}
    b = {"spans": {"k": {"x": [2, 20, 15]}}, "counters": {"k": {"c": 3}},
         "parsed_ops": [4], "translate_keys": {"k": [["e", "Function"], ["f", "Function"]]}}
    merged = merge_summaries([a, b])
    assert merged["spans"]["k"]["x"] == [3, 30, 20]
    assert merged["counters"]["k"]["c"] == 5
    assert merged["parsed_ops"] == {1, 4}
    assert merged["translate_keys"]["k"] == {("e", "Function"), ("f", "Function")}


def test_cycle_median_averages_each_cycles_median():
    # three cycles: [1, 2, 100], [], [10, 20]; the empty one is skipped
    values = [1, 2, 100, 10, 20]
    assert cycle_median(values, [0, 3, 3]) == (2 + 15) / 2
    with pytest.raises(ValueError):
        cycle_median([], [0])


def test_open_loop_latency_runs_from_the_due_time():
    # the second request waits 5 behind the first, the third 10: both waits count
    due = [0, 10, 20]
    sent = [0, 15, 30]
    done = [5, 25, 35]
    latency, lag = open_loop_latencies(due, sent, done)
    assert latency == [5, 15, 15]
    assert lag == [0, 5, 10]
    with pytest.raises(ValueError):
        open_loop_latencies([0], [0, 1], [1])


def test_open_loop_schedule_queues_a_burst_behind_each_big_junk_message():
    first, second = JunkFlood.schedule(0), JunkFlood.schedule(1)
    assert first == sorted(first)
    assert first[0] == (0.0, "unknown_oid_20k") and second[0] == (0.0, "duplicate_oid_20k")
    burst = [kind for due, kind in first if 0 < due < 0.01]
    assert burst == [NEGOTIATION, NEGOTIATION, "garbage_stamp"]
    assert [kind for due, kind in second if 0 < due < 0.01][-1] == "weak_stamp"
    quiet = [kind for due, kind in first if due >= 0.01]
    assert min(due for due, _ in first if due >= 0.01) >= 0.8
    assert quiet.count(NEGOTIATION) == 22 and len(quiet) == 22 + 22


def test_error_rate_counts_every_failed_operation():
    results = Results()
    for ok in (True, True, False, True, False):
        results.outcome(ok, "reason")
    assert (results.attempted, results.failed) == (5, 2)
    assert error_rate(results.attempted, results.failed) == 0.4
    assert results.failures == ["reason", "reason"]
    with pytest.raises(ValueError):
        error_rate(0, 0)
    with pytest.raises(ValueError):
        error_rate(3, 4)


class _FakeWorkload:
    name = "hotspot-loopback"
    remote_kb = False
    tails = {"negotiation": 95.0, "junk": 95.0}


def test_reported_metric_names_match_benchmark_json():
    results = Results()
    results.start_cycle()
    results.negotiation_ns = results.audit_ns = results.junk_ns = results.lag_ns = [1_000_000, 2_000_000]
    results.completed, results.negotiate_wall_ns = 2, 1_000_000_000
    tracer = Tracer()
    tracer.begin_op(1, NEGOTIATION)
    summary = merge_summaries([tracer.summary()])
    state = {"states": 1, "records": 1, "replays": 1}
    layer = worker.per_layer(_FakeWorkload, tracer, summary, results, state)
    e2e = worker.end_to_end(_FakeWorkload, results, 2**20)
    assert set(layer) | {"bench.tracing_overhead_pct"} == {m["name"] for m in SPEC["per_layer"]}
    assert set(e2e) | {"setup_s"} == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    assert all(units[name] == unit for name, (_, unit) in {**layer, **e2e}.items())
