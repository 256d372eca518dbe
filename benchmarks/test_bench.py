"""Tests of the benchmark's own arithmetic: tail percentile, span self time,
per-layer accounting, error-rate counting and the yardstick's pacing.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter

import pytest

from stats import (
    Span,
    Tally,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
    tally_operations,
    union_length,
)
from tracing import ROOT_SPAN, layer_metrics
from yardstick import MIN_RUNS, SHARE, Yardstick


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


def test_tail_percentile_needs_ten_samples_beyond():
    hundred = [float(i) for i in range(1, 101)]
    assert samples_beyond(hundred, 90) == 10
    assert samples_beyond(hundred, 99) == 1
    q, value, beyond = tail_percentile(hundred)
    assert (q, beyond) == (90.0, 10)
    assert value == pytest.approx(90.1)

    thousand = [float(i) for i in range(1000)]
    q, _, beyond = tail_percentile(thousand)
    assert q == 99.0 and beyond == 10


def test_tail_percentile_is_none_with_too_few_samples():
    assert tail_percentile([float(i) for i in range(90)]) is None  # 9 beyond p90
    assert tail_percentile([1.0] * 500) is None  # ties: nothing lies beyond


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert union_length([]) == 0.0


def test_self_time_subtracts_covered_children():
    spans = [
        Span("r", None, "root", 0.0, 10.0),
        Span("a", "r", "a", 1.0, 4.0),
        Span("g", "a", "g", 2.0, 3.0),
        Span("b", "r", "b", 5.0, 9.0),
    ]
    selfs, overlap = self_times(spans)
    assert selfs == {"r": 3.0, "a": 2.0, "g": 1.0, "b": 4.0}
    assert overlap == 0.0
    assert math.isclose(sum(selfs.values()), 10.0)


def test_self_time_counts_parallel_children_once_and_reports_overlap():
    spans = [
        Span("r", None, "root", 0.0, 10.0),
        Span("w1", "r", "w", 1.0, 9.0),
        Span("w2", "r", "w", 2.0, 8.0),
        Span("late", "r", "w", 9.5, 11.0),  # clipped to the parent's end
    ]
    selfs, overlap = self_times(spans)
    assert selfs["r"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert overlap == pytest.approx(6.0)


def test_layer_metrics_add_up_to_wall_and_measure_pool_overhead():
    spans = [
        Span("r", None, ROOT_SPAN, 0.0, 10.0),
        Span("m", "r", "relfine.cli.main", 0.5, 9.5),
        Span("c", "m", "relfine.cli.cmd_refine", 1.0, 9.0),
        Span("w1", "c", "relfine.cli._refine_one", 2.0, 5.0),
        Span("w2", "c", "relfine.cli._refine_one", 2.5, 7.5),
        Span("x", "w2", "relfine.logic.compile_constraints", 3.0, 4.0),
    ]
    counts = Counter({"relations.augmented": 8, "relations.kept": 6, "refine.steps": 15})
    out = layer_metrics(spans, counts, jobs=2)
    assert out["trace.wall_s"] == 10.0
    assert out["trace.remainder_s"] == pytest.approx(1.0)
    assert out["trace.overlap_s"] == pytest.approx(2.5)
    assert out["logic.compile_s"] == pytest.approx(1.0)
    assert out["cli.self_s"] == pytest.approx(1.0 + 2.5 + 3.0 + 4.0)
    assert out["cli.pool_overhead_s"] == pytest.approx(8.0 - (3.0 + 5.0) / 2)
    assert out["relations.kept_ratio"] == 0.75
    assert out["refine.steps"] == 15
    assert out["relations.pairs_scanned"] == 0


def test_layer_metrics_reject_a_trace_without_one_root():
    with pytest.raises(ValueError):
        layer_metrics([Span("m", None, "relfine.cli.main", 0.0, 1.0)], Counter(), jobs=1)


def test_error_rate_counts_failed_over_attempted():
    tally = Tally()
    assert tally.error_rate == 0.0
    for ok in (True, True, False, True):
        tally.record(ok)
    assert (tally.attempted, tally.failed, tally.error_rate) == (4, 1, 0.25)


def test_tally_operations_counts_errors_mismatches_and_failed_checks():
    passes = [
        {"a": (True, "x"), "b": (True, "y"), "c": (False, None), "d": (True, "w")},
        {"a": (True, "x"), "b": (True, "changed"), "c": (True, "z"), "d": (True, "w")},
    ]
    checked = {"a": True, "b": True, "c": True, "d": False}
    tally = tally_operations(passes, checked, setup_checks=[True, False])
    # setup: 1 failed; pass 1: c errored, d failed its check;
    # pass 2: b differs from pass 1, c differs (pass 1 left nothing), d failed its check
    assert tally.attempted == 2 + 4 + 4
    assert tally.failed == 1 + 2 + 3
    assert tally.error_rate == pytest.approx(0.6)


def test_yardstick_keeps_pace_with_the_timed_seconds():
    calls = []
    stick = Yardstick(lambda: (calls.append(1), time.sleep(0.002)))
    stick.keep_pace(0.0)
    assert len(stick.samples) == len(calls) == MIN_RUNS
    stick.keep_pace(1.0)
    assert stick.seconds == pytest.approx(sum(stick.samples))
    assert SHARE * 1.0 <= stick.seconds < SHARE * 1.0 + 0.05  # stops soon after the share
    assert stick.median_s == statistics.median(stick.samples)
