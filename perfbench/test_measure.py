"""Tests of the benchmark's own arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os

import pytest

from layers import ALL_LAYER_METRICS
from measure import Tracer, beyond, median, percentile, reportable_percentile


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_tail_needs_ten_samples_beyond():
    assert beyond(1000, 99) == 10
    assert reportable_percentile(list(range(1000)), 99) == 989
    assert beyond(999, 99) == 9
    assert reportable_percentile(list(range(999)), 99) is None
    assert reportable_percentile(list(range(100)), 90) == 89
    assert reportable_percentile(list(range(99)), 90) is None
    assert reportable_percentile([], 50) is None


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def _nested_trace():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = t.begin(t.name_id("root"))
    a = t.begin(t.name_id("a"))
    c = t.begin(t.name_id("c"))
    t.finish(c)
    t.finish(a)
    b = t.begin(t.name_id("b"))
    t.finish(b)
    t.finish(root)
    return t


def test_self_time_subtracts_direct_children_only():
    t = _nested_trace()
    assert list(t.parent) == [-1, 0, 1, 0]
    # root 10 - (a 3 + b 4); a 3 - c 1; c and b have no children
    assert t.self_times() == [3, 2, 1, 4]
    assert sum(t.self_times()) == t.end[0] - t.start[0]


def test_covered_total_skips_spans_inside_a_counted_ancestor():
    t = _nested_trace()
    assert t.covered_total(["a", "c"]) == 3  # c lies inside a
    assert t.covered_total(["c", "b"]) == 5
    assert t.covered_total(["missing"]) == 0


def test_spans_close_in_nesting_order():
    t = Tracer()
    outer = t.begin(t.name_id("outer"))
    t.begin(t.name_id("inner"))
    with pytest.raises(RuntimeError):
        t.finish(outer)


def test_benchmark_json_lists_every_layer_metric():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in ALL_LAYER_METRICS]
