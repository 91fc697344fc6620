"""Tests of the benchmark's own arithmetic: the tail rule and self time.

Run with ``python3 -m pytest bench/test_bench_stats.py``.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, outermost, self_times, tail_percentile  # noqa: E402


def _span(sid, parent, name, start, end, task="t"):
    return {"id": sid, "parent": parent, "name": name, "task": task,
            "start": start, "end": end, "attrs": {}}


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(100, 0, -1)]  # 1..100, unsorted
    pct, value, n = tail_percentile(samples)
    assert (pct, value, n) == (90.0, 90.0, 100)
    assert sum(x > value for x in samples) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    pct, value, n = tail_percentile(range(11))
    assert value == 0 and n == 11
    assert pct == pytest.approx(100.0 / 11)


def test_tail_is_the_highest_such_percentile():
    samples = list(range(1000))
    pct, value, _ = tail_percentile(samples)
    assert pct == 99.0 and value == 989
    # one step higher would leave only nine samples beyond it
    assert sum(x > 990 for x in samples) == 9


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, "a.root", 0.0, 10.0),
        _span(1, 0, "b.child", 1.0, 4.0),
        _span(2, 1, "a.grandchild", 2.0, 3.0),
        _span(3, 0, "b.child", 5.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"a": 6.0 + 1.0, "b": 2.0 + 1.0})
    # self times partition the root span
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_outermost_skips_nested_calls_of_the_same_name():
    spans = [
        _span(0, None, "x.f", 0.0, 5.0),
        _span(1, 0, "x.f", 1.0, 2.0),
        _span(2, None, "x.g", 6.0, 7.0),
        _span(3, 2, "x.f", 6.1, 6.2),
    ]
    assert [s["id"] for s in outermost(spans, "x.f")] == [0, 3]
    assert [s["id"] for s in outermost(spans, ("x.f", "x.g"))] == [0, 2]


def test_recorder_nests_calls_between_modules_and_restores():
    mod = types.ModuleType("pkg.layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    for fn in (inner, outer):
        fn.__module__ = mod.__name__
        setattr(mod, fn.__name__, fn)
    rec = Recorder()
    rec.instrument([mod], lambda m: "layer", {"layer.outer": lambda a, k, r, attrs:
                                              attrs.update(result=r)})
    assert mod.outer(1) == 4
    names = [(s["name"], s["parent"]) for s in rec.spans]
    assert names == [("layer.outer", None), ("layer.inner", 0)]
    assert rec.spans[0]["attrs"] == {"result": 4}
    rec.restore()
    assert mod.inner is inner and mod.outer is outer
