"""Stdlib-only span recorder for the benchmark's traced run.

A span is one timed call: name, start, end, the span that was open when it
began (its parent) and the benchmark task it belongs to.  Spans are kept in
memory and written out once, when the run ends.  Instrumentation wraps the
public module-level functions of a package in every module namespace that
binds them, so calls made between the package's own modules are recorded as
children of the call that made them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """In-memory span log.  A disabled recorder records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.task = "setup"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as one span; yields its mutable attrs."""
        if not self.enabled:
            yield attrs
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "task": self.task,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def instrument(self, modules, layer_of, observers=None):
        """Wrap every public function defined in ``modules``.

        ``layer_of(module)`` names the layer a module's spans belong to.
        ``observers`` maps a span name to ``f(args, kwargs, result, attrs)``,
        which copies facts about the call (an iteration count, a dimension)
        into the span's attrs.  Every module namespace that binds one of the
        functions, the package's own included, gets the wrapper.
        """
        observers = observers or {}
        wrappers = {}
        for mod in modules:
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer_of(mod)}.{attr}"
                wrappers[id(fn)] = self._wrap(fn, name, observers.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def restore(self):
        """Undo :meth:`instrument`."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result, attrs)
                return result

        return wrapper

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                row = dict(s, start=s["start"] - t0, end=s["end"] - t0)
                fh.write(json.dumps(row, default=str) + "\n")


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's.

    Calls run on one thread, so children never overlap and the part of a
    span they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in spans:
        out[layer(s["name"])] += (s["end"] - s["start"]) - covered[s["id"]]
    return dict(out)


def outermost(spans, names):
    """Spans named in ``names`` that are not nested inside another such span.

    ``spans`` may be any subset of one recording that is closed under
    parents, such as the spans of whole tasks.
    """
    names = {names} if isinstance(names, str) else set(names)
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def tail_percentile(samples, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    With n sorted samples the k-th smallest has n - k samples after it, so the
    answer is the (n - beyond)-th smallest, at percentile 100 * (n - beyond) / n.
    Returns ``(percentile, value, n)``.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail, got {n}")
    k = n - beyond
    return 100.0 * k / n, xs[k - 1], n
