"""Span tracing of the iekf_kit layers from outside the package.

Every hot-path call inside iekf_kit goes through a module attribute
(``lie.so3_hat``, ``imu_model.propagate_mean``, ``vision.triangulate``, ...)
or a class attribute (``FilterInstance.predict``), so replacing those
attributes with timing wrappers traces the whole call tree without editing
the package.  ``Tracer.installed()`` puts the wrappers in place for the
duration of a ``with`` block and always puts the originals back.

A span is (name, parent span, start, end).  Spans of one operation are kept
in memory until ``collect`` folds them into per-name totals; a span's self
time is its duration minus the durations of its child spans (calls are
sequential, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter

import iekf_kit.config
import iekf_kit.filters
import iekf_kit.imu
import iekf_kit.lie
import iekf_kit.sim
import iekf_kit.vision

# layer name -> module; errorprop and cli run on no workload's path
LAYERS = {
    "sim": iekf_kit.sim,
    "filters": iekf_kit.filters,
    "imu": iekf_kit.imu,
    "lie": iekf_kit.lie,
    "vision": iekf_kit.vision,
    "config": iekf_kit.config,
}
# classes whose public methods are traced as well
TRACED_CLASSES = {
    "filters": ("FilterInstance",),
    "vision": ("SlidingWindowUpdater",),
}
# spans split by a property of the call: predict per variant tag
SPAN_KEY = {
    "filters.FilterInstance.predict": lambda args: args[0].variant.tag,
}
# a number noted on each call: rows of the stacked update
SPAN_NOTE = {
    "filters.FilterInstance.update_raw": lambda args: len(args[1]),
}


class LayerStats:
    """Per-span-name totals over a number of collected operations."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.notes = Counter()
        self.failures = {}      # span name -> Counter of exception names
        self.operations = 0

    def failed(self, name, exceptions=None):
        by_type = self.failures.get(name, Counter())
        if exceptions is None:
            return sum(by_type.values())
        return sum(by_type[e] for e in exceptions)


class Tracer:
    """Records spans from wrapped iekf_kit functions and methods."""

    def __init__(self):
        self._reset()
        self._targets = []      # (owner, attribute, original, wrapper)
        wrappers = {}           # id(original) -> wrapper
        for layer, module in LAYERS.items():
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                    self._targets.append((module, attr, obj,
                                          wrappers[id(obj)]))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        name = f"{layer}.{cls_name}.{attr}"
                        self._targets.append((cls, attr, obj,
                                              self._wrap(obj, name)))
        # names bound by ``from .x import f`` elsewhere in the package
        for module in LAYERS.values():
            for attr, obj in list(vars(module).items()):
                if (id(obj) in wrappers
                        and obj.__module__ != module.__name__):
                    self._targets.append((module, attr, obj,
                                          wrappers[id(obj)]))

    def _reset(self):
        self._name = []
        self._parent = []
        self._t0 = []
        self._t1 = []
        self._failed = {}
        self._noted = {}
        self._stack = [-1]

    def _wrap(self, fn, name):
        key = SPAN_KEY.get(name)
        note = SPAN_NOTE.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name if key is None else f"{name}:{key(args)}")
            if note is not None:
                tracer._noted[i] = note(args)
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                tracer._failed[i] = type(e).__name__
                raise
            finally:
                tracer._t1[i] = time.perf_counter()
                tracer._stack.pop()
        return traced

    def _open(self, name):
        i = len(self._name)
        self._name.append(name)
        self._parent.append(self._stack[-1])
        self._t1.append(0.0)
        self._stack.append(i)
        self._t0.append(time.perf_counter())
        return i

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place inside the ``with`` block, originals after."""
        try:
            for owner, attr, _, wrapper in self._targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._targets):
                setattr(owner, attr, original)

    @property
    def targets(self):
        """(owner, attribute, original) of every replaced attribute."""
        return [(owner, attr, orig) for owner, attr, orig, _ in self._targets]

    def collect(self, into, keep_spans=False, scale=1.0):
        """Fold the spans recorded since the last collect into ``into``
        (a LayerStats) as one operation, durations multiplied by ``scale``,
        and drop them; with ``keep_spans`` they are returned as a list of
        dicts first."""
        n = len(self._name)
        cover = [0.0] * n
        # a child is opened after its parent, so walking backwards sees
        # every child before its parent
        for i in range(n - 1, -1, -1):
            dur = scale * (self._t1[i] - self._t0[i])
            name = self._name[i]
            into.calls[name] += 1
            into.self_s[name] += dur - cover[i]
            if self._parent[i] >= 0:
                cover[self._parent[i]] += dur
        for i, v in self._noted.items():
            into.notes[self._name[i]] += v
        for i, exc in self._failed.items():
            into.failures.setdefault(self._name[i], Counter())[exc] += 1
        into.operations += 1
        spans = None
        if keep_spans and n:
            t0 = self._t0[0]
            spans = [{"name": self._name[i], "parent": self._parent[i],
                      "start_s": self._t0[i] - t0, "end_s": self._t1[i] - t0,
                      "failed": self._failed.get(i)} for i in range(n)]
        self._reset()
        return spans
