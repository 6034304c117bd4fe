"""Span tracing of driftwatch's module boundaries, installed from outside.

``boundary_targets`` finds every place where one driftwatch module calls
into another: a function imported with ``from .x import f`` is wrapped in
the importing module's namespace, and a module reached as ``linalg.f`` has
its own functions wrapped in place. ``installed`` rebinds those attributes
to wrappers that record spans (name, start, end, parent index) and restores
the originals on exit. Nothing inside ``src/`` is edited.

Self time is a span's duration minus the durations of its direct children.
Totals are aggregated by module (the part of the span name before the dot),
so a private kernel that is renamed or deleted still counts towards its
module and ``linalg.*`` stays comparable across versions.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans in memory; ``take`` hands them over and starts afresh."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def take(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def boundary_targets(modules: dict, extra=()) -> list:
    """``(namespace, attribute, span name)`` for every cross-module call site.

    ``modules`` maps a short layer name to a driftwatch module; ``extra``
    lists further ``(module, attribute)`` pairs to wrap, such as the entry
    points the benchmark calls.
    """
    short = {module.__name__: name for name, module in modules.items()}
    found = {}
    for module in modules.values():
        for attr, value in vars(module).items():
            if inspect.ismodule(value) and value.__name__ in short and value is not module:
                for inner, fn in vars(value).items():
                    if inspect.isfunction(fn) and fn.__module__ == value.__name__:
                        found[(value, inner)] = f"{short[value.__name__]}.{inner}"
            elif (
                inspect.isfunction(value)
                and value.__module__ in short
                and value.__module__ != module.__name__
            ):
                found[(module, attr)] = f"{short[value.__module__]}.{value.__name__}"
    for module, attr in extra:
        found[(module, attr)] = f"{short[module.__name__]}.{attr}"
    return [(module, attr, name) for (module, attr), name in found.items()]


@contextmanager
def installed(tracer: Tracer, targets):
    """Rebind every target to a tracing wrapper for the duration of the block."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, name in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the summed durations of its direct children."""
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    return [end - start - child for (_, start, end, _), child in zip(spans, children)]


class SpanSummary:
    """Per-name and per-module aggregates of one traced pass.

    ``op`` attributes each span to the nearest enclosing ``detector`` span
    (itself included), so that kernel time can be charged to the model
    operation that caused it.
    """

    def __init__(self, spans):
        selfs = self_times(spans)
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_by_name = defaultdict(float)
        self.self_by_module = defaultdict(float)
        self.root_total = 0.0
        self.linalg_self_in_update = 0.0
        self.rebuilds_in_update = 0
        op: list[str | None] = []
        for (name, start, end, parent), own in zip(spans, selfs):
            module = name.partition(".")[0]
            self.count[name] += 1
            self.total[name] += end - start
            self.self_by_name[name] += own
            self.self_by_module[module] += own
            if parent < 0:
                self.root_total += end - start
            op.append(name if module == "detector" else (op[parent] if parent >= 0 else None))
            if module == "linalg" and op[-1] == "detector.update_online":
                self.linalg_self_in_update += own
                if name == "linalg.inverse_from_factor":
                    self.rebuilds_in_update += 1

    def mean(self, name: str, scale: float = 1.0, own: bool = False) -> float:
        """Mean inclusive (or self) time per call of ``name``, times ``scale``."""
        calls = self.count.get(name, 0)
        if not calls:
            return 0.0
        source = self.self_by_name if own else self.total
        return source[name] / calls * scale

    def share(self, module: str) -> float:
        """Percent of the entry-point time spent in ``module``'s own code."""
        if self.root_total <= 0.0:
            return 0.0
        return 100.0 * self.self_by_module.get(module, 0.0) / self.root_total


def write_spans(path, spans) -> None:
    """Write spans as CSV: index, name, start and end in seconds, parent index."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write("index,name,start_s,end_s,parent\n")
        for index, (name, start, end, parent) in enumerate(spans):
            handle.write(f"{index},{name},{start!r},{end!r},{parent}\n")
