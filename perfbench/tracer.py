"""Span tracer for the benchmark's traced run.

The tracer wraps functions of the partitioner's layers from outside the
program: it replaces a function object wherever a ``repro.*`` module binds it
(``from x import f`` copies the binding, so every copy is patched) and
wraps pyspark's DataFrame actions, because Spark work only happens at
actions. Each call becomes a span ``(name, parent, start, end)``; spans stay
in memory and are turned into per-layer metrics after the run.

Spark job counts are taken at the boundaries of action spans and of the
benchmark's own call spans: the benchmark runs every call under one Spark job
group, job ids grow monotonically, and a span covers the group's ids in
``(last id at open, last id at close]``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

_MARK = "__perfbench_original__"


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    job0: int | None = None  # Spark job range, for spans that record one
    job1: int | None = None
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Install wrappers, record spans, remove wrappers.

    ``last_job`` returns the newest Spark job id of the benchmark's job group
    (or -1); it is called at the boundaries of spans that record jobs.
    """

    def __init__(self, last_job=None):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._last_job = last_job
        self.bookkeeping_s = 0.0

    # -- spans -------------------------------------------------------------
    def _jobs(self) -> int:
        return self._last_job() if self._last_job is not None else -1

    def open(self, name: str, jobs: bool = False) -> int:
        """Open a span; ``jobs`` records the Spark job range it covers."""
        t0 = time.perf_counter()
        span = Span(name, self._stack[-1] if self._stack else -1)
        if jobs:
            span.job0 = self._jobs()
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        self.bookkeeping_s += span.start - t0
        return len(self.spans) - 1

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if not self._stack or self._stack.pop() != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.job0 is not None:
            span.job1 = self._jobs()
        self.bookkeeping_s += time.perf_counter() - span.end
        return span

    @contextlib.contextmanager
    def span(self, name: str, jobs: bool = False):
        idx = self.open(name, jobs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn, on_return, jobs: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, jobs)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(idx)
            if on_return is not None:
                t0 = time.perf_counter()
                on_return(span, args, kwargs, result)
                tracer.bookkeeping_s += time.perf_counter() - t0
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- install / remove --------------------------------------------------
    def wrap_function(self, module: str, attr: str, name: str, on_return=None) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module that binds it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(name, original, on_return, jobs=False)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original, True))
                    hits += 1
        if not hits:
            raise RuntimeError(f"{module}.{attr} is bound nowhere")

    def wrap_method(self, cls: type, attr: str, name: str, on_return=None) -> None:
        """Wrap a method on ``cls`` (the concrete class, so overrides are hit);
        its spans record Spark job ranges."""
        own = attr in cls.__dict__
        original = getattr(cls, attr)
        setattr(cls, attr, self._wrap(name, original, on_return, jobs=True))
        self._patches.append((cls, attr, original, own))

    def remove(self) -> None:
        for owner, key, original, own in reversed(self._patches):
            if own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)
        self._patches.clear()


def leftover_wrappers(classes=()) -> list[str]:
    """Tracer wrappers still bound in ``repro`` modules or on ``classes``."""
    owners = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]
    return [
        f"{getattr(o, '__name__', o)}.{k}"
        for o in [*owners, *classes]
        for k, v in list(vars(o).items())
        if hasattr(v, _MARK)
    ]


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    out = [s.dur for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.dur
    return out


def child_index(spans: list[Span]) -> dict[int, list[int]]:
    """Direct children of every span, in start order."""
    out: dict[int, list[int]] = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            out[s.parent].append(i)
    return out
