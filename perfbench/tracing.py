"""In-memory spans and call counts, recorded around wrapped functions.

A :class:`Tracer` keeps one span stack per thread: a span's parent is the
span open on the *same* thread when it started, and its self time is its
duration minus the durations of its direct children.  Spans opened on other
threads (a gateway loop, a dispatch pool) are never children of one another,
so concurrent work on one thread cannot be subtracted from another's self
time.

Each span carries two clocks: wall time (what a caller waits) and the
thread's CPU time (what the layer computes).  Two shard threads sharing the
interpreter lock each wait for it inside their spans; CPU time leaves that
waiting out, so CPU self times of concurrent threads add up.

:class:`Patcher` installs wrappers where names are looked up.  A module that
did ``from repro.core.merge import solve_task3_many`` holds its own reference,
so a function is replaced in every loaded module that refers to it, not only
in the module that defines it.  :meth:`Patcher.restore` undoes everything.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

__all__ = ["Span", "Tracer", "Patcher"]


class Span(NamedTuple):
    name: str
    span_id: int
    parent_id: int
    thread: int
    start: float
    end: float
    child_seconds: float
    cpu_seconds: float
    child_cpu_seconds: float

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds

    @property
    def self_cpu_seconds(self) -> float:
        return self.cpu_seconds - self.child_cpu_seconds


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "start", "cpu_start", "child_seconds", "child_cpu")

    def __init__(
        self, name: str, span_id: int, parent_id: int, start: float, cpu_start: float
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.cpu_start = cpu_start
        self.child_seconds = 0.0
        self.child_cpu = 0.0


class Tracer:
    """Spans with thread-local nesting, plus plain call counters."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self._counts: dict[str, int] = defaultdict(int)
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> _Frame:
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else 0
        frame = _Frame(name, next(self._ids), parent_id, self.clock(), self.cpu_clock())
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> Span:
        end = self.clock()
        cpu_end = self.cpu_clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        span = Span(
            frame.name,
            frame.span_id,
            frame.parent_id,
            threading.get_ident(),
            frame.start,
            end,
            frame.child_seconds,
            cpu_end - frame.cpu_start,
            frame.child_cpu,
        )
        if stack:
            stack[-1].child_seconds += span.seconds
            stack[-1].child_cpu += span.cpu_seconds
        self.spans.append(span)
        return span

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self._counts[name] += amount

    def counts(self) -> dict[str, int]:
        with self._count_lock:
            return dict(self._counts)

    def timed(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, dict, Any, Span], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``observe`` sees each call's arguments and result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(frame)
            if observe is not None:
                observe(args, kwargs, result, span)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a call counter (no span: for very hot functions)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def by_name(self) -> dict[str, list[Span]]:
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.name].append(span)
        return grouped

    def dump(self, path) -> None:
        """Write every span (one JSON list per line) and the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": self.counts()}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")


class Patcher:
    """Replace functions and methods with wrappers; restore them afterwards."""

    def __init__(self, module_prefix: str) -> None:
        self.module_prefix = module_prefix
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module_name: str, attr: str, make_wrapper: Callable) -> int:
        """Wrap ``module_name.attr`` in every loaded module that refers to it.

        Returns how many module attributes were replaced.
        """
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = make_wrapper(original)
        replaced = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == self.module_prefix or name.startswith(self.module_prefix + ".")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)
                    replaced += 1
        return replaced

    def method(self, cls: type, attr: str, make_wrapper: Callable) -> None:
        """Wrap ``cls.attr`` (every instance looks methods up on the class)."""
        self._set(cls, attr, make_wrapper(vars(cls)[attr]))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
