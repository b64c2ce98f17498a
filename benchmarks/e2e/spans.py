"""Outside-in span tracing for the end-to-end benchmark.

The benchmark never edits the program it measures.  A traced pass
instead replaces public functions and methods of ``repro`` classes with
thin wrappers (:func:`install`) that record one span per call:

    (name, start, end, parent, op, thread, units)

``parent`` is the index of the enclosing span in the same thread (-1 for
a root), ``op`` the workload operation that was running, and ``units``
how much work the call did (tests executed, for the runner layer).
Spans nest, so a layer's *self* time is its duration minus the part its
child spans cover: ``analyze_split`` calling into ``analyze_unit`` is
counted once, not twice.

Spans are kept in memory, one list per thread, and written out when the
pass ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, int, int, int]


class Tracer:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.op = -1
        self.paused = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[Optional[Span]]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: List[Optional[Span]] = []
            with self._lock:
                tid = len(self._threads)
                self._threads.append(spans)
            state = self._local.state = (spans, [], tid)
        return state

    def wrap(self, fn: Callable, name, units: Optional[Callable] = None
             ) -> Callable:
        """``fn`` recorded as span ``name`` (a string, or a function of
        the call's arguments returning one).  ``units(args)`` counts the
        work a call does; by default each call is one unit."""
        clock = self.clock

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            spans, stack, tid = self._state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name if isinstance(name, str) else name(args),
                    start, end, parent, self.op, tid,
                    1 if units is None else units(args))

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span called ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def quiet(self, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` without recording the spans it would open (the
        benchmark's own checks call into traced layers too)."""
        self.paused = True
        try:
            return fn(*args, **kwargs)
        finally:
            self.paused = False

    def threads(self) -> List[List[Span]]:
        """Finished spans, one list per thread (main thread first)."""
        with self._lock:
            return [[s for s in spans if s is not None]
                    for spans in self._threads]

    def dump(self, path: str) -> None:
        """Write every span as JSON (one list per thread)."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "thread", "units"],
                       "threads": self.threads()}, fh)
            fh.write("\n")


def self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per-name self seconds, calls and units over one thread's spans.

    A span's self time is its duration minus the durations of its
    direct children; summing self times over a nest therefore gives the
    root's duration exactly once.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    table: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent, _op, _tid, units) in \
            enumerate(spans):
        row = table.setdefault(name, {"self_s": 0.0, "calls": 0,
                                      "units": 0})
        row["self_s"] += (end - start) - child[index]
        row["calls"] += 1
        row["units"] += units
    return table


def install(tracer: Tracer, patches: Sequence[Tuple]) -> Callable[[], None]:
    """Wrap ``(module, attribute path, name[, units])`` targets in place.

    ``attribute path`` is ``"function"`` or ``"Class.method"`` inside
    the module.  Returns a function that restores the originals.
    """
    undo = []
    for module_name, path, name, *rest in patches:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr,
                tracer.wrap(original, name, rest[0] if rest else None))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
