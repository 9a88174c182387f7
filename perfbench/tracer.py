"""Outside-in tracing: time the program's layers without editing it.

The tracer replaces a function at the attribute where its caller looks
it up (a module global or a class attribute) with a wrapper that records
a span, then puts the original back.  Spans stay in memory as
(id, parent, op, name, start, end); self time and per-layer totals are
derived from them after the run.

Spans opened in a pool thread whose own stack is empty take the innermost
open span of the thread that created the tracer as parent: in fisherhash
only the calling thread submits work to pools.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._root_stack = self._stack()
        self._patches: list = []
        self.missing: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        op = self.op
        stack = self._stack()
        parents = stack or self._root_stack
        parent = parents[-1] if parents else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, parent, op, name, start, end))

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fn, name: str, counter=None):
        """fn with a span around each call made during an operation (self.op
        set); counter(result) -> (count name, amount) adds to the counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.count(*counter(result))
            return result

        return traced

    def install(self, targets) -> None:
        """Patch each (module, "attr" or "Class.attr", span name, counter).

        A target whose attribute no longer exists is skipped and named in
        self.missing, so the benchmark keeps running when a later version
        drops a function; its layer then reports zero calls.
        """
        for module_name, path, name, counter in targets:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.add(f"{module_name}.{path}")
                continue
            if isinstance(original, (classmethod, staticmethod)):
                patched = type(original)(self.wrap(original.__func__, name, counter))
            else:
                patched = self.wrap(original, name, counter)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_totals(spans) -> dict:
    """Per span name: (inclusive seconds, self seconds, calls).

    Self time is a span's duration minus the part of it covered by its
    children; children running in parallel threads are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    totals = defaultdict(lambda: [0.0, 0.0, 0])
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        t = totals[s.name]
        t[0] += s.end - s.start
        t[1] += s.end - s.start - covered
        t[2] += 1
    return {name: tuple(t) for name, t in totals.items()}
