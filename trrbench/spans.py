"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the span that caused it and the id
of the send it belongs to.  Spans are kept in memory and dumped when the
run ends.  Calls too frequent to keep one span each (``on_new_block``
fans out over every node of a 6000-node world) are only counted and
timed.

Wrappers go where the callers look the functions up: module attributes
for module-level functions, instance attributes for methods of objects
the benchmark holds, so no file of the program changes.
"""

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, send)
        self.counts: Counter = Counter()
        self.totals: defaultdict = defaultdict(float)  # summed seconds or values
        self.maxima: dict[str, int] = {}
        self.ordinals: dict = {}  # key -> order of first sight
        self.paused = False  # set during set-up, which is not traced
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # parent span of a request that another thread will serve, keyed by
        # the packet bytes the serving node receives
        self._handoff: dict[bytes, tuple[int, object]] = {}

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_send(self, send_id) -> None:
        """Mark the calling thread as working on send_id."""
        self._local.stack = [(None, send_id)]

    def current(self) -> tuple[int | None, object]:
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def hand_off(self, packet: bytes) -> None:
        """Let the thread that serves packet adopt the current span."""
        with self._lock:
            self._handoff[packet] = self.current()

    def adopt(self, packet: bytes) -> None:
        """In a serving thread: continue the span that handed packet off."""
        with self._lock:
            parent = self._handoff.pop(packet, None)
        if parent is not None and not self._stack():
            self._local.stack = [parent]

    def wrap(self, name: str, fn, on_result=None):
        """fn recorded as a span named name; on_result(args, result) may
        add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent, send = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append((sid, send))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, send))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_counted(self, name: str, fn, before=None):
        """fn counted and timed without a span; before(args) runs first."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.counts[name] += 1
                    self.totals[name] += elapsed

        return counted

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.totals[name] += value

    def high_water(self, name: str, value: int) -> None:
        with self._lock:
            if value > self.maxima.get(name, 0):
                self.maxima[name] = value

    def ordinal(self, key) -> int:
        """Position of key among the keys seen so far; a new key is last."""
        with self._lock:
            return self.ordinals.setdefault(key, len(self.ordinals))

    # -- summaries -----------------------------------------------------------

    def total_s(self, name: str) -> float:
        """Summed duration of every span named name."""
        return sum(end - start for _, n, start, end, _, _ in self.spans
                   if n == name)

    def self_s(self, name: str) -> float:
        """Summed self time of spans named name: each span's duration minus
        the part of it that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        total = 0.0
        for sid, n, start, end, _, _ in self.spans:
            if n != name:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += (end - start) - covered
        return total

    def dump(self, path) -> None:
        """One JSON line per span."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, name, start, end, parent, send in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "send": send}) + "\n")
