"""In-memory timing spans installed around the public functions of each layer.

A :class:`Tracer` replaces a class attribute (a method) with a wrapper
that records one span per call: its name, start, end and parent span.
Self time — a span's duration minus the time its child spans cover —
is aggregated per name as the spans close, so the per-layer numbers do
not depend on how many raw spans are kept.  Raw spans are kept in
memory up to ``keep`` and written out by :meth:`Tracer.write` when the
run ends.

Nothing here imports ``repro``: the targets are resolved by the caller,
after the import it is timing.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Called with (counts, args, result) after a wrapped call returns.
CountHook = Callable[[Dict[str, float], tuple, object], None]

#: (owner class, attribute, span name, optional count hook).
Target = Tuple[type, str, str, Optional[CountHook]]

_NO_PARENT = -1


class Tracer:
    """Span recorder with per-name self time, total time and call counts."""

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.dropped = 0
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Open spans: [span id, time covered by children].
        self._stack: List[list] = []
        self._next_id = 0
        self._ids = array("q")
        self._name_col = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, name_id: int, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        if len(self._ids) < self.keep:
            self._ids.append(frame[0])
            self._name_col.append(name_id)
            self._start.append(start)
            self._end.append(end)
            self._parent.append(parent[0] if parent is not None else _NO_PARENT)
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (a call, a warm-up)."""
        name_id = self._name_id(name)
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, name_id, frame, start, time.perf_counter())

    def wrap(self, name: str, fn: Callable, count: Optional[CountHook] = None) -> Callable:
        """``fn`` with a span around every call."""
        name_id = self._name_id(name)
        clock = time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            frame = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, name_id, frame, start, clock())
            if count is not None:
                count(counts, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, targets: Sequence[Target]) -> Callable[[], None]:
        """Wrap every target in place; returns the function that undoes it.

        Wrapping on the owner class reaches every caller, however it
        imported the class.  An inherited method is wrapped on the
        subclass named in the target, so two subclasses sharing one
        implementation get a span name each.
        """
        undo = []
        for owner, attr, name, count in targets:
            own = attr in owner.__dict__
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, count))
            undo.append((owner, attr, original if own else None))

        def restore() -> None:
            for owner, attr, original in reversed(undo):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

        return restore

    def write(self, path: str) -> None:
        """Write the kept spans as one JSON document (columns, not rows)."""
        doc = {
            "names": self._names,
            "spans_kept": len(self._ids),
            "spans_dropped": self.dropped,
            "columns": ["id", "name", "start_s", "end_s", "parent"],
            "id": self._ids.tolist(),
            "name": self._name_col.tolist(),
            "start_s": self._start.tolist(),
            "end_s": self._end.tolist(),
            "parent": self._parent.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
