"""Spans and counters recorded around the program's public functions.

A :class:`Tracer` replaces a function at the module or class attribute its
callers look up with a wrapper that records one span per call (name, start,
end, parent span) and, after the span closes, lets a count function add to
named counters.  That bookkeeping runs inside a span of its own, so it is
charged to neither the traced function nor its caller.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span other than bookkeeping; inside a
        count function, the caller of the function being counted."""
        for idx in reversed(self._stack):
            if self.names[idx] != BOOKKEEPING:
                return self.names[idx]
        return None

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace ``owner.attr`` as span ``name``; ``count(tracer, args,
        kwargs, result)`` runs after each call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                book = self._open(BOOKKEEPING)
                try:
                    count(self, args, kwargs, result)
                finally:
                    self._close(book)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (the span's
        duration minus the part its child spans cover)."""
        child = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            row = out[name]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[idx]
        return dict(out)

    def spans(self) -> dict:
        """All spans in columns, with names interned, for writing out."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        return {"names": table,
                "name": [ids[n] for n in self.names],
                "start": self.starts, "end": self.ends,
                "parent": self.parents}
