"""In-memory spans recorded by the benchmark around public library calls.

A :class:`Tracer` keeps one record per span (name, start, end, parent
index) in a list and computes each layer's *self time*: the span's
duration minus the part of it covered by its child spans.  The
benchmark's code is single-threaded around every span it records, so
children nest strictly inside their parent and never overlap.

When tracing is off, :meth:`Tracer.span` hands back one shared
``nullcontext`` and records nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Optional, Tuple

_NULL = contextlib.nullcontext()


class Tracer:
    """Span recorder; a no-op unless ``enabled``."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``(name, start, end, parent_index)``; parent -1 for roots.
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _name, start, _end, _parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def add(self, name: str, seconds: float) -> None:
        """A root span of known duration measured outside a ``with``."""
        if self.enabled:
            now = time.perf_counter()
            self.spans.append((name, now - seconds, now, -1))

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus child-span coverage."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] = (
                totals.get(name, 0.0) + (end - start) - child_time[index]
            )
        return totals

    def write(self, path: str, extra: Optional[Dict[str, object]] = None):
        """Write the raw spans plus per-name self times as JSON."""
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "self_seconds": self.self_times(),
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle)
