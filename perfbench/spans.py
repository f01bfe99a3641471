"""In-memory span recorder for traced benchmark sessions.

Spans are recorded from the benchmark's own code around each call into
the program.  Each span has a name, start, end, parent and an optional
trace id shared by every span of one request.  Span stacks are kept per
thread, because a session runs a reader and a writer thread at once.
Nothing is written until :meth:`Recorder.dump`.

A disabled recorder hands out one shared no-op context, so untraced
sessions run the same code at the cost of a method call per span.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    thread: str
    start: float
    end: float = 0.0
    trace_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        name: str,
        *,
        trace_id: Optional[int] = None,
        start: Optional[float] = None,
    ):
        """Context recording ``name`` around the block.

        ``start`` backdates the span, e.g. to the moment a request was
        due rather than when it was sent.
        """
        if not self.enabled:
            return _NULL
        return self._open(name, trace_id, start)

    @contextlib.contextmanager
    def _open(
        self, name: str, trace_id: Optional[int], start: Optional[float]
    ) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace_id is None and parent is not None:
            trace_id = parent.trace_id
        span = Span(
            sid=next(self._ids),
            parent=parent.sid if parent is not None else None,
            name=name,
            thread=threading.current_thread().name,
            start=time.perf_counter() if start is None else start,
            trace_id=trace_id,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        Children run on their parent's thread, one after another, so the
        covered time is the sum of their durations clipped to the parent.
        """
        by_id = {s.sid: s for s in self.spans}
        covered: Dict[int, float] = {}
        for child in self.spans:
            parent = by_id.get(child.parent) if child.parent is not None else None
            if parent is None:
                continue
            overlap = min(child.end, parent.end) - max(child.start, parent.start)
            covered[parent.sid] = covered.get(parent.sid, 0.0) + max(overlap, 0.0)
        return {s.sid: s.duration - covered.get(s.sid, 0.0) for s in self.spans}

    def dump(self, path: str) -> None:
        ordered = sorted(self.spans, key=lambda s: (s.start, s.sid))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in ordered], handle)
