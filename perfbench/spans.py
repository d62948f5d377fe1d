"""In-memory span recorder for the traced benchmark run.

A span records its name, start, end and parent, plus the process's
``ru_maxrss`` on entry and exit.  Spans stay in memory and are written
once, when the run ends.  A disabled tracer records nothing and costs one
attribute test per call.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, Optional

_NULL = nullcontext()


def maxrss_mib() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("sid", "name", "parent", "group", "replay", "start", "end",
                 "rss_in", "rss_out")

    def __init__(self, sid: int, name: str, parent: Optional[int], group: str,
                 replay: bool):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.group = group
        self.replay = replay
        self.start = self.end = 0.0
        self.rss_in = self.rss_out = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``group`` tags the round a span belongs to."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.group = ""
        self._stack: list[int] = []

    def span(self, name: str, replay: bool = False):
        """Context manager timing one call; a no-op when disabled.

        ``replay`` marks a call made again only to be timed on its own,
        outside the operation the end-to-end metrics measure.
        """
        if not self.enabled:
            return _NULL
        return self._record(name, replay)

    @contextmanager
    def _record(self, name: str, replay: bool) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, self.group, replay)
        self.spans.append(sp)
        self._stack.append(sp.sid)
        sp.rss_in = maxrss_mib()
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.rss_out = maxrss_mib()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args, replay: bool = False):
        """``fn(*args)`` inside a span named ``name``."""
        with self.span(name, replay):
            return fn(*args)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        own = [sp.duration for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        return own

    def dump(self, path: str) -> None:
        own = self.self_times()
        rows = [
            {
                "id": sp.sid,
                "name": sp.name,
                "parent": sp.parent,
                "group": sp.group,
                "replay": sp.replay,
                "start": sp.start,
                "end": sp.end,
                "self": own[sp.sid],
                "rss_growth_mib": sp.rss_out - sp.rss_in,
            }
            for sp in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
