"""Event records and the counter-sample ring buffer.

Events are tiny slots classes — a tracing-enabled run emits one per DRAM
transaction, so allocation cost matters.  Counter samples live in a
bounded ring buffer: a long run keeps the most recent window instead of
growing without limit, and the eviction count is preserved so exporters
can report truncation instead of silently pretending full coverage.
"""

from __future__ import annotations

from typing import Any, Iterator


class SpanEvent:
    """A named interval of simulated time on one (track, tid) lane."""

    __slots__ = ("name", "begin", "end", "track", "tid", "args")

    def __init__(
        self,
        name: str,
        begin: float,
        end: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.begin = begin
        self.end = end
        self.track = track
        self.tid = tid
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.begin

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "type": "span", "name": self.name, "begin": self.begin,
            "end": self.end, "track": self.track, "tid": self.tid,
        }
        if self.args:
            d["args"] = self.args
        return d


class InstantEvent:
    """A point-in-time marker (allocation, spill, run boundary, ...)."""

    __slots__ = ("name", "ts", "track", "tid", "args")

    def __init__(
        self,
        name: str,
        ts: float,
        track: str = "engine",
        tid: int = 0,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.ts = ts
        self.track = track
        self.tid = tid
        self.args = args

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "type": "instant", "name": self.name, "ts": self.ts,
            "track": self.track, "tid": self.tid,
        }
        if self.args:
            d["args"] = self.args
        return d


class RingBuffer:
    """Fixed-capacity append-only buffer that evicts its oldest entries.

    Iteration yields entries oldest-first.  ``evicted`` counts entries
    dropped to make room, so consumers can tell a complete timeline from
    a truncated one.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._items: list[Any] = []
        self._start = 0
        self.evicted = 0

    def append(self, item: Any) -> None:
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        self._items[self._start] = item
        self._start = (self._start + 1) % self.capacity
        self.evicted += 1

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        n = len(self._items)
        for i in range(n):
            yield self._items[(self._start + i) % n]

    def last(self) -> Any:
        """Most recently appended entry; raises IndexError when empty."""
        if not self._items:
            raise IndexError("ring buffer is empty")
        return self._items[(self._start - 1) % len(self._items)]
