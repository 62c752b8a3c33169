"""Bucketed calendar event queue — the kernel's scheduling structure.

The original kernel kept one binary heap of ``(time, seq, event)`` tuples:
every schedule and every pop paid ``O(log n)`` on a heap whose size is
the *entire* pending horizon, and thousands of identical instrument-poll
timeouts each tick were thousands of separate heap entries.  This module
replaces it with a calendar queue: a dict of *buckets* keyed by exact
fire time, plus a heap of the distinct bucket times.  Scheduling into an
existing bucket is an O(1) list append (*timeout coalescing*:
simultaneous timeouts share one bucket and one heap entry), and popping
drains a whole bucket with O(1) list indexing, paying one heap pop per
*distinct* time instead of one per event.

**Determinism contract.**  Pops are globally ordered by ``(time, push
order)`` — byte-identical to the old binary heap, whose ``seq`` was the
push order (see ``tests/sim/test_calendar.py`` for the property tests
and the retired kernel's pinned outputs).  The argument: the time heap
pops distinct times in increasing order, and each bucket list is
appended in push order, including pushes made while it drains.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import Event

_INFINITY = float("inf")


class CalendarQueue:
    """Bucketed event queue with deterministic (time, push order) pops."""

    __slots__ = ("_buckets", "_times", "_active", "_active_time",
                 "_active_idx", "_size", "coalesced", "buckets_opened")

    def __init__(self) -> None:
        # exact fire time -> events appended in push order
        self._buckets: dict[float, list] = {}
        self._times: list[float] = []          # heap of distinct times
        # The bucket currently being drained.  It stays in ``_buckets``
        # (same-time schedules during the drain append to it live) and
        # its time is absent from ``_times`` until it is retired.
        self._active: Optional[list] = None
        self._active_time = 0.0
        self._active_idx = 0
        self._size = 0
        # Structure counters (exported via Simulator.queue_stats()).
        self.coalesced = 0       # pushes that shared an existing bucket
        self.buckets_opened = 0  # distinct times materialized

    # -- scheduling ---------------------------------------------------------

    def push(self, at: float, event: "Event") -> None:
        """Schedule ``event`` at time ``at``, after every earlier push."""
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [event]
            _heappush(self._times, at)
            self.buckets_opened += 1
        else:
            bucket.append(event)
            self.coalesced += 1
        self._size += 1

    # -- popping ------------------------------------------------------------

    def pop_due(self, stop_at: float) -> Optional[Any]:
        """Pop the earliest event if its time is ``<= stop_at``.

        Returns ``None`` when the queue is empty or the next event lies
        beyond ``stop_at``.  After a successful pop, ``_active_time``
        holds the popped event's fire time (the kernel reads it to
        advance the clock once per bucket).
        """
        while True:
            bucket = self._active
            if bucket is not None:
                t = self._active_time
                if t > stop_at:
                    return None
                i = self._active_idx
                if i < len(bucket):
                    self._active_idx = i + 1
                    self._size -= 1
                    return bucket[i]
                # Drained (including anything appended mid-drain): retire.
                del self._buckets[t]
                self._active = None
                continue
            times = self._times
            if not times:
                return None
            t = times[0]
            if t > stop_at:
                # Do NOT activate: an earlier time may still be
                # scheduled before the next run() call, and a
                # pending active bucket would shadow it.
                return None
            _heappop(times)
            self._active = self._buckets[t]
            self._active_time = t
            self._active_idx = 0

    def next_time(self) -> float:
        """Time of the earliest pending event, or ``inf`` when empty."""
        bucket = self._active
        if bucket is not None:
            if self._active_idx < len(bucket):
                return self._active_time
            del self._buckets[self._active_time]
            self._active = None
        return self._times[0] if self._times else _INFINITY

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Structure counters as plain data (for obs export)."""
        return {
            "pending": self._size,
            "coalesced": self.coalesced,
            "far_deferred": 0,  # one band; kept for aislebench's export
            "buckets_opened": self.buckets_opened,
        }

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CalendarQueue pending={self._size} "
                f"times={len(self._times)}>")
