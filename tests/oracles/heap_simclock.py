"""The frozen binary-heap scheduler: the reference :class:`SimClock` matches.

The production calendar queue (:mod:`repro.cluster.simclock`) must fire
events in exactly the order this heap does. The scheduler property and
golden-parity suites, and ``benchmarks/bench_dispatch.py``, inject it
into a ``TrainingEngine`` through the engine's ``clock=`` argument.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.cluster.simclock import Event
from repro.obs import profile as _profile

__all__ = ["HeapSimClock"]


class HeapSimClock:
    """The original single-binary-heap scheduler, kept frozen.

    This is the reference implementation for the scheduler property and
    golden-parity suites, and the baseline for ``bench_dispatch``. Its
    observable behaviour (firing order, ``now`` trajectory, counters,
    error cases) defines the contract :class:`SimClock` must match
    exactly. ``pending()`` intentionally keeps the historical O(n)
    sweep. Do not optimise this class.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._now = 0.0
        self.events_processed = 0
        self.peak_pending = 0
        self.peak_bucket = 0  # a heap is one big bucket
        self.peak_overflow = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Register ``fn(*args)`` to fire at absolute simulated ``time``."""
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule event in the past: {time} < {self._now}")
        ev = Event(max(time, self._now), self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        size = len(self._heap)
        if size > self.peak_pending:
            self.peak_pending = size
            self.peak_bucket = size
        return ev

    def schedule_in(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Register ``fn(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule(self._now + delay, fn, *args)

    def peek_time(self) -> float | None:
        """Timestamp of the next pending event, or None if empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def run_until(self, horizon: float, *, max_events: int | None = None) -> int:
        """Process events with ``time <= horizon``; returns the count."""
        prof = _profile.active_profiler()
        frame = prof.begin("simclock/dispatch") if prof is not None else None
        processed = 0
        try:
            while self._heap:
                ev = self._heap[0]
                if ev.time > horizon:
                    break
                heapq.heappop(self._heap)
                if ev.cancelled:
                    continue
                self._now = ev.time
                ev.fn(*ev.args)
                processed += 1
                self.events_processed += 1
                if max_events is not None and processed >= max_events:
                    return processed
            self._now = max(self._now, horizon)
            return processed
        finally:
            if frame is not None:
                prof.end(frame, calls=processed)

    def run(self, *, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``)."""
        prof = _profile.active_profiler()
        frame = prof.begin("simclock/dispatch") if prof is not None else None
        processed = 0
        try:
            while self._heap and processed < max_events:
                ev = heapq.heappop(self._heap)
                if ev.cancelled:
                    continue
                self._now = ev.time
                ev.fn(*ev.args)
                processed += 1
                self.events_processed += 1
            return processed
        finally:
            if frame is not None:
                prof.end(frame, calls=processed)

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued (O(n))."""
        return sum(1 for ev in self._heap if not ev.cancelled)

    def occupancy(self) -> dict[str, int]:
        """Queue-occupancy snapshot and high-water marks (for benches)."""
        return {
            "pending": self.pending(),
            "in_year": len(self._heap),
            "overflow": 0,
            "peak_pending": self.peak_pending,
            "peak_bucket": self.peak_bucket,
            "peak_overflow": 0,
        }
