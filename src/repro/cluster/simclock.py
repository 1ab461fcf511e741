"""Discrete-event simulation clock.

A calendar-queue (bucketed) event scheduler over simulated seconds.
Near-future events land in an array of fixed-width time buckets covering
one calendar "year"; far-future events wait in an overflow heap and are
pulled into buckets when their year starts. Only the bucket currently
being drained is heap-ordered — later buckets are unsorted append-only
lists — so scheduling is O(1) for most events instead of O(log n), and
all events sharing one timestamp are popped as a single batch.

Determinism contract: events fire in exact ``(time, seq)`` order, where
``seq`` is a monotonically increasing sequence number assigned at
``schedule`` time. The bucket index ``int((t - base) / width)`` is a
monotone non-decreasing function of ``t`` (subtraction, division by a
positive constant, truncation, and clamping are all monotone under
IEEE-754), so an earlier event can never land in a later bucket than a
later event; within a bucket, the heap restores ``(time, seq)`` order.
Bucket width and count therefore affect performance only — never the
observable firing order — and every run stays bit-deterministic, a
prerequisite for the seeded experiment sweeps. The original
single-binary-heap scheduler is kept frozen in
``tests/oracles/heap_simclock.py`` as the reference for the
property/parity suites and benchmark baselines.
"""

from __future__ import annotations

import heapq
from heapq import heappush as _heappush
from typing import Any, Callable

from repro.obs import profile as _profile

__all__ = ["SimClock", "Event"]


class Event:
    """A scheduled callback. ``cancel()`` turns it into a no-op."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_clock")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        clock: "SimClock | None" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Backref so cancel() can keep the owning clock's live-event
        # counter exact; cleared when the event fires.
        self._clock = clock

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            clock = self._clock
            if clock is not None:
                self._clock = None
                clock._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class SimClock:
    """The simulation driver (calendar-queue scheduler).

    ``schedule`` registers a callback at an absolute simulated time (or
    ``schedule_in`` relative to now); ``run_until`` pumps events in
    timestamp order until the horizon. Callbacks may schedule further
    events. The clock never reads wall time.

    ``bucket_width`` / ``n_buckets`` tune the calendar geometry (one
    year spans ``bucket_width * n_buckets`` simulated seconds); per the
    determinism contract above they cannot change the firing order.
    """

    def __init__(self, *, bucket_width: float = 0.02, n_buckets: int = 512) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive: {bucket_width}")
        if n_buckets < 2:
            raise ValueError(f"n_buckets must be >= 2: {n_buckets}")
        self._width = float(bucket_width)
        self._nbuckets = int(n_buckets)
        self._span = self._width * self._nbuckets
        # Containers hold (time, seq, Event) entries: (time, seq) is
        # unique, so heap/sort comparisons stay on C-level float/int
        # tuples and never fall back to Python-level Event comparison.
        self._buckets: list[list[tuple]] = [[] for _ in range(self._nbuckets)]
        self._base = 0.0  # simulated time at the start of bucket 0
        self._year_end = self._span
        self._cursor = 0  # index of the bucket currently being drained
        self._cur: list[tuple] = self._buckets[0]  # heap-ordered alias
        self._overflow: list[tuple] = []  # events with time >= _year_end
        self._in_year = 0  # queued entries (incl. cancelled) in buckets
        self._live = 0  # live (non-cancelled, unfired) events
        self._seq = 0
        self._now = 0.0
        self.events_processed = 0
        # High-water marks for BENCH_dispatch occupancy reporting.
        self.peak_pending = 0
        self.peak_bucket = 0
        self.peak_overflow = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, time: float, fn: Callable[..., None], *args: Any) -> Event:
        """Register ``fn(*args)`` to fire at absolute simulated ``time``."""
        now = self._now
        if time < now:
            if time < now - 1e-12:
                raise ValueError(
                    f"cannot schedule event in the past: {time} < {now}"
                )
            time = now
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args, self)
        entry = (time, seq, ev)
        if time < self._year_end:
            idx = int((time - self._base) / self._width)
            if idx > self._cursor:
                if idx >= self._nbuckets:  # float-rounding guard
                    idx = self._nbuckets - 1
                container = self._buckets[idx]
                container.append(entry)
            else:
                # Active (or already-passed) bucket: heap order matters.
                container = self._cur
                _heappush(container, entry)
            self._in_year += 1
            size = len(container)
            if size > self.peak_bucket:
                self.peak_bucket = size
        else:
            container = self._overflow
            _heappush(container, entry)
            size = len(container)
            if size > self.peak_overflow:
                self.peak_overflow = size
        live = self._live + 1
        self._live = live
        if live > self.peak_pending:
            self.peak_pending = live
        return ev

    def schedule_in(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Register ``fn(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule(self._now + delay, fn, *args)

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or None if empty."""
        cur = self._cur
        while cur and cur[0][2].cancelled:
            heapq.heappop(cur)
            self._in_year -= 1
        if cur:
            return cur[0][0]
        # Later buckets hold strictly later times than the active one,
        # and strictly earlier than any overflow event, so the first
        # bucket containing a live event yields the global minimum.
        for bucket in self._buckets[self._cursor + 1 :]:
            if bucket:
                best: float | None = None
                for t, _seq, ev in bucket:
                    if not ev.cancelled and (best is None or t < best):
                        best = t
                if best is not None:
                    return best
        overflow = self._overflow
        while overflow and overflow[0][2].cancelled:
            heapq.heappop(overflow)
        return overflow[0][0] if overflow else None

    def _advance(self) -> bool:
        """Move the cursor to the next populated bucket, rolling into a
        new calendar year (and draining the overflow heap) as needed.
        Returns False when no events remain anywhere."""
        buckets = self._buckets
        n = self._nbuckets
        if self._in_year:
            cursor = self._cursor
            while cursor + 1 < n:
                cursor += 1
                bucket = buckets[cursor]
                if bucket:
                    self._cursor = cursor
                    self._cur = bucket
                    heapq.heapify(bucket)
                    return True
            raise RuntimeError("calendar queue corrupted: in-year events missing")
        overflow = self._overflow
        if not overflow:
            return False
        # Roll forward to the year containing the overflow head; whole
        # empty years are skipped in one arithmetic step, so a sparse
        # far-future queue costs O(1) per roll, not O(gap / span).
        span = self._span
        head_t = overflow[0][0]
        base = self._base
        years = int((head_t - base) / span)
        if years < 1:
            years = 1
        base += years * span
        while head_t < base:  # float-rounding guards
            base -= span
        while head_t >= base + span:
            base += span
        self._base = base
        self._year_end = base + span
        width = self._width
        nmax = n - 1
        pulled = 0
        year_end = self._year_end
        while overflow and overflow[0][0] < year_end:
            entry = heapq.heappop(overflow)
            idx = int((entry[0] - base) / width)
            if idx > nmax:
                idx = nmax
            elif idx < 0:
                idx = 0
            buckets[idx].append(entry)
            pulled += 1
        self._in_year += pulled
        for cursor in range(n):
            bucket = buckets[cursor]
            if bucket:
                self._cursor = cursor
                self._cur = bucket
                heapq.heapify(bucket)
                return True
        raise RuntimeError("calendar queue corrupted: overflow pull lost events")

    def _pump(self, horizon: float, max_events: int | None, settle: bool) -> int:
        prof = _profile.active_profiler()
        frame = prof.begin("simclock/dispatch") if prof is not None else None
        heappop = heapq.heappop
        heappush = heapq.heappush
        processed = 0
        capped = False
        try:
            while True:
                cur = self._cur
                if not cur:
                    advanced = True
                    while not cur and (advanced := self._advance()):
                        cur = self._cur
                    if not advanced:
                        break
                t = cur[0][0]
                if t > horizon:
                    break
                entry = heappop(cur)
                self._in_year -= 1
                if not (cur and cur[0][0] == t):
                    # Singleton fast path: no batch list needed.
                    ev = entry[2]
                    if ev.cancelled:
                        continue
                    self._now = t
                    ev._clock = None
                    self._live -= 1
                    ev.fn(*ev.args)
                    processed += 1
                    self.events_processed += 1
                    if max_events is not None and processed >= max_events:
                        capped = True
                        break
                    continue
                # Same-timestamp events cannot exist outside the active
                # bucket (later buckets and the overflow heap hold
                # strictly later times), so the whole batch pops here
                # and is delivered in one pass.
                batch = [entry]
                while cur and cur[0][0] == t:
                    batch.append(heappop(cur))
                    self._in_year -= 1
                i = 0
                n_batch = len(batch)
                while i < n_batch:
                    ev = batch[i][2]
                    i += 1
                    if ev.cancelled:
                        continue
                    self._now = t
                    ev._clock = None
                    self._live -= 1
                    ev.fn(*ev.args)
                    processed += 1
                    self.events_processed += 1
                    if max_events is not None and processed >= max_events:
                        # Cap hit mid-batch: the unfired remainder goes
                        # back, restoring exact (time, seq) order.
                        while i < n_batch:
                            heappush(cur, batch[i])
                            self._in_year += 1
                            i += 1
                        capped = True
                        break
                if capped:
                    break
            if settle and not capped:
                self._now = max(self._now, horizon)
            return processed
        finally:
            if frame is not None:
                prof.end(frame, calls=processed)

    def run_until(self, horizon: float, *, max_events: int | None = None) -> int:
        """Process events with ``time <= horizon``; returns the count.

        The clock is left at ``horizon`` (or at the last event if
        ``max_events`` stopped the pump early).
        """
        return self._pump(horizon, max_events, settle=True)

    def run(self, *, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``)."""
        if max_events <= 0:
            # The reference heap checks its cap before firing, so a
            # non-positive cap processes nothing.
            return 0
        return self._pump(float("inf"), max_events, settle=False)

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1)."""
        return self._live

    def occupancy(self) -> dict[str, int]:
        """Queue-occupancy snapshot and high-water marks (for benches)."""
        return {
            "pending": self._live,
            "in_year": self._in_year,
            "overflow": len(self._overflow),
            "peak_pending": self.peak_pending,
            "peak_bucket": self.peak_bucket,
            "peak_overflow": self.peak_overflow,
        }
