"""Property suite: the calendar queue against the frozen heap reference.

Random interleavings of ``schedule`` / ``schedule_in`` / ``cancel`` /
``run_until`` / ``run`` are applied to a :class:`SimClock` (calendar
queue) and a :class:`HeapSimClock` (the frozen original, kept in
``tests/oracles``) in lockstep.
After every operation the two clocks must agree on the firing log
(which callbacks fired, in what order, at what ``now``), the ``now``
trajectory, ``events_processed``, ``pending()``, and ``peek_time()``.
Timestamps are drawn from a tie-prone grid plus arbitrary floats, so
same-timestamp batches, cancelled heads, horizon-boundary events, and
events scheduled *during* a same-time batch are all exercised; the
past-schedule rejection path must raise on both clocks identically.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import Event, SimClock
from tests.oracles.heap_simclock import HeapSimClock

# A coarse grid makes equal timestamps (and horizons landing exactly on
# event times) common instead of measure-zero.
GRID_TIMES = st.integers(min_value=0, max_value=160).map(lambda k: k * 0.25)
ANY_TIMES = st.one_of(
    GRID_TIMES,
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False,
              allow_infinity=False),
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), ANY_TIMES),
        st.tuples(st.just("schedule_in"),
                  st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                            allow_infinity=False)),
        # Same-instant scheduling: a guaranteed tie with `now`.
        st.tuples(st.just("schedule_now"), st.just(0.0)),
        # A callback that schedules more work when it fires — including
        # at its *own* timestamp, mid-batch.
        st.tuples(st.just("chain"), ANY_TIMES),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("run_until"), GRID_TIMES),
        st.tuples(st.just("run_until_capped"), GRID_TIMES,
                  st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("past"), st.just(0.0)),
    ),
    max_size=60,
)


class _Driver:
    """Applies one op stream to one clock, recording every firing."""

    def __init__(self, clock):
        self.clock = clock
        self.log: list[tuple[str, float]] = []
        self.events: list[Event] = []
        self.label = 0

    def _record(self, label: str) -> None:
        self.log.append((label, self.clock.now))

    def _chain(self, label: str, t: float) -> None:
        # Fires mid-batch: schedules a same-time event (must run in this
        # same pass, after the rest of the batch) and a later one.
        self.log.append((label, self.clock.now))
        self.events.append(
            self.clock.schedule(t, self._record, label + "/same"))
        self.events.append(
            self.clock.schedule(t + 0.5, self._record, label + "/later"))

    def apply(self, op: tuple):
        kind = op[0]
        clock = self.clock
        self.label += 1
        label = f"e{self.label}"
        if kind == "schedule":
            t = max(op[1], clock.now)
            self.events.append(clock.schedule(t, self._record, label))
        elif kind == "schedule_in":
            self.events.append(clock.schedule_in(op[1], self._record, label))
        elif kind == "schedule_now":
            self.events.append(clock.schedule(clock.now, self._record, label))
        elif kind == "chain":
            t = max(op[1], clock.now)
            self.events.append(clock.schedule(t, self._chain, label, t))
        elif kind == "cancel":
            if self.events:
                self.events[op[1] % len(self.events)].cancel()
        elif kind == "run_until":
            return clock.run_until(clock.now + op[1])
        elif kind == "run_until_capped":
            return clock.run_until(clock.now + op[1], max_events=op[2])
        elif kind == "run":
            return clock.run(max_events=op[1])
        elif kind == "past":
            t = clock.now - 1.0
            if t >= 0:
                with pytest.raises(ValueError):
                    clock.schedule(t, self._record, label)
        else:  # pragma: no cover
            raise AssertionError(kind)
        return None


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_calendar_matches_heap_reference(ops):
    """Every interleaving: identical observable behaviour on both clocks."""
    cal = _Driver(SimClock())
    heap = _Driver(HeapSimClock())
    for op in ops:
        r_cal = cal.apply(op)
        r_heap = heap.apply(op)
        assert r_cal == r_heap, (op, r_cal, r_heap)
        assert cal.log == heap.log
        assert cal.clock.now == heap.clock.now
        assert cal.clock.events_processed == heap.clock.events_processed
        assert cal.clock.pending() == heap.clock.pending()
        assert cal.clock.peek_time() == heap.clock.peek_time()
    # Drain both to the end: the tails must agree too.
    assert cal.clock.run() == heap.clock.run()
    assert cal.log == heap.log
    assert cal.clock.now == heap.clock.now
    assert cal.clock.pending() == heap.clock.pending() == 0


@settings(max_examples=60, deadline=None)
@given(ops=OPS, width=st.sampled_from([0.001, 0.02, 0.7, 13.0]),
       nbuckets=st.sampled_from([2, 7, 64, 512]))
def test_bucket_geometry_never_changes_order(ops, width, nbuckets):
    """Bucket width/count are performance knobs, not semantics."""
    ref = _Driver(SimClock())
    alt = _Driver(SimClock(bucket_width=width, n_buckets=nbuckets))
    for op in ops:
        assert ref.apply(op) == alt.apply(op)
        assert ref.log == alt.log
        assert ref.clock.now == alt.clock.now
        assert ref.clock.pending() == alt.clock.pending()
        assert ref.clock.peek_time() == alt.clock.peek_time()
    assert ref.clock.run() == alt.clock.run()
    assert ref.log == alt.log


def test_past_schedule_rejected_on_both():
    """The rejection tolerance is part of the shared contract."""
    for clock in (SimClock(), HeapSimClock()):
        clock.schedule(1.0, lambda: None)
        clock.run_until(1.0)
        with pytest.raises(ValueError):
            clock.schedule(0.5, lambda: None)
        # Within the float-noise tolerance: clamped to now, not rejected.
        ev = clock.schedule(1.0 - 1e-13, lambda: None)
        assert ev.time == 1.0
