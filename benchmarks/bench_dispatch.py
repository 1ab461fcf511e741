"""Event-dispatch scaling benchmark: calendar queue vs binary heap.

Two ladders over workers in {16, 128, 1000}, each run once per
scheduler kind — the production calendar queue and the frozen
:class:`~tests.oracles.heap_simclock.HeapSimClock` baseline:

* ``training`` — the full ``Stress 1k`` preset (truncated fleet,
  ``hier:8`` overlay so per-worker degree stays bounded). End-to-end
  events/sec here is dominated by the event *payloads* (NumPy training
  steps), so the scheduler swap moves it only marginally; it is
  recorded to show the whole-system cost at scale, with peak
  heap/bucket occupancy straight off ``clock.occupancy()``.
* ``dispatch`` — the same event *shape* (per-worker iteration timers,
  degree-8 delivery fan-out) with no-op payloads: the scheduler itself
  is the measured quantity. This is where the calendar queue's O(1)
  schedule shows up; the remaining gap to the theoretical ceiling is
  the per-event floor both schedulers share (Event allocation + the
  Python callback call).

Both runs of a rung must process the *same* event count and produce
the same iteration counts: the schedulers are required to be
observationally identical, so any divergence here is a correctness
failure, not noise. Numbers land in ``BENCH_dispatch.json`` at the
repo root. CI runs this file in smoke mode (``REPRO_BENCH_SMOKE=1``):
small clusters and short horizons only — the parity assertions always
run.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.cluster.peergraph import PeerGraph
from repro.cluster.simclock import SimClock
from repro.core.engine import TrainingEngine
from repro.experiments.environments import get_environment
from repro.experiments.runner import build_config, build_topology, workload_for
from tests.oracles.heap_simclock import HeapSimClock

CLOCKS = {"calendar": SimClock, "heap": HeapSimClock}

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_dispatch.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SIZES = (16, 128) if SMOKE else (16, 128, 1000)
# Shorter horizons at larger scale: event rate grows with the fleet, so
# these keep per-run wall clock comparable across the ladder.
HORIZONS = {16: 8.0, 128: 4.0} if SMOKE else {16: 60.0, 128: 20.0, 1000: 6.0}
OVERLAY = "hier:8"
ENV = "Stress 1k"


def _run_once(n_workers: int, kind: str) -> dict:
    """One measured stress run under the given scheduler kind."""
    env = get_environment(ENV)
    workload = workload_for(env)
    config = build_config("dlion", workload)
    topo = build_topology(env, workload, n_workers=n_workers)
    clock = CLOCKS[kind]()
    engine = TrainingEngine(
        config,
        topo,
        seed=0,
        clock=clock,
        peer_graph=PeerGraph.from_spec(OVERLAY, n_workers),
    )
    t0 = time.perf_counter()
    result = engine.run(HORIZONS[n_workers])
    wall = time.perf_counter() - t0
    occ = clock.occupancy()
    return {
        "kind": kind,
        "workers": n_workers,
        "horizon_s": HORIZONS[n_workers],
        "events": clock.events_processed,
        "wall_s": wall,
        "events_per_s": clock.events_processed / wall,
        "peak_pending": occ["peak_pending"],
        "peak_bucket": occ.get("peak_bucket", 0),
        "peak_overflow": occ.get("peak_overflow", 0),
        "iterations": list(result.iterations),
    }


def _dispatch_once(n_workers: int, kind: str, fires: int) -> dict:
    """Scheduler-only throughput: fleet-shaped events, no-op payloads."""
    clock = CLOCKS[kind]()
    count = [0]

    def deliver():
        count[0] += 1

    def iterate(w, period):
        count[0] += 1
        now = clock.now
        for k in range(8):  # the hier:8 overlay's delivery fan-out
            clock.schedule(now + 0.001 + 0.002 * k, deliver)
        clock.schedule(now + period, iterate, w, period)

    for w in range(n_workers):
        p = 0.085 + 0.00013 * (w % 500)
        clock.schedule(p * (w % 97) / 97.0, iterate, w, p)
    t0 = time.perf_counter()
    clock.run(max_events=fires)
    wall = time.perf_counter() - t0
    occ = clock.occupancy()
    return {
        "kind": kind,
        "workers": n_workers,
        "events": clock.events_processed,
        "wall_s": wall,
        "events_per_s": clock.events_processed / wall,
        "peak_pending": occ["peak_pending"],
        "peak_bucket": occ.get("peak_bucket", 0),
        "peak_overflow": occ.get("peak_overflow", 0),
    }


def _record(payload: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data.update(payload)
    data["smoke"] = SMOKE
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_training_scaling():
    """Heap vs calendar full-stack ladder; throughput + occupancy."""
    rows = []
    for n in SIZES:
        heap = _run_once(n, "heap")
        cal = _run_once(n, "calendar")
        # Observational identity: same events, same training outcome.
        assert heap["events"] == cal["events"], (heap["events"], cal["events"])
        assert heap["iterations"] == cal["iterations"]
        speedup = cal["events_per_s"] / heap["events_per_s"]
        for row in (heap, cal):
            del row["iterations"]
        rows.append({
            "workers": n,
            "horizon_s": HORIZONS[n],
            "events": cal["events"],
            "speedup_events_per_s": speedup,
            "heap": heap,
            "calendar": cal,
        })
        print(
            f"\n{n:>4} workers: {cal['events']:,d} events | "
            f"heap {heap['events_per_s']:,.0f} ev/s, "
            f"calendar {cal['events_per_s']:,.0f} ev/s "
            f"({speedup:.2f}x) | peak pending {cal['peak_pending']:,d}"
        )
    _record({
        "overlay": OVERLAY,
        "environment": ENV,
        "cpu_count": os.cpu_count(),
        "training": rows,
    })


def test_dispatch_scaling():
    """Heap vs calendar scheduler-only ladder (no-op payloads)."""
    fires = 60_000 if SMOKE else 600_000
    rows = []
    # No-op payloads make this ladder cheap enough to cover the full
    # 1,000-worker rung even in CI smoke mode.
    for n in (16, 128, 1000):
        heap = _dispatch_once(n, "heap", fires)
        cal = _dispatch_once(n, "calendar", fires)
        assert heap["events"] == cal["events"], (heap["events"], cal["events"])
        speedup = cal["events_per_s"] / heap["events_per_s"]
        rows.append({
            "workers": n,
            "events": cal["events"],
            "speedup_events_per_s": speedup,
            "heap": heap,
            "calendar": cal,
        })
        print(
            f"\n{n:>4} workers (dispatch-only): "
            f"heap {heap['events_per_s']:,.0f} ev/s, "
            f"calendar {cal['events_per_s']:,.0f} ev/s "
            f"({speedup:.2f}x) | peak pending {cal['peak_pending']:,d}"
        )
    _record({"dispatch": rows})
