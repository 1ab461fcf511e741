"""Golden scheduler parity: calendar queue vs heap, byte-for-byte.

The calendar-queue scheduler is required to be *observationally
invisible*: injecting the frozen binary heap (``tests/oracles``) or the
calendar queue as the ``clock`` of an otherwise identical engine must
reproduce the exact same Chrome trace bytes and full metric dumps on
the Table 3 presets — and on sparse-overlay runs (ring, k-regular),
whose degree-scaled engine paths ride the same determinism contract.
Re-running the same configuration must also be byte-identical to
itself, which pins down any hidden wall-clock or iteration-order
dependence.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.peergraph import PeerGraph
from repro.cluster.simclock import SimClock
from repro.core.engine import TrainingEngine
from repro.experiments.environments import get_environment
from repro.experiments.runner import build_config, build_topology, workload_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from tests.oracles.heap_simclock import HeapSimClock

CLOCKS = {"heap": HeapSimClock, "calendar": SimClock}


def _golden_run(environment, overlay, kind, horizon):
    """One seeded dlion run (as ``run_experiment`` builds it) on ``kind``."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    env = get_environment(environment)
    workload = workload_for(env)
    topo = build_topology(env, workload)
    peer_graph = (
        PeerGraph.from_spec(overlay, topo.n_workers) if overlay is not None else None
    )
    engine = TrainingEngine(
        build_config("dlion", workload), topo, seed=3,
        tracer=tracer, metrics=metrics, peer_graph=peer_graph,
        clock=CLOCKS[kind](),
    )
    result = engine.run(horizon)
    metric_dump = json.dumps(metrics.to_dict(), sort_keys=True, default=str)
    return result, tracer.dumps(), metric_dump


# Table 3 presets across every heterogeneity axis (incl. a dynamic
# phase-switching row), plus one ring and one k-regular overlay run.
CONFIGS = [
    ("Homo B", None, 12.0),
    ("Hetero CPU B", None, 12.0),
    ("Hetero NET A", None, 12.0),
    ("Hetero SYS B", None, 12.0),
    ("Dynamic SYS A", None, 12.0),
    ("Hetero NET A", "ring", 12.0),
    ("Homo B", "kregular:3", 12.0),
]


class TestSchedulerParity:
    @pytest.mark.parametrize(
        "environment,overlay,horizon", CONFIGS,
        ids=[f"{e}{'+' + o if o else ''}" for e, o, _ in CONFIGS],
    )
    def test_heap_vs_calendar_byte_identical(self, environment, overlay, horizon):
        r_heap, trace_heap, metrics_heap = _golden_run(
            environment, overlay, "heap", horizon
        )
        r_cal, trace_cal, metrics_cal = _golden_run(
            environment, overlay, "calendar", horizon
        )
        assert trace_heap == trace_cal
        assert metrics_heap == metrics_cal
        assert r_heap.iterations == r_cal.iterations
        assert r_heap.events == r_cal.events

    @pytest.mark.parametrize("environment,overlay",
                             [("Hetero NET A", None), ("Homo B", "kregular:3")])
    def test_rerun_byte_identical(self, environment, overlay):
        one = _golden_run(environment, overlay, "calendar", 12.0)
        two = _golden_run(environment, overlay, "calendar", 12.0)
        assert one[1] == two[1]  # trace bytes
        assert one[2] == two[2]  # metric dump
