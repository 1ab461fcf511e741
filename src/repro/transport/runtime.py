"""Per-process worker runtime for the live (``--backend proc``) engine.

:class:`LiveWorkerRuntime` is the engine-protocol adapter that lets one
:class:`~repro.core.worker.Worker` — with the GBS/LBS controllers, the
``TransmissionPlanner``, and DKT completely unchanged — train inside its
own OS process against real sockets. Exactly the three things ISSUE 4
allows are adapted:

* **clock** — :class:`WallClock` maps wall time onto the modelled time
  axis via a ``speedup`` factor, so the same horizons, GBS periods, and
  bandwidth traces apply (a 600-s modelled run at speedup 20 takes 30
  wall seconds);
* **delivery** — messages cross a :class:`~repro.transport.mesh.PeerMesh`
  (serialized by :mod:`repro.transport.codec`, paced by the token-bucket
  shaper) instead of the simulator's ``MessageQueues``/``Link`` pair;
* **RCP profiling** — probe durations still come from the modelled
  compute profile (the paper's calibrated heterogeneity), exactly like
  the simulator, so the LBS allocation is comparable across backends.

Gradient/weight *math* is real — the worker draws real minibatches and
applies real gradients — while iteration *timing* follows the modelled
compute profile, preserving the calibrated compute/communication
balance that DLion's controllers react to.

``run_live_worker`` is the child-process entry point: it performs the
port-exchange handshake with :class:`~repro.core.live_engine.LiveEngine`
over a pipe, trains to the horizon, then ships its metrics, series, and
trace events back for merging.

Crash recovery (docs/robustness.md): when the run spec carries a
:class:`~repro.transport.checkpoint.CheckpointConfig`, the runtime
snapshots its full training state every ``interval_s`` modelled
seconds. A child respawned with ``resume=True`` restores the newest
readable checkpoint before binding its port, resumes the cluster's
modelled clock at the offset the supervisor hands it, rejoins the
active set, and bootstraps freshness with a DKT-style weight pull from
a live peer. Surviving children receive ``("revive", worker, port)``
pipe commands and re-open their mesh links to the rejoiner's new port.
A chaos plan's link faults are injected at send time through the mesh's
``fault_fn`` hook, with windows on the modelled clock.
"""

from __future__ import annotations

import asyncio
import os
import threading
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.chaos import ChaosPlan, LinkFaultInjector
from repro.cluster.messages import (
    ControlMessage,
    DktRequestMessage,
    GradientMessage,
    LossShareMessage,
    RcpShareMessage,
    WeightMessage,
)
from repro.cluster.monitor import NetworkResourceMonitor
from repro.cluster.topology import ClusterTopology
from repro.core.config import TrainConfig
from repro.core.gbs_controller import GbsController
from repro.core.run_metrics import RunMetrics
from repro.core.worker import Worker
from repro.nn.datasets import MinibatchSampler, SyntheticImageDataset
from repro.nn.models import build_model
from repro.obs import profile as _profile
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import NULL_TRACER, THREAD_NAMES, TID_NET, Tracer
from repro.transport.checkpoint import CheckpointConfig, load_latest, write_checkpoint
from repro.transport.codec import Heartbeat
from repro.transport.mesh import (
    CHANNEL_CONTROL,
    CHANNEL_DATA,
    PeerMesh,
    TransportConfig,
)
from repro.transport.shm import shm_available
from repro.utils.metrics import TimeSeries
from repro.utils.rng import RngPool

__all__ = ["WallClock", "LiveRunSpec", "LiveWorkerRuntime", "run_live_worker"]

# Control-plane propagation delay for GBS announcements (modelled
# seconds) — matches the simulator's constant.
_GBS_ANNOUNCE_DELAY = 0.05


class WallClock:
    """Wall time mapped onto the modelled time axis.

    ``now`` reads ``(loop_time - t0) * speedup`` modelled seconds;
    ``schedule_in(d, fn)`` fires ``fn`` after ``d / speedup`` wall
    seconds. Callback exceptions are routed to ``error_handler`` (set by
    the runtime) instead of being swallowed by the event loop.
    """

    def __init__(self, speedup: float):
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        self.speedup = float(speedup)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._t0 = 0.0
        self.fired = 0
        self.error_handler = None

    def start(self, loop: asyncio.AbstractEventLoop, *, offset: float = 0.0) -> None:
        """Anchor the clock so the current loop time reads ``offset``
        modelled seconds (0.0 for a fresh run; a respawned worker is
        started at the cluster's current modelled time)."""
        self._loop = loop
        self._t0 = loop.time() - offset / self.speedup

    @property
    def now(self) -> float:
        """Current modelled time in seconds (0.0 before :meth:`start`)."""
        if self._loop is None:
            return 0.0
        return (self._loop.time() - self._t0) * self.speedup

    def schedule_in(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` after ``delay`` modelled seconds."""
        if self._loop is None:
            raise RuntimeError("clock not started")
        self._loop.call_later(max(delay, 0.0) / self.speedup, self._guard, fn, args)

    def _guard(self, fn, args) -> None:
        self.fired += 1
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - must surface to parent
            if self.error_handler is not None:
                self.error_handler(exc)
            else:
                raise


@dataclass(frozen=True)
class LiveRunSpec:
    """Everything a child process needs to run one live worker.

    Must stay picklable: it crosses the ``spawn`` boundary.
    """

    config: TrainConfig
    topology: ClusterTopology
    seed: int
    horizon: float
    speedup: float
    transport: TransportConfig = field(default_factory=TransportConfig)
    trace: bool = False
    profile: bool = False
    host: str = "127.0.0.1"
    # Crash recovery: periodic checkpoints (None disables), the fault
    # plan driving link blackout/drop/delay injection, and where each
    # child redirects its stderr (tailed into supervisor error reports).
    checkpoint: CheckpointConfig | None = None
    chaos: ChaosPlan | None = None
    stderr_dir: str | None = None
    # Telemetry delta shipping: wall seconds between incremental
    # metric/trace/flight shipments to the supervisor (None disables —
    # then only the end-of-run result payload exists, and a SIGKILLed
    # worker's telemetry is lost with it).
    ship_interval_s: float | None = 1.0
    # Shared-memory data lanes between co-hosted workers (see
    # docs/architecture.md, "Transport lanes"). ``shm_token`` is the
    # per-run nonce baked into every ring segment name; the supervisor
    # generates it and sweeps leftover segments after the run.
    shm_lanes: bool = False
    shm_token: str = ""

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.speedup <= 0:
            raise ValueError("speedup must be positive")
        if self.ship_interval_s is not None and self.ship_interval_s <= 0:
            raise ValueError("ship_interval_s must be positive (or None)")


class LiveWorkerRuntime:
    """The engine-protocol adapter one live worker trains against.

    Exposes exactly the attributes and methods ``Worker`` expects from
    ``TrainingEngine`` (clock, metrics aliases, send/record/broadcast
    hooks), implemented over a :class:`PeerMesh` and a
    :class:`WallClock`. Construction is deterministic for ``(spec,
    worker_id)``: the RNG pool uses the same named streams as the
    simulator — including building every worker's model from the shared
    ``model-init`` stream and keeping only this worker's — so a live run
    starts from bit-identical models, shards, and jitter streams.
    """

    def __init__(self, worker_id: int, spec: LiveRunSpec, *, resume: bool = False):
        self.worker_id = worker_id
        self.spec = spec
        self.config = spec.config
        self.topology = spec.topology
        self.n_workers = spec.topology.n_workers
        self.clock = WallClock(spec.speedup)
        self.clock.error_handler = self.fail
        self.stopped = False
        self.active: set[int] = set(range(self.n_workers))
        self.peer_graph = None
        self._failure: BaseException | None = None

        self.metrics = MetricsRegistry()
        rm = RunMetrics(self.metrics)
        self.run_metrics = rm
        self._c_grad_bytes = rm.c_grad_bytes
        self._c_grad_msgs = rm.c_grad_msgs
        self._c_weight_bytes = rm.c_weight_bytes
        self._h_chosen_n = rm.h_chosen_n
        self._c_iterations = rm.c_iterations
        self._h_iteration_s = rm.h_iteration_s
        self._h_wait_s = rm.h_wait_s
        self._c_wait_total = rm.c_wait_total
        self._c_compute_total = rm.c_compute_total
        self._c_dkt_merges = rm.c_dkt_merges
        self._c_dkt_pulls = rm.c_dkt_pulls
        self._g_gbs = rm.g_gbs
        self._g_lbs = rm.g_lbs
        self._g_queue_depth = rm.g_queue_depth
        self._c_queue_dropped = rm.c_queue_dropped
        self._g_active = rm.g_active
        self._c_events = rm.c_events
        self._c_chaos_dropped = rm.c_chaos_dropped
        self._g_partition = rm.g_partition

        self.tracer = Tracer() if spec.trace else NULL_TRACER
        if self.tracer.enabled:
            self.tracer.set_process_name(worker_id, f"worker {worker_id}")
            for tid, name in THREAD_NAMES.items():
                self.tracer.set_thread_name(worker_id, tid, name)
        self.profiler = Profiler() if spec.profile else None

        # Deterministic construction (same streams as the simulator).
        self.rng_pool = RngPool(spec.seed)
        self.dataset = self._build_dataset()
        shards = self.dataset.shards(self.n_workers, mode=self.config.shard_mode)
        self._eval_x = self.dataset.test_x[: self.config.eval_subset]
        self._eval_y = self.dataset.test_y[: self.config.eval_subset]
        self.gbs_controller = GbsController(
            self.config.gbs,
            initial_gbs=self.config.initial_lbs * self.n_workers,
            train_size=self.dataset.train_size,
        )
        # model-init is ONE shared stream consumed sequentially across
        # workers in the simulator; replay all draws, keep only ours.
        model = None
        for w in range(self.n_workers):
            candidate = build_model(
                self.config.model,
                self.rng_pool.get("model-init"),
                **self.config.model_kwargs,
            )
            if w == worker_id:
                model = candidate
        sampler = MinibatchSampler(
            shards[worker_id], self.rng_pool.get(f"sampler/{worker_id}")
        )
        monitor = NetworkResourceMonitor(worker_id, self.topology.network)
        from repro.baselines.registry import create_strategy

        strategy = create_strategy(self.config, worker_id)
        self.worker = Worker(
            worker_id=worker_id,
            engine=self,
            model=model,
            sampler=sampler,
            strategy=strategy,
            monitor=monitor,
            config=self.config,
            rng=self.rng_pool.get(f"worker/{worker_id}"),
        )
        strategy.setup(self.worker)
        self.workers = {worker_id: self.worker}  # engine-protocol shim

        # Peer progress, fed by heartbeats (the live GBS input).
        self._peer_samples: dict[int, int] = {}

        # Fault injection (chaos plan): send-time verdicts on the
        # modelled clock. The rng stream is per-worker so live drop
        # sampling never perturbs the shared simulator streams.
        self._fault_injector: LinkFaultInjector | None = None
        self._active_blackouts = 0
        if spec.chaos is not None and spec.chaos.link_faults:
            self._fault_injector = LinkFaultInjector(
                spec.chaos, self.rng_pool.get(f"chaos/{worker_id}")
            )

        # Supervisor pipe for throttled progress reports (set by
        # _child_main); lets the parent time chaos kills deterministically
        # and compute lost-iteration counts.
        self.progress_conn = None
        self._last_progress_wall: float = 0.0
        # Iteration count restored from a checkpoint (0 = fresh start);
        # reported to the supervisor so it can compute lost iterations.
        self.restored_iteration = 0

        # Telemetry delta shipping (crash-safety): cumulative metric
        # snapshots plus incremental trace/flight events go to the
        # supervisor every ship_interval_s wall seconds, so a SIGKILL
        # loses at most one interval of telemetry. The flight recorder
        # is always on — it is the black box when tracing is disabled.
        self.flight = FlightRecorder(worker_id)
        self._trace_cursor = 0
        self._last_ship_wall = 0.0
        self.deltas_shipped = 0

        # Locally-recorded series (shipped to the parent at the end).
        self.acc_series = TimeSeries()
        self.loss_series = TimeSeries()
        self.lbs_series = TimeSeries()
        self.gbs_series = TimeSeries()
        self.active_series = TimeSeries()
        self.link_entries: dict[tuple[int, int], TimeSeries] = {}
        self.link_chosen_n: dict[tuple[int, int], TimeSeries] = {}

        shm_peers = self._shm_lane_peers(resume)
        self.mesh = PeerMesh(
            worker_id,
            on_message=self._on_mesh_message,
            on_peer_dead=self._on_peer_dead,
            on_error=self.fail,
            on_heartbeat=self._on_heartbeat,
            rate_fn=self._link_rate_bytes,
            config=spec.transport,
            metrics=self.metrics,
            tracer=self.tracer,
            now_fn=lambda: self.clock.now,
            progress_fn=lambda: self.worker.sampler.samples_drawn,
            fault_fn=self._mesh_fault_fn if self._fault_injector else None,
            seed=spec.seed,
            host=spec.host,
            shm_out=shm_peers,
            shm_in=shm_peers,
            shm_token=spec.shm_token,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_dataset(self) -> SyntheticImageDataset:
        rng = self.rng_pool.get("dataset")
        cfg = self.config
        if cfg.dataset == "cifar_like":
            return SyntheticImageDataset.cifar_like(
                rng, train_size=cfg.train_size, test_size=cfg.test_size,
                **cfg.dataset_kwargs,
            )
        if cfg.dataset == "imagenet_like":
            return SyntheticImageDataset.imagenet_like(
                rng, train_size=cfg.train_size, test_size=cfg.test_size,
                **cfg.dataset_kwargs,
            )
        raise ValueError(f"unknown dataset preset {cfg.dataset!r}")

    def _shm_lane_peers(self, resume: bool) -> set[int]:
        """Which peers' data links ride the shm lane.

        The rule is symmetric — both ends of a link evaluate the same
        min-of-both-directions modelled bandwidth at t=0 against
        ``transport.shm_min_mbps`` — so sender and receiver always agree
        on a link's lane without negotiating. A respawned worker
        (``resume=True``) stays on TCP everywhere: its peers' ring
        attachments still point at the crashed incarnation's segments,
        and the supervisor's revive path downgrades their links to TCP
        to match (see :meth:`PeerMesh.revive`).
        """
        if not self.spec.shm_lanes or resume or not shm_available():
            return set()
        cutoff = self.spec.transport.shm_min_mbps
        peers: set[int] = set()
        for dst in range(self.n_workers):
            if dst == self.worker_id:
                continue
            fwd = self.topology.network.link(self.worker_id, dst)
            rev = self.topology.network.link(dst, self.worker_id)
            if min(fwd.bandwidth_at(0.0), rev.bandwidth_at(0.0)) >= cutoff:
                peers.add(dst)
        return peers

    def _link_rate_bytes(self, dst: int) -> float:
        """The shaper rate for the link to ``dst``: modelled Mbps at the
        current modelled time, converted to wall bytes/s (sped up so a
        transfer's wall duration equals modelled duration / speedup)."""
        mbps = self.topology.network.link(self.worker_id, dst).bandwidth_at(
            self.clock.now
        )
        return mbps * 1e6 / 8.0 * self.spec.speedup

    def fail(self, exc: BaseException) -> None:
        """Record the first callback failure; the run loop re-raises it."""
        if self._failure is None:
            self._failure = exc

    # ------------------------------------------------------------------
    # Engine protocol: physics + peers
    # ------------------------------------------------------------------
    def iteration_duration(self, worker: int, batch: int, t: float) -> float:
        """Modelled duration of one iteration (same compute model as sim)."""
        return self.topology.compute[worker].iter_time(
            batch, t, self.rng_pool.get(f"jitter/{worker}")
        )

    def active_peers(self, worker: int) -> list[int]:
        """Live peers of ``worker`` (the mesh's death set drives this)."""
        return sorted(w for w in self.active if w != worker)

    # ------------------------------------------------------------------
    # Engine protocol: message sends (over the mesh)
    # ------------------------------------------------------------------
    def send_gradients(
        self, src: int, dst: int, msg: GradientMessage, *, chosen_n: float | None
    ) -> None:
        """Ship gradients on the data channel, recording the same link
        accounting as the simulator (estimate-based, so Max-N budgets
        compare across backends; actual socket bytes land in
        ``transport_send_bytes_total``)."""
        nbytes = msg.wire_bytes()
        if self.config.record_link_stats:
            key = (src, dst)
            self._c_grad_bytes.inc(nbytes, src, dst)
            self._c_grad_msgs.inc(1, src, dst)
            self.link_entries.setdefault(key, TimeSeries()).append(
                self.clock.now, msg.num_entries()
            )
            if chosen_n is not None:
                self._h_chosen_n.observe(chosen_n, f"{src}->{dst}")
                self.link_chosen_n.setdefault(key, TimeSeries()).append(
                    self.clock.now, chosen_n
                )
        self.mesh.send(dst, CHANNEL_DATA, msg, trace_name=f"grad->{dst}")

    def send_gradients_batch(self, src: int, items) -> None:
        """Engine protocol: a worker's same-instant gradient fan-out.

        Real sockets serialize per destination anyway, so the live
        runtime just replays the batch sequentially."""
        for dst, msg, chosen_n in items:
            self.send_gradients(src, dst, msg, chosen_n=chosen_n)

    def active_members(self) -> list[int]:
        """Engine protocol: sorted live worker ids."""
        return sorted(self.active)

    def send_control(self, src: int, dst: int, msg) -> None:
        """Ship a control message on the control channel."""
        self.mesh.send(dst, CHANNEL_CONTROL, msg, trace_name=f"ctrl->{dst}")

    def send_weights(self, src: int, dst: int, msg: WeightMessage) -> None:
        """Ship a DKT weight snapshot on the data channel."""
        self._c_weight_bytes.inc(msg.wire_bytes(), src, dst)
        self.mesh.send(dst, CHANNEL_DATA, msg, trace_name=f"weights->{dst}")

    def broadcast_rcp(self, src: int, rcp: float) -> None:
        """Share this worker's measured RCP with every live peer."""
        for dst in self.active_peers(src):
            self.send_control(src, dst, RcpShareMessage(sender=src, rcp=rcp))

    def broadcast_loss_share(self, src: int, iteration: int, avg_loss: float) -> None:
        """Share this worker's trailing-average loss with every live peer."""
        for dst in self.active_peers(src):
            self.send_control(
                src, dst,
                LossShareMessage(sender=src, iteration=iteration, avg_loss=avg_loss),
            )

    # ------------------------------------------------------------------
    # Incoming traffic (mesh callbacks; all on the event-loop thread)
    # ------------------------------------------------------------------
    def _on_mesh_message(self, src: int, channel: int, msg) -> None:
        if self.stopped:
            return  # the local model is finalized; late traffic is dropped
        try:
            if isinstance(msg, GradientMessage):
                self.worker.on_gradient_message(msg)
            elif isinstance(msg, WeightMessage):
                self.worker.on_weight_message(msg)
            elif isinstance(msg, DktRequestMessage):
                self.worker.on_dkt_request(msg)
            elif isinstance(msg, LossShareMessage):
                self.worker.on_loss_share(msg)
            elif isinstance(msg, RcpShareMessage):
                self.worker.on_rcp_share(msg)
            elif isinstance(msg, ControlMessage):
                self.worker.on_control_message(msg)
            # Unknown payloads are ignored (forward compatibility).
        except BaseException as exc:  # noqa: BLE001 - must surface to parent
            self.fail(exc)

    def _on_heartbeat(self, hb: Heartbeat) -> None:
        self._peer_samples[hb.sender] = hb.samples_drawn

    def _on_peer_dead(self, peer: int) -> None:
        """A peer exhausted its retry budget: a leave-style membership
        change, exactly like the simulator's churn events."""
        if peer not in self.active:
            return
        self.active.discard(peer)
        self._peer_samples.pop(peer, None)
        self.active_series.append(self.clock.now, len(self.active))
        self._g_active.set(len(self.active))
        self.flight.record("peer-dead", self.clock.now, {"peer": peer})
        try:
            self.worker.on_membership_change(self.active)
        except BaseException as exc:  # noqa: BLE001 - must surface to parent
            self.fail(exc)

    def on_peer_revived(self, peer: int, addr: tuple[str, int]) -> None:
        """The supervisor respawned ``peer`` at ``addr``: rebuild the
        mesh links and fold the rejoin into a membership change.

        Always refreshes the links — even when this worker never got
        around to declaring the peer dead (a fast restart can beat the
        retry budget), the old links point at a port nobody listens on
        and must be superseded before their retry loop gives up.
        """
        self.mesh.revive(peer, addr)
        self.flight.record("peer-revived", self.clock.now, {"peer": peer})
        if peer in self.active:
            return
        self.active.add(peer)
        self.active_series.append(self.clock.now, len(self.active))
        self._g_active.set(len(self.active))
        try:
            self.worker.on_membership_change(self.active)
        except BaseException as exc:  # noqa: BLE001 - must surface to parent
            self.fail(exc)

    # ------------------------------------------------------------------
    # Fault injection (chaos plan)
    # ------------------------------------------------------------------
    def _mesh_fault_fn(self, dst: int, channel: int) -> float | None:
        """Send-time chaos verdict: None drops, >0 is extra wall delay."""
        verdict = self._fault_injector.on_send(self.worker_id, dst, self.clock.now)
        if verdict is None:
            self._c_chaos_dropped.inc(1, self.worker_id, dst)
            return None
        # The injector speaks modelled seconds; the mesh sleeps in wall.
        return verdict / self.spec.speedup

    def _schedule_blackout_markers(self) -> None:
        """Pre-schedule partition-gauge flips and trace instants for
        every blackout window this worker sends into."""
        if self.spec.chaos is None:
            return
        for f in self.spec.chaos.blackout_windows():
            srcs = {f.src} | ({f.dst} if f.bidirectional else set())
            if self.worker_id not in srcs:
                continue
            self.clock.schedule_in(
                max(f.start - self.clock.now, 0.0), self._blackout_edge, f, +1
            )
            self.clock.schedule_in(
                max(f.end - self.clock.now, 0.0), self._blackout_edge, f, -1
            )

    def _blackout_edge(self, fault, delta: int) -> None:
        self._active_blackouts = max(0, self._active_blackouts + delta)
        self._g_partition.set(self._active_blackouts)
        self.flight.record(
            "blackout-start" if delta > 0 else "blackout-end",
            self.clock.now, {"src": fault.src, "dst": fault.dst},
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "blackout-start" if delta > 0 else "blackout-end",
                self.worker_id,
                TID_NET,
                self.clock.now,
                cat="chaos",
                args={"src": fault.src, "dst": fault.dst},
            )

    # ------------------------------------------------------------------
    # Checkpointing (crash recovery)
    # ------------------------------------------------------------------
    def _layer_state(self) -> tuple[dict, dict]:
        """(arrays, meta) for per-layer step state: BatchNorm running
        statistics as arrays, Dropout RNG positions as picklable dicts."""
        arrays: dict = {}
        rng_states: dict[int, dict] = {}
        for i, layer in enumerate(self.worker.model.layers):
            mean = getattr(layer, "running_mean", None)
            if mean is not None:
                arrays[f"__bn{i}/mean"] = mean.copy()
                arrays[f"__bn{i}/var"] = layer.running_var.copy()
            rng = getattr(layer, "rng", None)
            if rng is not None:
                rng_states[i] = rng.bit_generator.state
        return arrays, rng_states

    def checkpoint_state(self) -> tuple[dict, dict]:
        """Everything needed to resume this worker after a SIGKILL."""
        w = self.worker

        def series(ts: TimeSeries) -> tuple[list[float], list[float]]:
            return (list(ts.times), list(ts.values))

        arrays = {name: arr.copy() for name, arr in w.model.variables().items()}
        layer_arrays, layer_rngs = self._layer_state()
        arrays.update(layer_arrays)
        gc = self.gbs_controller
        meta = {
            "format": 1,
            "worker": self.worker_id,
            "seed": self.spec.seed,
            "n_workers": self.n_workers,
            "iteration": w.iteration,
            "time": self.clock.now,
            "samples_drawn": w.sampler.samples_drawn,
            "rng": {
                "sampler": w.sampler.rng.bit_generator.state,
                "worker": w.rng.bit_generator.state,
                "jitter": self.rng_pool.get(
                    f"jitter/{self.worker_id}"
                ).bit_generator.state,
                "layers": layer_rngs,
            },
            "lbs": w.lbs,
            "gbs": w.gbs,
            "rcp_table": dict(w.rcp_table),
            "received_from": dict(w.sync_state.received_from),
            "dkt": {
                "losses": list(w.dkt._losses),
                "shared_losses": dict(w.dkt.shared_losses),
                "pulls_requested": w.dkt.pulls_requested,
                "merges_applied": w.dkt.merges_applied,
            },
            "iter_time_ema": w._iter_time_ema,
            "recent_iters": list(w._recent_iters),
            "stats": {
                "grad_msgs_sent": w.stats_grad_msgs_sent,
                "grad_msgs_received": w.stats_grad_msgs_received,
                "weight_pulls": w.stats_weight_pulls,
            },
            "compute_time": w.compute_time,
            "wait_time": w.wait_time,
            "gbs_controller": {
                "gbs": gc.gbs,
                "phase": gc.phase,
                "last_growth_epoch": gc._last_growth_epoch,
            },
            "peer_samples": dict(self._peer_samples),
            "metrics": self.metrics.dump_state(),
            "series": {
                "accuracy": series(self.acc_series),
                "loss": series(self.loss_series),
                "lbs": series(self.lbs_series),
                "gbs": series(self.gbs_series),
                "active": series(self.active_series),
            },
            "link_entries": {k: series(v) for k, v in self.link_entries.items()},
            "link_chosen_n": {k: series(v) for k, v in self.link_chosen_n.items()},
        }
        return arrays, meta

    def restore_from(self, arrays: dict, meta: dict) -> None:
        """Rebuild worker state from a checkpoint (before mesh start).

        Weights, RNG stream positions, counters, controller state, and
        the recorded series come back exactly; anything in flight at
        the crash (outbox frames, queued peer messages, an unfinished
        iteration) is lost by design — see docs/robustness.md.
        """
        if meta.get("seed") != self.spec.seed or meta.get("worker") != self.worker_id:
            raise ValueError(
                f"checkpoint mismatch: written by worker {meta.get('worker')} "
                f"seed {meta.get('seed')}, restoring as worker "
                f"{self.worker_id} seed {self.spec.seed}"
            )
        w = self.worker
        weights = {
            name: arr for name, arr in arrays.items() if not name.startswith("__bn")
        }
        w.model.set_weights(weights)
        for i, layer in enumerate(w.model.layers):
            mean_key = f"__bn{i}/mean"
            if mean_key in arrays:
                np.copyto(layer.running_mean, arrays[mean_key])
                np.copyto(layer.running_var, arrays[f"__bn{i}/var"])
            rng = getattr(layer, "rng", None)
            if rng is not None and i in meta["rng"]["layers"]:
                rng.bit_generator.state = meta["rng"]["layers"][i]
        w.sampler.rng.bit_generator.state = meta["rng"]["sampler"]
        w.rng.bit_generator.state = meta["rng"]["worker"]
        self.rng_pool.get(f"jitter/{self.worker_id}").bit_generator.state = (
            meta["rng"]["jitter"]
        )
        w.iteration = meta["iteration"]
        w.sync_state.iteration = w.iteration
        w.sync_state.received_from = dict(meta["received_from"])
        w.sampler.samples_drawn = meta["samples_drawn"]
        w.lbs = meta["lbs"]
        w.gbs = meta["gbs"]
        w.rcp_table = dict(meta["rcp_table"])
        w.dkt._losses.extend(meta["dkt"]["losses"])
        w.dkt.shared_losses = dict(meta["dkt"]["shared_losses"])
        w.dkt.pulls_requested = meta["dkt"]["pulls_requested"]
        w.dkt.merges_applied = meta["dkt"]["merges_applied"]
        w._iter_time_ema = meta["iter_time_ema"]
        w._recent_iters.extend(tuple(x) for x in meta["recent_iters"])
        w.stats_grad_msgs_sent = meta["stats"]["grad_msgs_sent"]
        w.stats_grad_msgs_received = meta["stats"]["grad_msgs_received"]
        w.stats_weight_pulls = meta["stats"]["weight_pulls"]
        w.compute_time = meta["compute_time"]
        w.wait_time = meta["wait_time"]
        gc = self.gbs_controller
        gc.gbs = meta["gbs_controller"]["gbs"]
        gc.phase = meta["gbs_controller"]["phase"]
        gc._last_growth_epoch = meta["gbs_controller"]["last_growth_epoch"]
        self._peer_samples = dict(meta["peer_samples"])
        # Counters add onto a fresh registry: an exact restore.
        self.metrics.merge_state(meta["metrics"])

        def refill(ts: TimeSeries, pair) -> None:
            for t, v in zip(*pair):
                ts.append(t, v)

        refill(self.acc_series, meta["series"]["accuracy"])
        refill(self.loss_series, meta["series"]["loss"])
        refill(self.lbs_series, meta["series"]["lbs"])
        refill(self.gbs_series, meta["series"]["gbs"])
        refill(self.active_series, meta["series"]["active"])
        for key, pair in meta["link_entries"].items():
            refill(self.link_entries.setdefault(tuple(key), TimeSeries()), pair)
        for key, pair in meta["link_chosen_n"].items():
            refill(self.link_chosen_n.setdefault(tuple(key), TimeSeries()), pair)
        self.restored_iteration = w.iteration

    def _checkpoint_tick(self) -> None:
        if self.stopped:
            return
        cfg = self.spec.checkpoint
        arrays, meta = self.checkpoint_state()
        write_checkpoint(
            cfg.directory, self.worker_id, arrays, meta, retention=cfg.retention
        )
        self.flight.record(
            "checkpoint", self.clock.now,
            {"iteration": self.worker.iteration},
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "checkpoint", self.worker_id, TID_NET, self.clock.now,
                cat="chaos", args={"iteration": self.worker.iteration},
            )
        self.clock.schedule_in(cfg.interval_s, self._checkpoint_tick)

    # ------------------------------------------------------------------
    # Engine protocol: progress + the GBS tick
    # ------------------------------------------------------------------
    def global_epoch(self) -> float:
        """Estimated cluster progress: own samples plus the peers' last
        heartbeat-reported counts, over the training-set size."""
        drawn = self.worker.sampler.samples_drawn + sum(self._peer_samples.values())
        return drawn / self.dataset.train_size

    def _gbs_tick(self) -> None:
        if self.stopped:
            return
        old = self.gbs_controller.gbs
        new = self.gbs_controller.maybe_update(self.global_epoch())
        if new != old:
            self.gbs_series.append(self.clock.now, new)
            self._g_gbs.set(new)
            self.clock.schedule_in(_GBS_ANNOUNCE_DELAY, self.worker.set_gbs, new)
        self.clock.schedule_in(self.config.gbs.update_period_s, self._gbs_tick)

    # ------------------------------------------------------------------
    # Engine protocol: recording hooks
    # ------------------------------------------------------------------
    def record_loss(self, worker: int, loss: float) -> None:
        """Record one iteration's loss (and count the iteration)."""
        self.loss_series.append(self.clock.now, loss)
        self._c_iterations.inc(1, worker)
        self.flight.record(
            "iteration", self.clock.now,
            {"iteration": self.worker.iteration, "loss": round(float(loss), 5)},
        )
        self._report_progress()

    def _report_progress(self) -> None:
        """Throttled ``("progress", w, iteration, t)`` to the supervisor.

        Cheap (a few dozen bytes, at most ~4 Hz wall) and what lets the
        parent gate chaos kills on real progress and account for lost
        iterations after a crash.
        """
        if self.progress_conn is None or self.clock._loop is None:
            return
        wall = self.clock._loop.time()
        if wall - self._last_progress_wall < 0.25:
            return
        self._last_progress_wall = wall
        try:
            self.progress_conn.send(
                ("progress", self.worker_id, self.worker.iteration, self.clock.now)
            )
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            self.progress_conn = None

    def record_lbs(self, worker: int, lbs: int) -> None:
        """Record a local-batch-size change."""
        self.lbs_series.append(self.clock.now, lbs)
        self._g_lbs.set(lbs, worker)
        if self.tracer.enabled:
            self.tracer.counter("lbs", worker, self.clock.now, {"lbs": lbs})

    def record_dkt_merge(self, worker: int) -> None:
        """Count one applied DKT merge."""
        self._c_dkt_merges.inc(1, worker)

    def evaluate_worker(self, worker: int) -> None:
        """Accuracy measurement of the local model (out of band)."""
        if worker != self.worker_id:
            raise ValueError("a live runtime can only evaluate its own worker")
        _, acc = self.worker.model.evaluate(self._eval_x, self._eval_y)
        self.acc_series.append(self.clock.now, acc)

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def start_training(
        self, loop: asyncio.AbstractEventLoop, *, resume: dict | None = None
    ) -> None:
        """Anchor the clock and kick off the worker's training loop.

        ``resume`` (from the supervisor's go message) carries the
        cluster's current modelled time and active set: the clock jumps
        to the offset (the crash gap stays visible in every series),
        the restored worker re-seeds its sync state at its own
        iteration, and freshness comes from a DKT-style pull against a
        live peer — the same bootstrap the simulator's join events run.
        """
        if resume is None:
            self.clock.start(loop)
            self.lbs_series.append(0.0, self.config.initial_lbs)
            self._g_lbs.set(self.config.initial_lbs, self.worker_id)
            self.gbs_series.append(0.0, self.gbs_controller.gbs)
            self._g_gbs.set(self.gbs_controller.gbs)
            self.active_series.append(0.0, len(self.active))
            self._g_active.set(len(self.active))
            if self.config.gbs.enabled:
                self.clock.schedule_in(
                    self.config.gbs.update_period_s, self._gbs_tick
                )
            w = self.worker
            if self.config.lbs.enabled:
                cost = w.run_profiling()
                self.clock.schedule_in(cost, w.try_start_iteration)
            else:
                w.try_start_iteration()
        else:
            self.clock.start(loop, offset=float(resume.get("clock_offset", 0.0)))
            w = self.worker
            self.active = {self.worker_id} | set(resume.get("active", ()))
            now = self.clock.now
            self.active_series.append(now, len(self.active))
            self._g_active.set(len(self.active))
            self._g_lbs.set(w.lbs, self.worker_id)
            self._g_gbs.set(self.gbs_controller.gbs)
            # Peers have advanced past the checkpoint; re-seed the sync
            # gate at our own (restored) iteration so neither side
            # blocks on history the other never saw.
            w.sync_state.received_from = {p: w.iteration for p in w.peers}
            w.on_membership_change(self.active)
            self.flight.record(
                "worker-rejoined", now, {"iteration": w.iteration}
            )
            if self.tracer.enabled:
                self.tracer.instant(
                    "worker-rejoined", self.worker_id, TID_NET, now,
                    cat="chaos", args={"iteration": w.iteration},
                )
            # Freshness bootstrap: DKT-style weight pull from the best
            # known live peer (first live peer before any loss shares).
            target = w.dkt.pull_target()
            if target is None or target == self.worker_id or target not in self.active:
                candidates = [p for p in sorted(self.active) if p != self.worker_id]
                target = candidates[0] if candidates else None
            if target is not None:
                self.send_control(
                    self.worker_id,
                    target,
                    DktRequestMessage(sender=self.worker_id, iteration=w.iteration),
                )
            if self.config.gbs.enabled:
                self.clock.schedule_in(
                    self.config.gbs.update_period_s, self._gbs_tick
                )
            w.try_start_iteration()
        if self.spec.checkpoint is not None:
            self.clock.schedule_in(
                self.spec.checkpoint.interval_s, self._checkpoint_tick
            )
        self._schedule_blackout_markers()

    async def wait_horizon(self, inbox: asyncio.Queue | None = None) -> None:
        """Sleep (in wall time) until the modelled horizon, re-raising
        the first callback failure as soon as it is recorded, applying
        any supervisor commands (peer revivals) that arrive, and
        shipping telemetry deltas on their wall-clock cadence."""
        while self.clock.now < self.spec.horizon:
            if self._failure is not None:
                raise self._failure
            if inbox is not None:
                while True:
                    try:
                        msg = inbox.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if msg and msg[0] == "revive":
                        self.on_peer_revived(msg[1], (self.spec.host, msg[2]))
            self._maybe_ship_delta()
            remaining_wall = (self.spec.horizon - self.clock.now) / self.spec.speedup
            await asyncio.sleep(min(0.05, max(remaining_wall, 0.001)))
        if self._failure is not None:
            raise self._failure

    # ------------------------------------------------------------------
    # Telemetry delta shipping
    # ------------------------------------------------------------------
    def _maybe_ship_delta(self) -> None:
        interval = self.spec.ship_interval_s
        if interval is None or self.progress_conn is None or self.clock._loop is None:
            return
        wall = self.clock._loop.time()
        if wall - self._last_ship_wall < interval:
            return
        self._last_ship_wall = wall
        self.ship_delta()

    def ship_delta(self) -> None:
        """Ship one incremental telemetry delta to the supervisor.

        The metrics snapshot is *cumulative* (``dump_state`` of the
        whole registry): the parent keeps only the latest one per
        incarnation, so shipping is idempotent and a lost delta costs
        one interval of staleness, never double counting. Trace events
        ship incrementally through a cursor; flight-recorder events are
        drained (shipped exactly once).
        """
        if self.progress_conn is None:
            return
        trace_events, self._trace_cursor = self.tracer.delta_events(
            self._trace_cursor
        )
        payload = {
            "iteration": self.worker.iteration,
            "time": self.clock.now,
            "samples_drawn": self.worker.sampler.samples_drawn,
            "restored_iteration": self.restored_iteration,
            "metrics": self.metrics.dump_state(),
            "trace_events": trace_events,
            "flight": self.flight.drain(),
        }
        try:
            self.progress_conn.send(("delta", self.worker_id, payload))
            self.deltas_shipped += 1
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            self.progress_conn = None

    def profiled(self):
        """Activate this runtime's profiler (no-op context when unset)."""
        from contextlib import nullcontext

        if self.profiler is not None:
            return _profile.activate(self.profiler)
        return nullcontext()

    def finalize(self) -> None:
        """Stop training, take the final accuracy sample, close books."""
        self.stopped = True
        self.flight.record(
            "finalize", self.clock.now, {"iteration": self.worker.iteration}
        )
        self.evaluate_worker(self.worker_id)
        w = self.worker
        wait = w.wait_time
        if w.waiting and w._wait_started is not None:
            wait += self.clock.now - w._wait_started
        self._c_wait_total.inc(wait, self.worker_id)
        self._c_compute_total.inc(w.compute_time, self.worker_id)
        self._c_events.inc(self.clock.fired)
        if self.profiler is not None:
            for name, (calls, total) in self.profiler.totals().items():
                self.run_metrics.c_profile_seconds.inc(total, name)
                self.run_metrics.c_profile_calls.inc(calls, name)

    def result_payload(self) -> dict:
        """The picklable per-worker result shipped back to the parent.

        ``trace_events`` and ``flight`` are incremental past the last
        shipped delta (the parent accumulates the delta stream), so a
        run with shipping disabled ships everything here and a run with
        shipping enabled ships only the tail — no duplicates either way.
        """
        def series(ts: TimeSeries) -> tuple[list[float], list[float]]:
            return (list(ts.times), list(ts.values))

        trace_events, self._trace_cursor = self.tracer.delta_events(
            self._trace_cursor
        )
        return {
            "worker": self.worker_id,
            "horizon": self.clock.now,
            "accuracy": series(self.acc_series),
            "loss": series(self.loss_series),
            "lbs": series(self.lbs_series),
            "gbs": series(self.gbs_series),
            "active_workers": series(self.active_series),
            "iterations": self.worker.iteration,
            "samples_drawn": self.worker.sampler.samples_drawn,
            "dkt_merges": self.worker.dkt.merges_applied,
            "epoch": self.global_epoch(),
            "events": self.clock.fired,
            "link_entries": {k: series(v) for k, v in self.link_entries.items()},
            "link_chosen_n": {k: series(v) for k, v in self.link_chosen_n.items()},
            "metrics": self.metrics.dump_state(),
            "trace_events": trace_events,
            "flight": self.flight.drain(),
        }


async def _child_main(
    worker_id: int, spec: LiveRunSpec, conn, resume: bool = False
) -> None:
    loop = asyncio.get_running_loop()
    inbox: asyncio.Queue = asyncio.Queue()

    def _pump() -> None:
        # The pipe pump: a daemon thread blocks on conn.recv() and
        # forwards every parent message into the event loop, so the
        # child can react to supervisor commands (peer revivals) at any
        # point of the run, not just at fixed handshake steps.
        try:
            while True:
                msg = conn.recv()
                loop.call_soon_threadsafe(inbox.put_nowait, msg)
        except (EOFError, OSError):
            try:
                loop.call_soon_threadsafe(inbox.put_nowait, ("eof",))
            except RuntimeError:  # pragma: no cover - loop already gone
                pass

    runtime = LiveWorkerRuntime(worker_id, spec, resume=resume)
    if resume and spec.checkpoint is not None:
        restored = load_latest(spec.checkpoint.directory, worker_id)
        if restored is not None:
            runtime.restore_from(*restored)
    runtime.progress_conn = conn
    threading.Thread(target=_pump, name="pipe-pump", daemon=True).start()
    port = await runtime.mesh.start()
    conn.send(("port", worker_id, port, runtime.restored_iteration))
    message = await inbox.get()
    if message[0] != "ports":  # pragma: no cover - protocol error
        raise RuntimeError(f"expected port map, got {message[0]!r}")
    port_map = {w: (spec.host, p) for w, p in message[1].items()}
    with runtime.profiled():
        await runtime.mesh.connect(port_map)
    conn.send(("ready", worker_id))
    message = await inbox.get()
    if message[0] != "go":  # pragma: no cover - protocol error
        raise RuntimeError(f"expected go, got {message[0]!r}")
    resume_info = message[1] if len(message) > 1 else None
    with runtime.profiled():
        runtime.start_training(loop, resume=resume_info)
        await runtime.wait_horizon(inbox)
        runtime.finalize()
    await runtime.mesh.close()
    conn.send(("result", worker_id, runtime.result_payload()))


def run_live_worker(
    worker_id: int, spec: LiveRunSpec, conn, resume: bool = False
) -> None:
    """Child-process entry point (must stay importable for ``spawn``).

    ``resume=True`` marks a supervised respawn: the child restores its
    newest checkpoint before handshaking, and ``start_training`` runs
    the rejoin path with the context the go message carries.
    """
    if spec.stderr_dir:
        # Capture crash output where the supervisor can tail it into
        # handshake-failure and unexpected-death error reports.
        try:
            os.makedirs(spec.stderr_dir, exist_ok=True)
            log = open(
                os.path.join(spec.stderr_dir, f"worker{worker_id}.stderr.log"),
                "ab",
                buffering=0,
            )
            os.dup2(log.fileno(), 2)
        except OSError:  # pragma: no cover - stderr capture is best-effort
            pass
    try:
        asyncio.run(_child_main(worker_id, spec, conn, resume))
    except BaseException:  # noqa: BLE001 - everything goes to the parent
        try:
            conn.send(("error", worker_id, traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
