"""LiveEngine: the multi-process (``--backend proc``) run orchestrator.

Spawns one OS process per DLion worker (each running a
:class:`~repro.transport.runtime.LiveWorkerRuntime` over an asyncio TCP
:class:`~repro.transport.mesh.PeerMesh`), coordinates the port-exchange
handshake over pipes, and merges every child's metrics, time series, and
trace events into the same :class:`~repro.core.engine.RunResult` shape
the simulator produces — so ``report``, ``--metrics-out``, and the
experiment tooling work on live runs unchanged.

The engine is also the crash **supervisor** (docs/robustness.md). A
:class:`~repro.cluster.chaos.ChaosPlan` scripts SIGKILLs on the modelled
clock; killed workers with a ``restart_after`` are respawned with
``resume=True`` (the child restores its newest checkpoint), walked
through a private port/ready handshake, and rejoined — the new port is
fanned out to the survivors as ``("revive", worker, port)`` pipe
commands so they re-open their mesh links. Unplanned child deaths are
respawned the same way under ``restart_budget`` with exponential
backoff; past the budget they fail the run with the dead child's
captured stderr tail in the error.

The engine is hang-proof by construction: every phase of the handshake
and the result collection runs against a wall-clock deadline, and any
child that misses it (or reports an error) causes the remaining
processes to be terminated before the failure is raised.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import shutil
import tempfile
import time
import uuid

from repro.cluster.chaos import ChaosPlan
from repro.cluster.topology import ClusterTopology
from repro.core.config import TrainConfig
from repro.core.engine import RunResult
from repro.core.run_metrics import RunMetrics
from repro.obs import live_status
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.transport.checkpoint import CheckpointConfig
from repro.transport.mesh import TransportConfig
from repro.transport.runtime import LiveRunSpec, run_live_worker
from repro.transport.shm import ring_name, sweep_ring
from repro.utils.metrics import TimeSeries

__all__ = ["LiveEngine"]

# How much of a dead child's captured stderr to quote in errors.
_STDERR_TAIL_BYTES = 2048
# A scripted kill waits for its victim to complete one iteration past
# its restore point (so the crash is meaningful at any CI load), but at
# most this many wall seconds past the due time — the gate must never
# wedge the run.
_PROGRESS_GATE_SLACK_S = 10.0
# How many of each worker's freshest flight-recorder events the status
# snapshot retains (the full stream still lands in the merged trace).
_FLIGHT_TAIL_EVENTS = 16


class _Child:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = (
        "proc", "conn", "port", "last_iteration", "last_time",
        "restored_iteration", "restarts", "stats_prev_iter",
        "stats_prev_wall",
    )

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.port: int | None = None
        self.last_iteration = 0       # newest progress-reported iteration
        self.last_time = 0.0          # its modelled timestamp
        self.restored_iteration = 0   # checkpoint iteration after resume
        self.restarts = 0
        self.stats_prev_iter = 0      # iteration at the last stats tick
        self.stats_prev_wall: float | None = None


class LiveEngine:
    """Runs one training job as real communicating worker processes."""

    def __init__(
        self,
        config: TrainConfig,
        topology: ClusterTopology,
        *,
        seed: int = 0,
        speedup: float = 20.0,
        transport: TransportConfig | None = None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        profile: bool = False,
        host: str = "127.0.0.1",
        handshake_timeout_s: float = 60.0,
        restart_budget: int = 0,
        restart_backoff_s: float = 0.5,
        checkpoint: CheckpointConfig | None = None,
        ship_interval_s: float | None = 1.0,
        stats_interval_s: float | None = None,
        status_dir: str | None = None,
        shm_lanes: bool = False,
    ):
        self.config = config
        self.topology = topology
        self.n_workers = topology.n_workers
        self.seed = seed
        self.speedup = float(speedup)
        self.transport = transport if transport is not None else TransportConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profile = profile
        self.host = host
        if handshake_timeout_s <= 0:
            raise ValueError("handshake_timeout_s must be positive")
        self.handshake_timeout_s = float(handshake_timeout_s)
        if restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")
        self.restart_budget = int(restart_budget)
        if restart_backoff_s < 0:
            raise ValueError("restart_backoff_s must be >= 0")
        self.restart_backoff_s = float(restart_backoff_s)
        self.checkpoint = checkpoint
        if ship_interval_s is not None and ship_interval_s <= 0:
            raise ValueError("ship_interval_s must be positive or None")
        self.ship_interval_s = ship_interval_s
        if stats_interval_s is not None and stats_interval_s <= 0:
            raise ValueError("stats_interval_s must be positive or None")
        self.stats_interval_s = stats_interval_s
        self.status_dir = status_dir
        self.shm_lanes = bool(shm_lanes)
        self._stderr_dir: str | None = None
        # Telemetry-delta stores, reset per run. Metric states are
        # cumulative snapshots (latest per worker wins); trace streams
        # and flight events accumulate in arrival order.
        self._delta_metrics: dict[int, dict] = {}
        self._delta_info: dict[int, dict] = {}
        self._delta_trace: dict[int, list] = {}
        self._delta_flight: dict[int, list] = {}
        self._flight_tail: dict[int, collections.deque] = {}
        self.deltas_received = 0
        self.flight_events: dict[int, list] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        horizon: float,
        *,
        chaos: ChaosPlan | None = None,
        chaos_kill: tuple[float, int] | None = None,
        grace_s: float = 60.0,
    ) -> RunResult:
        """Run every worker process to the modelled ``horizon`` and merge.

        ``chaos`` scripts crashes (supervised respawn + rejoin when the
        event carries ``restart_after``) and link faults on the modelled
        clock. ``chaos_kill=(wall_delay_s, worker_id)`` is the legacy
        hook: it SIGKILLs one worker that many wall seconds after the go
        signal with no restart. ``grace_s`` bounds how long past the
        modelled horizon's wall equivalent the parent waits before
        declaring a child hung and terminating it.
        """
        if chaos is not None:
            chaos.validate(self.n_workers)
        self._delta_metrics = {}
        self._delta_info = {}
        self._delta_trace = {}
        self._delta_flight = {}
        self._flight_tail = {}
        self.deltas_received = 0
        self.flight_events = {}
        checkpoint = self.checkpoint
        tmp_ckpt_dir = None
        needs_checkpoint = self.restart_budget > 0 or (
            chaos is not None and chaos.has_restarts()
        )
        if checkpoint is None and needs_checkpoint:
            # Respawned children restore from disk; give them somewhere
            # to checkpoint even when the caller did not configure it.
            tmp_ckpt_dir = tempfile.mkdtemp(prefix="dlion-ckpt-")
            checkpoint = CheckpointConfig(directory=tmp_ckpt_dir)
        self._stderr_dir = tempfile.mkdtemp(prefix="dlion-stderr-")
        # Per-run nonce for shm ring segment names: stale segments from
        # a previous (crashed) run can never be mistaken for live rings.
        shm_token = uuid.uuid4().hex[:8] if self.shm_lanes else ""
        spec = LiveRunSpec(
            config=self.config,
            topology=self.topology,
            seed=self.seed,
            horizon=horizon,
            speedup=self.speedup,
            transport=self.transport,
            trace=self.tracer.enabled,
            profile=self.profile,
            host=self.host,
            checkpoint=checkpoint,
            chaos=chaos,
            stderr_dir=self._stderr_dir,
            ship_interval_s=self.ship_interval_s,
            shm_lanes=self.shm_lanes,
            shm_token=shm_token,
        )
        # The worker processes are the parallelism here; pin each
        # child's BLAS pool to one thread so W processes do not
        # oversubscribe the machine W*cores-fold. Spawned children
        # inherit the environment before their numpy import.
        for var in (
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "OMP_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, "1")
        ctx = multiprocessing.get_context("spawn")
        children: dict[int, _Child] = {}
        try:
            for w in range(self.n_workers):
                children[w] = self._spawn(ctx, w, spec, resume=False)

            port_msgs = self._recv_expected(children, "port")
            for w, msg in port_msgs.items():
                children[w].port = msg[2]
            port_map = {w: c.port for w, c in children.items()}
            for c in children.values():
                c.conn.send(("ports", port_map))
            self._recv_expected(children, "ready")
            for c in children.values():
                c.conn.send(("go",))

            payloads, killed = self._supervise(
                ctx, spec, children, horizon, chaos, chaos_kill, grace_s
            )
        finally:
            for c in children.values():
                if c.proc.is_alive():
                    c.proc.terminate()
            for c in children.values():
                c.proc.join(timeout=5.0)
                if c.proc.is_alive():  # pragma: no cover - last resort
                    c.proc.kill()
                    c.proc.join(timeout=5.0)
            for c in children.values():
                try:
                    c.conn.close()
                except OSError:  # pragma: no cover
                    pass
            shutil.rmtree(self._stderr_dir, ignore_errors=True)
            self._stderr_dir = None
            if tmp_ckpt_dir is not None:
                shutil.rmtree(tmp_ckpt_dir, ignore_errors=True)
            if shm_token:
                # Children unlink their rings at mesh close; a crashed
                # child leaves its created segments behind, so sweep
                # every possible pair of this run's token.
                for src in range(self.n_workers):
                    for dst in range(self.n_workers):
                        if src != dst:
                            sweep_ring(ring_name(shm_token, src, dst))
        return self._merge(payloads, killed, horizon)

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, ctx, w: int, spec: LiveRunSpec, *, resume: bool) -> _Child:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=run_live_worker,
            args=(w, spec, child_conn, resume),
            daemon=True,
            name=f"dlion-worker-{w}",
        )
        proc.start()
        child_conn.close()  # the child holds its own copy
        return _Child(proc, parent_conn)

    def _stderr_tail(self, w: int) -> str:
        """The tail of a child's captured stderr, formatted for an error."""
        if not self._stderr_dir:
            return ""
        path = os.path.join(self._stderr_dir, f"worker{w}.stderr.log")
        try:
            with open(path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                fh.seek(max(0, size - _STDERR_TAIL_BYTES))
                tail = fh.read().decode("utf-8", "replace").strip()
        except OSError:
            return ""
        if not tail:
            return ""
        return f"\n--- worker {w} stderr (tail) ---\n{tail}"

    # ------------------------------------------------------------------
    # Handshake phases
    # ------------------------------------------------------------------
    def _recv_expected(
        self, children: dict[int, _Child], expected: str
    ) -> dict[int, tuple]:
        """Collect one ``expected``-tagged message from every child."""
        out: dict[int, tuple] = {}
        deadline = time.monotonic() + self.handshake_timeout_s
        pending = set(children)
        while pending:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"live worker(s) {sorted(pending)} did not report "
                    f"{expected!r} within {self.handshake_timeout_s:.0f}s"
                )
            for w in sorted(pending):
                c = children[w]
                if not c.proc.is_alive() and not c.conn.poll():
                    raise RuntimeError(
                        f"live worker {w} died during the {expected!r} "
                        "handshake" + self._stderr_tail(w)
                    )
                if c.conn.poll(0.01):
                    try:
                        msg = c.conn.recv()
                    except EOFError:
                        raise RuntimeError(
                            f"live worker {w} closed its pipe during the "
                            f"{expected!r} handshake" + self._stderr_tail(w)
                        ) from None
                    if msg[0] == "error":
                        raise RuntimeError(
                            f"live worker {w} failed during startup:\n{msg[2]}"
                        )
                    if msg[0] != expected:
                        raise RuntimeError(
                            f"live worker {w}: expected {expected!r}, got {msg[0]!r}"
                        )
                    out[w] = msg
                    pending.discard(w)
        return out

    def _recv_one(self, child: _Child, w: int, expected: str) -> tuple:
        """One ``expected``-tagged message from a single (respawned) child."""
        deadline = time.monotonic() + self.handshake_timeout_s
        while time.monotonic() <= deadline:
            if child.conn.poll(0.02):
                try:
                    msg = child.conn.recv()
                except EOFError:
                    raise RuntimeError(
                        f"respawned worker {w} closed its pipe during the "
                        f"{expected!r} handshake" + self._stderr_tail(w)
                    ) from None
                if msg[0] == "error":
                    raise RuntimeError(
                        f"respawned worker {w} failed during startup:\n{msg[2]}"
                    )
                if msg[0] != expected:
                    raise RuntimeError(
                        f"respawned worker {w}: expected {expected!r}, "
                        f"got {msg[0]!r}"
                    )
                return msg
            if not child.proc.is_alive() and not child.conn.poll():
                raise RuntimeError(
                    f"respawned worker {w} died during the {expected!r} "
                    "handshake" + self._stderr_tail(w)
                )
        raise RuntimeError(
            f"respawned worker {w} did not report {expected!r} within "
            f"{self.handshake_timeout_s:.0f}s"
        )

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise(
        self,
        ctx,
        spec: LiveRunSpec,
        children: dict[int, _Child],
        horizon: float,
        chaos: ChaosPlan | None,
        chaos_kill: tuple[float, int] | None,
        grace_s: float,
    ) -> tuple[dict[int, dict], set[int]]:
        """The post-go supervisor loop.

        Fires scripted kills, detects dead children, respawns/rejoins
        under the plan or the restart budget, relays progress, and
        collects results — all against the horizon wall deadline.
        """
        rm = RunMetrics(self.metrics)
        go_t0 = time.monotonic()
        deadline = go_t0 + horizon / self.speedup + grace_s
        payloads: dict[int, dict] = {}
        killed: set[int] = set()               # dead for good, by script
        pending = set(children)                # workers still owing a result
        restart_uses = 0

        # Scripted crashes on the modelled clock (plus the legacy
        # wall-scheduled chaos_kill), ordered by due wall time.
        crash_queue: list[dict] = []
        if chaos is not None:
            for ev in chaos.crashes:
                crash_queue.append({
                    "due": go_t0 + ev.time / self.speedup,
                    "worker": ev.worker,
                    "restart_after": ev.restart_after,
                    "event_time": ev.time,
                })
        if chaos_kill is not None:
            crash_queue.append({
                "due": go_t0 + float(chaos_kill[0]),
                "worker": int(chaos_kill[1]),
                "restart_after": None,
                "event_time": None,
            })
        crash_queue.sort(key=lambda e: e["due"])
        # Scheduled respawns: [{at, worker, detected, lost_baseline}].
        respawns: list[dict] = []

        # Cluster-health emission cadence: the --stats-interval print and
        # the --status-dir snapshot share one tick.
        stats_every = self.stats_interval_s
        if stats_every is None and self.status_dir is not None:
            stats_every = 1.0
        last_stats = go_t0

        while pending:
            now = time.monotonic()
            if stats_every is not None and now - last_stats >= stats_every:
                last_stats = now
                self._emit_stats(children, killed, go_t0, now, horizon)
            awaiting = {r["worker"] for r in respawns}
            if now > deadline:
                # Hang-proofing: a worker that outlives the horizon plus
                # grace is terminated; the run fails loudly.
                for w in sorted(pending - awaiting):
                    children[w].proc.terminate()
                raise RuntimeError(
                    f"live worker(s) {sorted(pending)} missed the horizon "
                    f"deadline (+{grace_s:.0f}s grace); terminated"
                )

            # 1. Fire due scripted kills (head of the queue blocks: the
            #    progress gate below may defer it a little).
            while crash_queue and now >= crash_queue[0]["due"]:
                ev = crash_queue[0]
                w = ev["worker"]
                if w not in pending or w in awaiting:
                    crash_queue.pop(0)
                    continue
                c = children[w]
                # Drain buffered progress so the lost-work baseline is
                # as current as the pipe allows.
                while c.conn.poll():
                    try:
                        msg = c.conn.recv()
                    except EOFError:
                        break
                    if msg[0] == "progress":
                        c.last_iteration = msg[2]
                        c.last_time = msg[3]
                    elif msg[0] == "delta":
                        self._note_delta(c, w, msg[2])
                    elif msg[0] == "result":
                        payloads[w] = msg[2]
                        pending.discard(w)
                if w not in pending:
                    crash_queue.pop(0)
                    continue
                if (
                    ev["event_time"] is not None
                    and c.last_iteration <= c.restored_iteration
                    and now < ev["due"] + _PROGRESS_GATE_SLACK_S
                ):
                    break  # give the victim a moment to make progress
                crash_queue.pop(0)
                c.proc.kill()
                c.proc.join(timeout=5.0)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "worker-killed", self.n_workers, 0,
                        (now - go_t0) * self.speedup,
                        cat="chaos", args={"worker": w}, scope="g",
                    )
                if ev["restart_after"] is not None:
                    at = go_t0 + (
                        ev["event_time"] + ev["restart_after"]
                    ) / self.speedup
                    respawns.append({
                        "at": max(at, now),
                        "worker": w,
                        "detected": now,
                        "lost_baseline": c.last_iteration,
                    })
                    awaiting.add(w)
                else:
                    killed.add(w)
                    pending.discard(w)

            # 2. Fire due respawns.
            for r in list(respawns):
                if now >= r["at"]:
                    respawns.remove(r)
                    awaiting.discard(r["worker"])
                    self._respawn(ctx, spec, children, r, go_t0, rm)

            # 3. Drain child pipes (one message per child per sweep; the
            #    0.02-s polls double as the loop's pacing).
            for w in sorted(pending - awaiting):
                c = children[w]
                if c.conn.poll(0.02):
                    try:
                        msg = c.conn.recv()
                    except EOFError:
                        raise RuntimeError(
                            f"live worker {w} closed its pipe before "
                            "reporting a result" + self._stderr_tail(w)
                        ) from None
                    if msg[0] == "progress":
                        c.last_iteration = msg[2]
                        c.last_time = msg[3]
                    elif msg[0] == "delta":
                        self._note_delta(c, w, msg[2])
                    elif msg[0] == "error":
                        raise RuntimeError(
                            f"live worker {w} failed:\n{msg[2]}"
                        )
                    elif msg[0] == "result":
                        payloads[w] = msg[2]
                        pending.discard(w)
                elif not c.proc.is_alive():
                    # Unplanned death. Respawn under the budget, else fail
                    # with whatever the child managed to say on stderr.
                    if restart_uses < self.restart_budget:
                        delay = self.restart_backoff_s * (2 ** restart_uses)
                        restart_uses += 1
                        respawns.append({
                            "at": now + delay,
                            "worker": w,
                            "detected": now,
                            "lost_baseline": c.last_iteration,
                        })
                        if self.tracer.enabled:
                            self.tracer.instant(
                                "worker-died", self.n_workers, 0,
                                (now - go_t0) * self.speedup,
                                cat="chaos", args={"worker": w}, scope="g",
                            )
                    else:
                        raise RuntimeError(
                            f"live worker {w} exited without reporting a "
                            "result" + self._stderr_tail(w)
                        )
        return payloads, killed

    def _respawn(
        self,
        ctx,
        spec: LiveRunSpec,
        children: dict[int, _Child],
        r: dict,
        go_t0: float,
        rm: RunMetrics,
    ) -> None:
        """Respawn one dead worker with ``resume=True`` and rejoin it."""
        w = r["worker"]
        old = children[w]
        try:
            old.conn.close()
        except OSError:  # pragma: no cover
            pass
        child = self._spawn(ctx, w, spec, resume=True)
        child.restarts = old.restarts + 1
        child.last_iteration = old.last_iteration
        children[w] = child

        msg = self._recv_one(child, w, "port")
        child.port = msg[2]
        child.restored_iteration = int(msg[3]) if len(msg) > 3 else 0
        child.last_iteration = child.restored_iteration
        # The rejoiner only dials live peers (a no-restart casualty's old
        # port would just burn its reconnect budget).
        live = {
            i: c.port
            for i, c in children.items()
            if i == w or c.proc.is_alive()
        }
        child.conn.send(("ports", live))
        self._recv_one(child, w, "ready")

        # Survivors first: re-opening their links before the rejoiner
        # starts training narrows the window in which its DKT bootstrap
        # pull could go unanswered.
        for i, c in children.items():
            if i != w and c.proc.is_alive():
                try:
                    c.conn.send(("revive", w, child.port))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
        now = time.monotonic()
        clock_offset = (now - go_t0) * self.speedup
        child.conn.send((
            "go",
            {
                "clock_offset": clock_offset,
                "active": sorted(i for i in live if i != w),
            },
        ))

        rm.c_worker_restarts.inc(1, w)
        rm.h_recovery_s.observe(now - r["detected"], w)
        lost = max(0, int(r["lost_baseline"]) - child.restored_iteration)
        if lost:
            rm.c_lost_iterations.inc(lost, w)
        if self.tracer.enabled:
            start_model = (r["detected"] - go_t0) * self.speedup
            self.tracer.complete(
                "recovery", self.n_workers, 0,
                start_model, clock_offset - start_model,
                cat="chaos",
                args={
                    "worker": w,
                    "restored_iteration": child.restored_iteration,
                    "lost_iterations": lost,
                },
            )

    # ------------------------------------------------------------------
    # Telemetry deltas and cluster health
    # ------------------------------------------------------------------
    def _note_delta(self, c: _Child, w: int, payload: dict) -> None:
        """Fold one in-flight telemetry delta from worker ``w``.

        Metric states are cumulative snapshots, so the newest one simply
        replaces its predecessor (idempotent, no double-count); trace
        streams and drained flight events are incremental and accumulate.
        A respawned worker's deltas overwrite its previous incarnation's
        metric snapshot the same way — latest wins.
        """
        c.last_iteration = payload["iteration"]
        c.last_time = payload["time"]
        self._delta_metrics[w] = payload["metrics"]
        self._delta_info[w] = {
            "iteration": payload["iteration"],
            "time": payload["time"],
            "samples_drawn": payload.get("samples_drawn", 0),
        }
        if payload.get("trace_events"):
            self._delta_trace.setdefault(w, []).extend(payload["trace_events"])
        flight = payload.get("flight") or []
        if flight:
            self._delta_flight.setdefault(w, []).extend(flight)
            tail = self._flight_tail.setdefault(
                w, collections.deque(maxlen=_FLIGHT_TAIL_EVENTS)
            )
            tail.extend(flight)
        self.deltas_received += 1

    def _emit_stats(
        self,
        children: dict[int, _Child],
        killed: set[int],
        go_t0: float,
        now: float,
        horizon: float,
    ) -> None:
        """One cluster-health tick: print a line and/or write a snapshot."""
        workers: dict[int, dict] = {}
        t_model = 0.0
        for w, c in sorted(children.items()):
            alive = c.proc.is_alive() and w not in killed
            prev_wall = c.stats_prev_wall
            rate = 0.0
            if prev_wall is not None and now > prev_wall:
                rate = (c.last_iteration - c.stats_prev_iter) / (now - prev_wall)
            c.stats_prev_iter = c.last_iteration
            c.stats_prev_wall = now
            workers[w] = {
                "iteration": c.last_iteration,
                "time": round(c.last_time, 3),
                "rate": round(max(rate, 0.0), 3),
                "alive": alive,
                "restarts": c.restarts,
            }
            if alive:
                t_model = max(t_model, c.last_time)
        snapshot = live_status.build_snapshot(
            time_model_s=t_model,
            horizon_s=horizon,
            wall_elapsed_s=now - go_t0,
            speedup=self.speedup,
            workers=workers,
            cluster=self._cluster_health(),
            flight_tail={w: list(t) for w, t in self._flight_tail.items()},
        )
        if self.stats_interval_s is not None:
            print(live_status.render_health_line(snapshot), flush=True)
        if self.status_dir is not None:
            live_status.write_snapshot(self.status_dir, snapshot)

    def _cluster_health(self) -> dict:
        """Aggregate the latest per-worker delta metric snapshots.

        Folds every worker's cumulative snapshot into one throwaway
        registry (cheap at stats cadence) and reads the cluster-wide
        transport numbers off it.
        """
        reg = MetricsRegistry()
        for state in self._delta_metrics.values():
            reg.merge_state(state)

        def total(name):
            fam = reg.get(name)
            return sum(v for _, v in fam.items()) if fam is not None else 0

        def peak(name):
            fam = reg.get(name)
            vals = [v for _, v in fam.items()] if fam is not None else []
            return max(vals) if vals else 0

        lat = reg.get("transport_frame_latency_seconds")
        return {
            "frame_latency_p99_s": (
                lat.percentile_all(0.99) if lat is not None else None
            ),
            "send_msgs_total": total("transport_send_msgs_total"),
            "send_bytes_total": total("transport_send_bytes_total"),
            "stall_seconds_total": round(
                total("transport_stall_seconds_total"), 3
            ),
            "outbox_depth_max": peak("transport_outbox_depth"),
            "queue_depth_max": peak("queue_depth"),
            "queue_dropped_total": total("queue_dropped_total"),
            "deltas_received": self.deltas_received,
        }

    # ------------------------------------------------------------------
    # Result merging
    # ------------------------------------------------------------------
    def _merge(
        self, payloads: dict[int, dict], killed: set[int], horizon: float
    ) -> RunResult:
        RunMetrics(self.metrics)  # ensure the catalog exists even if empty
        result = RunResult(
            n_workers=self.n_workers, horizon=horizon, metrics=self.metrics
        )
        result.accuracy = [TimeSeries() for _ in range(self.n_workers)]
        result.loss = [TimeSeries() for _ in range(self.n_workers)]
        result.lbs = [TimeSeries() for _ in range(self.n_workers)]
        result.iterations = [0] * self.n_workers

        def fill(ts: TimeSeries, pair) -> None:
            for t, v in zip(*pair):
                ts.append(t, v)

        for w, payload in sorted(payloads.items()):
            fill(result.accuracy[w], payload["accuracy"])
            fill(result.loss[w], payload["loss"])
            fill(result.lbs[w], payload["lbs"])
            result.iterations[w] = payload["iterations"]
            result.dkt_merges += payload["dkt_merges"]
            result.events += payload["events"]
            result.epochs = max(result.epochs, payload["epoch"])
            for key, pair in payload["link_entries"].items():
                fill(result.link_entries.setdefault(tuple(key), TimeSeries()), pair)
            for key, pair in payload["link_chosen_n"].items():
                fill(result.link_chosen_n.setdefault(tuple(key), TimeSeries()), pair)
            self.metrics.merge_state(payload["metrics"])

        # Crash safety: a worker that never reported a final result (a
        # no-restart casualty, or one SIGKILLed mid-respawn) is restored
        # from its newest shipped delta — its metrics and progress
        # survive up to one shipping interval behind the kill. A final
        # payload supersedes every delta from the same worker (both are
        # cumulative snapshots; merging both would double-count).
        for w in range(self.n_workers):
            if w in payloads:
                continue
            state = self._delta_metrics.get(w)
            if state:
                self.metrics.merge_state(state)
            info = self._delta_info.get(w)
            if info:
                result.iterations[w] = info["iteration"]

        # Trace and flight streams are incremental (deltas carry events
        # past the previous cursor; the final payload carries the tail
        # past the last delta), so per worker: delta stream first, then
        # the final tail — concatenation with no duplicates.
        for w in range(self.n_workers):
            payload = payloads.get(w)
            trace_stream = list(self._delta_trace.get(w, ()))
            if payload is not None and payload["trace_events"]:
                trace_stream.extend(payload["trace_events"])
            if self.tracer.enabled and trace_stream:
                self.tracer.ingest(trace_stream)
            flight = list(self._delta_flight.get(w, ()))
            if payload is not None and payload.get("flight"):
                flight.extend(payload["flight"])
            if flight:
                self.flight_events[w] = flight
                if self.tracer.enabled:
                    self.tracer.ingest(flight)

        # GBS and membership are cluster-wide series every worker records
        # its own view of; take the lowest surviving worker's.
        if payloads:
            first = payloads[min(payloads)]
            fill(result.gbs, first["gbs"])
            fill(result.active_workers, first["active_workers"])
        return result
