"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload homo-b-mlp --seed 0 --trace 0

Builds the workload through the library's public surface, runs it for
its fixed modelled horizon, checks the outputs it can check on its own
and prints one JSON object as the last line of standard output.
``perfbench/run.py`` starts this script once per repetition, so every
repetition pays its own imports and set-up; it sets the BLAS thread
pools to one thread before the interpreter starts.

Importing this module has no side effects: the proc workload's worker
processes are started with ``spawn`` and import the main module again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: a run of the library at a fixed size."""

    name: str
    kind: str  # "sim" (TrainingEngine) or "proc" (LiveEngine)
    environment: str
    scale: str  # REPRO_BENCH_SCALE: "fast" trains an MLP, "full" the Cipher CNN
    horizon: float  # modelled seconds per repetition
    slices: int = 1  # sim only: the horizon is run and timed in this many equal steps
    n_workers: int | None = None
    overlay: str | None = None
    speedup: float = 0.0  # proc only: modelled seconds per wall second


# Why each workload exists is in perfbench/README.md. The horizons keep
# one repetition at a few wall seconds on a 2-core machine, so a run
# holds several repetitions. Simulator slices last 0.1-0.3 wall seconds,
# shorter than the seconds-long phases of machine speed (MachineProbe);
# stress-1k-hier8's first slice is the exception, a start-up burst of
# LBS allocation at one modelled instant that no slicing can split.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("homo-b-mlp", "sim", "Homo B", "fast", 80.0, slices=20),
        Workload("homo-b-cipher", "sim", "Homo B", "full", 4.0, slices=16),
        Workload("stress-1k-hier8", "sim", "Stress 1k", "fast", 2.0, slices=20, overlay="hier:8"),
        # Speedup 200 asks for ~8x the iteration rate two processes can
        # deliver, so the program, not the modelled clock, is the bound.
        Workload("proc-homo-b-2w", "proc", "Homo B", "fast", 1000.0, n_workers=2, speedup=200.0),
    )
}

# Gradient messages for the codec timing come from this workload.
CODEC_SOURCE = "homo-b-mlp"
CODEC_SOURCE_HORIZON = 15.0
CODEC_MIN_SECONDS = 0.25

# Top-level profile scopes of a live worker (none nests inside another),
# and the scopes the traced proc run reports.
LIVE_TOP_SCOPES = ("nn/loss_and_grads", "nn/evaluate", "maxn/plan", "transport/send_bytes", "transport/connect")
LIVE_SCOPES = (
    "nn/loss_and_grads", "nn/forward", "nn/backward", "nn/evaluate",
    "maxn/plan", "maxn/select_payload", "transport/send_bytes", "transport/connect",
)

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(base: dict, tmpdir: str) -> dict:
    """The environment a repetition runs in: one BLAS thread per process,
    and temporary files inside ``tmpdir``."""
    env = dict(base)
    for var in _BLAS_VARS:
        env[var] = "1"
    env["TMPDIR"] = tmpdir
    return env


@contextmanager
def bench_scale(scale: str):
    """Set ``REPRO_BENCH_SCALE`` (the library reads it at call time)."""
    old = os.environ.get("REPRO_BENCH_SCALE")
    os.environ["REPRO_BENCH_SCALE"] = scale
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_BENCH_SCALE"]
        else:
            os.environ["REPRO_BENCH_SCALE"] = old


def run_spec(workload: Workload, seed: int):
    """The public :class:`RunSpec` for one workload; the seed flows in."""
    from repro.experiments.runner import RunSpec

    return RunSpec(
        environment=workload.environment,
        system="dlion",
        seed=seed,
        horizon=workload.horizon,
        n_workers=workload.n_workers,
        overlay=workload.overlay,
    )


def build_inputs(spec):
    """``run_experiment``'s steps before the engine: config, topology, overlay."""
    from repro.experiments.environments import get_environment
    from repro.experiments.runner import build_config, build_topology, workload_for

    env = get_environment(spec.environment)
    workload = workload_for(env)
    config = build_config(spec.system, workload, **spec.config_overrides)
    topo = build_topology(env, workload, n_workers=spec.n_workers)
    peer_graph = None
    if spec.overlay is not None:
        from repro.cluster.peergraph import PeerGraph

        peer_graph = PeerGraph.from_spec(spec.overlay, topo.n_workers)
    return config, topo, peer_graph


def sim_digest(result) -> str:
    """SHA-256 over what a pure performance change must not move: the
    event count, per-worker iterations, per-link gradient bytes and the
    bits of the final accuracy."""
    payload = {
        "events": int(result.events),
        "iterations": [int(i) for i in result.iterations],
        "grad_bytes": sorted([s, d, int(b)] for (s, d), b in result.link_bytes.items()),
        "final_accuracy": float(result.final_mean_accuracy()).hex(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def model_counts(result, num_params: int) -> dict:
    """Exact modelled counts of a finished run."""
    msgs = result.metrics.get("grad_msgs_total")
    n_msgs = int(sum(v for _k, v in msgs.items())) if msgs is not None else 0
    entries = sum(sum(ts.values) for ts in result.link_entries.values())
    horizon = max(result.horizon, 1e-9)
    return {
        "simclock.events": int(result.events),
        "worker.iterations": int(sum(result.iterations)),
        "network.grad_bytes": int(sum(result.link_bytes.values())),
        "network.grad_msgs": n_msgs,
        "transmission.sent_frac": entries / max(n_msgs * num_params, 1),
        "sync.wait_frac": sum(result.wait_time) / (horizon * result.n_workers),
    }


def result_failure(result) -> str | None:
    """Why a finished run's output is wrong regardless of seed, or None.

    The simulator's outputs are pinned by their digest; these checks
    are what any run, live or simulated, must satisfy."""
    acc = result.final_mean_accuracy()
    if not 0.0 < acc <= 1.0:
        return f"final accuracy {acc!r} outside (0, 1]"
    if result.events <= 0 or sum(result.iterations) <= 0:
        return "the run processed no events"
    return None


class MachineProbe:
    """A reading of how fast the machine runs right now.

    The reference machine (a 2-vCPU VM) switches, for seconds at a
    time, between speeds up to 1.5x apart, and a whole 30 s run can
    fall in a slow phase. A median over repetitions cannot remove that;
    rescaling each slice's wall by a probe taken next to it can. The
    probe times three kernels, because the workloads slow down by
    different amounts in a slow phase: small NumPy kernels like the MLP
    step (a 32x576 GEMM, ReLU, an ``np.subtract.at`` scatter), a
    memory-bound pass over 8 MB like the CNN's large arrays, and
    interpreter work over a 1,000-element list like the LBS allocation.
    Each kernel's best of three tries is divided by its time in the
    reference machine's usual state; the reading is their mean.
    """

    # Seconds per kernel in the reference machine's usual state.
    REFERENCE_S = (0.00028, 0.0005, 0.000084)

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._x = rng.standard_normal((32, 576)).astype(np.float32)
        self._w = rng.standard_normal((576, 128)).astype(np.float32)
        self._flat = self._w.reshape(-1).copy()
        self._idx = rng.integers(0, self._w.size, 2000)
        self._v = rng.standard_normal(2000).astype(np.float32)
        self.stream = np.ones(2 * 1024 * 1024, dtype=np.float32)
        self._list = [float(i) for i in range(1000)]

    def _kernels(self) -> None:
        for _ in range(3):
            h = self._x @ self._w
            self._np.maximum(h, 0.0, out=h)
            self._np.subtract.at(self._flat, self._idx, self._v)

    def _memory(self) -> None:
        self.stream *= 1.0

    def _interpreter(self) -> None:
        total = sum(self._list)
        max([x / total for x in self._list])

    def __call__(self) -> float:
        """The current slowness: 1.0 in the reference machine's usual state."""
        ratios = []
        for kernel, reference in zip((self._kernels, self._memory, self._interpreter), self.REFERENCE_S):
            best = float("inf")
            for _ in range(3):
                t0 = perf_counter()
                kernel()
                best = min(best, perf_counter() - t0)
            ratios.append(best / reference)
        return sum(ratios) / len(ratios)


def reference_seconds(walls: list[float], probes: list[float]) -> float:
    """The walls rescaled to the reference machine's usual state. Each
    slice is divided by the median probe reading of the five slices
    around it: one reading is noisier than the phase it reads."""
    return sum(
        wall / statistics.median(probes[max(0, k - 2):k + 3])
        for k, wall in enumerate(walls)
    )


def run_sim(workload: Workload, seed: int, t_start: float, recorder=None) -> dict:
    """One simulator repetition; ``recorder`` traces it (see tracing.py)."""
    from repro.core.engine import TrainingEngine

    from tracing import traced

    spec = run_spec(workload, seed)
    config, topo, peer_graph = build_inputs(spec)
    machine_probe = MachineProbe()
    with traced(recorder) if recorder is not None else nullcontext():
        t_engine = perf_counter()
        engine = TrainingEngine(
            config, topo, seed=spec.seed, peer_graph=peer_graph,
            compute_threads=spec.compute_threads,
        )
        t_ready = perf_counter()
        steps = [lambda k=k: engine.advance_to(spec.horizon * k / workload.slices)
                 for k in range(1, workload.slices + 1)]
        steps.append(engine.finalize)
        walls, probes = [], []
        for step in steps:
            probes.append(machine_probe())
            t0 = perf_counter()
            result = step()
            walls.append(perf_counter() - t0)
    run_s = sum(walls)
    out = {
        "setup_s": t_ready - t_start,
        "run_s": run_s,
        "reference_s": reference_seconds(walls, probes),
        "engine_s": t_ready - t_engine + run_s,
        "samples": int(sum(w.sampler.samples_drawn for w in engine.workers)),
        "iterations": int(sum(result.iterations)),
        # The probe's buffer is resident all run long; it is not the library's.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - machine_probe.stream.nbytes) / 2**20,
        "final_accuracy": result.final_mean_accuracy(),
        "digest": sim_digest(result),
        "counts": model_counts(result, engine.workers[0].model.num_params()),
        "failure": result_failure(result),
    }
    if recorder is not None:
        out["layers"] = recorder.summary()
    return out


@contextmanager
def live_payloads():
    """Observe the per-worker final payloads a :class:`LiveEngine` merges.

    The merged :class:`RunResult` keeps neither which workers reported
    a final result nor their exact sample counts; the payloads carry
    both, and ``LiveEngine._merge`` is the one place they pass through.
    """
    from repro.core.live_engine import LiveEngine

    seen: dict = {}
    original = vars(LiveEngine)["_merge"]

    def merge(self, payloads, killed, horizon):
        seen["workers"] = sorted(payloads)
        seen["samples"] = int(sum(p["samples_drawn"] for p in payloads.values()))
        return original(self, payloads, killed, horizon)

    LiveEngine._merge = merge
    try:
        yield seen
    finally:
        LiveEngine._merge = original


def _family_sum(metrics, name: str) -> float:
    family = metrics.get(name)
    return float(sum(v for _k, v in family.items())) if family is not None else 0.0


def mesh_metrics(metrics) -> dict:
    """Transport figures from the run's existing ``transport_*`` families."""
    latency = metrics.get("transport_frame_latency_seconds")
    p50 = latency.percentile_all(0.5) if latency is not None else None
    p99 = latency.percentile_all(0.99) if latency is not None else None
    frames = _family_sum(metrics, "transport_send_msgs_total")
    return {
        "mesh.frame_latency_p50_ms": (p50 or 0.0) * 1e3,
        "mesh.frame_latency_p99_ms": (p99 or 0.0) * 1e3,
        "mesh.stall_s": _family_sum(metrics, "transport_stall_seconds_total"),
        "mesh.coalesced_frac": _family_sum(metrics, "transport_coalesced_frames_total") / max(frames, 1.0),
        "mesh.send_bytes": _family_sum(metrics, "transport_send_bytes_total"),
    }


def run_proc(workload: Workload, seed: int, t_start: float, profile: bool = False) -> dict:
    """One live-backend repetition: real worker processes over loopback TCP."""
    from repro.core.live_engine import LiveEngine
    from repro.nn.models import build_model
    import numpy as np

    spec = run_spec(workload, seed)
    config, topo, _ = build_inputs(spec)
    engine = LiveEngine(
        config, topo, seed=spec.seed, speedup=workload.speedup,
        profile=profile, handshake_timeout_s=30.0,
    )
    span = spec.horizon / workload.speedup
    with live_payloads() as seen:
        t0 = perf_counter()
        result = engine.run(spec.horizon, grace_s=20.0)
        t1 = perf_counter()
    failure = result_failure(result)
    idle = [w for w, n in enumerate(result.iterations) if n == 0]
    if idle:
        failure = f"worker(s) {idle} finished with zero iterations"
    lost = sorted(set(range(topo.n_workers)) - set(seen.get("workers", ())))
    if lost:
        failure = f"lost worker(s) {lost}"
    num_params = build_model(
        config.model, np.random.default_rng(0), **config.model_kwargs
    ).num_params()
    out = {
        "setup_s": (t1 - t0) - span,
        "run_s": span,
        "samples": seen.get("samples", 0),
        "iterations": int(sum(result.iterations)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "final_accuracy": result.final_mean_accuracy(),
        "counts": model_counts(result, num_params),
        "failure": failure,
    }
    if profile:
        seconds = result.metrics.get("profile_seconds_total")
        scopes = {k[0]: float(v) for k, v in seconds.items()} if seconds is not None else {}
        out["live_profile"] = {s: scopes.get(s, 0.0) for s in LIVE_SCOPES}
        busy = sum(scopes.get(s, 0.0) for s in LIVE_TOP_SCOPES)
        out["unattributed_frac"] = 1.0 - busy / (span * topo.n_workers)
        out["mesh"] = mesh_metrics(result.metrics)
    return out


def capture_gradient_messages(seed: int) -> list:
    """Gradient messages a short homo-b-mlp simulation sends."""
    from repro.core.engine import TrainingEngine

    captured: list = []
    original = vars(TrainingEngine)["send_gradients_batch"]

    def capture(self, src, items):
        captured.extend(msg for _dst, msg, _n in items)
        return original(self, src, items)

    workload = WORKLOADS[CODEC_SOURCE]
    TrainingEngine.send_gradients_batch = capture
    try:
        with bench_scale(workload.scale):
            spec = run_spec(workload, seed)
            config, topo, peer_graph = build_inputs(spec)
            engine = TrainingEngine(config, topo, seed=seed, peer_graph=peer_graph)
            engine.run(CODEC_SOURCE_HORIZON)
    finally:
        TrainingEngine.send_gradients_batch = original
    return captured


def same_gradients(a, b) -> bool:
    """Whether two gradient messages carry the same header and payload."""
    import numpy as np

    if (a.sender, a.iteration, a.lbs) != (b.sender, b.iteration, b.lbs):
        return False
    if a.sparse is not None:
        return b.sparse is not None and a.sparse.keys() == b.sparse.keys() and all(
            np.array_equal(a.sparse[k][0], b.sparse[k][0])
            and np.array_equal(a.sparse[k][1], b.sparse[k][1])
            for k in a.sparse
        )
    return b.dense is not None and a.dense.keys() == b.dense.keys() and all(
        np.array_equal(a.dense[k], b.dense[k]) for k in a.dense
    )


def codec_timings(messages: list) -> dict:
    """Mean microseconds per frame for ``encode_into`` and ``decode_body``.

    Every message is encoded into one reused buffer and every frame
    decoded, in passes, until ``CODEC_MIN_SECONDS`` have gone by. Each
    frame must first decode back to the message encoded.
    """
    from repro.transport.codec import FRAME_HEADER_BYTES, FrameBuffer, decode_body, decode_frame_header, encode_into

    if not messages:
        raise RuntimeError("the codec source run sent no gradient messages")
    fbuf = FrameBuffer()
    frames = []
    for msg in messages:
        frame = bytes(encode_into(msg, fbuf))
        msg_type, _ = decode_frame_header(frame[:FRAME_HEADER_BYTES])
        frames.append((msg_type, frame[FRAME_HEADER_BYTES:]))
        if not same_gradients(msg, decode_body(msg_type, frame[FRAME_HEADER_BYTES:])):
            raise RuntimeError("codec round trip changed a gradient message")

    def timed(fn, items) -> float:
        n, elapsed = 0, 0.0
        while elapsed < CODEC_MIN_SECONDS:
            t0 = perf_counter()
            for item in items:
                fn(item)
            elapsed += perf_counter() - t0
            n += len(items)
        return elapsed / n * 1e6

    return {
        "codec.encode_into.us_per_frame": timed(lambda m: encode_into(m, fbuf), messages),
        "codec.decode_body.us_per_frame": timed(lambda f: decode_body(*f), frames),
    }


def run_rep(workload: Workload, seed: int, trace: bool, t_start: float) -> dict:
    """One repetition of ``workload``; traced when ``trace``."""
    with bench_scale(workload.scale):
        if workload.kind == "proc":
            out = run_proc(workload, seed, t_start, profile=trace)
        else:
            from tracing import SpanRecorder

            out = run_sim(workload, seed, t_start, SpanRecorder() if trace else None)
    if trace:
        out["codec"] = codec_timings(capture_gradient_messages(seed))
    return out


def main(argv=None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    out = run_rep(WORKLOADS[args.workload], args.seed, bool(args.trace), t_start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
