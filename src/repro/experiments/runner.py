"""Builds and runs (environment × system) experiments.

Two scalings connect this reproduction to the paper's absolute numbers
(see DESIGN.md §2):

* **wire scaling** — the paper's models weigh 5 MB (Cipher) / 17 MB
  (MobileNet); our substrate models are smaller, so every environment
  bandwidth is multiplied by ``model_bytes / paper_model_bytes``. Ratios
  of communication time to computation time — which determine who wins —
  are preserved exactly.
* **time scaling** — the paper trains for 1500 s (CPU) / 2 h (GPU); the
  default ``fast`` scale compresses the time axis (0.25× CPU, 0.05× GPU)
  and scales the DKT period and dynamic-phase lengths with it. Set
  ``REPRO_BENCH_SCALE=full`` for paper-length runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.cluster.traces import PiecewiseTrace
from repro.core.config import DktConfig, GbsConfig, LbsConfig, MaxNConfig, TrainConfig
from repro.core.engine import RunResult, TrainingEngine
from repro.experiments.environments import EnvSpec, get_environment
from repro.nn.models import build_model

__all__ = [
    "Workload",
    "cpu_workload",
    "gpu_workload",
    "SYSTEM_VARIANTS",
    "RunSpec",
    "bench_scale",
    "bench_seeds",
    "run_experiment",
    "run_seeds",
]

# Paper run lengths (seconds).
PAPER_CPU_HORIZON = 1500.0
PAPER_GPU_HORIZON = 7200.0
PAPER_PHASE = 500.0
PAPER_DKT_PERIOD = 100

# "full" keeps the paper's CPU horizon verbatim; the GPU axis stays
# compressed even in full mode because simulating 2 h of GPU-rate
# iterations against a NumPy MobileNet is wall-clock infeasible — and a
# slower-motion 2 h is dynamically identical to a shorter run at normal
# tempo (see docs/simulation.md).
_SCALES = {"fast": {"cpu": 0.25, "gpu": 0.025}, "full": {"cpu": 1.0, "gpu": 0.1}}


def bench_scale() -> str:
    """``fast`` (default) or ``full`` from ``REPRO_BENCH_SCALE``."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "fast")
    if scale not in _SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}")
    return scale


def bench_seeds() -> tuple[int, ...]:
    """One seed in fast mode; the paper's three-run protocol in full."""
    return (0,) if bench_scale() == "fast" else (0, 1, 2)


@dataclass(frozen=True)
class Workload:
    """Platform workload: model, dataset, and calibration constants."""

    platform: str
    model: str
    model_kwargs: dict
    dataset: str
    dataset_kwargs: dict
    train_size: int
    test_size: int
    lr: float
    initial_lbs: int
    per_unit_rate: float  # samples/sec per core (CPU) or per GPU (GPU)
    overhead: float  # fixed seconds per iteration
    paper_model_mb: float  # wire size of the paper's model
    paper_horizon: float
    eval_subset: int

    @property
    def time_scale(self) -> float:
        return _SCALES[bench_scale()][self.platform]

    def horizon(self) -> float:
        """The scaled run length in simulated seconds."""
        return self.paper_horizon * self.time_scale

    def phase_duration(self) -> float:
        """Scaled length of one dynamic-environment phase."""
        return PAPER_PHASE * self.time_scale

    def dkt_period(self) -> int:
        """Scaled DKT period in iterations (platform-specific floor)."""
        # Scale the paper's 100-iteration period with the time axis, but
        # keep it large enough that weight snapshots do not flood the
        # links (the too-frequent-DKT congestion of Fig. 9a): GPU runs
        # have much shorter iterations, so their floor is higher.
        floor = 50 if self.platform == "gpu" else 10
        return max(floor, int(round(PAPER_DKT_PERIOD * self.time_scale)))

    def model_bytes(self) -> int:
        """Wire size (bytes) of this workload's model."""
        return _model_bytes(self.model, tuple(sorted(self.model_kwargs.items())))

    def wire_scale(self) -> float:
        """Bandwidth multiplier preserving the comm/compute balance."""
        return self.model_bytes() / (self.paper_model_mb * 1e6)


@lru_cache(maxsize=8)
def _model_bytes(model: str, kwargs_items: tuple) -> int:
    probe = build_model(model, np.random.default_rng(0), **dict(kwargs_items))
    return probe.nbytes()


def cpu_workload() -> Workload:
    """The CPU-cluster workload: Cipher-class model on CIFAR-like data.

    ``fast`` mode substitutes an MLP of the same distributed behaviour
    (DLion's techniques act on named gradient variables, not layer
    types) at ~50× the step speed; ``full`` mode trains the actual
    Cipher CNN.
    """
    full = bench_scale() == "full"
    return Workload(
        platform="cpu",
        model="cipher" if full else "mlp",
        model_kwargs={} if full else {"in_dim": 576, "hidden": (128, 64)},
        dataset="cifar_like",
        dataset_kwargs={"noise": 1.8},
        train_size=6000,
        test_size=500,
        lr=0.03,
        initial_lbs=32,
        per_unit_rate=8.0,
        overhead=0.05,
        paper_model_mb=5.0,
        paper_horizon=PAPER_CPU_HORIZON,
        eval_subset=400,
    )


def gpu_workload() -> Workload:
    """The GPU-cluster workload: MobileNet-class model on ImageNet-like data.

    GPUs produce gradients far faster than the network can ship them —
    the severe network-bottleneck regime of §5.2.2. ``fast`` mode uses a
    wide MLP with a comparable wire footprint; ``full`` trains the
    depthwise-separable MobileNet.
    """
    full = bench_scale() == "full"
    return Workload(
        platform="gpu",
        model="mobilenet" if full else "mlp",
        model_kwargs={"width": 2.0} if full else {"in_dim": 3072, "hidden": (64,), "num_classes": 100},
        dataset="imagenet_like",
        dataset_kwargs={"noise": 1.5},
        train_size=8000,
        test_size=800,
        lr=0.05,
        initial_lbs=32,
        per_unit_rate=1000.0,
        overhead=0.01,
        paper_model_mb=17.0,
        paper_horizon=PAPER_GPU_HORIZON,
        eval_subset=300,
    )


def stress_workload() -> Workload:
    """The 1,000-worker scaling workload: a deliberately tiny model.

    The stress presets measure *dispatch* scaling, not learning, so the
    substrate model is shrunk until per-event Python work is negligible
    and the event loop dominates. The DLion control planes (GBS/LBS,
    Max N, DKT) still run — at this scale their traffic is exactly what
    the calendar queue and overlay routing must absorb.
    """
    return Workload(
        platform="cpu",
        model="mlp",
        model_kwargs={"in_dim": 576, "hidden": (32,)},
        dataset="cifar_like",
        dataset_kwargs={"noise": 1.8},
        train_size=6000,
        test_size=500,
        lr=0.03,
        initial_lbs=8,
        per_unit_rate=8.0,
        overhead=0.05,
        paper_model_mb=5.0,
        paper_horizon=PAPER_CPU_HORIZON,
        eval_subset=100,
    )


def workload_for(env: EnvSpec) -> Workload:
    """The platform workload matching an environment's cpu/gpu tag."""
    if env.name.startswith("Stress"):
        return stress_workload()
    return gpu_workload() if env.platform == "gpu" else cpu_workload()


# ----------------------------------------------------------------------
# System variants (the five systems + DLion's ablations)
# ----------------------------------------------------------------------
SYSTEM_VARIANTS = (
    "dlion",
    "baseline",
    "ako",
    "gaia",
    "hop",
    "dlion-no-wu",     # weighted dynamic batching without weighted update
    "dlion-no-dbwu",   # neither dynamic batching nor weighted update
    "dlion-no-dkt",    # DLion without direct knowledge transfer
    "dlion-max10",     # Max N (N=10) alone, no other DLion techniques
)

_OFF = dict(
    gbs=GbsConfig(enabled=False),
    lbs=LbsConfig(enabled=False),
    maxn=MaxNConfig(enabled=False),
    dkt=DktConfig(enabled=False),
    weighted_update=False,
)


def build_config(variant: str, workload: Workload, **overrides) -> TrainConfig:
    """The :class:`TrainConfig` for one system variant on one workload."""
    if variant not in SYSTEM_VARIANTS:
        raise ValueError(f"unknown system variant {variant!r}")
    ts = workload.time_scale
    base = TrainConfig(
        model=workload.model,
        model_kwargs=dict(workload.model_kwargs),
        dataset=workload.dataset,
        dataset_kwargs=dict(workload.dataset_kwargs),
        train_size=workload.train_size,
        test_size=workload.test_size,
        lr=workload.lr,
        initial_lbs=workload.initial_lbs,
        eval_subset=workload.eval_subset,
        gbs=GbsConfig(update_period_s=max(5.0, 60.0 * ts)),
        dkt=DktConfig(period_iters=workload.dkt_period()),
        system="dlion",
    )
    if variant == "dlion":
        cfg = base
    elif variant == "dlion-no-wu":
        cfg = base.with_(weighted_update=False)
    elif variant == "dlion-no-dbwu":
        cfg = base.with_(
            weighted_update=False,
            gbs=GbsConfig(enabled=False),
            lbs=LbsConfig(enabled=False),
        )
    elif variant == "dlion-no-dkt":
        cfg = base.with_(dkt=DktConfig(enabled=False))
    elif variant == "dlion-max10":
        # Max N alone, stripped of every other technique; asynchronous
        # like the partial-exchange systems it is compared against.
        cfg = base.with_(
            maxn=MaxNConfig(fixed_n=10.0),
            gbs=GbsConfig(enabled=False),
            lbs=LbsConfig(enabled=False),
            dkt=DktConfig(enabled=False),
            weighted_update=False,
            sync_mode="async",
        )
    else:  # baseline / ako / gaia / hop
        cfg = base.with_(system=variant, **_OFF)
    if overrides:
        cfg = cfg.with_(**overrides)
    return cfg


# ----------------------------------------------------------------------
# Topology construction
# ----------------------------------------------------------------------
def build_topology(
    env: EnvSpec, workload: Workload, n_workers: int | None = None
) -> ClusterTopology:
    """The simulated cluster for one environment, wire-scaled.

    ``n_workers`` truncates the environment to its first N workers
    (N >= 2) — used by the live backend's smoke runs, where spawning
    all six Table 3 processes would be needlessly heavy.
    """
    max_n = len(env.cores) if env.cores else 6
    if n_workers is not None and not 2 <= n_workers <= max_n:
        raise ValueError(f"n_workers must be in [2, {max_n}], got {n_workers}")
    ws = workload.wire_scale()
    if not env.dynamic:
        cores = list(env.cores[:n_workers])
        bw = [b * ws for b in env.bandwidth[:n_workers]]
        return ClusterTopology.build(
            cores=cores,
            bandwidth=bw,
            per_core_rate=workload.per_unit_rate,
            overhead=workload.overhead,
        )

    # Dynamic environment: piecewise traces over the three phases.
    phases = [get_environment(p) for p in env.phases]
    dur = workload.phase_duration()
    starts = [k * dur for k in range(len(phases))]
    n = n_workers if n_workers is not None else 6
    cores = [
        PiecewiseTrace([(s, p.cores[i]) for s, p in zip(starts, phases)])
        for i in range(n)
    ]
    # Per ordered pair: min of the two endpoints' capacities per phase.
    from repro.cluster.compute import ComputeProfile
    from repro.cluster.network import BandwidthMatrix

    spec = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(1.0)  # unused diagonal
            else:
                row.append(
                    PiecewiseTrace(
                        [
                            (s, min(p.bandwidth[i], p.bandwidth[j]) * ws)
                            for s, p in zip(starts, phases)
                        ]
                    )
                )
        spec.append(row)
    matrix = BandwidthMatrix(spec)
    profiles = [
        ComputeProfile(
            c, per_core_rate=workload.per_unit_rate, overhead=workload.overhead
        )
        for c in cores
    ]
    return ClusterTopology(compute=profiles, network=matrix)


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """A fully-specified run request."""

    environment: str
    system: str
    seed: int = 0
    horizon: float | None = None  # defaults to the workload's scaled horizon
    config_overrides: dict = field(default_factory=dict)
    # Vestigial: read only by perfbench/rep.py, which passes it on to
    # TrainingEngine (which accepts only 1). Dropped with that caller.
    compute_threads: int = 1
    # Truncate the environment to its first N workers (None = all).
    n_workers: int | None = None
    # Sparse exchange overlay spec (see PeerGraph.from_spec); None = the
    # paper's full mesh.
    overlay: str | None = None


def run_experiment(
    spec: RunSpec,
    *,
    tracer=None,
    metrics=None,
    profiler=None,
) -> RunResult:
    """Run one (environment, system, seed) experiment to its horizon.

    ``tracer`` / ``metrics`` / ``profiler`` are optional observability
    sinks threaded into the engine (see :mod:`repro.obs`); by default
    the run is untraced and unprofiled.
    """
    env = get_environment(spec.environment)
    workload = workload_for(env)
    config = build_config(spec.system, workload, **spec.config_overrides)
    topo = build_topology(env, workload, n_workers=spec.n_workers)
    peer_graph = None
    if spec.overlay is not None:
        from repro.cluster.peergraph import PeerGraph

        peer_graph = PeerGraph.from_spec(spec.overlay, topo.n_workers)
    engine = TrainingEngine(
        config, topo, seed=spec.seed,
        tracer=tracer, metrics=metrics, profiler=profiler,
        peer_graph=peer_graph,
    )
    horizon = spec.horizon if spec.horizon is not None else workload.horizon()
    return engine.run(horizon)


def run_seeds(
    environment: str,
    system: str,
    *,
    seeds: tuple[int, ...] | None = None,
    horizon: float | None = None,
    config_overrides: dict | None = None,
) -> list[RunResult]:
    """The paper's multi-run protocol (3 runs in full mode, 1 in fast)."""
    if seeds is None:
        seeds = bench_seeds()
    return [
        run_experiment(
            RunSpec(
                environment=environment,
                system=system,
                seed=s,
                horizon=horizon,
                config_overrides=dict(config_overrides or {}),
            )
        )
        for s in seeds
    ]
