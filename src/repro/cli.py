"""Command-line interface.

Seven subcommands::

    repro-dlion list                         # environments, systems, figures
    repro-dlion run  --environment "Hetero SYS A" --system dlion
    repro-dlion compare --environment "Homo B" --systems dlion,ako,gaia
    repro-dlion figure fig11                 # regenerate one paper figure
    repro-dlion report run.trace.json        # summarize a recorded trace
    repro-dlion status ./statusdir           # read a live run's snapshot
    repro-dlion selftest                     # ~10 s install verification

``run`` and ``compare`` accept ``--horizon`` (simulated seconds; default
is the workload's scaled paper horizon) and ``--seed``. ``run`` also
takes ``--env-file`` (custom cluster JSON), ``--churn`` (elastic
membership events), ``--chaos`` (a unified fault-plan JSON — scripted
crashes/restarts and link faults; both backends, see
docs/robustness.md), ``--output``/``--csv`` (result export), and the
observability flags ``--trace`` (Chrome-trace JSON, viewable in
Perfetto), ``--metrics-out`` (metrics registry JSON), and ``--profile``
(wall-clock profile of the simulator itself). ``run --backend proc``
executes the same job as real worker processes over a loopback TCP mesh
(``--speedup`` maps modelled seconds to wall time, ``--workers``
truncates the environment, ``--checkpoint-dir``/``--checkpoint-interval``
enable crash checkpoints; see docs/architecture.md); its telemetry
plane adds ``--stats-interval`` (periodic one-line cluster-health
prints), ``--status-dir`` (an atomically-replaced ``live_status.json``
that ``repro-dlion status`` — optionally ``--watch`` — reads from
outside the run), and ``--ship-interval`` (worker telemetry-delta
cadence; see docs/observability.md). ``report`` also summarizes a
``--metrics-out`` dump via ``--metrics`` (histogram p50/p95/p99
tables). All output is plain text;
benchmark archives land under ``benchmarks/results/`` when figures are
run through pytest instead.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (list / run / compare / figure / selftest)."""
    from repro.experiments import figures as figures_mod
    from repro.experiments.environments import ENVIRONMENTS
    from repro.experiments.runner import SYSTEM_VARIANTS

    _FIGURES = list(figures_mod.__all__)
    parser = argparse.ArgumentParser(
        prog="repro-dlion",
        description="Reproduction of DLion (HPDC '21): decentralized "
        "distributed deep learning in micro-clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list environments, system variants, and figures")

    run_p = sub.add_parser("run", help="run one system in one environment")
    run_p.add_argument("--environment", "-e", choices=sorted(ENVIRONMENTS),
                       help="a Table 3 preset (or use --env-file)")
    run_p.add_argument("--env-file", help="custom environment JSON (see docs/api.md)")
    run_p.add_argument("--output", help="write the full result as JSON to this path")
    run_p.add_argument("--csv", help="write per-worker accuracy samples as CSV")
    run_p.add_argument("--system", "-s", default="dlion", choices=SYSTEM_VARIANTS)
    run_p.add_argument("--backend", choices=("sim", "proc"), default="sim",
                       help="sim = in-process discrete-event simulator; "
                       "proc = one OS process per worker over a loopback "
                       "TCP mesh (see docs/architecture.md)")
    run_p.add_argument("--speedup", type=float, default=20.0,
                       help="proc backend: modelled seconds per wall-clock "
                       "second (default 20)")
    run_p.add_argument("--overlay", metavar="SPEC", default=None,
                       help="sim backend: sparse exchange overlay — full, "
                       "ring, star, kregular:K, hier:G or hier:G:full "
                       "(default: the paper's full mesh)")
    run_p.add_argument("--workers", type=int, default=None,
                       help="truncate the environment to its first N workers")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--horizon", type=float, default=None,
                       help="simulated seconds (default: scaled paper horizon)")
    run_p.add_argument("--target", type=float, default=0.70,
                       help="accuracy target for the time-to-accuracy metric")
    run_p.add_argument(
        "--churn",
        action="append",
        default=[],
        metavar="TIME:WORKER:ACTION",
        help="elastic-membership event, e.g. --churn 100:0:leave "
        "--churn 200:0:join (repeatable)",
    )
    run_p.add_argument(
        "--chaos",
        metavar="FILE",
        help="unified fault plan JSON (crashes/restarts + link faults; "
        "both backends, modelled-time schedule; see docs/robustness.md)",
    )
    run_p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="proc backend: directory for periodic worker checkpoints "
        "(enables crash recovery; see docs/robustness.md)",
    )
    run_p.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="proc backend: modelled seconds between checkpoints "
        "(default 5; requires --checkpoint-dir)",
    )
    run_p.add_argument(
        "--stats-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="proc backend: print a one-line cluster-health summary "
        "every N wall seconds",
    )
    run_p.add_argument(
        "--status-dir",
        metavar="DIR",
        help="proc backend: maintain an atomically-updated "
        "live_status.json in DIR for `repro-dlion status`",
    )
    run_p.add_argument(
        "--ship-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="proc backend: wall seconds between worker telemetry-delta "
        "shipments (default 1; bounds what a crash can lose)",
    )
    run_p.add_argument(
        "--shm-lanes",
        action="store_true",
        help="proc backend: carry data channels between co-hosted "
        "workers over shared-memory rings instead of TCP sockets "
        "(modelled bandwidth still enforced; see docs/architecture.md)",
    )
    run_p.add_argument("--trace", metavar="PATH",
                       help="write a Chrome-trace JSON of the run "
                       "(load in Perfetto / chrome://tracing)")
    run_p.add_argument("--metrics-out", metavar="PATH",
                       help="write the metrics registry as JSON")
    run_p.add_argument("--profile", action="store_true",
                       help="print a wall-clock profile of the simulator itself")

    cmp_p = sub.add_parser("compare", help="run several systems in one environment")
    cmp_p.add_argument("--environment", "-e", required=True, choices=sorted(ENVIRONMENTS))
    cmp_p.add_argument("--systems", default="dlion,baseline,ako,gaia,hop",
                       help="comma-separated system variants")
    cmp_p.add_argument("--seed", type=int, default=0)
    cmp_p.add_argument("--horizon", type=float, default=None)

    fig_p = sub.add_parser("figure", help="regenerate one paper table/figure")
    fig_p.add_argument("name", choices=_FIGURES,
                       help="e.g. fig11, fig09a, table1")

    rep_p = sub.add_parser(
        "report",
        help="summarize a trace written by run --trace and/or a "
        "metrics dump written by run --metrics-out",
    )
    rep_p.add_argument("trace", nargs="?", default=None,
                       help="path to a Chrome-trace JSON file")
    rep_p.add_argument("--metrics", metavar="PATH",
                       help="metrics registry JSON (--metrics-out dump): "
                       "print histogram p50/p95/p99 tables")

    st_p = sub.add_parser(
        "status",
        help="read the live_status.json a `run --status-dir` maintains",
    )
    st_p.add_argument("dir", help="the --status-dir of a running live job")
    st_p.add_argument("--watch", action="store_true",
                      help="re-render until interrupted")
    st_p.add_argument("--interval", type=float, default=2.0,
                      help="seconds between --watch refreshes (default 2)")

    sub.add_parser("selftest", help="quick installation self-test (~1 min)")
    return parser


def _cmd_list() -> int:
    from repro.experiments import figures as figures_mod
    from repro.experiments.environments import ENVIRONMENTS
    from repro.experiments.runner import SYSTEM_VARIANTS

    _FIGURES = list(figures_mod.__all__)
    print("environments (paper Table 3):")
    for env in ENVIRONMENTS.values():
        print(f"  {env.name:15s} [{env.platform}] {env.description}")
    print("\nsystem variants:")
    for variant in SYSTEM_VARIANTS:
        print(f"  {variant}")
    print("\nfigures / tables (repro-dlion figure <name>):")
    print("  " + ", ".join(_FIGURES))
    return 0


def _parse_churn(entries: list[str], n_workers: int = 6):
    if not entries:
        return None
    from repro.cluster.membership import MembershipSchedule

    events = []
    for entry in entries:
        try:
            time_s, worker_s, action = entry.split(":")
            events.append((float(time_s), int(worker_s), action))
        except ValueError as exc:
            raise SystemExit(f"bad --churn entry {entry!r}: {exc}")
    return MembershipSchedule(events, n_workers=n_workers)


def _make_obs(args: argparse.Namespace):
    """Tracer / metrics registry / profiler per the run flags (or Nones)."""
    tracer = metrics = profiler = None
    if getattr(args, "trace", None):
        from repro.obs.trace import Tracer

        tracer = Tracer()
    if getattr(args, "metrics_out", None):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    if getattr(args, "profile", False):
        from repro.obs.profile import Profiler

        profiler = Profiler()
    return tracer, metrics, profiler


def _build_run_setup(args: argparse.Namespace):
    """Resolve ``(config, topology, default_horizon)`` for a run.

    Shared by both backends: the same config and topology drive either
    the in-process simulator or the multi-process live runtime, so a
    ``--backend proc`` run trains the exact model the simulation models.
    """
    from repro.experiments.runner import build_config

    if args.env_file:
        from repro.cluster.topology import ClusterTopology
        from repro.cluster.traces import PiecewiseTrace
        from repro.experiments.envfile import load_environment
        from repro.experiments.runner import cpu_workload, gpu_workload

        spec, cores, bandwidths = load_environment(args.env_file)
        workload = gpu_workload() if spec.platform == "gpu" else cpu_workload()
        ws = workload.wire_scale()

        def scale(bw):
            if isinstance(bw, (int, float)):
                return float(bw) * ws
            # trace: rebuild with scaled levels
            segments = [(t, v * ws) for t, v in zip(bw._times, bw._values)]
            return PiecewiseTrace(segments)

        topo = ClusterTopology.build(
            cores=cores,
            bandwidth=[scale(b) for b in bandwidths],
            per_core_rate=workload.per_unit_rate,
            overhead=workload.overhead,
        )
        print(f"custom environment: {spec.name} ({topo.n_workers} workers)")
    else:
        from repro.experiments.environments import get_environment
        from repro.experiments.runner import build_topology, workload_for

        env = get_environment(args.environment)
        workload = workload_for(env)
        topo = build_topology(env, workload, n_workers=args.workers)
    return build_config(args.system, workload), topo, workload.horizon()


def _live_profile_report(metrics) -> str:
    """Render the merged per-scope wall-clock totals of a live run."""
    seconds = metrics.get("profile_seconds_total")
    calls = metrics.get("profile_calls_total")
    call_map = dict(calls.items()) if calls is not None else {}
    rows = []
    if seconds is not None:
        for key, total in sorted(seconds.items(), key=lambda kv: -kv[1]):
            rows.append(
                f"  {key[0]:<28s} {int(call_map.get(key, 0)):>9d} {total:>11.3f}"
            )
    header = f"  {'scope':<28s} {'calls':>9s} {'seconds':>11s}"
    return "\n".join(
        ["wall-clock profile (summed across worker processes)", header, *rows]
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if bool(args.environment) == bool(args.env_file):
        print("exactly one of --environment / --env-file is required", file=sys.stderr)
        return 2
    if args.env_file and args.workers is not None:
        print("--workers applies only to preset environments", file=sys.stderr)
        return 2
    if args.backend == "proc" and args.overlay:
        print(
            "--overlay is a simulator feature; the proc backend exchanges "
            "over the full mesh",
            file=sys.stderr,
        )
        return 2
    if args.backend == "proc" and args.churn:
        print(
            "--churn is a simulator feature; with --backend proc, script "
            "crashes with --chaos instead",
            file=sys.stderr,
        )
        return 2
    if args.backend != "proc" and (
        args.checkpoint_dir or args.checkpoint_interval is not None
    ):
        print(
            "--checkpoint-dir/--checkpoint-interval apply only to "
            "--backend proc",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_interval is not None and not args.checkpoint_dir:
        print("--checkpoint-interval requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.backend != "proc" and (
        args.stats_interval is not None
        or args.status_dir
        or args.ship_interval is not None
        or args.shm_lanes
    ):
        print(
            "--stats-interval/--status-dir/--ship-interval/--shm-lanes "
            "apply only to --backend proc",
            file=sys.stderr,
        )
        return 2
    for name, value in (
        ("--stats-interval", args.stats_interval),
        ("--ship-interval", args.ship_interval),
    ):
        if value is not None and value <= 0:
            print(f"{name} must be positive", file=sys.stderr)
            return 2
    chaos = None
    if args.chaos:
        from repro.cluster.chaos import ChaosPlan

        try:
            chaos = ChaosPlan.from_file(args.chaos)
        except (OSError, ValueError) as exc:
            print(f"bad --chaos plan: {exc}", file=sys.stderr)
            return 2
    # Fail on unwritable export paths *before* spending minutes simulating.
    import pathlib

    for path_arg in (args.trace, args.metrics_out, args.output, args.csv):
        if path_arg and not pathlib.Path(path_arg).resolve().parent.is_dir():
            print(f"output directory does not exist: {path_arg}", file=sys.stderr)
            return 2
    tracer, metrics, profiler = _make_obs(args)
    config, topo, default_horizon = _build_run_setup(args)
    peer_graph = None
    if args.overlay:
        from repro.cluster.peergraph import PeerGraph

        try:
            peer_graph = PeerGraph.from_spec(args.overlay, topo.n_workers)
        except ValueError as exc:
            print(f"bad --overlay: {exc}", file=sys.stderr)
            return 2
    membership = _parse_churn(args.churn, n_workers=topo.n_workers)
    if chaos is not None:
        # Mirror the --churn validation: worker ids and link endpoints
        # must exist in *this* cluster, and the failure must name the
        # offender, not surface later as a no-op or a hang.
        try:
            chaos.validate(topo.n_workers)
        except ValueError as exc:
            print(f"bad --chaos plan: {exc}", file=sys.stderr)
            return 2
    horizon = args.horizon if args.horizon is not None else default_horizon
    if args.backend == "proc":
        from repro.core.live_engine import LiveEngine

        checkpoint = None
        if args.checkpoint_dir:
            from repro.transport.checkpoint import CheckpointConfig

            try:
                checkpoint = CheckpointConfig(
                    directory=args.checkpoint_dir,
                    interval_s=(
                        args.checkpoint_interval
                        if args.checkpoint_interval is not None
                        else 5.0
                    ),
                )
            except ValueError as exc:
                print(f"bad checkpoint settings: {exc}", file=sys.stderr)
                return 2
        engine = LiveEngine(
            config,
            topo,
            seed=args.seed,
            speedup=args.speedup,
            tracer=tracer,
            metrics=metrics,
            profile=args.profile,
            checkpoint=checkpoint,
            ship_interval_s=(
                args.ship_interval if args.ship_interval is not None else 1.0
            ),
            stats_interval_s=args.stats_interval,
            status_dir=args.status_dir,
            shm_lanes=args.shm_lanes,
        )
        result = engine.run(horizon, chaos=chaos)
    else:
        from repro.core.engine import TrainingEngine

        try:
            sim = TrainingEngine(
                config,
                topo,
                seed=args.seed,
                membership=membership,
                tracer=tracer,
                metrics=metrics,
                profiler=profiler,
                chaos=chaos,
                peer_graph=peer_graph,
            )
        except ValueError as exc:
            # e.g. a chaos plan whose crash narrative conflicts with the
            # --churn schedule, or drops the cluster below two workers.
            print(f"invalid run configuration: {exc}", file=sys.stderr)
            return 2
        result = sim.run(horizon)
    print(f"environment    : {args.environment or args.env_file}")
    print(f"system         : {args.system}")
    print(f"simulated time : {result.horizon:.0f} s")
    print(f"iterations     : {result.iterations}")
    print(f"epochs         : {result.epochs:.2f}")
    print(f"accuracy       : {result.final_mean_accuracy():.3f}")
    print(f"worker std     : {result.accuracy_deviation_at(result.horizon):.4f}")
    t = result.time_to_accuracy(args.target)
    print(f"time to {args.target:.0%}    : {'not reached' if t is None else f'{t:.1f} s'}")
    print(f"bytes on wire  : {sum(result.link_bytes.values()) / 1e6:.1f} MB")
    print(f"DKT merges     : {result.dkt_merges}")
    if len(result.active_workers) > 1:
        steps = ", ".join(
            f"{t:.0f}s->{int(n)}"
            for t, n in zip(result.active_workers.times, result.active_workers.values)
        )
        print(f"active workers : {steps}")
    if args.output:
        from repro.experiments.export import write_json

        write_json(result, args.output)
        print(f"result JSON    : {args.output}")
    if args.csv:
        from repro.experiments.export import write_accuracy_csv

        write_accuracy_csv(result, args.csv)
        print(f"accuracy CSV   : {args.csv}")
    if tracer is not None:
        tracer.write(args.trace)
        print(f"trace          : {args.trace}")
    if metrics is not None:
        metrics.write(args.metrics_out)
        print(f"metrics JSON   : {args.metrics_out}")
    if args.profile:
        print()
        if args.backend == "proc":
            print(_live_profile_report(result.metrics))
        else:
            print(profiler.report())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_table
    from repro.experiments.runner import SYSTEM_VARIANTS, RunSpec, run_experiment

    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    unknown = [s for s in systems if s not in SYSTEM_VARIANTS]
    if unknown:
        print(f"unknown systems: {unknown}", file=sys.stderr)
        return 2
    rows = []
    for system in systems:
        result = run_experiment(
            RunSpec(
                environment=args.environment,
                system=system,
                seed=args.seed,
                horizon=args.horizon,
            )
        )
        rows.append(
            [
                system,
                result.final_mean_accuracy(),
                result.accuracy_deviation_at(result.horizon),
                min(result.iterations),
                round(sum(result.link_bytes.values()) / 1e6, 1),
            ]
        )
    print(f"environment: {args.environment}")
    print(format_table(["system", "accuracy", "worker std", "min iters", "MB"], rows))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figures as figures_mod

    driver = getattr(figures_mod, args.name)
    print(driver().render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.trace_report import (
        load_metrics,
        load_trace,
        render_metrics_report,
        render_report,
    )

    if not args.trace and not args.metrics:
        print("give a trace file and/or --metrics PATH", file=sys.stderr)
        return 2
    if args.trace:
        try:
            events = load_trace(args.trace)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read trace: {exc}", file=sys.stderr)
            return 2
        print(render_report(events))
    if args.metrics:
        try:
            dump = load_metrics(args.metrics)
        except (OSError, ValueError) as exc:
            print(f"cannot read metrics dump: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            print()
        print(render_metrics_report(dump))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.live_status import read_snapshot, render_snapshot

    if args.watch:
        try:
            while True:
                snap = read_snapshot(args.dir)
                if snap is None:
                    print(f"(no live status snapshot in {args.dir} yet)")
                else:
                    print(render_snapshot(snap))
                _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
    snap = read_snapshot(args.dir)
    if snap is None:
        print(f"no live status snapshot in {args.dir}", file=sys.stderr)
        return 1
    print(render_snapshot(snap))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "selftest":
        from repro.selftest import run_selftest

        return 1 if run_selftest() else 0
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
