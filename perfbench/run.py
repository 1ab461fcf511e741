"""The repository's benchmark: one workload, several repetitions, one report.

    python3 perfbench/run.py --workload homo-b-mlp --seed 0 --seconds 30 --trace 0

Each repetition runs ``perfbench/rep.py`` in a fresh interpreter with
one BLAS thread, so no process runs more busy threads than the two
cores of the reference machine. Repetitions start while the next one is
expected to finish inside ``--seconds`` (at least two run). The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over repetitions. With ``--trace 1`` untraced and traced repetitions
alternate and the metrics are the per-layer ones: medians over the
traced repetitions, plus the tracing overhead measured against the
untraced ones. ``perfbench/README.md`` defines every metric.

A repetition fails when its process exits non-zero or times out, when
its output check fails (see ``rep.py``), or, on the simulator, when its
digest differs from the one recorded in ``perfbench/digests.json`` for
the seed or, for an unrecorded seed, from the run's first repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from rep import LIVE_SCOPES, WORKLOADS, child_env  # noqa: E402
from tracing import LAYERS  # noqa: E402

DIGESTS = HERE / "digests.json"
MIN_REPS = 2
# Every run must end within 180 s: a repetition gets what is left of
# RUN_LIMIT_S, and none starts with less than MIN_REP_TIMEOUT_S left.
RUN_LIMIT_S = 170.0
MIN_REP_TIMEOUT_S = 30.0

END_TO_END = (
    ("samples_per_s", "samples/s"),
    ("iters_per_s", "iters/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_accuracy", "fraction"),
)

_PHASES = ("engine.init", "engine.finalize")
_COUNTS = (
    ("simclock.events", "count"),
    ("worker.iterations", "count"),
    ("network.grad_bytes", "bytes"),
    ("network.grad_msgs", "count"),
    ("transmission.sent_frac", "fraction"),
    ("sync.wait_frac", "fraction"),
)
_CODEC = (("codec.encode_into.us_per_frame", "us"), ("codec.decode_body.us_per_frame", "us"))
_MESH = (
    ("mesh.frame_latency_p50_ms", "ms"),
    ("mesh.frame_latency_p99_ms", "ms"),
    ("mesh.stall_s", "s"),
    ("mesh.coalesced_frac", "fraction"),
    ("mesh.send_bytes", "bytes"),
)


def live_metric(scope: str) -> str:
    """``nn/loss_and_grads`` -> ``live.profile.nn.loss_and_grads_s``."""
    return "live.profile." + scope.replace("/", ".") + "_s"


PER_LAYER = (
    tuple(
        pair
        for layer in LAYERS if layer not in _PHASES
        for pair in ((f"{layer}.self_s", "s"), (f"{layer}.calls", "count"))
    )
    + tuple((f"{phase}_s", "s") for phase in _PHASES)
    + (("unattributed_frac", "fraction"), ("trace.overhead_frac", "fraction"))
    + _COUNTS + _CODEC + _MESH
    + tuple((live_metric(s), "s") for s in LIVE_SCOPES)
)


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a repetition and every process it started."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_rep(workload: str, seed: int, trace: bool, env: dict, timeout: float) -> tuple[dict | None, str]:
    """One repetition in a fresh interpreter: ``(output or None, error)``."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    finally:
        # Worker processes of a proc repetition share its process group.
        _kill_group(proc)
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {stderr.strip()[-1500:]}"
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def check(workload: str, out: dict, reference: dict) -> str | None:
    """Why a repetition's output is wrong, or None.

    ``reference`` carries the digest this seed must reproduce: the
    recorded one, else the first repetition's (set here on first use).
    """
    if out.get("failure"):
        return out["failure"]
    if WORKLOADS[workload].kind != "sim":
        return None
    expected = reference.setdefault("digest", out["digest"])
    if out["digest"] != expected:
        source = "recorded" if reference.get("recorded") else "first repetition's"
        return f"digest {out['digest'][:12]} differs from the {source} {expected[:12]}"
    return None


def recorded_digest(workload: str, seed: int) -> dict:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digest = table.get(workload, {}).get(str(seed))
    return {"digest": digest, "recorded": True} if digest else {}


def end_to_end(kind: str, reps: list[dict]) -> dict:
    """The run's end-to-end values: medians over untraced repetitions.

    A simulator repetition's wall is its ``reference_s``: every slice
    rescaled by the machine speed probed just before it (see
    ``rep.MachineProbe``). A live run's wall is the horizon's wall span.
    """
    med = statistics.median
    wall = "reference_s" if kind == "sim" else "run_s"
    return {
        "samples_per_s": med(r["samples"] / r[wall] for r in reps),
        "iters_per_s": med(r["iterations"] / r[wall] for r in reps),
        "setup_s": med(r["setup_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "final_accuracy": med(r["final_accuracy"] for r in reps),
    }


def per_layer(kind: str, traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer values from traced repetitions, and the tracing overhead.

    A metric of a layer the workload does not run reads 0 (its calls
    read 0 too): the simulator's layers on the proc workload, whose
    workers are separate processes, and the mesh and live profile on
    the simulator workloads.
    """
    med = statistics.median
    values = {name: 0.0 for name, _unit in PER_LAYER}
    for name, _unit in _COUNTS:
        values[name] = med(r["counts"][name] for r in plain + traced)
    for name, _unit in _CODEC:
        values[name] = med(r["codec"][name] for r in traced)
    if kind == "proc":
        for name, _unit in _MESH:
            values[name] = med(r["mesh"][name] for r in traced)
        for scope in LIVE_SCOPES:
            values[live_metric(scope)] = med(r["live_profile"][scope] for r in traced)
        values["unattributed_frac"] = med(r["unattributed_frac"] for r in traced)
        # The live run's wall is fixed by its horizon: tracing shows as
        # fewer iterations in it, not as a longer wall.
        rate = lambda rs: med(r["iterations"] / r["run_s"] for r in rs)  # noqa: E731
        values["trace.overhead_frac"] = rate(plain) / rate(traced) - 1.0
        return values
    for layer in LAYERS:
        rows = [r["layers"].get(layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0}) for r in traced]
        if layer in _PHASES:
            values[f"{layer}_s"] = med(row["total_s"] for row in rows)
        else:
            values[f"{layer}.self_s"] = med(row["self_s"] for row in rows)
            values[f"{layer}.calls"] = med(row["calls"] for row in rows)
    values["unattributed_frac"] = med(
        1.0 - sum(row["self_s"] for row in r["layers"].values()) / r["engine_s"] for r in traced
    )
    values["trace.overhead_frac"] = (
        med(r["reference_s"] for r in traced) / med(r["reference_s"] for r in plain) - 1.0
    )
    return values


@contextmanager
def scratch_env(tag: str):
    """The repetitions' environment, with temporary files in the checkout."""
    tmpdir = ROOT / ".perfbench_tmp" / f"{tag}-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        yield child_env(os.environ, str(tmpdir))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with suppress(OSError):
            tmpdir.parent.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="DLion reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    start = perf_counter()
    kind = WORKLOADS[args.workload].kind
    reference = recorded_digest(args.workload, args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    longest = 0.0
    with scratch_env("run") as env:
        while True:
            elapsed = perf_counter() - start
            if attempted >= MIN_REPS and elapsed + longest > args.seconds:
                break
            if attempted and elapsed > RUN_LIMIT_S - MIN_REP_TIMEOUT_S:
                break
            trace = bool(args.trace) and attempted % 2 == 1
            t0 = perf_counter()
            out, error = run_rep(args.workload, args.seed, trace, env, RUN_LIMIT_S - elapsed)
            longest = max(longest, perf_counter() - t0)
            attempted += 1
            if out is not None:
                error = check(args.workload, out, reference)
            if error:
                failed += 1
                print(f"repetition {attempted} failed: {error}", file=sys.stderr)
            else:
                (traced if trace else plain).append(out)

    # With no successful repetition every value reads 0 and correct is false.
    if args.trace:
        units = dict(PER_LAYER)
        values = per_layer(kind, traced, plain) if traced and plain else dict.fromkeys(units, 0.0)
    else:
        units = dict(END_TO_END)
        values = end_to_end(kind, plain) if plain else dict.fromkeys(units, 0.0)

    walls = ", ".join(f"{r['run_s']:.3f}" for r in plain + traced) or "none"
    print(f"{args.workload} seed {args.seed}: {attempted} attempted, {failed} failed;"
          f" {len(plain)} untraced, {len(traced)} traced repetitions (run walls: {walls})")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
