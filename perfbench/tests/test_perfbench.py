"""The benchmark's own tests, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import rep  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TOY_SIM = rep.Workload("toy-sim", "sim", "Homo B", "fast", 6.0, n_workers=2)
# Long enough for every worker to pass an accuracy evaluation before the
# horizon (every 20 iterations); the final one lands just past it.
TOY_PROC = rep.Workload("toy-proc", "proc", "Homo B", "fast", 400.0, n_workers=2, speedup=200.0)


def toy_result(seed: int):
    from repro.experiments.runner import run_experiment

    with rep.bench_scale(TOY_SIM.scale):
        return run_experiment(rep.run_spec(TOY_SIM, seed))


def toy_rep(workload, seed: int = 0, trace: bool = False) -> dict:
    return rep.run_rep(workload, seed, trace, perf_counter())


def target_objects() -> list:
    return [
        vars(tracing._owner(module, cls))[attr]
        for _name, module, cls, attr in tracing.SIM_TARGETS
    ]


class TestDeclaredMetrics:
    def test_benchmark_json_matches_the_emitted_names_and_units(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(rep.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(run.PER_LAYER)

    def test_sim_repetitions_emit_every_metric(self):
        plain, traced = toy_rep(TOY_SIM), toy_rep(TOY_SIM, trace=True)
        assert set(run.end_to_end("sim", [plain])) == set(dict(run.END_TO_END))
        layers = run.per_layer("sim", [traced], [plain])
        assert set(layers) == set(dict(run.PER_LAYER))
        assert layers["nn.loss_and_grads.calls"] == plain["iterations"]
        assert 0.0 <= layers["unattributed_frac"] < 0.5
        assert layers["codec.encode_into.us_per_frame"] > 0.0

    def test_proc_repetitions_emit_every_metric(self):
        plain, traced = toy_rep(TOY_PROC), toy_rep(TOY_PROC, trace=True)
        for out in (plain, traced):
            assert out["failure"] is None
        assert set(run.end_to_end("proc", [plain])) == set(dict(run.END_TO_END))
        layers = run.per_layer("proc", [traced], [plain])
        assert set(layers) == set(dict(run.PER_LAYER))
        assert layers["mesh.send_bytes"] > 0.0
        assert layers[run.live_metric("nn/loss_and_grads")] > 0.0


class TestDigest:
    def test_split_path_matches_run_experiment(self):
        assert toy_rep(TOY_SIM, seed=3)["digest"] == rep.sim_digest(toy_result(3))

    def test_tampered_result_fails_the_check(self):
        result = toy_result(0)
        reference = {"digest": rep.sim_digest(result), "recorded": True}
        good = {"digest": rep.sim_digest(result), "failure": None}
        assert run.check("homo-b-mlp", good, dict(reference)) is None
        tampered = dataclasses.replace(result, iterations=list(result.iterations))
        tampered.iterations[0] += 1
        bad = {"digest": rep.sim_digest(tampered), "failure": None}
        assert "differs from the recorded" in run.check("homo-b-mlp", bad, dict(reference))

    def test_another_seed_changes_the_digest(self):
        assert rep.sim_digest(toy_result(0)) != rep.sim_digest(toy_result(1))

    def test_unrecorded_seed_is_checked_against_the_first_repetition(self):
        reference: dict = {}
        assert run.check("homo-b-mlp", {"digest": "a", "failure": None}, reference) is None
        assert "first repetition" in run.check("homo-b-mlp", {"digest": "b", "failure": None}, reference)


class TestTracing:
    def test_no_wrapper_outlives_the_traced_run(self):
        before = target_objects()
        toy_rep(TOY_SIM, trace=True)
        assert all(a is b for a, b in zip(before, target_objects()))

    def test_wrappers_are_restored_when_the_run_raises(self):
        before = target_objects()
        with pytest.raises(RuntimeError):
            with tracing.traced(tracing.SpanRecorder()):
                assert not all(a is b for a, b in zip(before, target_objects()))
                raise RuntimeError("boom")
        assert all(a is b for a, b in zip(before, target_objects()))

    def test_self_time_excludes_wrapped_children(self, monkeypatch):
        clock = iter(range(100))
        monkeypatch.setattr(tracing, "perf_counter", lambda: float(next(clock)))
        recorder = tracing.SpanRecorder()
        inner = recorder.wrap("inner", lambda: None)
        outer = recorder.wrap("outer", lambda: (inner(), inner()))
        outer()
        # outer spans 0..5, its children 1..2 and 3..4.
        summary = recorder.summary()
        assert summary["outer"] == {"self_s": 3.0, "total_s": 5.0, "calls": 1}
        assert summary["inner"] == {"self_s": 2.0, "total_s": 2.0, "calls": 2}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "homo-b-mlp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
