"""Per-layer spans recorded from outside the program.

The benchmark never edits the library to time it. Before an engine is
built, :func:`traced` replaces a fixed set of public callables with thin
wrappers that push a span (name, start, end, parent) on entry and close
it on exit. Methods are wrapped on their class, so every instance built
afterwards sees the wrapper; functions that a module imported by name
(``from repro.core.dkt import merge_weights``) are wrapped in the module
that *calls* them, because wrapping the defining module would leave the
caller's reference untouched and record nothing.

Spans stay in memory while the run executes; :meth:`SpanRecorder.summary`
turns them into per-layer self time (a span's duration minus the time
its direct child spans cover) and call counts once the run is over.
Recording assumes one thread, which holds for the benchmark's runs:
the simulator runs with ``compute_threads=1``.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

__all__ = ["LAYERS", "SIM_TARGETS", "SpanRecorder", "traced"]

# (layer name, module, class or None for a module-level function, attribute).
# Two targets may share a layer name: both feed the same layer's totals.
SIM_TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("nn.loss_and_grads", "repro.nn.model", "Model", "loss_and_grads"),
    ("nn.evaluate", "repro.nn.model", "Model", "evaluate"),
    ("nn.apply_grads", "repro.nn.model", "Model", "apply_grads"),
    ("nn.apply_sparse_grads", "repro.nn.model", "Model", "apply_sparse_grads"),
    ("datasets.draw", "repro.nn.datasets", "MinibatchSampler", "draw"),
    ("transmission.plan", "repro.core.transmission", "TransmissionPlanner", "plan"),
    ("worker.on_gradient_message", "repro.core.worker", "Worker", "on_gradient_message"),
    ("worker.recompute_lbs", "repro.core.worker", "Worker", "recompute_lbs"),
    # Imported by name into repro.core.worker: wrapped at the call site.
    ("lbs_controller.allocate_lbs", "repro.core.worker", None, "allocate_lbs"),
    ("dkt.merge_weights", "repro.core.worker", None, "merge_weights"),
    ("engine.send_gradients_batch", "repro.core.engine", "TrainingEngine", "send_gradients_batch"),
    ("network.enqueue", "repro.cluster.network", "BandwidthMatrix", "enqueue_transfer"),
    ("network.enqueue", "repro.cluster.network", "BandwidthMatrix", "enqueue_transfers"),
    ("simclock.run_until", "repro.cluster.simclock", "SimClock", "run_until"),
    ("engine.init", "repro.core.engine", "TrainingEngine", "__init__"),
    ("engine.finalize", "repro.core.engine", "TrainingEngine", "finalize"),
)

# Layer names in first-appearance order (duplicates folded).
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in SIM_TARGETS))


class SpanRecorder:
    """An in-memory span stack.

    Each span is ``[name, start, end, parent_index]``; ``parent_index``
    is -1 for a root span. Spans are appended at entry, so a parent
    always precedes its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """A wrapper around ``fn`` that records one span per call."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-layer ``{"self_s", "total_s", "calls"}`` from the spans;
        ``total_s`` is the spans' summed duration, children included."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += (end - start) - child_time[i]
            row["total_s"] += end - start
            row["calls"] += 1
        return out


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


@contextmanager
def traced(recorder: SpanRecorder):
    """Install ``recorder``'s wrappers on ``SIM_TARGETS``; restore on exit.

    The original is read from the owner's ``__dict__``, not through
    attribute lookup, so exactly that object goes back in place.
    """
    saved = []
    try:
        for name, module, cls, attr in SIM_TARGETS:
            owner = _owner(module, cls)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
