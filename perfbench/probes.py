"""Timers around the program's public functions.

``UnitTimer`` is the serial runner of every run: it records the wall time of
each flow and (model, group) unit it runs.

``instrumented()`` activates a :class:`repro.runtime.telemetry.Tracer` and,
for the ``with`` block, wraps a few public functions whose time or result the
program's own spans and counters do not expose (the maze router, the
binning pass, the grid search, Tree SHAP).  A wrapper adds its elapsed time
to a ``bench.*`` counter of whichever tracer is active when it runs, so time
spent in a ``ParallelRunner`` worker rides back to the parent inside the
unit's telemetry snapshot like the program's own counters.

Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import repro.core.experiment as experiment
import repro.core.pipeline as pipeline
import repro.route.router as router
from repro.ml.binning import BinnedDataset
from repro.ml.forest import RandomForestClassifier
from repro.ml.shap.tree_explainer import TreeShapExplainer
from repro.runtime import FaultTolerantRunner
from repro.runtime.telemetry import Tracer, activate, get_tracer


class UnitTimer(FaultTolerantRunner):
    """The default serial runner, appending each unit's wall time to
    ``samples["<stage>/<unit>"]``."""

    def __init__(self, samples: dict[str, list[float]]):
        super().__init__()
        self.samples = samples

    def run_unit(self, stage, unit, fn, *args, **kwargs):
        t0 = time.perf_counter()
        outcome = super().run_unit(stage, unit, fn, *args, **kwargs)
        self.samples.setdefault(f"{stage}/{unit}", []).append(time.perf_counter() - t0)
        return outcome


def _timed(fn, counter: str, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        tracer = get_tracer()
        tracer.counter(f"bench.{counter}_s", time.perf_counter() - t0)
        tracer.counter(f"bench.{counter}_calls")
        if on_result is not None:
            on_result(tracer, out)
        return out
    return wrapper


def _routing_quality(tracer, result) -> None:
    tracer.counter("bench.route.overflow_final", result.final_overflow)
    tracer.counter("bench.route.wirelength", result.total_wirelength)


#: (owner, attribute, counter stem, result hook) of every wrapped function.
_PROBES = (
    (pipeline, "route_design", "route.design", _routing_quality),
    (router, "route_maze", "route.maze", None),
    (experiment, "grid_search", "ml.grid_search", None),
    (RandomForestClassifier, "predict_proba", "rf.predict", None),
    (TreeShapExplainer, "__init__", "shap.init", None),
    (TreeShapExplainer, "shap_values_single", "shap.single", None),
)


@contextmanager
def instrumented():
    """Trace the block: an active tracer plus the ``_PROBES`` wrappers."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _, _ in _PROBES]
    saved.append((BinnedDataset, "from_matrix", BinnedDataset.__dict__["from_matrix"]))
    try:
        for owner, name, stem, hook in _PROBES:
            setattr(owner, name, _timed(getattr(owner, name), stem, hook))
        BinnedDataset.from_matrix = classmethod(
            _timed(BinnedDataset.from_matrix.__func__, "ml.binning"))
        tracer = Tracer(run_id="perfbench")
        with activate(tracer):
            yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


class StageMeter:
    """Counter deltas and the span of one benchmark stage."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.counters: dict[str, float] = {}
        self.span = None

    @contextmanager
    def measure(self):
        before = dict(self.tracer.counters)
        with self.tracer.span(f"bench.{self.name}") as span:
            yield self
        self.span = span
        self.counters = {k: v - before.get(k, 0) for k, v in self.tracer.counters.items()}

    def count(self, name: str) -> float:
        return float(self.counters.get(name, 0.0))

    def span_s(self, name: str) -> float:
        """Summed wall time of the stage's descendant spans named ``name``."""
        total = 0.0
        stack = list(self.span.children)
        while stack:
            node = stack.pop()
            if node.name == name:
                total += node.wall_s
            else:
                stack.extend(node.children)
        return total

    def unit_span_s(self, name: str, model: str) -> float:
        """Summed wall time of ``name`` spans inside ``model``'s experiment units."""
        total = 0.0
        stack = list(self.span.children)
        while stack:
            node = stack.pop()
            if node.name == "experiment_unit":
                if node.attrs.get("model") == model:
                    total += sum(c.wall_s for c in node.children if c.name == name)
            else:
                stack.extend(node.children)
        return total
