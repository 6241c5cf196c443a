"""The benchmark's stages: calls into the program's public functions, timed
and checked.

A :class:`Stages` holds the timing samples, output digests, failed checks
and attempted/failed counts of every stage it ran.  ``slot.py`` runs a few
stages in a fresh interpreter per untraced slot; the traced run runs each
stage once in-process (:meth:`Stages.traced_round`).
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import checks
from probes import StageMeter, UnitTimer
from repro.analysis.shap_summary import summarize_shap
from repro.bench.suite import SUITE_ORDER, suite_recipes
from repro.core.experiment import run_experiment
from repro.core.explain import explain_hotspots, train_explanation_forest
from repro.core.models import model_zoo
from repro.core.pipeline import build_suite_dataset, run_flow
from repro.features.names import NUM_FEATURES
from repro.ml.shap.tree_explainer import TreeShapExplainer
from repro.runtime import ParallelRunner

EXPLAIN_DESIGN = "fft_b"
NUM_HOTSPOTS = 3
#: Runner jobs of the traced run's parallel Table II (``drcshap table2 -j 2``).
TRACE_JOBS = 2
#: ``model_zoo``'s Table II models, in its order.
MODELS = ("SVM-RBF", "RUSBoost", "NN-1", "NN-2", "RF")


def model_order(rng: np.random.Generator) -> list[str]:
    """The seed's Table II column order: the first draw of the run's generator."""
    return [MODELS[i] for i in rng.permutation(len(MODELS))]


class Stages:
    """Timing samples, outputs and checks of the stages run on one suite scale.

    ``samples`` maps ``"<stage>/<unit>"`` (each flow and (model, group) unit,
    timed by ``probes.UnitTimer``), ``"explain"`` and ``"shap"`` to wall
    times.  ``outputs`` holds each stage's output digests, which must be one
    per stage however often it ran.
    """

    def __init__(self, scale: float, seed: int, tracer=None):
        self.scale = scale
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        zoo = {m.name: m for m in model_zoo("fast")}  # the CLI's random_state
        self.models = [zoo[name] for name in model_order(self.rng)]
        self.samples: dict[str, list[float]] = {}
        self.outputs: dict[str, set[str]] = {"suite build": set(), "explanation": set(),
                                             "global SHAP pass": set()}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.suite = None
        self.out: dict = {}  # single values of the last explanation and Table II

    def _stage(self, name):
        return StageMeter(self.tracer, name).measure() if self.tracer else nullcontext()

    def _sample(self, key: str, t0: float) -> None:
        self.samples.setdefault(key, []).append(time.perf_counter() - t0)

    def flow(self) -> None:
        """The 14-design suite; the first build also sets up the explain stage."""
        runner = UnitTimer(self.samples)
        first = self.suite is None
        self.suite, _ = build_suite_dataset(self.scale, runner=runner)
        self.attempted += len(SUITE_ORDER)
        self.failed += len(runner.failures)
        self.problems += checks.check_flow(self.suite, list(SUITE_ORDER))
        self.outputs["suite build"].add(checks.digest_suite(self.suite))
        if first:
            self._explain_setup()

    def _explain_setup(self) -> None:
        """The explained design's flow, and the rows of its held-out group (rows
        the forest never saw) in a seed-shuffled order."""
        recipe = next(rc for rc in suite_recipes(self.scale) if rc.name == EXPLAIN_DESIGN)
        self.explained_flow = run_flow(recipe)  # congestion maps and DRC ground truth
        self.dataset = self.suite.by_name(EXPLAIN_DESIGN)
        held_out = [d for d in self.suite.designs if d.group == self.dataset.group]
        self.X_global = np.vstack([d.X for d in held_out])
        first = sum(d.num_samples for d in held_out[:held_out.index(self.dataset)])
        self.rows = slice(first, first + self.dataset.num_samples)
        self.order = self.rng.permutation(len(self.X_global))
        self.X_shuffled = self.X_global[self.order]

    def explain(self) -> None:
        """Forest fit + hotspot explanations + render."""
        t0 = time.perf_counter()
        self.model = train_explanation_forest(self.suite, EXPLAIN_DESIGN, "fast")
        t_fit = time.perf_counter()
        self.reports = explain_hotspots(self.suite, self.explained_flow, self.model,
                                        num_hotspots=NUM_HOTSPOTS)
        t_explained = time.perf_counter()
        rendered = [rep.render() for rep in self.reports]
        self._sample("explain", t0)
        self.out["explain.fit_s"] = t_fit - t0
        self.out["explain.render_s"] = time.perf_counter() - t_explained
        self.outputs["explanation"].add(repr([(rep.cell, rep.prediction)
                                              for rep in self.reports]))
        self.attempted += len(self.reports)
        self.failed += NUM_HOTSPOTS - len(self.reports)
        if not all(rendered):
            self.problems.append("empty hotspot explanation")
        self.explainer = TreeShapExplainer(self.model.trees, NUM_FEATURES)

    def shap(self) -> None:
        """One global SHAP pass of the last explanation's forest."""
        t0 = time.perf_counter()
        phi_shuffled = self.explainer.shap_values(self.X_shuffled)
        summary = summarize_shap(phi_shuffled)
        self._sample("shap", t0)
        phi = np.empty_like(phi_shuffled)
        phi[self.order] = phi_shuffled
        self.outputs["global SHAP pass"].add(checks.digest_phi(phi))
        self.attempted += len(phi)
        if not summary.top_features(1):
            self.problems.append("empty SHAP summary")
        self.phi = phi

    def check_explain(self) -> None:
        """Local accuracy and path agreement of the last explanation and pass."""
        f_x = self.model.predict_proba(self.X_global)[:, 1]
        ev = self.explainer.expected_value
        self.problems += checks.check_local_accuracy("held-out group", self.phi, f_x, ev)
        self.problems += checks.check_explain(self.dataset, self.explained_flow,
                                              self.reports, self.phi[self.rows],
                                              f_x[self.rows], ev)

    def table2(self, runner, models):
        """``run_experiment`` over ``models``, checked; returns it and its wall time."""
        t0 = time.perf_counter()
        result = run_experiment(self.suite, models, tune=True, runner=runner)
        wall = time.perf_counter() - t0
        failed_units = runner.failures.units()
        self.attempted += len(checks.expected_units(self.suite, result.model_order))
        self.failed += len(failed_units)
        self.problems += checks.check_table2(self.suite, result, failed_units)
        return result, wall

    def traced_round(self) -> None:
        """Every stage once, each inside a benchmark span; then ``-j 2``, whose
        scores must equal the serial ones."""
        with self._stage("flow") as self.flow_m:
            self.flow()
        with self._stage("explain") as self.ex_m:
            self.explain()
            self.shap()
        self.check_explain()
        self.out["shap.batch_s_per_row"] = self.samples["shap"][-1] / len(self.phi)
        with self._stage("table2") as self.t2_m:
            self.result, self.out["table2_s"] = self.table2(UnitTimer(self.samples),
                                                            self.models)
        with self._stage("table2_j2") as self.j2_m:
            zoo_j2 = {m.name: m for m in model_zoo("fast", n_jobs=TRACE_JOBS)}
            self.result_j2, self.out["table2_j2_s"] = self.table2(
                ParallelRunner(TRACE_JOBS), [zoo_j2[m.name] for m in self.models])
        serial = checks.digest_scores(self.result.scores)
        if checks.digest_scores(self.result_j2.scores) != serial:
            self.problems.append(f"Table II scores differ between serial and "
                                 f"-j {TRACE_JOBS}")
        self.outputs["Table II"] = {serial}
