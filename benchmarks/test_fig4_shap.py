"""E6 — Fig. 4: SHAP explanations of individual predicted hotspots.

Reproduces the paper's explanation experiment end to end:

* the RF is trained on the four other groups (paper protocol),
* the strongest predicted hotspots of the ``des_perf_1`` analogue are
  explained with the SHAP tree explainer,
* the Fig. 4 force plots are printed,

and asserts the properties the paper relies on:

* **local accuracy** (Eq. 1): base value + Σ SHAP = f(x), exactly;
* explanations are dominated by congestion features (edge/via C/L/margin),
  as in all three of the paper's examples;
* for an actual hotspot, the layers blamed by the explanation overlap the
  layers of the real (simulated) DRC errors — the paper's Sec. IV-B
  consistency validation;
* the per-sample runtime is of the order the paper reports (1.4 s/sample
  on their 500-tree forest; generously bounded here).

The timed kernel is one `shap_values_single` call on the trained forest.
"""

import numpy as np
import pytest

from repro.core.explain import (
    explain_hotspots,
    explanation_layers_mentioned,
    train_explanation_forest,
)
from repro.ml.shap.tree_explainer import TreeShapExplainer


@pytest.fixture(scope="module")
def reports_and_model(suite, des_perf_1_flow):
    model = train_explanation_forest(suite, "des_perf_1", preset="fast")
    reports = explain_hotspots(
        suite, des_perf_1_flow, model=model, num_hotspots=3
    )
    return reports, model


def test_fig4_shap_explanations(suite, des_perf_1_flow, reports_and_model, benchmark):
    reports, model = reports_and_model
    dataset = suite.by_name("des_perf_1")

    explainer = TreeShapExplainer(model.trees, dataset.X.shape[1])
    x = dataset.X[dataset.sample_index(*reports[0].cell)]
    benchmark.pedantic(explainer.shap_values_single, args=(x,), rounds=1, iterations=1)

    assert len(reports) == 3
    for report in reports:
        print()
        print(report.render(top_k=8))

        # Eq. 1 — local accuracy, to float precision
        assert report.explanation.check_local_accuracy(atol=1e-6)

        # predictions meaningfully above the base rate (paper: 35x for (a))
        assert report.prediction > report.explanation.base_value

        # congestion features dominate the top of the explanation
        top_names = [c.name for c in report.explanation.top(8)]
        congestion = [
            n for n in top_names
            if n[:2] in ("ec", "el", "ed", "vc", "vl", "vd")
        ]
        print(f"congestion features in top-8: {len(congestion)}/8")
        assert len(congestion) >= 4

    # paper's consistency check on a true hotspot
    true_reports = [r for r in reports if r.is_actual_hotspot]
    for report in true_reports:
        actual_layers = {
            v.layer
            for v in des_perf_1_flow.drc_report.violations_in_cell(
                des_perf_1_flow.grid, report.cell
            )
        }
        mentioned = explanation_layers_mentioned(report, k=15)
        expanded = set(mentioned)
        for l in mentioned:
            if l.startswith("V"):
                k = int(l[1:])
                expanded |= {f"M{k}", f"M{k + 1}"}
        print(f"blamed: {sorted(mentioned)} / actual: {sorted(actual_layers)}")
        assert actual_layers & expanded

    # SHAP runtime: same order of magnitude as the paper's 1.4 s/sample
    secs = [r.shap_seconds for r in reports]
    print(f"SHAP runtime per sample: {np.mean(secs) * 1e3:.3g} ms")
    assert np.mean(secs) < 30.0


def test_fig4_distinct_hotspots_get_distinct_explanations(reports_and_model, benchmark):
    """Paper Sec. IV-B: hotspots (a) and (b) from the same design get
    'totally different explanations' — attribution is genuinely local."""
    reports, _ = reports_and_model
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len({r.cell for r in reports}) < 2:
        pytest.skip("need two distinct explained cells")
    tops = [tuple(c.name for c in r.explanation.top(5)) for r in reports[:2]]
    assert tops[0] != tops[1]
