"""Self-tests of the benchmark at a tiny suite scale.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
from repro.bench.suite import suite_recipes  # noqa: E402
from repro.core.experiment import run_experiment  # noqa: E402
from repro.core.explain import explain_hotspots, train_explanation_forest  # noqa: E402
from repro.core.models import model_zoo  # noqa: E402
from repro.core.pipeline import build_suite_dataset, run_flow  # noqa: E402
from repro.ml.shap.tree_explainer import TreeShapExplainer  # noqa: E402

TINY = 0.2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One untraced and one traced run per workload at the tiny scale, through
    ``run.measure`` (the untraced slots run as subprocesses at that scale)."""
    tmp = tmp_path_factory.mktemp("bench")
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "WORKLOADS", {name: dataclasses.replace(wl, scale=TINY)
                                      for name, wl in run.WORKLOADS.items()})
        mp.setattr(run, "LEDGER", tmp / "ledger.json")
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                args = run.parse_args(["--workload", w["name"], "--seed", "3",
                                       "--seconds", "1", "--trace", str(trace)])
                out[w["name"], trace] = json.loads(json.dumps(run.measure(args)))
    return out


def test_every_declared_metric_is_emitted_with_its_unit(results):
    assert {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)} == set(results)
    for (workload, trace), res in results.items():
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True, (workload, trace)
        assert res["attempted"] >= 1 and res["failed"] == 0
        assert {m["name"]: m["unit"] for m in declared} == {
            k: v["unit"] for k, v in res["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "no program source" in proc.stderr
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def tiny_suite():
    suite, _ = build_suite_dataset(TINY)
    return suite


def test_tampered_phi_fails_the_explain_check(tiny_suite):
    name = "fft_b"
    flow = run_flow(next(r for r in suite_recipes(TINY) if r.name == name))
    dataset = tiny_suite.by_name(name)
    model = train_explanation_forest(tiny_suite, name)
    reports = explain_hotspots(tiny_suite, flow, model, num_hotspots=2)
    explainer = TreeShapExplainer(model.trees, dataset.X.shape[1])
    phi = explainer.shap_values(dataset.X)
    f_x = model.predict_proba(dataset.X)[:, 1]
    ev = explainer.expected_value
    assert checks.check_explain(dataset, flow, reports, phi, f_x, ev) == []

    row = dataset.sample_index(*reports[0].cell)
    tampered = phi.copy()
    tampered[row, 0] += 1e-6
    problems = checks.check_explain(dataset, flow, reports, tampered, f_x, ev)
    assert any("local accuracy" in p for p in problems)
    assert any("differs from batched" in p for p in problems)


def test_dropped_unit_fails_the_table2_check():
    suite, _ = build_suite_dataset(0.3)
    result = run_experiment(suite, [s for s in model_zoo("fast") if s.name == "NN-1"])
    assert result.scores, "scale 0.3 must score some designs"
    assert checks.check_table2(suite, result, []) == []

    dropped = result.scores[0]
    group = suite.by_name(dropped.design).group
    result.scores = [s for s in result.scores
                     if suite.by_name(s.design).group != group]
    assert checks.check_table2(suite, result, []) != []
    # the same unit recorded as failed is accounted for
    assert checks.check_table2(suite, result, [f"NN-1__g{group}"]) == []


def test_ledger_flags_a_changed_digest_within_one_revision(tmp_path):
    """Each revision is held to its own digests; one whose outputs change on
    purpose does not fail against another's."""
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "mod.py").write_text("X = 1\n")
    before = checks.source_fingerprint(src)
    assert checks.source_fingerprint(src) == before
    (src / "pkg" / "mod.py").write_text("X = 2\n")
    after = checks.source_fingerprint(src)
    assert after != before

    ledger = checks.Ledger(tmp_path / "l.json")
    old, new = f"scale=0.5/src={before}", f"scale=0.5/src={after}"
    assert ledger.check_and_record(old, {"a": "1", "b": "2"}) == []
    assert ledger.check_and_record(old, {"a": "1", "b": "2"}) == []
    assert ledger.check_and_record(old, {"a": "1", "b": "3"}) != []
    assert ledger.check_and_record(new, {"a": "1", "b": "3"}) == []
    assert ledger.check_and_record(new, {"a": "1", "b": "2"}) != []


def test_flow_check_flags_non_finite_features(tiny_suite):
    d = tiny_suite.designs[0]
    assert checks.check_flow(tiny_suite, tiny_suite.names) == []
    X = d.X.copy()
    d.X[0, 0] = np.nan
    try:
        assert checks.check_flow(tiny_suite, tiny_suite.names) != []
    finally:
        d.X[:] = X
