"""Engine-level invariants of the histogram training overhaul.

Three contracts keep the fast paths honest:

* a node's histogram, built over only the features it scans and the rows
  that carry weight, equals a naive full-feature, all-row accumulation
  sliced to those features — exactly — and the grown trees stay pinned to
  a recorded digest;
* a parallel forest fit is bit-identical to a serial one at the same
  seed — each tree's random stream is a pure function of
  ``(random_state, tree index)``, regardless of scheduling;
* stacked :class:`ForestArrays` prediction matches per-tree traversal,
  and the training drivers quantise each split exactly once (proved via
  the ``ml.binning.*`` telemetry counters).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ml.forest as forest_mod
from repro.core.experiment import run_experiment
from repro.core.models import ModelSpec
from repro.ml.binning import BinnedDataset
from repro.ml.boosting import RUSBoostClassifier
from repro.ml.forest import ForestArrays, RandomForestClassifier
from repro.ml.model_selection import grid_search
from repro.ml.tree import DecisionTreeClassifier, node_histogram
from repro.runtime.telemetry import Tracer, activate
from tests.conftest import make_separable


def _trial_data(trial):
    """One randomized fit problem: data/weights/params all derive from the
    trial number, sweeping the regimes where histogram rounding could bite
    (exact ties on gridded data, fractional and zeroed weights, tiny and
    full-width histograms)."""
    rng = np.random.default_rng(trial)
    n = int(rng.integers(30, 400))
    n_features = int(rng.integers(2, 9))
    kind = trial % 3
    if kind == 0:
        X = rng.normal(size=(n, n_features))
    elif kind == 1:
        X = rng.choice([0.0, 1.0, 2.0, 5.0, 9.0], size=(n, n_features))
    else:
        X = np.round(rng.normal(size=(n, n_features)), 1)
    y = (X[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(np.int8)
    if y.min() == y.max():
        y[: n // 2] = 1 - y[0]

    wkind = trial % 4
    if wkind == 0:
        w = None
    elif wkind == 1:
        w = rng.uniform(0.1, 5.0, size=n)
    elif wkind == 2:  # bootstrap-like integer counts
        w = rng.multinomial(n, np.full(n, 1.0 / n)).astype(np.float64)
    else:  # boosting-like: a fifth of the rows carry zero weight
        w = rng.uniform(0.5, 2.0, size=n)
        w[rng.random(n) < 0.2] = 0.0
    if w is not None and not w.sum() > 0:
        w = None

    params = dict(
        criterion="gini" if trial % 2 else "entropy",
        max_bins=int(rng.integers(2, 257)),
        min_samples_leaf=int(rng.integers(1, 5)),
        max_features=[None, "sqrt", 0.6][trial % 3],
    )
    return X, y, w, params


def _assert_trees_identical(a, b):
    assert np.array_equal(a.children_left, b.children_left)
    assert np.array_equal(a.children_right, b.children_right)
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    assert np.array_equal(a.cover, b.cover)
    assert np.array_equal(a.value, b.value)


#: SHA-256 of (children_left, children_right, feature, threshold) of the
#: trees grown on ``_trial_data(0..19)``, recorded with the full-feature,
#: sibling-subtraction engine this one replaced (1,048 nodes in all).
TRIAL_TREES_DIGEST = "d7f6e5a2b23596a8592b104594be5dd0ac93db471b5a755be93c142485d9a392"


class TestNodeHistogram:
    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_reference(self, trial):
        X, y, w, params = _trial_data(trial)
        rng = np.random.default_rng(trial + 1)
        dataset = BinnedDataset.from_matrix(X, params["max_bins"])
        n, n_features = dataset.n_samples, dataset.n_features
        B = dataset.n_bins_max
        w = np.ones(n) if w is None else w
        wy = w * (y == 1)
        node = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        features = (
            None if params["max_features"] is None
            else np.sort(rng.choice(n_features, size=int(rng.integers(1, n_features + 1)),
                                    replace=False))
        )
        got_tot, got_pos = node_histogram(
            dataset.codes_T, node[w[node] > 0], features, w, wy, B
        )

        ref_tot = np.zeros((n_features, B))
        ref_pos = np.zeros((n_features, B))
        for f in range(n_features):
            np.add.at(ref_tot[f], dataset.codes[node, f], w[node])
            np.add.at(ref_pos[f], dataset.codes[node, f], wy[node])
        if features is not None:
            ref_tot, ref_pos = ref_tot[features], ref_pos[features]
        assert np.array_equal(got_tot, ref_tot)
        assert np.array_equal(got_pos, ref_pos)

    def test_trees_match_recorded_digest(self):
        h = hashlib.sha256()
        for trial in range(20):
            X, y, w, params = _trial_data(trial)
            tree = DecisionTreeClassifier(random_state=trial, **params).fit(
                X, y, sample_weight=w
            ).tree_
            h.update(tree.children_left.astype("<i4").tobytes())
            h.update(tree.children_right.astype("<i4").tobytes())
            h.update(tree.feature.astype("<i4").tobytes())
            h.update(tree.threshold.astype("<f8").tobytes())
        assert h.hexdigest() == TRIAL_TREES_DIGEST

    def test_cells_count_scanned_features_and_weighted_rows(self):
        X, y = make_separable(n=300, seed=35)
        w = np.ones(len(y))
        w[::3] = 0.0
        n_weighted = int((w > 0).sum())
        stump = DecisionTreeClassifier(max_depth=1, max_features=None).fit(
            X, y, sample_weight=w
        )
        assert stump.fit_stats_["ml.hist.builds"] == 1
        assert stump.fit_stats_["ml.hist.cells"] == X.shape[1] * n_weighted
        mtry = DecisionTreeClassifier(max_depth=1, max_features=2, random_state=0)
        mtry.fit(X, y, sample_weight=w)
        assert mtry.fit_stats_["ml.hist.cells"] == 2 * n_weighted

    def test_negative_weights_rejected(self):
        X, y = make_separable(n=50, seed=36)
        w = np.ones(len(y))
        w[0] = -1.0
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y, sample_weight=w)

    def test_fit_counters_reach_active_tracer(self):
        X, y = make_separable(n=300, seed=34)
        tracer = Tracer()
        with activate(tracer):
            tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        for name, v in tree.fit_stats_.items():
            assert tracer.counters[name] == v
        assert tracer.counters["ml.tree.nodes"] > 1


class TestParallelFit:
    def test_parallel_fit_bit_identical_to_serial(self):
        X, y = make_separable(n=400, seed=40)
        Xte, _ = make_separable(n=200, seed=41)
        serial = RandomForestClassifier(
            n_estimators=6, max_depth=6, random_state=7, n_jobs=1
        ).fit(X, y)
        parallel = RandomForestClassifier(
            n_estimators=6, max_depth=6, random_state=7, n_jobs=3
        ).fit(X, y)
        assert len(parallel.estimators_) == 6
        for a, b in zip(serial.trees, parallel.trees):
            _assert_trees_identical(a, b)
        assert np.array_equal(serial.predict_proba(Xte), parallel.predict_proba(Xte))

    def test_parallel_fit_reemits_tree_counters(self):
        X, y = make_separable(n=300, seed=42)

        def totals(n_jobs):
            tracer = Tracer()
            with activate(tracer):
                RandomForestClassifier(
                    n_estimators=4, max_depth=4, random_state=1, n_jobs=n_jobs
                ).fit(X, y)
            return {
                k: v for k, v in tracer.counters.items() if k.startswith("ml.hist")
                or k.startswith("ml.tree")
            }

        serial, parallel = totals(1), totals(2)
        assert serial == parallel
        assert serial["ml.tree.nodes"] > 0

    def test_n_jobs_validation_and_capping(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_jobs=0)
        rf = RandomForestClassifier(n_estimators=3, n_jobs=-1)
        assert 1 <= rf._effective_jobs() <= 3  # capped by n_estimators
        assert RandomForestClassifier(n_jobs=None)._effective_jobs() == 1

    def test_nested_worker_grows_serially(self, monkeypatch):
        rf = RandomForestClassifier(n_estimators=8, n_jobs=4)
        monkeypatch.setattr(
            forest_mod.multiprocessing, "parent_process", lambda: object()
        )
        assert rf._effective_jobs() == 1


class TestStackedPrediction:
    @pytest.fixture(scope="class")
    def fitted(self):
        X, y = make_separable(n=500, seed=50)
        Xte, _ = make_separable(n=333, seed=51)
        rf = RandomForestClassifier(n_estimators=9, random_state=3).fit(X, y)
        return rf, Xte

    def test_matches_per_tree_traversal(self, fitted):
        rf, Xte = fitted
        leaf = rf.stacked.leaf_values(Xte)
        manual = np.column_stack(
            [t.predict_proba_positive(Xte) for t in rf.trees]
        )
        assert np.array_equal(leaf, manual)
        assert np.allclose(
            rf.stacked.predict_proba_positive(Xte), manual.mean(axis=1)
        )

    def test_chunked_traversal_invariant(self, fitted):
        rf, Xte = fitted
        assert np.array_equal(
            rf.stacked.leaf_values(Xte, chunk_size=7), rf.stacked.leaf_values(Xte)
        )

    def test_padding_of_unequal_trees(self):
        X, y = make_separable(n=400, seed=52)
        Xte, _ = make_separable(n=150, seed=53)
        stump = DecisionTreeClassifier(max_depth=1, random_state=0).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y)
        fa = ForestArrays.from_trees([stump.tree_, deep.tree_])
        assert fa.n_trees == 2
        assert fa.max_nodes == max(stump.tree_.node_count, deep.tree_.node_count)
        leaf = fa.leaf_values(Xte)
        assert np.array_equal(leaf[:, 0], stump.tree_.predict_proba_positive(Xte))
        assert np.array_equal(leaf[:, 1], deep.tree_.predict_proba_positive(Xte))

    def test_refit_invalidates_stack(self):
        X, y = make_separable(n=300, seed=54)
        rf = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        first = rf.stacked
        rf.fit(X, y)
        assert rf.stacked is not first

    def test_empty_forest_raises(self):
        with pytest.raises(ValueError):
            ForestArrays.from_trees([])

    def test_rusboost_margin_matches_reference(self):
        X, y = make_separable(n=400, seed=55)
        model = RUSBoostClassifier(
            n_estimators=8, max_depth=3, random_state=1
        ).fit(X, y)
        margin = model.decision_function(X)
        alphas = np.asarray(model.alphas_)
        ref = sum(
            a * (2.0 * t.predict_proba_positive(X) - 1.0)
            for a, t in zip(alphas, model.trees)
        ) / alphas.sum()
        assert np.allclose(margin, ref)
        assert margin.min() >= -1.0 and margin.max() <= 1.0


class TestBinOnce:
    def test_grid_search_requantises_nothing(self):
        X, y = make_separable(n=600, seed=70)
        groups = np.repeat(np.arange(3), 200)

        def factory(max_depth=4):
            return RandomForestClassifier(
                n_estimators=4, max_depth=max_depth, random_state=0
            )

        tracer = Tracer()
        with activate(tracer):
            binned = BinnedDataset.from_matrix(X)
            grid_search(factory, {"max_depth": [2, 4]}, X, y, groups, binned=binned)
        # the one from_matrix call is the only quantisation the whole
        # search performs: folds are uint8 row slices of it
        assert tracer.counters["ml.binning.fits"] == 1
        assert tracer.counters["ml.binning.transforms"] == 1

    def test_experiment_bins_each_split_once(self, mini_suite):
        def make_rf(**kw):
            return RandomForestClassifier(
                n_estimators=4, max_depth=4, random_state=0, **kw
            )

        def make_rus(**kw):
            return RUSBoostClassifier(
                n_estimators=4, max_depth=2, random_state=0, **kw
            )

        models = [
            ModelSpec("RF", make_rf, supports_binned=True),
            ModelSpec("RUSBoost", make_rus, supports_binned=True),
        ]
        tracer = Tracer()
        with activate(tracer):
            run_experiment(mini_suite, models, tune=False)
        n_groups = len({d.group for d in mini_suite.designs if d.group >= 0})
        expected = n_groups * len(models)  # one per (binned model, group) split
        assert tracer.counters["ml.binning.fits"] == expected
        assert tracer.counters["ml.binning.transforms"] == expected
