"""Binned CART decision-tree classifier.

The base learner underneath the Random Forest and RUSBoost models.  Split
search is histogram-based over pre-binned features
(:mod:`repro.ml.binning`): every split node builds one weighted ``(F', B)``
histogram pair (totals and positives) over exactly what its scan reads —

* the features it may split on: the node's sorted random subset
  (``max_features``; √F for the forest) or all F features when
  ``max_features=None``;
* the rows that carry weight: zero-weight rows (bootstrap misses, RUSBoost's
  undrawn negatives) add nothing to a histogram, so they are dropped once at
  the root, as scikit-learn's splitter does, and never gathered.

``B`` is the *actual* widest bin count of the mapper — not a hardcoded 256
— so a node costs O(n_node · F' + F' · B) instead of
O(n_node log n_node · F).  Codes live in a cached feature-major ``(F, n)``
matrix shared by every tree grown from the same
:class:`~repro.ml.binning.BinnedDataset`; one node's histogram input is a
single gather of it (:func:`node_histogram`).  Telemetry counters
``ml.hist.builds``, ``ml.hist.cells`` (features × rows gathered) and
``ml.tree.nodes`` (also kept per-fit in ``fit_stats_``) account for that
work in the run manifest.

The fitted tree is stored as flat parallel arrays (the same layout
scikit-learn uses), which is exactly what the SHAP tree explainer needs:
``children_left/right``, ``feature``, ``threshold``, ``cover`` (weighted
sample count) and ``value`` (P(class 1)) per node.

Split convention: a sample goes **left iff x[feature] < threshold** (real
thresholds reconstructed from bin boundaries).

Supports: gini or entropy criterion, per-node random feature subsets
(``max_features``), sample weights (for boosting), depth/leaf limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime.telemetry import get_tracer
from .binning import BinMapper, BinnedDataset, as_binned_dataset

#: sentinel for "no child" / "not a split node"
LEAF = -1


@dataclass
class TreeArrays:
    """Flat array representation of a fitted decision tree."""

    children_left: np.ndarray  # int32, LEAF at leaves
    children_right: np.ndarray
    feature: np.ndarray  # int32, LEAF at leaves
    threshold: np.ndarray  # float64, NaN at leaves
    cover: np.ndarray  # float64 weighted sample count per node
    value: np.ndarray  # float64 P(class 1) per node

    @property
    def node_count(self) -> int:
        return len(self.children_left)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.children_left == LEAF))

    def max_depth(self) -> int:
        depth = np.zeros(self.node_count, dtype=np.int32)
        for node in range(self.node_count):
            left, right = self.children_left[node], self.children_right[node]
            if left != LEAF:
                depth[left] = depth[node] + 1
                depth[right] = depth[node] + 1
        return int(depth.max()) if self.node_count else 0

    def predict_proba_positive(self, X: np.ndarray) -> np.ndarray:
        """P(class 1) for each row of (unbinned) X."""
        X = np.asarray(X, dtype=np.float64)
        nodes = np.zeros(len(X), dtype=np.int64)
        active = self.children_left[nodes] != LEAF
        while active.any():
            idx = np.flatnonzero(active)
            cur = nodes[idx]
            go_left = X[idx, self.feature[cur]] < self.threshold[cur]
            nodes[idx] = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
            active[idx] = self.children_left[nodes[idx]] != LEAF
        return self.value[nodes]

    def decision_path_lengths(self, X: np.ndarray) -> np.ndarray:
        """Number of internal-node comparisons each sample traverses."""
        X = np.asarray(X, dtype=np.float64)
        nodes = np.zeros(len(X), dtype=np.int64)
        lengths = np.zeros(len(X), dtype=np.int64)
        active = self.children_left[nodes] != LEAF
        while active.any():
            idx = np.flatnonzero(active)
            cur = nodes[idx]
            lengths[idx] += 1
            go_left = X[idx, self.feature[cur]] < self.threshold[cur]
            nodes[idx] = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
            active[idx] = self.children_left[nodes[idx]] != LEAF
        return lengths


def _impurity(pos: np.ndarray, tot: np.ndarray, criterion: str) -> np.ndarray:
    """Vector impurity of (pos, tot) weighted counts; 0 where tot == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(tot > 0, pos / np.maximum(tot, 1e-300), 0.0)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    # entropy (in nats)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(
            np.where(p > 0, p * np.log(p), 0.0)
            + np.where(p < 1, (1 - p) * np.log(1 - p), 0.0)
        )
    return h


def node_histogram(
    codes_T: np.ndarray,
    rows: np.ndarray,
    features: np.ndarray | None,
    w: np.ndarray,
    wy: np.ndarray,
    n_bins: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted ``(len(features), n_bins)`` histogram pair of one node.

    ``codes_T`` is the feature-major ``(F, n)`` code matrix, ``rows`` the
    node's row indices and ``features`` the rows of ``codes_T`` to count
    (``None``: all of them).  Returns the per-bin sums of ``w`` (totals) and
    ``wy`` (positives), each bin accumulated in ``rows`` order.
    """
    sub = codes_T[:, rows] if features is None else codes_T[features][:, rows]
    n_feat = sub.shape[0]
    flat = (np.arange(n_feat, dtype=np.int64)[:, None] * n_bins + sub).ravel()
    size = n_feat * n_bins
    h_tot = np.bincount(
        flat, weights=np.broadcast_to(w[rows], sub.shape).ravel(), minlength=size
    )
    h_pos = np.bincount(
        flat, weights=np.broadcast_to(wy[rows], sub.shape).ravel(), minlength=size
    )
    return h_tot.reshape(n_feat, n_bins), h_pos.reshape(n_feat, n_bins)


class _NodeTask:
    """Work item of the depth-first growth stack."""

    __slots__ = ("indices", "depth", "parent", "is_left", "tot", "pos")

    def __init__(self, indices, depth, parent, is_left, tot, pos):
        self.indices = indices
        self.depth = depth
        self.parent = parent
        self.is_left = is_left
        self.tot = tot  # exact weighted sample count
        self.pos = pos


class DecisionTreeClassifier:
    """CART for binary classification over binned features.

    Parameters mirror scikit-learn where they share names.  ``max_features``
    may be ``"sqrt"``, ``"log2"``, ``None`` (all), an int, or a float
    fraction.  Rows with zero sample weight take no part in growing the
    tree, so ``min_samples_split`` counts only rows with nonzero weight
    (at the default of 2 this grows the same tree as counting every row: a
    node with a single weighted row is pure either way).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: str | int | float | None = "sqrt",
        criterion: str = "gini",
        max_bins: int = 256,
        random_state: int | np.random.Generator | None = None,
    ):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.criterion = criterion
        self.max_bins = max_bins
        self.random_state = random_state
        self.tree_: TreeArrays | None = None
        self.fit_stats_: dict[str, int] = {}
        self._mapper: BinMapper | None = None

    # -- sklearn-ish API ------------------------------------------------------------

    def fit(
        self,
        X: np.ndarray | None,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        binned: BinnedDataset | None = None,
    ) -> "DecisionTreeClassifier":
        """Grow the tree.

        ``binned`` lets an ensemble share one :class:`BinnedDataset` across
        hundreds of trees instead of re-binning per tree; with it, ``X`` may
        be ``None`` — prediction uses real-valued thresholds, never the
        training matrix.
        """
        y = np.asarray(y).astype(np.int8).ravel()
        if X is not None:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2 or len(X) != len(y):
                raise ValueError("bad X/y shapes")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary 0/1")
        dataset = as_binned_dataset(binned, X, self.max_bins)
        if dataset.n_samples != len(y):
            raise ValueError("binned codes / y length mismatch")
        n, n_features = dataset.n_samples, dataset.n_features
        w = (
            np.ones(n, dtype=np.float64)
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64).ravel()
        )
        if w.shape != (n,):
            raise ValueError("sample_weight shape mismatch")

        mapper = dataset.mapper
        self._mapper = mapper
        rng = (
            self.random_state
            if isinstance(self.random_state, np.random.Generator)
            else np.random.default_rng(self.random_state)
        )
        mtry = self._resolve_max_features(n_features)

        if (w < 0).any() or not w.sum() > 0:
            raise ValueError("sample weights must be non-negative, not all zero")
        # Normalise to mean weight 1 so min_samples_* thresholds (compared
        # against weighted counts) keep their "effective samples" meaning
        # regardless of the caller's weight scale (boosting uses ~1/n).
        w = w * (n / w.sum())
        wy = w * (y == 1)
        # zero-weight rows add nothing to any histogram: no node gathers them
        root_idx = np.flatnonzero(w > 0)

        codes_T = dataset.codes_T
        B = dataset.n_bins_max
        can_split = B >= 2
        n_builds = n_cells = 0

        # growable node arrays
        cl: list[int] = []
        cr: list[int] = []
        feat: list[int] = []
        thr: list[float] = []
        cover: list[float] = []
        value: list[float] = []

        def new_node(tot: float, pos: float) -> int:
            node_id = len(cl)
            cl.append(LEAF)
            cr.append(LEAF)
            feat.append(LEAF)
            thr.append(np.nan)
            cover.append(tot)
            value.append(pos / tot if tot > 0 else 0.0)
            return node_id

        root_tot = float(w[root_idx].sum())
        root_pos = float(wy[root_idx].sum())
        stack = [_NodeTask(root_idx, 0, -1, False, root_tot, root_pos)]
        while stack:
            task = stack.pop()
            node_id = new_node(task.tot, task.pos)
            if task.parent >= 0:
                if task.is_left:
                    cl[task.parent] = node_id
                else:
                    cr[task.parent] = node_id
            if (
                not can_split
                or len(task.indices) < self.min_samples_split
                or (self.max_depth is not None and task.depth >= self.max_depth)
                or not 0.0 < task.pos < task.tot  # pure
            ):
                continue

            # sorted so the scan's first-wins tie-break follows global
            # feature order, independent of the draw order
            allowed = (
                np.sort(rng.choice(n_features, size=mtry, replace=False))
                if mtry < n_features
                else None
            )
            hist_tot, hist_pos = node_histogram(
                codes_T, task.indices, allowed, w, wy, B
            )
            n_builds += 1
            n_cells += hist_tot.shape[0] * len(task.indices)
            split = self._scan_histogram(hist_tot, hist_pos, task.tot, task.pos)
            if split is None:
                continue
            f, cut = split
            if allowed is not None:
                f = int(allowed[f])
            feat[node_id] = f
            thr[node_id] = mapper.threshold_value(f, cut)
            left_mask = codes_T[f, task.indices] <= cut
            left_idx = task.indices[left_mask]
            right_idx = task.indices[~left_mask]
            depth = task.depth + 1
            # push right first so the left child is materialised immediately
            # after its parent (purely cosmetic: sklearn-like preordering)
            stack.append(_NodeTask(right_idx, depth, node_id, False,
                                   float(w[right_idx].sum()),
                                   float(wy[right_idx].sum())))
            stack.append(_NodeTask(left_idx, depth, node_id, True,
                                   float(w[left_idx].sum()),
                                   float(wy[left_idx].sum())))

        self.tree_ = TreeArrays(
            children_left=np.asarray(cl, dtype=np.int32),
            children_right=np.asarray(cr, dtype=np.int32),
            feature=np.asarray(feat, dtype=np.int32),
            threshold=np.asarray(thr, dtype=np.float64),
            cover=np.asarray(cover, dtype=np.float64),
            value=np.asarray(value, dtype=np.float64),
        )
        self.fit_stats_ = {
            "ml.hist.builds": n_builds,
            "ml.hist.cells": n_cells,
            "ml.tree.nodes": len(cl),
        }
        tracer = get_tracer()
        for name, v in self.fit_stats_.items():
            tracer.counter(name, v)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """(n, 2) class probabilities."""
        if self.tree_ is None:
            raise RuntimeError("tree not fitted")
        p1 = self.tree_.predict_proba_positive(X)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int8)

    # -- internals -----------------------------------------------------------------------

    def _resolve_max_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(mf, float):
            return max(1, min(n_features, int(mf * n_features)))
        if isinstance(mf, int):
            return max(1, min(n_features, mf))
        raise ValueError(f"bad max_features {mf!r}")

    def _scan_histogram(
        self,
        hist_tot: np.ndarray,
        hist_pos: np.ndarray,
        w_tot: float,
        w_pos: float,
    ) -> tuple[int, int] | None:
        """Best (histogram row, bin cut) of a node, or None for a leaf."""
        B = hist_tot.shape[1]
        # prefix sums: splitting after bin c puts codes <= c on the left
        left_tot = np.cumsum(hist_tot, axis=1)[:, :-1]
        left_pos = np.cumsum(hist_pos, axis=1)[:, :-1]
        right_tot = w_tot - left_tot
        right_pos = w_pos - left_pos

        parent_imp = _impurity(
            np.array([w_pos]), np.array([w_tot]), self.criterion
        )[0]
        child_imp = (
            left_tot * _impurity(left_pos, left_tot, self.criterion)
            + right_tot * _impurity(right_pos, right_tot, self.criterion)
        ) / w_tot
        gain = parent_imp - child_imp

        # feasibility: both sides non-empty & honour min_samples_leaf
        # (approximated in weighted counts; exact for unit weights).  Cuts at
        # or past a narrow feature's last bin leave the right side empty and
        # are excluded here too.
        feasible = (left_tot >= self.min_samples_leaf) & (
            right_tot >= self.min_samples_leaf
        )
        gain = np.where(feasible, gain, -np.inf)
        best_gain = float(gain.max())
        if not np.isfinite(best_gain) or best_gain <= 1e-12:
            return None
        # Deterministic tie-break: truly tied cuts (e.g. two features that
        # induce the same row partition) get their gains from different
        # cumsum orders and can differ by an ulp, so a plain argmax would
        # pick among them by rounding noise.  Treat every cut within a hair
        # of the best gain as tied and take the first in (feature, cut)
        # order — true gain gaps are either zero or orders of magnitude
        # wider than the rounding.
        tol = 1e-9 * max(1.0, abs(best_gain))
        best_flat = int(np.argmax(gain.ravel() >= best_gain - tol))
        f, cut = divmod(best_flat, B - 1)
        return int(f), int(cut)
