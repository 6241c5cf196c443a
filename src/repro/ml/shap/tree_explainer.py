"""Path-dependent Tree SHAP (Lundberg, Erion & Lee 2018) from scratch.

Computes exact SHAP values (Eq. 2 of the paper) for decision-tree ensembles
in polynomial time, using the conditional expectation defined by the trees
themselves: descending a tree, a feature *in* the coalition follows the
sample's branch, a feature *outside* splits the flow between both children
proportionally to their training cover — the "path-dependent" value
function of the SHAP tree explainer the paper adopts.

Formulation.  Algorithm 2 of Lundberg et al. maintains, along each
root-to-leaf path, a polynomial of coalition-size weights (EXTEND) and
reads off each feature's Shapley weight by removing it (UNWIND).  We use
the equivalent *per-leaf closed form*: for leaf ``l`` with unique path
features ``U_l`` (duplicate features merged: zero-fractions multiply,
one-fractions AND),

    phi_u  +=  v_l · (o_u − z_u) · W(l, u),

where ``z_u`` is the product of cover ratios of u's path segments, ``o_u``
indicates whether x satisfies them all, and ``W(l, u)`` is the Shapley
kernel sum the EXTEND/UNWIND polynomial evaluates.  Grouping leaves by
unique-path length across every tree of the forest lets each EXTEND/UNWIND
step run vectorised over all (sample, leaf) pairs of a depth at once —
numpy-speed SHAP with no compiled code.  A single sample takes the same
path as a batch: one pass per depth, not one per tree and depth.

Properties guaranteed (and property-tested): **local accuracy**
``Σ_u phi_u = f(x) − E[f]`` to float precision, and exact agreement with
the brute-force Shapley computation on small trees.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ...runtime.telemetry import get_tracer
from ..tree import LEAF, TreeArrays


@dataclass
class _LeafGroup:
    """All leaves of the forest with the same unique-path length D."""

    depth: int  # D: number of unique features per leaf path
    leaf_value: np.ndarray  # (L,)
    z: np.ndarray  # (L, D) zero fractions (cover-ratio products)
    slot_feature: np.ndarray  # (L, D) global feature index per slot
    # flattened segment arrays, for evaluating one-fractions o(x):
    seg_feature: np.ndarray  # (S,) global feature id
    seg_threshold: np.ndarray  # (S,)
    seg_is_left: np.ndarray  # (S,) bool: the path takes the left branch
    #: (L·D,) start index of each (row, slot) segment run.  Segments are
    #: stored row-major with slots in increasing order, so every (row, slot)
    #: pair owns one contiguous run — ``np.logical_and.reduceat`` over these
    #: starts evaluates all one-fractions of a whole sample batch at once.
    seg_starts: np.ndarray


def _collect_leaf_paths(
    tree: TreeArrays,
) -> list[tuple[float, list[tuple[int, float, bool, float]]]]:
    """DFS to (leaf value, path segments); segment = (feat, thr, left, ratio)."""
    out: list[tuple[float, list[tuple[int, float, bool, float]]]] = []
    stack: list[tuple[int, list[tuple[int, float, bool, float]]]] = [(0, [])]
    while stack:
        node, segs = stack.pop()
        left = tree.children_left[node]
        if left == LEAF:
            out.append((float(tree.value[node]), segs))
            continue
        right = tree.children_right[node]
        feat = int(tree.feature[node])
        thr = float(tree.threshold[node])
        cover = tree.cover[node]
        r_left = tree.cover[left] / cover if cover > 0 else 0.0
        r_right = tree.cover[right] / cover if cover > 0 else 0.0
        stack.append((int(left), segs + [(feat, thr, True, r_left)]))
        stack.append((int(right), segs + [(feat, thr, False, r_right)]))
    return out


def _build_groups(trees: list[TreeArrays]) -> list[_LeafGroup]:
    """Preprocess a forest into depth-grouped leaf path tables.

    Leaves keep tree order, then DFS order, within their group.  Each leaf
    goes straight into flat per-depth lists of numbers: holding a Python
    container per leaf until the end would make the cyclic garbage
    collector rescan them all, which doubled the build time of a 500-tree
    forest.
    """
    tables: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for tree in trees:
        for value, segs in _collect_leaf_paths(tree):
            # merge duplicate features: z multiplies, segments accumulate
            slots: dict[int, list] = {}
            for feat, thr, is_left, ratio in segs:
                entry = slots.setdefault(feat, [1.0])
                entry[0] *= ratio
                entry.append((thr, is_left))
            if not slots:
                continue  # a leaf with no splits contributes only to the base
            t = tables[len(slots)]
            t["leaf_value"].append(value)
            for feat, (zero, *runs) in slots.items():
                t["z"].append(zero)
                t["slot_feature"].append(feat)
                t["seg_starts"].append(len(t["seg_feature"]))
                for thr, is_left in runs:
                    t["seg_feature"].append(feat)
                    t["seg_threshold"].append(thr)
                    t["seg_is_left"].append(is_left)
    return [
        _LeafGroup(
            depth=depth,
            leaf_value=np.asarray(t["leaf_value"]),
            z=np.asarray(t["z"]).reshape(-1, depth),
            slot_feature=np.asarray(t["slot_feature"], dtype=np.int64).reshape(-1, depth),
            seg_feature=np.asarray(t["seg_feature"], dtype=np.int64),
            seg_threshold=np.asarray(t["seg_threshold"]),
            seg_is_left=np.asarray(t["seg_is_left"], dtype=bool),
            seg_starts=np.asarray(t["seg_starts"], dtype=np.int64),
        )
        for depth, t in sorted(tables.items())
    ]


def _group_phi_batch(group: _LeafGroup, X: np.ndarray, phi: np.ndarray) -> None:
    """Add one leaf-group's SHAP contributions for a batch ``X`` into ``phi``.

    The Python-level loops are O(D²) per call, whatever the number of
    samples or leaves.  Every operation is elementwise along the sample axis
    and ``np.add.at`` adds each row's terms in leaf order, so a row's result
    does not depend on the other rows of ``X``.  ``phi`` is the
    (n, num_features) accumulator.
    """
    D = group.depth
    L = len(group.leaf_value)
    n = X.shape[0]
    # one-fractions o in {0, 1}: AND each (leaf, slot) segment run, all
    # samples at once; slot-major (D, n, L) so each slot's plane is contiguous
    sat = (X[:, group.seg_feature] < group.seg_threshold) == group.seg_is_left
    o = np.logical_and.reduceat(sat, group.seg_starts, axis=1)
    o = o.reshape(n, L, D).transpose(2, 0, 1).astype(np.float64, order="C")
    z = group.z.T  # (D, L), broadcasts against the (n, L) sample-leaf planes

    # EXTEND: coalition-size weight polynomial, one (n, L) plane per size
    W = np.zeros((D + 1, n, L))
    W[0] = 1.0
    for t in range(1, D + 1):
        for i in range(t - 1, -1, -1):
            W[i + 1] += o[t - 1] * W[i] * ((i + 1) / (t + 1))
            W[i] = z[t - 1] * W[i] * ((t - i) / (t + 1))

    # UNWIND each slot and accumulate its contribution; o is 0 or 1, so the
    # o = 1 branch needs no division by o
    rows = np.arange(n)[:, None]
    for k in range(D):
        one = o[k] != 0.0
        zero = z[k]
        zero_safe = np.where(zero != 0.0, zero, 1.0)
        next_one = W[D].copy()
        total = np.zeros((n, L))
        for i in range(D - 1, -1, -1):
            tmp = next_one * ((D + 1) / (i + 1))
            next_one = np.where(one, W[i] - tmp * zero * ((D - i) / (D + 1)), next_one)
            total += np.where(one, tmp, W[i] / (zero_safe * ((D - i) / (D + 1))))
        contrib = total * (o[k] - zero) * group.leaf_value
        np.add.at(phi, (rows, group.slot_feature[:, k]), contrib)


class TreeShapExplainer:
    """SHAP tree explainer for one tree or an averaged ensemble.

    ``trees`` is a list of :class:`~repro.ml.tree.TreeArrays`; the model is
    assumed to predict the *mean* of the trees' outputs (a Random Forest).
    For a single tree pass a one-element list.
    """

    def __init__(self, trees: list[TreeArrays], num_features: int):
        if not trees:
            raise ValueError("need at least one tree")
        self.num_features = num_features
        self.num_trees = len(trees)
        self._groups = _build_groups(trees)
        #: E[f(x)] over the training distribution (paper Eq. 1 base value)
        self.expected_value = float(np.mean([t.value[0] for t in trees]))

    #: Elements of the (D+1, rows, L) weight-polynomial tensor one batched
    #: EXTEND/UNWIND pass may allocate (2¹⁸ float64 = 2 MB): each group takes
    #: as many rows per pass as fit, and at least one.  Small enough that the
    #: (rows, L) planes stay in cache: larger budgets ran ~20 % slower.
    element_budget = 1 << 18

    def shap_values_single(self, x: np.ndarray) -> np.ndarray:
        """SHAP values (num_features,) for one sample: a one-row :meth:`shap_values`."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape != (self.num_features,):
            raise ValueError(f"expected {self.num_features} features")
        get_tracer().counter("shap.single_rows")
        return self.shap_values(x[None])[0]

    def shap_values(self, X: np.ndarray) -> np.ndarray:
        """SHAP values (n, num_features) for a batch of samples.

        Each row's values are bit-for-bit independent of the other rows and
        of how the batch is chunked.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise ValueError(
                f"expected (n, {self.num_features}) samples, got {X.shape}"
            )
        n = X.shape[0]
        phi = np.zeros((n, self.num_features))
        tracer = get_tracer()
        for group in self._groups:
            step = max(1, self.element_budget
                       // (len(group.leaf_value) * (group.depth + 1)))
            for start in range(0, n, step):
                _group_phi_batch(group, X[start:start + step], phi[start:start + step])
                tracer.counter("shap.chunks")
        tracer.counter("shap.rows", n)
        phi /= self.num_trees
        return phi
