"""Multi-output, multi-class CART with a hard maximum-depth hyperparameter.

Split criterion is the unweighted mean over outputs of the weighted child
Gini impurity; candidate thresholds are midpoints between consecutive
distinct sorted feature values; ties break to the lowest feature index,
then the lowest threshold. Leaves (and internal nodes, for depth-truncated
prediction) store per-output majority labels with ties to the smallest
label. Fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netmodel import load_json, save_json

#: Impurity differences below this are treated as exact ties.
_TIE_TOL = 1e-12


@dataclass
class DecisionTree:
    n_features: int
    n_outputs: int
    classes: list[np.ndarray]  # observed label alphabet per output
    feature: np.ndarray  # split feature per node, -1 at leaves
    threshold: np.ndarray  # split threshold per node, nan at leaves
    left: np.ndarray  # child indices, -1 at leaves
    right: np.ndarray
    depth: np.ndarray  # node depth, root = 0
    majority: np.ndarray  # (n_nodes, n_outputs) per-output majority label
    max_depth_fit: int

    def node_count(self) -> int:
        return len(self.feature)

    def tree_depth(self) -> int:
        return int(self.depth.max())

    def predict(self, X: np.ndarray, max_depth: int | None = None) -> np.ndarray:
        """Per-row root-to-leaf traversal, optionally truncated at ``max_depth``.

        Truncating at depth d yields exactly the predictions of a tree fitted
        with max_depth=d, because CART grows top-down and the depth limit
        only stops recursion.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"feature width {X.shape[1]} != training width {self.n_features}"
            )
        out = np.empty((X.shape[0], self.n_outputs), dtype=int)
        for r in range(X.shape[0]):
            node = 0
            while self.feature[node] >= 0 and (
                max_depth is None or self.depth[node] < max_depth
            ):
                if X[r, self.feature[node]] <= self.threshold[node]:
                    node = self.left[node]
                else:
                    node = self.right[node]
            out[r] = self.majority[node]
        return out

    def truncate(self, max_depth: int) -> "DecisionTree":
        """The tree ``fit`` grows on the same rows with this ``max_depth``.

        CART grows top-down and the depth limit only stops recursion, so the
        shallower fit is this tree with the nodes below ``max_depth`` dropped
        and the nodes at ``max_depth`` turned into leaves. Nodes are stored in
        pre-order, which dropping whole subtrees preserves.
        """
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        keep = self.depth <= max_depth
        new_index = np.cumsum(keep) - 1
        leaf = (self.feature[keep] < 0) | (self.depth[keep] == max_depth)
        return DecisionTree(
            n_features=self.n_features,
            n_outputs=self.n_outputs,
            classes=self.classes,
            feature=np.where(leaf, -1, self.feature[keep]),
            threshold=np.where(leaf, np.nan, self.threshold[keep]),
            left=np.where(leaf, -1, new_index[self.left[keep]]),
            right=np.where(leaf, -1, new_index[self.right[keep]]),
            depth=self.depth[keep],
            majority=self.majority[keep],
            max_depth_fit=max_depth,
        )

    def to_json(self) -> dict:
        return {
            "n_features": self.n_features,
            "n_outputs": self.n_outputs,
            "max_depth_fit": self.max_depth_fit,
            "classes": [c.tolist() for c in self.classes],
            "nodes": [
                {
                    "feature": int(self.feature[i]),
                    "threshold": None if self.feature[i] < 0 else float(self.threshold[i]),
                    "left": int(self.left[i]),
                    "right": int(self.right[i]),
                    "depth": int(self.depth[i]),
                    "majority": [int(v) for v in self.majority[i]],
                }
                for i in range(self.node_count())
            ],
        }

    @staticmethod
    def from_json(d: dict) -> "DecisionTree":
        nodes = d["nodes"]
        feature = np.array([n["feature"] for n in nodes], dtype=int)
        threshold = np.array(
            [np.nan if n["threshold"] is None else n["threshold"] for n in nodes]
        )
        return DecisionTree(
            n_features=int(d["n_features"]),
            n_outputs=int(d["n_outputs"]),
            classes=[np.array(c, dtype=int) for c in d["classes"]],
            feature=feature,
            threshold=threshold,
            left=np.array([n["left"] for n in nodes], dtype=int),
            right=np.array([n["right"] for n in nodes], dtype=int),
            depth=np.array([n["depth"] for n in nodes], dtype=int),
            majority=np.array([n["majority"] for n in nodes], dtype=int),
            max_depth_fit=int(d["max_depth_fit"]),
        )


def save_model(tree: DecisionTree, path):
    save_json(tree.to_json(), path)


def load_model(path) -> DecisionTree:
    return DecisionTree.from_json(load_json(path))


def _majority(y_enc: np.ndarray, n_classes: int) -> int:
    counts = np.bincount(y_enc, minlength=n_classes)
    return int(counts.argmax())  # argmax takes the first max: smallest class wins ties


def _best_split(X: np.ndarray, Yenc: np.ndarray, n_classes: list[int]):
    """Exhaustive best (feature, threshold) by mean weighted child Gini.

    Returns (feature, threshold, score) or None when no feature admits a split.
    """
    n, nf = X.shape
    n_out = Yenc.shape[1]
    best = None  # (score, feature, threshold)
    idx = np.arange(1, n, dtype=float)  # left-side sizes per split position
    for f in range(nf):
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        valid = xs[:-1] < xs[1:]
        if not valid.any():
            continue
        total = np.zeros(n - 1)
        for o in range(n_out):
            ys = Yenc[order, o]
            onehot = np.zeros((n, n_classes[o]))
            onehot[np.arange(n), ys] = 1.0
            prefix = np.cumsum(onehot, axis=0)[:-1]  # left counts at each position
            left_sq = (prefix**2).sum(axis=1)
            right = prefix[-1] + onehot[-1] - prefix
            right_sq = (right**2).sum(axis=1)
            total += (idx - left_sq / idx + (n - idx) - right_sq / (n - idx)) / n
        scores = total / n_out
        scores[~valid] = np.inf
        i = int(np.flatnonzero(scores <= scores.min() + _TIE_TOL)[0])
        score = float(scores[i])
        if best is None or score < best[0] - _TIE_TOL:
            best = (score, f, float((xs[i] + xs[i + 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2], best[0]


def fit(X: np.ndarray, Y: np.ndarray, max_depth: int) -> DecisionTree:
    """Grow a depth-bounded multi-output CART on (X, Y)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=int)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-D with matching sample counts")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    n_out = Y.shape[1]
    classes = [np.unique(Y[:, o]) for o in range(n_out)]
    Yenc = np.empty_like(Y)
    for o in range(n_out):
        Yenc[:, o] = np.searchsorted(classes[o], Y[:, o])
    n_classes = [len(c) for c in classes]

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    depth: list[int] = []
    majority: list[list[int]] = []

    def grow(rows: np.ndarray, d: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        depth.append(d)
        majority.append(
            [int(classes[o][_majority(Yenc[rows, o], n_classes[o])]) for o in range(n_out)]
        )
        pure = all((Yenc[rows, o] == Yenc[rows[0], o]).all() for o in range(n_out))
        if d >= max_depth or len(rows) < 2 or pure:
            return node
        split = _best_split(X[rows], Yenc[rows], n_classes)
        if split is None:
            return node
        f, thr, _ = split
        go_left = X[rows, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = grow(rows[go_left], d + 1)
        right[node] = grow(rows[~go_left], d + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return DecisionTree(
        n_features=X.shape[1],
        n_outputs=n_out,
        classes=classes,
        feature=np.array(feature, dtype=int),
        threshold=np.array(threshold),
        left=np.array(left, dtype=int),
        right=np.array(right, dtype=int),
        depth=np.array(depth, dtype=int),
        majority=np.array(majority, dtype=int),
        max_depth_fit=max_depth,
    )
