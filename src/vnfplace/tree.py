"""Multi-output, multi-class CART with a hard maximum-depth hyperparameter.

Split criterion is the unweighted mean over outputs of the weighted child
Gini impurity; candidate thresholds are midpoints between consecutive
distinct sorted feature values; ties break to the lowest feature index,
then the lowest threshold. Leaves (and internal nodes, for depth-truncated
prediction) store per-output majority labels with ties to the smallest
label. Fully deterministic. ``descend`` moves every row one level per numpy
step, so one walk of a deep tree gives every shallower depth's predictions.

The split search is the exhaustive CART scan (Breiman et al., 1984) for
all features at once: one sort per node, exact integer class counts, so
every tree is bit-identical to a feature-by-feature scan's (the reference
in ``tests/oracles.py``). Features must be finite: no split may depend on
where a sort puts NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import load_json

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

    def descend(self, X: np.ndarray) -> np.ndarray:
        """Each row's node after 0, 1, ..., ``tree_depth()`` steps from the
        root, as an array of shape (tree_depth() + 1, rows); a row stays on a
        leaf that it reaches early. Row r's depth-h prediction is
        ``majority[descend(X)[min(h, tree_depth()), r]]``, which is that of
        ``truncate(h)``: one level-synchronous walk yields every depth."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"feature width {X.shape[1]} != training width {self.n_features}"
            )
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=int)
        levels = [node]
        for _ in range(self.tree_depth()):
            f = self.feature[node]  # a leaf's -1 reads the last column, which it ignores
            go_left = X[rows, f] <= self.threshold[node]
            node = np.where(f < 0, node, np.where(go_left, self.left[node], self.right[node]))
            levels.append(node)
        return np.stack(levels)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Per-output majority labels at each row's leaf."""
        return self.majority[self.descend(X)[-1]]

    def truncate(self, max_depth: int) -> "DecisionTree":
        """The tree ``fit`` grows on the same rows with this ``max_depth``.

        CART grows top-down and the depth limit only stops growth, so the
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
        """The tree ``to_json`` wrote. A node structure that ``predict`` could
        not walk, or that ``to_json`` does not write, raises ValueError: an
        ``n_features``, ``n_outputs``, ``max_depth_fit`` or class label that
        is not an integer; no node; a root not at depth 0; an internal node
        whose children are not later nodes one level deeper, or whose
        threshold is not a finite number; nodes that are not one tree (a node
        other than the root that is not the child of exactly one node); a
        leaf with a child or a threshold; a feature, child, depth or label
        that is not an integer; a feature below -1 or not below
        ``n_features``; a majority row of other than ``n_outputs`` labels."""
        labels = [v for c in d["classes"] for v in c]
        if any(type(v) is not int
               for v in [d["n_features"], d["n_outputs"], d["max_depth_fit"], *labels]):
            raise ValueError("n_features, n_outputs, max_depth_fit and class labels "
                             "are integers")
        nodes = d["nodes"]
        for n in nodes:
            if any(type(v) is not int for v in [n["feature"], n["left"], n["right"],
                                                n["depth"], *n["majority"]]) \
                    or type(n["threshold"]) not in (int, float, type(None)):
                raise ValueError("node features, children, depths and labels are "
                                 "integers, thresholds numbers or null")
        t = DecisionTree(
            n_features=d["n_features"],
            n_outputs=d["n_outputs"],
            classes=[np.array(c, dtype=int) for c in d["classes"]],
            feature=np.array([n["feature"] for n in nodes], dtype=int),
            threshold=np.array([n["threshold"] for n in nodes], dtype=float),  # null: nan
            left=np.array([n["left"] for n in nodes], dtype=int),
            right=np.array([n["right"] for n in nodes], dtype=int),
            depth=np.array([n["depth"] for n in nodes], dtype=int),
            majority=np.array([n["majority"] for n in nodes], dtype=int),
            max_depth_fit=d["max_depth_fit"],
        )
        if not nodes or t.depth[0] != 0:
            raise ValueError("a tree needs a root node at depth 0")
        if ((t.feature < -1) | (t.feature >= t.n_features)).any():
            raise ValueError(f"node features must be -1 or below {t.n_features}")
        if t.majority.shape != (len(nodes), t.n_outputs):
            raise ValueError(f"every node needs {t.n_outputs} majority labels")
        leaf = t.feature < 0
        if (t.left[leaf] != -1).any() or (t.right[leaf] != -1).any() \
                or not np.isnan(t.threshold[leaf]).all():
            raise ValueError("a leaf has -1 children and a null threshold")
        node = np.flatnonzero(~leaf)
        if not np.isfinite(t.threshold[node]).all():
            raise ValueError("an internal node's threshold is a finite number")
        for child in (t.left[node], t.right[node]):
            if ((child <= node) | (child >= len(nodes))).any() \
                    or (t.depth[child] != t.depth[node] + 1).any():
                raise ValueError("an internal node's children are later nodes "
                                 "one level deeper")
        if not np.array_equal(np.sort(np.concatenate((t.left[node], t.right[node]))),
                              np.arange(1, len(nodes))):
            raise ValueError("every node but the root is the child of exactly one node")
        return t


def load_model(path) -> DecisionTree:
    return load_json(path, DecisionTree.from_json)


def distinct_sorted(col: np.ndarray) -> np.ndarray:
    """``np.unique(col)``, without the ``numpy.ma`` import that ``np.unique``
    makes on its first call (about 13 ms of a process's start-up)."""
    s = np.sort(col)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _best_split(X: np.ndarray, Yenc: np.ndarray, n_classes: list[int]):
    """Exhaustive best (feature, threshold) by mean weighted child Gini.

    One pass: a stable argsort of every column at once orders the node's
    rows per feature; for each output, one integer cumsum of its labels
    gathered through that order gives the class counts left of every split
    position, and the node's counts minus those give the right ones. Counts
    and sums of squared counts are exact integers, and each score is the
    same float expression, summed over outputs in the same order, as in a
    feature-by-feature scan, so every score is bit-identical to that scan's.
    A feature's candidate is its first position within ``_TIE_TOL`` of its
    minimum; in feature order, a candidate replaces the best only when lower
    by more than ``_TIE_TOL``.

    Returns (feature, threshold, score) or None when no feature admits a split.
    """
    n, nf = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    valid = xs[:-1] < xs[1:]  # a threshold fits between sorted positions i and i + 1
    idx = np.arange(1, n, dtype=float)[:, None]  # left-side sizes per split position
    total = np.zeros((n - 1, nf))
    for o, c in enumerate(n_classes):
        ys = Yenc[order[:-1], o]
        left = np.cumsum(ys[:, :, None] == np.arange(c), axis=0, dtype=np.int32)
        right = np.bincount(Yenc[:, o], minlength=c).astype(np.int32) - left
        left_sq = np.einsum("ijk,ijk->ij", left, left, dtype=np.int64)
        right_sq = np.einsum("ijk,ijk->ij", right, right, dtype=np.int64)
        total += (idx - left_sq / idx + (n - idx) - right_sq / (n - idx)) / n
    scores = np.where(valid, total / len(n_classes), np.inf)
    first = np.argmax(scores <= scores.min(axis=0) + _TIE_TOL, axis=0)
    candidate = scores[first, np.arange(nf)].tolist()
    best = None  # (score, feature)
    for f in np.flatnonzero(valid.any(axis=0)).tolist():
        if best is None or candidate[f] < best[0] - _TIE_TOL:
            best = (candidate[f], f)
    if best is None:
        return None
    score, f = best
    i = first[f]
    return f, float((xs[i, f] + xs[i + 1, f]) / 2.0), score


def fit(X: np.ndarray, Y: np.ndarray, max_depth: int) -> DecisionTree:
    """Grow a depth-bounded multi-output CART on (X, Y) by one loop over a
    stack of open nodes, so no depth is too deep to grow: the depth limit
    only stops growth, as do a pure node, one row and no admissible split."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=int)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-D with matching sample counts")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite: NaN or infinite feature values")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    n_out = Y.shape[1]
    classes = [distinct_sorted(Y[:, o]) for o in range(n_out)]
    Yenc = np.empty_like(Y)
    for o in range(n_out):
        Yenc[:, o] = np.searchsorted(classes[o], Y[:, o])
    n_classes = [len(c) for c in classes]

    feature, threshold, left, right, depth, node_rows = [], [], [], [], [], []
    # A node is numbered when it pops. Pushing its right child under its left
    # one numbers the nodes in pre-order, so a left child is its parent + 1.
    stack = [(np.arange(X.shape[0]), 0, -1)]  # (rows, depth, parent of a right child)
    while stack:
        rows, d, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        depth.append(d)
        node_rows.append(rows)
        if d >= max_depth or len(rows) < 2 or (Yenc[rows] == Yenc[rows[0]]).all():
            continue
        split = _best_split(X[rows], Yenc[rows], n_classes)
        if split is None:
            continue
        f, thr, _ = split
        go_left = X[rows, f] <= thr
        feature[node], threshold[node], left[node] = f, thr, node + 1
        stack += [(rows[~go_left], d + 1, node), (rows[go_left], d + 1, -1)]

    # Count every (node, class) pair of an output at once; argmax takes the
    # first maximum, so ties go to the smallest label.
    n_nodes = len(depth)
    owner = np.repeat(np.arange(n_nodes), [len(r) for r in node_rows])
    member = np.concatenate(node_rows)
    majority = np.empty((n_nodes, n_out), dtype=int)
    for o, c in enumerate(n_classes):
        counts = np.bincount(owner * c + Yenc[member, o], minlength=n_nodes * c)
        majority[:, o] = classes[o][counts.reshape(n_nodes, c).argmax(axis=1)]
    return DecisionTree(
        n_features=X.shape[1],
        n_outputs=n_out,
        classes=classes,
        feature=np.array(feature, dtype=int),
        threshold=np.array(threshold),
        left=np.array(left, dtype=int),
        right=np.array(right, dtype=int),
        depth=np.array(depth, dtype=int),
        majority=majority,
        max_depth_fit=max_depth,
    )
