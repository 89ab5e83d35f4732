"""Multi-output, multi-class CART whose one hyperparameter, the maximum
depth, applies after the fit: ``fit`` grows until no node splits, and
``truncate(h)`` is the tree a depth-h fit grows, because CART grows top-down.

Split criterion is the unweighted mean over outputs of the weighted child
Gini impurity; candidate thresholds are midpoints between consecutive
distinct sorted feature values; ties break to the lowest feature index,
then the lowest threshold. Leaves (and internal nodes, for depth-truncated
prediction) store per-output majority labels with ties to the smallest
label. Fully deterministic. ``descend`` moves every row one level per numpy
step, so one walk of a deep tree gives every shallower depth's predictions.

``fit`` grows the exhaustive CART scan (Breiman et al., 1984) one level at
a time, and stores the nodes in that order. Each feature's rows are sorted
once, at the root, and partitioned stably by child at every level, so each
level holds every feature's rows grouped by node and in value order within
a node. One scan then scores every split position of every feature of
every open node of the level. Walking a node in value order, a row of
class y raises the sum of squared left class counts by 2 * (its rank among
the node's rows of class y) + 1, and the sum of total times left counts by
the node's count of y, so int64 cumsums of those raises give every
position's exact counts without a class axis. Each score is the same float
expression, summed over outputs in the same order, as in a
feature-by-feature scan, so every tree is bit-identical to that scan's
(the reference in ``tests/oracles.py``). Features must be finite: no split
may depend on where a sort puts NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .netmodel import load_json

#: Impurity differences below this are treated as exact ties.
_TIE_TOL = 1e-12


class DecisionTree:
    """A CART in level order: the j-th internal node's children are nodes
    2j + 1 (left) and 2j + 2 (right), so ``left``, ``right`` and ``depth``
    follow from ``feature``, and are derived when the tree is built."""

    __slots__ = ("n_features", "n_outputs", "classes", "feature", "threshold", "majority",
                 "max_depth_fit", "left", "right", "depth")

    def __init__(self, n_features: int, n_outputs: int, classes: list[np.ndarray],
                 feature: np.ndarray, threshold: np.ndarray, majority: np.ndarray,
                 max_depth_fit: int):
        self.n_features, self.n_outputs = n_features, n_outputs
        self.classes = classes  # observed label alphabet per output
        self.feature = feature  # split feature per node, -1 at leaves
        self.threshold = threshold  # split threshold per node, nan at leaves
        self.majority = majority  # (n_nodes, n_outputs) per-output majority label
        self.max_depth_fit = max_depth_fit
        internal = feature >= 0
        self.left = np.full(len(internal), -1)  # child indices, -1 at leaves
        self.left[internal] = np.arange(1, 2 * internal.sum(), 2)
        self.right = np.where(internal, self.left + 1, -1)
        # The levels up to k + 1 are the root and two children per internal
        # node of the levels up to k: each level ends where those children do.
        before = np.cumsum(internal)
        ends = [1]
        while ends[-1] < len(internal) and \
                (end := 1 + 2 * int(before[ends[-1] - 1])) > ends[-1]:
            ends.append(end)
        # node depth, root = 0
        self.depth = np.searchsorted(ends, np.arange(len(internal)), side="right")

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
        """The CART grown on the same rows with this depth limit.

        CART grows top-down and a depth limit only stops growth, so the
        shallower tree is the prefix of nodes at depth ``max_depth`` or above,
        with those at ``max_depth`` turned into leaves.
        """
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        kept = int(np.searchsorted(self.depth, max_depth, side="right"))
        leaf = self.depth[:kept] == max_depth
        return DecisionTree(
            n_features=self.n_features,
            n_outputs=self.n_outputs,
            classes=self.classes,
            feature=np.where(leaf, -1, self.feature[:kept]),
            threshold=np.where(leaf, np.nan, self.threshold[:kept]),
            majority=self.majority[:kept],
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
        is not an integer; no node; a feature, child, depth or label that is
        not an integer; a feature below -1 or not below ``n_features``; a
        majority row of other than ``n_outputs`` labels; a leaf with a
        threshold, or an internal node without a finite one; nodes that are
        not one tree in level order (other than 2k + 1 nodes of which k are
        internal, the j-th internal node not before node 2j + 1); a stored
        ``left``, ``right`` or ``depth`` other than the derived one, as in a
        model stored in pre-order, before ``fit`` stored its level order."""
        labels = [v for c in d["classes"] for v in c]
        if any(type(v) is not int
               for v in [d["n_features"], d["n_outputs"], d["max_depth_fit"], *labels]):
            raise ValueError("n_features, n_outputs, max_depth_fit and class labels "
                             "are integers")
        nodes = d["nodes"]
        stored = [[n["left"], n["right"], n["depth"]] for n in nodes]
        for n, links in zip(nodes, stored):
            if any(type(v) is not int for v in [n["feature"], *links, *n["majority"]]) \
                    or type(n["threshold"]) not in (int, float, type(None)):
                raise ValueError("node features, children, depths and labels are "
                                 "integers, thresholds numbers or null")
        if not nodes:
            raise ValueError("a tree needs a root node")
        t = DecisionTree(
            n_features=d["n_features"],
            n_outputs=d["n_outputs"],
            classes=[np.array(c, dtype=int) for c in d["classes"]],
            feature=np.array([n["feature"] for n in nodes], dtype=int),
            threshold=np.array([n["threshold"] for n in nodes], dtype=float),  # null: nan
            majority=np.array([n["majority"] for n in nodes], dtype=int),
            max_depth_fit=d["max_depth_fit"],
        )
        if ((t.feature < -1) | (t.feature >= t.n_features)).any():
            raise ValueError(f"node features must be -1 or below {t.n_features}")
        if t.majority.shape != (len(nodes), t.n_outputs):
            raise ValueError(f"every node needs {t.n_outputs} majority labels")
        if not np.isnan(t.threshold[t.feature < 0]).all():
            raise ValueError("a leaf has a null threshold")
        internal = np.flatnonzero(t.feature >= 0)
        if not np.isfinite(t.threshold[internal]).all():
            raise ValueError("an internal node's threshold is a finite number")
        k = len(internal)
        if len(nodes) != 2 * k + 1 or (internal >= np.arange(1, 2 * k, 2)).any():
            raise ValueError(f"{len(nodes)} nodes, {k} of them internal, are not one tree "
                             "in level order: 2k + 1 nodes, the j-th internal node "
                             "before node 2j + 1")
        derived = np.column_stack((t.left, t.right, t.depth)).tolist()
        for i, (got, want) in enumerate(zip(stored, derived)):
            if got != want:
                raise ValueError(f"node {i} is not in level order: its left, right and "
                                 f"depth are {got}, not {want}; rerun optimize")
        return t


def load_model(path) -> DecisionTree:
    return load_json(path, DecisionTree.from_json)


def distinct_sorted(col: np.ndarray) -> np.ndarray:
    """``np.unique(col)``, without the ``numpy.ma`` import that ``np.unique``
    makes on its first call (about 13 ms of a process's start-up)."""
    s = np.sort(col)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


#: Most elements of one (outputs, features, positions) block that a level's
#: split search scores at once; a wide level scores its outputs in several
#: blocks, which bounds the fit's memory.
_BLOCK = 1 << 18


def _best_splits(XT, code, order, counts, work):
    """The best (feature, threshold) of each node of a level, or (-1, nan)
    where no feature admits a split, scored for every node at once.

    ``order`` holds each feature's rows of the level, grouped by node and in
    value order within a node, and ``counts`` the (output, node, class)
    counts. ``work`` is four scratch arrays, two of integers and two of
    floats, that hold a block.
    """
    n_out, k, c = counts.shape
    nf, m = order.shape
    sizes = counts[0].sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    node = np.repeat(np.arange(k), sizes)  # each position's node
    pos = np.arange(m)
    last = np.zeros(m, dtype=bool)  # a node's last position splits nothing
    last[starts + sizes - 1] = True
    xs = np.take_along_axis(XT, order, axis=1)
    valid = np.zeros((nf, m), dtype=bool)  # a threshold fits between positions i and i + 1
    valid[:, :-1] = xs[:, :-1] < xs[:, 1:]
    valid[:, last] = False
    idx = (pos - starts[node] + 1).astype(float)  # left-side sizes per split position
    n_node = sizes[node].astype(float)
    n_right = n_node - idx
    right_div = np.where(last, 1.0, n_right)
    # A row's raise of the sum of squared left counts (see the module
    # docstring): in (node, class) group order, its rank is its position in
    # its group, the same for every feature.
    groups = counts.reshape(n_out, k * c)
    group_start = np.cumsum(groups, axis=1) - groups
    raise_sq = 2 * (pos - np.repeat(group_start.ravel(), groups.ravel()).reshape(n_out, m)) + 1
    # Those raises, like the class counts whose cumsum is the sum of total
    # times left counts, sum over a node to its sum of squared counts, so
    # subtracting the previous node's sum at each node's first position
    # restarts one cumsum at every node.
    square = (counts ** 2).sum(axis=2)
    row_node = np.zeros(XT.shape[1], dtype=int)
    row_node[order[0]] = node
    group_of = row_node * c + code + np.arange(0, n_out * k * c, k * c)[:, None]
    bits = m.bit_length()
    total = np.zeros((nf, m))
    step = max(1, _BLOCK // (nf * m))
    for o in range(0, n_out, step):
        block = slice(o, o + step)
        shape = (len(square[block]), nf, m)
        left_sq, right_sq, term, right = (w[:math.prod(shape)].reshape(shape) for w in work)
        # Each (output, feature, position)'s (node, class) group, and the
        # count of that class in the node. Every index is in range, and
        # "clip" writes into ``out`` without the copy that "raise" makes.
        np.take(group_of[block], order, axis=1, out=left_sq, mode="clip")
        np.take(groups, left_sq, out=right_sq, mode="clip")
        # Sorting (group, position) pairs puts each group's positions in value
        # order, as a stable sort by group would; sorting (position, raise)
        # pairs of that order puts each position's raise back in place.
        left_sq <<= bits
        left_sq |= pos
        left_sq.sort(axis=2)
        left_sq &= (1 << bits) - 1
        left_sq <<= bits + 1
        left_sq |= raise_sq[block][:, None, :]
        left_sq.sort(axis=2)
        left_sq &= (1 << (bits + 1)) - 1
        for part in (left_sq, right_sq):
            part[..., starts[1:]] -= square[block][:, None, :-1]
            np.cumsum(part, axis=2, out=part)
        right_sq *= -2
        right_sq += left_sq
        right_sq += square[block][:, node][:, None, :]
        # The score, the same float expression as a feature-by-feature scan's
        np.divide(left_sq, idx, out=term)
        np.subtract(idx, term, out=term)
        term += n_right
        np.divide(right_sq, right_div, out=right)
        term -= right
        term /= n_node
        for t in term:
            total += t
    scores = np.where(valid, total / n_out, np.inf)
    low = np.minimum.reduceat(scores, starts, axis=1)
    first = np.minimum.reduceat(np.where(scores <= low[:, node] + _TIE_TOL, pos, m),
                                starts, axis=1)
    feature = np.full(k, -1)
    threshold = np.full(k, np.nan)
    for i, candidate in enumerate(np.take_along_axis(scores, first, axis=1).T.tolist()):
        best = math.inf
        for f, score in enumerate(candidate):
            if score < best - _TIE_TOL:
                best, feature[i] = score, f
        if feature[i] >= 0:
            f, p = feature[i], first[feature[i], i]
            threshold[i] = (xs[f, p] + xs[f, p + 1]) / 2.0
    return feature, threshold


def fit(X: np.ndarray, Y: np.ndarray) -> DecisionTree:
    """Grow a multi-output CART on (X, Y) one level at a time until no node
    splits: a pure node, one row and no admissible split stop growth. Nodes
    are stored in the order they grow, level by level: the s-th node that
    splits on a level has children 2s (left) and 2s + 1 (right) among the
    next level's nodes. ``truncate(h)`` gives the depth-h tree."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=int)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-D with matching sample counts")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite: NaN or infinite feature values")
    n, nf = X.shape
    n_out = Y.shape[1]
    classes = [distinct_sorted(Y[:, o]) for o in range(n_out)]
    c = max((len(k) for k in classes), default=1)
    labels = np.zeros((n_out, c), dtype=int)  # classes per output, padded to c
    code = np.empty((n_out, n), dtype=int)  # each row's class index per output
    for o, k in enumerate(classes):
        labels[o, :len(k)] = k
        code[o] = np.searchsorted(k, Y[:, o])
    outs = np.arange(n_out)[:, None]
    XT = np.ascontiguousarray(X.T)
    size = max(nf * n, min(_BLOCK, n_out * nf * n))  # the largest block
    work = [*np.empty((2, size), dtype=int), *np.empty((2, size))]

    feature, threshold, majority = [], [], []  # one array per level
    order = np.argsort(XT, axis=1, kind="stable")  # per feature: rows by node, then value
    sizes = np.array([n])
    while True:
        k = len(sizes)
        node = np.repeat(np.arange(k), sizes)
        rows = order[0] if nf else np.arange(n)  # each position's row
        counts = np.bincount((outs * k * c + node * c + code[:, rows]).ravel(),
                             minlength=n_out * k * c).reshape(n_out, k, c)
        majority.append(labels[outs, counts.argmax(axis=2)].T)  # ties: smallest label
        f, thr = np.full(k, -1), np.full(k, np.nan)
        feature.append(f)
        threshold.append(thr)
        impure = (counts.max(axis=2) < sizes).any(axis=0)
        if not impure.any() or not nf:
            break
        in_grow = impure[node]
        order = order[:, in_grow]
        f[impure], thr[impure] = _best_splits(XT, code, order, counts[:, impure], work)
        split = np.flatnonzero(f >= 0)
        if not len(split):
            break
        # The s-th split node's rows go to the next level's nodes 2s (left)
        # and 2s + 1 (right); the other nodes' rows leave the tree.
        s = np.full(k, -1)
        s[split] = np.arange(len(split))
        rows, at = order[0], node[in_grow]
        child = np.full(n, 2 * len(split))
        child[rows] = np.where(s[at] < 0, 2 * len(split),
                               2 * s[at] + (XT[f[at], rows] > thr[at]))
        sizes = np.bincount(child[rows], minlength=2 * len(split) + 1)[:-1]
        bits = order.shape[1].bit_length()  # (child, position) pairs sort stably by child
        by_child = np.sort((child[order] << bits) | np.arange(order.shape[1]), axis=1)
        order = np.take_along_axis(order, by_child[:, :sizes.sum()] & ((1 << bits) - 1),
                                   axis=1)
    return DecisionTree(n_features=nf, n_outputs=n_out, classes=classes,
                        feature=np.concatenate(feature), threshold=np.concatenate(threshold),
                        majority=np.concatenate(majority),
                        max_depth_fit=n)  # n rows grow at most n - 1 deep
