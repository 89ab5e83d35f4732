import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import garbage_after
from oracles import level_order, reference_fit, reference_predict, stump_oracle
from vnfplace import netmodel, tree
from vnfplace.tree import DecisionTree


def random_problem(rng, n=None, nf=None, n_out=None, n_classes=None):
    n = n or int(rng.integers(8, 60))
    nf = nf or int(rng.integers(2, 8))
    n_out = n_out or int(rng.integers(1, 4))
    n_classes = n_classes or int(rng.integers(2, 5))
    X = rng.normal(size=(n, nf)).round(2)
    Y = rng.integers(0, n_classes, size=(n, n_out))
    return X, Y


# [DERIVED] via the exhaustive stump oracle in tests/oracles.py: for
# X = [[0],[1],[2],[3]], Y = [[0],[0],[1],[1]] the unique best split is
# feature 0 at threshold 1.5 with weighted child Gini 0.0.
def test_best_split_hand_case():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    Y = np.array([[0], [0], [1], [1]])
    t = tree.fit(X, Y).truncate(1)
    assert t.feature[0] == 0
    assert t.threshold[0] == pytest.approx(1.5, abs=0)
    assert np.array_equal(t.predict(X).ravel(), [0, 0, 1, 1])


def test_root_split_matches_stump_oracle():
    rng = np.random.default_rng(202)
    for _ in range(50):
        X, Y = random_problem(rng)
        t = tree.fit(X, Y).truncate(1)
        oracle = stump_oracle(X, Y)
        if t.feature[0] < 0:
            assert oracle is None or Y.ptp(axis=0).max() == 0
            continue
        f, thr, _ = oracle
        assert int(t.feature[0]) == f
        assert float(t.threshold[0]) == pytest.approx(thr, abs=1e-12)


def test_tie_break_lowest_feature_then_threshold():
    # duplicated feature columns force an exact tie: lowest index must win
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    Y = np.array([[0], [0], [1], [1]])
    t = tree.fit(X, Y).truncate(1)
    assert t.feature[0] == 0
    # two equally good thresholds within one feature: lowest must win
    X2 = np.array([[0.0], [1.0], [2.0], [3.0]])
    Y2 = np.array([[0], [1], [0], [1]])
    t2 = tree.fit(X2, Y2).truncate(1)
    assert t2.threshold[0] == pytest.approx(0.5, abs=0)


def test_depth_bound_respected():
    rng = np.random.default_rng(7)
    X, Y = random_problem(rng, n=200, nf=5, n_out=2, n_classes=6)
    full = tree.fit(X, Y)
    for d in (1, 2, 3, 5, 8):
        t = full.truncate(d)
        assert t.tree_depth() <= d
        assert t.max_depth_fit == d


def test_training_accuracy_monotone_in_depth():
    rng = np.random.default_rng(11)
    X, Y = random_problem(rng, n=150, nf=6, n_out=3, n_classes=4)
    full = tree.fit(X, Y)
    prev = -1.0
    for d in range(1, 15):
        t = full.truncate(d)
        acc = float((t.predict(X) == Y).mean())
        assert acc >= prev - 1e-12
        prev = acc


def test_deep_fit_memorizes_unique_rows():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 5))
    Y = rng.integers(0, 8, size=(60, 2))
    t = tree.fit(X, Y)
    assert np.array_equal(t.predict(X), Y)


def test_truncated_prediction_equals_shallow_fit():
    """A truncated tree predicts what the reference's depth-limited fit,
    walked by the recursive traversal, predicts."""
    rng = np.random.default_rng(19)
    for _ in range(10):
        X, Y = random_problem(rng, n=80)
        deep = tree.fit(X, Y)
        Xq = rng.normal(size=(40, X.shape[1]))
        for d in (1, 2, 4, 7):
            shallow = reference_fit(X, Y, d)
            assert deep.truncate(d).predict(Xq).tolist() == [
                reference_predict(shallow, x) for x in Xq]


def test_majority_tie_goes_to_smallest_label():
    X = np.array([[0.0], [0.0], [0.0], [0.0]])
    Y = np.array([[5], [2], [2], [5]])
    t = tree.fit(X, Y)
    assert t.node_count() == 1  # constant feature admits no split
    assert t.predict(np.array([[1.0]]))[0, 0] == 2


@pytest.mark.parametrize("X, Y", [
    (np.zeros((4, 0)), np.array([[1], [2], [2], [3]])),
    (np.arange(4.0)[:, None], np.zeros((4, 0), dtype=int)),
], ids=["no-feature", "no-output"])
def test_fit_without_features_or_outputs_is_one_leaf(X, Y):
    assert tree.fit(X, Y).truncate(3).to_json() == level_order(reference_fit(X, Y, 3))
    assert tree.fit(X, Y).node_count() == 1


def test_pure_node_stops_growth():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    Y = np.array([[1], [1], [1], [1]])
    t = tree.fit(X, Y)
    assert t.node_count() == 1


def test_predict_matches_reference_traversal():
    rng = np.random.default_rng(23)
    X, Y = random_problem(rng, n=120, nf=6, n_out=2, n_classes=5)
    t = tree.fit(X, Y).truncate(12)
    doc = t.to_json()
    Xq = rng.normal(size=(50, 6))
    pred = t.predict(Xq)
    for r in range(50):
        assert list(pred[r]) == reference_predict(doc, Xq[r])


def test_fit_is_deterministic():
    rng = np.random.default_rng(29)
    X, Y = random_problem(rng, n=90)
    a = tree.fit(X, Y)
    b = tree.fit(X, Y)
    assert a.to_json() == b.to_json()


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    X, Y = random_problem(rng, n=70, nf=4, n_out=3)
    t = tree.fit(X, Y).truncate(6)
    path = tmp_path / "model.json"
    netmodel.save_json(t.to_json(), path)
    back = tree.load_model(path)
    Xq = rng.normal(size=(30, 4))
    assert np.array_equal(t.predict(Xq), back.predict(Xq))
    assert np.array_equal(t.truncate(2).predict(Xq), back.truncate(2).predict(Xq))
    netmodel.save_json(back.to_json(), tmp_path / "again.json")
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def _first_leaf(doc):
    return next(n for n in doc["nodes"] if n["feature"] < 0)


def _own_child(doc):
    """A leaf root and an internal node 1 that names nodes 1 and 2 as its
    children: internal node 0 of a level order, but after node 1."""
    leaf, inner = _first_leaf(doc), doc["nodes"][0]
    doc["nodes"] = [dict(leaf, depth=0), dict(inner, left=1, right=2, depth=1),
                    dict(leaf, depth=1)]


@pytest.mark.parametrize("edit, says", [
    (lambda d: d.update(nodes=[]), "root node"),
    (lambda d: d["nodes"][0].update(depth=1), "level order"),
    (lambda d: d["nodes"][0].update(left=0), "level order"),
    (lambda d: d["nodes"][0].update(right=len(d["nodes"])), "level order"),
    (lambda d: d["nodes"][d["nodes"][0]["left"]].update(depth=2), "level order"),
    (lambda d: _first_leaf(d).update(left=0), "level order"),
    (lambda d: _first_leaf(d).update(threshold=0.5), "leaf"),
    (lambda d: d["nodes"][0].update(feature=d["n_features"]), "features"),
    (lambda d: d["nodes"][0].update(feature=-2), "features"),
    (lambda d: [n.update(majority=n["majority"][1:]) for n in d["nodes"]], "majority"),
    (lambda d: d["nodes"][0].update(threshold=None), "finite"),
    (lambda d: d["nodes"][0].update(threshold=float("inf")), "finite"),
    (lambda d: d["nodes"][0].update(threshold="0.5"), "numbers"),
    (lambda d: d["nodes"][0].update(feature=0.7), "integers"),
    (lambda d: d["nodes"][0].update(left=float(d["nodes"][0]["left"])), "integers"),
    (lambda d: d["nodes"][0].update(majority=[0.5] * d["n_outputs"]), "integers"),
    (lambda d: d.update(n_features=d["n_features"] - 1.5), "n_features"),
    (lambda d: d.update(max_depth_fit=d["max_depth_fit"] - 0.1), "max_depth_fit"),
    (lambda d: d["classes"][0].__setitem__(0, 2.5), "class labels"),
    (lambda d: d.update(n_outputs=True), "n_outputs"),
    (lambda d: d["nodes"].append(dict(_first_leaf(d))), "level order"),
    (lambda d: d["nodes"][1].update(right=5), "level order"),
    (_own_child, "before node 2j"),
], ids=["no-node", "root-depth", "cycle", "dangling", "skipped-level", "leaf-child",
        "leaf-threshold", "wide-feature", "negative-feature", "short-majority",
        "null-threshold", "infinite-threshold", "string-threshold", "float-feature",
        "float-child", "float-label", "float-n-features", "float-max-depth",
        "float-class", "bool-n-outputs", "unreachable-node", "two-parents", "own-child"])
def test_from_json_rejects_a_broken_node_structure(edit, says):
    """A saved tree that ``predict`` could not walk to a leaf, or whose node
    count, links or top-level numbers are not those ``to_json`` writes in
    level order, is refused. In the fitted tree, nodes 1 and 2 are internal at
    depth 1, with children 3 and 4 and children 5 and 6 at depth 2."""
    X, Y = random_problem(np.random.default_rng(31), n=70, nf=4, n_out=3)
    doc = tree.fit(X, Y).truncate(6).to_json()
    edit(doc)
    with pytest.raises(ValueError, match=says):
        DecisionTree.from_json(doc)


def test_from_json_refuses_a_preorder_model():
    """A model stored in pre-order, as ``fit`` stored them before it grew level
    by level, is refused; the same tree in level order loads, and predicts
    what the fit truncated at its depth predicts."""
    rng = np.random.default_rng(31)
    X, Y = random_problem(rng, n=70, nf=4, n_out=3)
    Xq = np.vstack([X, rng.normal(size=(30, 4)).round(2)])
    for h in (2, 4, 6):
        doc = reference_fit(X, Y, h)
        assert level_order(doc) != doc
        with pytest.raises(ValueError, match="level order"):
            DecisionTree.from_json(doc)
        back = DecisionTree.from_json(level_order(doc))
        assert np.array_equal(back.predict(Xq), tree.fit(X, Y).truncate(h).predict(Xq))


def test_fit_input_validation():
    with pytest.raises(ValueError):
        tree.fit(np.zeros((0, 3)), np.zeros((0, 1), dtype=int))
    with pytest.raises(ValueError):
        tree.fit(np.zeros((4, 3)), np.zeros((5, 1), dtype=int))
    for bad in (np.nan, np.inf):
        X = np.zeros((4, 3)) + np.arange(4)[:, None]
        X[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            tree.fit(X, np.arange(4, dtype=int)[:, None])
    t = tree.fit(np.zeros((4, 3)) + np.arange(4)[:, None], np.arange(4, dtype=int)[:, None])
    with pytest.raises(ValueError, match="width"):
        t.predict(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        t.truncate(0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), extra=st.integers(0, 3))
def test_fit_stores_nodes_level_by_level_property(seed, extra):
    """``fit`` stores its nodes level by level, each level's children in the
    order of their parents, so truncating at any depth, up to one to four
    past the natural one, keeps the prefix of nodes at that depth or above
    and turns those at that depth into leaves."""
    rng = np.random.default_rng(seed)
    X, Y = random_problem(rng)
    full = tree.fit(X, Y)
    assert (np.diff(full.depth) >= 0).all()
    internal = full.feature >= 0
    children = np.column_stack((full.left, full.right))[internal].ravel()
    assert children.tolist() == list(range(1, full.node_count()))
    for h in range(1, full.tree_depth() + extra + 2):
        t = full.truncate(h)
        kept = int((full.depth <= h).sum())
        inner = full.depth[:kept] < h
        assert np.array_equal(t.depth, full.depth[:kept])
        assert np.array_equal(t.majority, full.majority[:kept])
        assert np.array_equal(t.feature, np.where(inner, full.feature[:kept], -1))
        assert np.array_equal(t.left, np.where(inner, full.left[:kept], -1))
        assert np.array_equal(t.right, np.where(inner, full.right[:kept], -1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_descend_levels_are_truncated_predictions_property(seed):
    """Level h of one walk predicts what ``truncate(h)`` and the recursive
    traversal of its JSON predict, at every depth up to one past the natural
    one, on the fitted tree and on the tree ``from_json`` reads back. A row
    that reaches a leaf before the last level stays on it."""
    rng = np.random.default_rng(seed)
    X, Y = random_problem(rng)
    Xq = np.vstack([X, rng.normal(size=(20, X.shape[1])).round(2)])
    fitted = tree.fit(X, Y)
    for t in (fitted, DecisionTree.from_json(fitted.to_json())):
        levels = t.descend(Xq)
        depth = t.tree_depth()
        assert levels.shape == (depth + 1, len(Xq)) and (levels[0] == 0).all()
        for k in range(depth):
            on_leaf = t.feature[levels[k]] < 0
            assert np.array_equal(levels[k + 1][on_leaf], levels[k][on_leaf])
        assert (t.feature[levels[-1]] < 0).all()
        assert np.array_equal(t.majority[levels[-1]], t.predict(Xq))
        for h in range(1, depth + 2):
            shallow = t.truncate(h)
            got = t.majority[levels[min(h, depth)]]
            assert np.array_equal(got, shallow.predict(Xq))
            doc = shallow.to_json()
            assert got.tolist() == [reference_predict(doc, x) for x in Xq]


# [DERIVED] by hand: on X = 0..3 with labels 0, 1, 2, 2 the root splits at
# 1.5 (weighted Gini 1/4, against 1/3 at 0.5 and 2.5); its right child {2, 2}
# is a pure leaf at depth 1, its left child splits again at 0.5.
def test_descend_keeps_an_early_leaf():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    t = tree.fit(X, np.array([[0], [1], [2], [2]]))
    assert t.tree_depth() == 2
    levels = t.descend(np.array([[0.0], [3.0]]))
    assert levels[:, 1].tolist() == [0, t.right[0], t.right[0]]
    assert levels[2, 0] == t.left[t.left[0]]
    assert t.predict(np.array([3.0])).tolist() == [[2]]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    depth=st.integers(1, 10),
)
def test_tree_invariants_property(seed, depth):
    rng = np.random.default_rng(seed)
    X, Y = random_problem(rng)
    t = tree.fit(X, Y).truncate(depth)
    n = t.node_count()
    for i in range(n):
        if t.feature[i] >= 0:
            assert 0 <= t.left[i] < n and 0 <= t.right[i] < n
            assert t.depth[t.left[i]] == t.depth[i] + 1
            assert t.depth[t.right[i]] == t.depth[i] + 1
        else:
            assert t.left[i] == -1 and t.right[i] == -1
    assert t.tree_depth() <= depth
    pred = t.predict(X)
    for o in range(Y.shape[1]):
        assert set(np.unique(pred[:, o])) <= set(t.classes[o].tolist())


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(int, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
                  elements=st.integers(-20, 20)))
def test_distinct_sorted_equals_np_unique(Y):
    """Negative labels, duplicates and single rows included, on column views
    as ``fit`` passes them."""
    for o in range(Y.shape[1]):
        got, want = tree.distinct_sorted(Y[:, o]), np.unique(Y[:, o])
        assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def tie_heavy_problems(draw):
    """Small (X, Y) full of exact ties: each fresh column takes 2-4 levels,
    other columns copy an earlier one or are constant, and each output has
    its own alphabet of 1-4 labels (one label: a single-class output)."""
    n = draw(st.integers(2, 60))
    levels = draw(st.integers(2, 4))
    kinds = draw(st.lists(st.sampled_from(["fresh", "copy", "constant"]),
                          min_size=1, max_size=6))
    alphabets = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "copy" and columns:
            columns.append(columns[int(rng.integers(len(columns)))].copy())
        elif kind == "constant":
            columns.append(np.full(n, 0.3 * int(rng.integers(levels))))
        else:
            columns.append(0.3 * rng.integers(0, levels, size=n))
    Y = np.stack([rng.choice(rng.choice(20, size=k, replace=False), size=n)
                  for k in alphabets], axis=1)
    return np.stack(columns, axis=1), Y


@settings(max_examples=80, deadline=None)
@given(problem=tie_heavy_problems())
def test_fit_matches_reference_property(problem):
    """The one-pass split search grows exactly the tree of the per-feature,
    per-output reference scan: truncated at every depth up to one past the
    natural one, it is the reference's depth-limited fit in level order. The
    reference's deepest tree, read back in level order, truncates to the
    same trees; read back in its pre-order, it is refused unless the two
    orders coincide."""
    X, Y = problem
    full = tree.fit(X, Y)
    natural = full.tree_depth()
    deepest = reference_fit(X, Y, natural + 1)
    if level_order(deepest) != deepest:
        with pytest.raises(ValueError, match="level order"):
            DecisionTree.from_json(deepest)
    back = DecisionTree.from_json(level_order(deepest))
    for h in range(1, natural + 2):
        want = level_order(reference_fit(X, Y, h))
        assert full.truncate(h).to_json() == want
        assert back.truncate(h).to_json() == want


@st.composite
def wide_problems(draw):
    """(X, Y) of 20-80 rows and 10-40 columns, some a copy of an earlier
    column or constant, the others of 2-6 levels or rounded normals; and
    3-6 outputs, each with its own alphabet of 1-12 labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 80))
    kinds = draw(st.lists(st.sampled_from(["levels", "normal", "copy", "constant"]),
                          min_size=10, max_size=40))
    columns = []
    for kind in kinds:
        if kind == "copy" and columns:
            columns.append(columns[int(rng.integers(len(columns)))].copy())
        elif kind == "constant":
            columns.append(np.full(n, float(rng.integers(-3, 3))))
        elif kind == "levels":
            columns.append(0.5 * rng.integers(0, int(rng.integers(2, 7)), size=n))
        else:
            columns.append(rng.normal(size=n).round(1))
    alphabets = draw(st.lists(st.integers(1, 12), min_size=3, max_size=6))
    Y = np.stack([rng.choice(rng.choice(30, size=k, replace=False), size=n)
                  for k in alphabets], axis=1)
    return np.stack(columns, axis=1), Y


@settings(max_examples=30, deadline=None)
@given(problem=wide_problems())
def test_fit_matches_reference_on_wide_multi_output_problems_property(problem):
    """The level-wise fit is the reference scan's unbounded tree in level
    order, and so are its truncations halfway down and one level short of
    the natural depth, where many nodes of different sizes are cut next to
    pure and one-row nodes that closed on their own. Every depth, at one
    reference fit each, would take about 14 times as long here;
    ``test_fit_matches_reference_property`` checks every depth on smaller
    problems."""
    X, Y = problem
    full = tree.fit(X, Y)
    natural = full.tree_depth()
    for h in sorted({max(1, natural // 2), max(1, natural - 1), natural + 1}):
        assert full.truncate(h).to_json() == level_order(reference_fit(X, Y, h))


def test_fit_grows_deeper_than_the_recursion_limit():
    """Alternating labels on one sorted feature split off one row per level:
    a chain of natural depth n - 1, deeper than Python's default recursion
    limit of 1,000 frames."""
    n = 1100
    X = np.arange(float(n))[:, None]
    Y = (np.arange(n) % 2)[:, None]
    full = tree.fit(X, Y)
    assert full.tree_depth() == n - 1
    assert np.array_equal(full.predict(X), Y)
    assert full.truncate(10).to_json() == level_order(reference_fit(X, Y, 10))


def test_fit_leaves_no_garbage_cycle():
    rng = np.random.default_rng(5)
    X = rng.random((500, 150))
    Y = rng.integers(0, 5, size=(500, 6))
    tree.fit(X[:20], Y[:20])  # numpy leaves garbage of its own on first use
    fitted = []
    assert garbage_after(lambda: fitted.append(tree.fit(X, Y))) == 0
    assert fitted[0].node_count() > 100


#: Fit two rows, one at each of two values, in a fresh interpreter, and print
#: the model document.
_FIT_TWO_ROWS = """
import json, sys
import numpy as np
from vnfplace import tree
print(json.dumps(tree.fit(np.array(json.loads(sys.argv[1])), [[0], [1]]).to_json()))
"""


@pytest.mark.parametrize("lo, hi", [
    pytest.param(1.0000000000000002, 1.0000000000000004, id="adjacent-doubles"),
    pytest.param(1e308, 1.7e308, id="positive-overflow"),
    pytest.param(-1.7e308, -1e308, id="negative-overflow"),
    pytest.param(5e-324, 1e-323, id="adjacent-subnormals"),
    pytest.param(-5e-324, 0.0, id="negative-zero-midpoint"),
])
def test_fit_ends_where_a_midpoint_is_not_between_its_values(lo, hi):
    """A midpoint that rounds onto hi (or onto -0.0, which is not below 0.0)
    or overflows once sent both rows to one child, the parent again, level
    after level without end. The threshold is lo there, as in scikit-learn's
    splitter. The fit runs in a child process under a timeout, so that such
    a loop fails the test instead of hanging the suite, and with
    RuntimeWarnings as errors, so that the midpoint may not warn of its
    overflow."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tree.__file__)))
    X = [[lo], [hi]]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _FIT_TWO_ROWS, json.dumps(X)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert [n["threshold"] for n in doc["nodes"]] == [lo, None, None]
    assert doc == level_order(reference_fit(X, [[0], [1]], 2))
    assert DecisionTree.from_json(doc).predict(X).tolist() == [[0], [1]]
