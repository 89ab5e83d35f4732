"""``perfbench/run.py --trace 1`` wraps the functions ``perfbench/tracer.py``
lists in ``TRACED`` by name; a renamed function would leave its metrics at
zero without an error. These tests read the tracer's list and check it
against the package, and run the tracer's counter hooks and the benchmark's
model traversal on real results."""

import importlib
import importlib.util
import inspect
import json
import os
import sys

import numpy as np
import pytest

from vnfplace import features, netmodel, placer, swarm, tree

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")

#: Arguments the tracer's counter hooks read from a traced call, by hook.
HOOK_ARGUMENTS = {"_on_fit": {"X", "Y"}, "_on_fold_results": {"h", "folds"}}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("module, attr, hook", [(m, a, h) for m, a, _, h in TRACER.TRACED],
                         ids=[name for _, _, name, _ in TRACER.TRACED])
def test_traced_function_resolves(module, attr, hook):
    assert module in TRACER.MODULES
    target = importlib.import_module(f"vnfplace.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
    params = set(inspect.signature(target).parameters)
    assert HOOK_ARGUMENTS.get(hook, set()) <= params
    if hook:
        assert callable(getattr(TRACER.Tracer, hook))


def test_tracer_modules_import():
    for module in TRACER.MODULES:
        importlib.import_module(f"vnfplace.{module}")


def _run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(os.path.dirname(TRACER_PATH), "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


RUN = _run_module()


# The tests below run what the benchmark reads from the package on real
# results, so that a change to the package that breaks a hook or an output
# check fails here, not only in a benchmark run.

def test_fit_hook_counts_nodes_and_redundant_fits():
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(60, 5)).round(1), rng.integers(0, 4, size=(60, 3))
    tracer = TRACER.Tracer()
    fit = tracer.wrap("tree.fit", tree.fit, tracer._on_fit)
    nodes = fit(X, Y).node_count()
    fit(X=X, Y=Y)
    fit(X, Y[::-1])
    stats = tracer.stats["tree.fit"]
    assert stats["calls"] == 3 and stats["redundant"] == 1
    assert stats["nodes"] == 2 * nodes + tree.fit(X, Y[::-1]).node_count()


def test_validate_hook_counts_valid_reports(small_batch):
    _, topos, sfcs, placements = small_batch
    tracer = TRACER.Tracer()
    validate = tracer.wrap("placer.validate_placement", placer.validate_placement,
                           tracer._on_validate)
    assert validate(topos[0], sfcs[0], placements[0]).valid
    assert not validate(topos[0], sfcs[0], [0] * sfcs[0].n_instances).valid
    assert tracer.stats["placer.validate_placement"]["calls"] == 2
    assert tracer.stats["placer.validate_placement"]["valid"] == 1


def test_fold_results_hook_counts_depths_and_validation_rows(small_dataset, tmp_path):
    X, Y, ctx = small_dataset
    folds = features.kfold(len(X), 3, seed=0)
    trees = [tree.fit(X[train], Y[train]) for train, _ in folds.folds]
    preds = [t.majority[t.descend(X[val])]
             for t, (_, val) in zip(trees, folds.folds)]
    tracer = TRACER.Tracer()
    fold_results = tracer.wrap("swarm.fold_results", swarm.fold_results,
                               tracer._on_fold_results)
    for h in (2, 5, 5):
        assert fold_results(h, ctx, folds, preds) == swarm.fold_results(h, ctx, folds, preds)
    tracer.dump(tmp_path / "stats.json")
    stats = json.loads((tmp_path / "stats.json").read_text())["swarm.fold_results"]
    assert stats["calls"] == 3 and stats["distinct_depths"] == 2
    assert stats["validation_rows"] == 3 * len(X)


def test_benchmark_traversal_of_a_saved_model_predicts_like_the_tree(tmp_path):
    rng = np.random.default_rng(5)
    X, Y = rng.normal(size=(120, 6)).round(1), rng.integers(0, 5, size=(120, 3))
    Xq = np.vstack([X, rng.normal(size=(40, 6)).round(1)])
    path = tmp_path / "model.json"
    for model in (tree.fit(X, Y), tree.fit(X, Y).truncate(4)):
        netmodel.save_json(model.to_json(), path)
        nodes = json.loads(path.read_text())["nodes"]
        expected = [RUN._traverse(nodes, x) for x in Xq.tolist()]
        assert tree.load_model(path).predict(Xq).tolist() == expected
        assert model.predict(Xq).tolist() == expected
