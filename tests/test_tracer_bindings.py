"""``perfbench/run.py --trace 1`` wraps the functions ``perfbench/tracer.py``
lists in ``TRACED`` by name; a renamed function would leave its metrics at
zero without an error. These tests read the tracer's list and check it
against the package."""

import importlib
import importlib.util
import inspect
import os

import pytest

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
