"""Each CLI stage process imports only the layers it runs.

Every stage is a fresh interpreter, and on small inputs its start-up costs
more than its work, so the modules a stage loads are part of its cost.
"""

import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import typing

import pytest

import vnfplace
from vnfplace import cli

CONFIGS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

#: Run ``cli.main`` on the arguments (none: only import the CLI), then print
#: the exit code and the names of the loaded modules.
SCRIPT = """
import json, sys
from vnfplace import cli
rc = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([rc, sorted(sys.modules)]))
"""

_LATER_LAYERS = {"vnfplace.tree", "vnfplace.swarm", "vnfplace.pipeline", "vnfplace.evaluation"}

#: Modules each stage must leave unloaded. ``dataclasses`` compiles generated
#: source for each method of each class it builds, in every process. numpy
#: loads ``numpy.random`` on first access, which a bare import (a process that
#: only reads a config) never makes. ``hashlib`` loads OpenSSL (``_hashlib``);
#: no stage hashes, but every stage draws or splits rows through
#: ``numpy.random``, which imports ``secrets`` and so ``hashlib``, so only the
#: bare import is guarded against it.
UNLOADED = {
    "import": {"numpy.ma", "numpy.random", "dataclasses", "hashlib", "_hashlib"}
    | _LATER_LAYERS,
    "generate": {"numpy.ma", "dataclasses"} | _LATER_LAYERS,
    "optimize": {"numpy.ma", "dataclasses", "vnfplace.evaluation"},
    "compare": {"numpy.ma", "dataclasses", "vnfplace.swarm", "vnfplace.pipeline"},
}


def _loaded_modules(*argv) -> set[str]:
    done = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    rc, modules = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0, done.stderr
    return set(modules)


@pytest.fixture(scope="module")
def tiny_desk(tmp_path_factory) -> str:
    """The path of a 20-topology desk config whose output_dir is absolute."""
    tmp = tmp_path_factory.mktemp("imports")
    with open(os.path.join(CONFIGS_DIR, "desk.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["gen"]["n_topologies"] = 20
    doc["output_dir"] = str(tmp / "out")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def stage_modules(tiny_desk):
    """The modules loaded by a bare import and by each stage of a tiny run,
    every one in a fresh interpreter."""
    loaded = {"import": _loaded_modules()}
    for stage in ("generate", "optimize", "compare"):
        loaded[stage] = _loaded_modules(stage, "--config", tiny_desk, "--workers", "1")
    return loaded


@pytest.mark.parametrize("stage", list(UNLOADED))
def test_stage_leaves_unused_layers_unloaded(stage_modules, stage):
    assert "vnfplace.cli" in stage_modules[stage]
    assert sorted(UNLOADED[stage] & stage_modules[stage]) == []


#: Run the CLI module as ``__main__``, as ``python -m vnfplace.cli`` does, and
#: print the number of frozen objects once the process exits.
MAIN_SCRIPT = """
import atexit, gc, runpy
atexit.register(lambda: print(gc.get_freeze_count()))
runpy.run_module("vnfplace.cli", run_name="__main__")
"""


def test_process_entry_freezes_and_library_call_does_not(tiny_desk):
    """``run`` freezes the import heap of the process it owns; ``main`` leaves
    its caller's collector as it found it."""
    done = subprocess.run([sys.executable, "-c", MAIN_SCRIPT, "generate", "--config", tiny_desk,
                           "--workers", "1"], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.splitlines()[-1]) > 0
    frozen = gc.get_freeze_count()
    assert cli.main(["generate", "--config", tiny_desk, "--workers", "1"]) == 0
    assert gc.get_freeze_count() == frozen


def test_no_named_tuple_holds_a_forward_ref():
    """A ``typing.NamedTuple`` declared under ``from __future__ import
    annotations`` turns each string annotation into a ``typing.ForwardRef``,
    which compiles it in every process that builds the class."""
    annotations = {}
    for info in pkgutil.iter_modules(vnfplace.__path__):
        module = importlib.import_module(f"vnfplace.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields"):
                annotations[obj.__qualname__] = obj.__annotations__
    assert {"ChainStructure", "FoldSplit", "StrategyResult",
            "TeacherPlacement", "ValidationReport"} <= set(annotations)
    assert {name: [field for field, tp in fields.items() if isinstance(tp, typing.ForwardRef)]
            for name, fields in annotations.items()} == {name: [] for name in annotations}
