"""Each CLI stage process imports only the layers it runs.

Every stage is a fresh interpreter, and on small inputs its start-up costs
more than its work, so the modules a stage loads are part of its cost.
"""

import json
import os
import subprocess
import sys

import pytest

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
#: source for each method of each class it builds, in every process.
UNLOADED = {
    "import": {"numpy.ma", "dataclasses"} | _LATER_LAYERS,
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
def stage_modules(tmp_path_factory):
    """The modules loaded by a bare import and by each stage of a tiny run,
    every one in a fresh interpreter."""
    tmp = tmp_path_factory.mktemp("imports")
    with open(os.path.join(CONFIGS_DIR, "desk.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["gen"]["n_topologies"] = 20
    doc["output_dir"] = str(tmp / "out")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(doc))
    loaded = {"import": _loaded_modules()}
    for stage in ("generate", "optimize", "compare"):
        loaded[stage] = _loaded_modules(stage, "--config", str(path), "--workers", "1")
    return loaded


@pytest.mark.parametrize("stage", list(UNLOADED))
def test_stage_leaves_unused_layers_unloaded(stage_modules, stage):
    assert "vnfplace.cli" in stage_modules[stage]
    assert sorted(UNLOADED[stage] & stage_modules[stage]) == []
