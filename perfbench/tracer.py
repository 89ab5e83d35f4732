"""Run one vnfplace CLI stage with its public layer functions timed from outside.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py STATS_JSON STAGE --config CFG [cli options...]

Every function in ``TRACED`` is replaced by a timing wrapper before the stage
starts: at its defining module, at every ``vnfplace`` module that bound the
name at import (``from .placer import validate_placement``), and inside
module-level dicts that hold it (``cli.COMMANDS``). ``DecisionTree.predict``
is wrapped on the class. The stage then runs through ``vnfplace.cli.main``,
the per-function counters are written to STATS_JSON, and the process exits
with the stage's exit code.

``busy_s`` is inclusive CPU time of the stage's (only) thread; ``self_s``
excludes time spent in traced calls made from inside the call. The stage
shares its CPU with the benchmark's speed probe, so CPU time, not wall time,
is what belongs to the stage.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

#: (module, attribute, trace name, counter hook or None). The hook runs after
#: each call with (stats, a function returning the bound arguments, result,
#: raised exception).
TRACED = [
    ("tree", "fit", "tree.fit", "_on_fit"),
    ("tree", "DecisionTree.predict", "tree.predict", "_on_predict"),
    ("swarm", "fold_results", "swarm.fold_results", "_on_fold_results"),
    ("swarm", "pso_minimize", "swarm.pso_minimize", None),
    ("pipeline", "stage1", "pipeline.stage1", None),
    ("pipeline", "stage2", "pipeline.stage2", None),
    ("pipeline", "stage3_build", "pipeline.stage3_build", None),
    ("placer", "place_teacher", "placer.place_teacher", "_on_place_teacher"),
    ("placer", "validate_placement", "placer.validate_placement", "_on_validate"),
    ("placer", "avg_cp_delay", "placer.avg_cp_delay", None),
    ("netmodel", "generate_topology", "netmodel.generate_topology", None),
    ("netmodel", "build_sfc", "netmodel.build_sfc", None),
    ("netmodel", "load_batch", "netmodel.load_batch", None),
    ("features", "build_dataset", "features.build_dataset", None),
    ("features", "save_dataset", "features.save_dataset", None),
    ("features", "load_dataset", "features.load_dataset", None),
    ("features", "kfold", "features.kfold", None),
    ("evaluation", "evaluate_strategy", "evaluation.evaluate_strategy", None),
    ("evaluation", "comparison_report", "evaluation.comparison_report", None),
    ("cli", "cmd_generate", "cli.generate", None),
    ("cli", "cmd_optimize", "cli.optimize", None),
    ("cli", "cmd_compare", "cli.compare", None),
]

MODULES = ["cli", "config", "evaluation", "features", "netmodel", "pipeline",
           "placer", "swarm", "tree"]


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[list[float]] = []  # [start, time in traced children]
        self._fits_seen: set[tuple[str, str]] = set()

    def wrap(self, name, fn, hook):
        stats = self.stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        sig = inspect.signature(fn)
        stack = self._stack
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stats["calls"] += 1
                stats["busy_s"] += dur
                stats["self_s"] += dur - frame[1]
                if hook:
                    hook(stats, lambda: sig.bind(*args, **kwargs).arguments, result, exc)

        return traced

    # -- counter hooks: they run after their own call's interval is closed, so
    # their cost lands only in the caller's time

    def _on_fit(self, stats, args, tree, exc):
        if tree is None:
            return
        stats["nodes"] = stats.get("nodes", 0) + tree.node_count()
        bound = args()
        rows = hashlib.sha256(np.ascontiguousarray(bound["X"], dtype=float).tobytes()
                              + np.ascontiguousarray(bound["Y"]).tobytes()).hexdigest()
        doc = tree.to_json()
        doc.pop("max_depth_fit")
        shape = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        key = (rows, shape)
        if key in self._fits_seen:
            stats["redundant"] = stats.get("redundant", 0) + 1
        self._fits_seen.add(key)

    def _on_predict(self, stats, args, out, exc):
        if out is not None:
            stats["rows"] = stats.get("rows", 0) + int(out.shape[0])

    def _on_fold_results(self, stats, args, out, exc):
        bound = args()
        stats.setdefault("depths", set()).add(int(bound["h"]))
        stats["validation_rows"] = stats.get("validation_rows", 0) + sum(
            len(v) for _, v in bound["folds"].folds)

    def _on_place_teacher(self, stats, args, out, exc):
        if exc is not None:
            stats["infeasible"] = stats.get("infeasible", 0) + 1

    def _on_validate(self, stats, args, report, exc):
        if report is not None and report.valid:
            stats["valid"] = stats.get("valid", 0) + 1

    def install(self):
        """Replace every traced function at each place the package bound it."""
        mods = {m: importlib.import_module(f"vnfplace.{m}") for m in MODULES}
        for mod_name, attr, name, hook_name in TRACED:
            hook = getattr(self, hook_name) if hook_name else None
            owner = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), hook))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hook)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped

    def dump(self, path):
        out = {}
        for name, s in self.stats.items():
            s = dict(s)
            if "depths" in s:
                s["distinct_depths"] = len(s.pop("depths"))
            out[name] = s
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, sort_keys=True, indent=1)


def main(argv: list[str]) -> int:
    stats_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from vnfplace import cli
    rc = cli.main(cli_argv)
    tracer.dump(stats_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
