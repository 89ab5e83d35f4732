"""Command-line entry point.

Subcommands map to workflow stages: ``generate`` (topologies, heuristic
placements, dataset), ``optimize`` (depth search and final models), and
``compare`` (held-out head-to-head report on ``test.csv``: ``comparison.json``,
its only output, with every strategy's mean delay per path and per dependent
pair, and both trees' node counts and whether they are identical). Each
stage writes a fixed set of file names.
A placement is a dataset label row, one server id per instance id, so
``optimize`` and ``compare`` read the teacher's placements from the labels of
``train.csv`` and ``test.csv``, regenerate each row's topology and chain
from the config's ``gen`` section, and read ``split.json`` besides, never
``placements.json`` or the datasets' ``.schema.json`` sidecars: the gen
settings fix a dataset's columns. All state lives in files under the
configured output directory, each written atomically; progress goes to
stderr only, so reruns with the same config and seed are byte-identical.

``split.json`` records, under ``settings``, the config's JSON of the fields
``generate`` read (``config.GENERATE_FIELDS``), and ``optimize`` and
``compare`` refuse a split whose settings differ from their config's, naming
each top-level field that differs. The models record those fields plus the
ones ``optimize`` read (``config.OPTIMIZE_FIELDS``), and ``compare`` refuses
models optimized under other settings or on another feature width or label
count. A dataset row whose features differ from those of its regenerated
topology and chain is refused too. Before it can fail, ``generate`` and
``optimize`` remove everything ``optimize`` and ``compare`` write, and
``compare`` removes what it writes, so that no artifact is left to describe
inputs that have since changed.

Exit codes: 0 success, 2 ``ConfigError`` (a bad config or ``--workers``, a
distribution that draws a value that is not finite, an ``output_dir`` that
cannot be created, or an output path of the stage that is a directory), 3
``PipelineError`` (data that admit no result), 4 ``ArtifactError`` (an
upstream artifact that is missing, cannot be read, does not parse, lacks
what the stage reads, is a dataset whose header is not the columns of the
gen settings, holds a non-finite feature, a label that is not a server id,
a row that does not regenerate or a model whose nodes are not one tree in
level order, or was generated under other settings; the message names the
file). Stages raise where they find a failure, and ``main`` alone turns
each error type into its code.

``run`` owns the process: ``python -m vnfplace.cli`` and the installed
``vnfplace`` command call it. It freezes the import heap (numpy and these
modules, none of which can become garbage in a process that runs one stage
and exits), so that no collection during the stage or at interpreter exit
walks it again; the stage's own objects are collected as before.
``main(argv)`` is the in-process entry: it runs one stage and returns the
exit code, and freezes nothing, since a freeze there would pin whatever
garbage its caller holds.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

import numpy as np

from . import features, netmodel, placer
from .config import GENERATE_FIELDS, OPTIMIZE_FIELDS, RunConfig, load_run_config


def _log(msg: str):
    print(msg, file=sys.stderr)


#: Artifact file names by key: what ``generate`` writes, then what ``optimize``
#: and ``compare`` write.
GENERATED = {"placements": "placements.json", "split": "split.json",
             "train": "train.csv", "test": "test.csv"}
DOWNSTREAM = {"report": "pipeline_report.json", "model_baseline": "model_baseline.json",
              "model_optimized": "model_optimized.json", "comparison": "comparison.json"}


def _paths(cfg: RunConfig) -> dict[str, str]:
    return {key: os.path.join(cfg.output_dir, name)
            for key, name in {**GENERATED, **DOWNSTREAM}.items()}


def _remove_outputs(cfg: RunConfig, keys, written=()) -> None:
    """Delete the artifacts named by ``keys``, so that none is left to
    describe a run that fails before it writes its own. If one of them, an
    artifact that ``written`` names or the schema sidecar of a dataset it
    names is a directory, raise ConfigError naming it and delete nothing."""
    paths = _paths(cfg)
    doomed = [paths[key] for key in keys]
    sidecars = [features.schema_path(paths[key]) for key in ("train", "test") if key in written]
    for path in doomed + [paths[key] for key in written] + sidecars:
        if os.path.isdir(path):
            raise netmodel.ConfigError(f"output path {path} is a directory")
    for path in doomed:
        if os.path.exists(path):
            os.remove(path)


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise netmodel.ArtifactError(f"missing artifact: {path} (run the earlier stage first)")
    return path


CHUNK = 16  # topologies per task that ``generate`` hands a worker process


def _gen_one(args) -> tuple[netmodel.Topology, netmodel.SfcSpec,
                            placer.TeacherPlacement | None]:
    gen_cfg, index, budget = args
    topo = netmodel.generate_topology(gen_cfg, index)
    sfc = netmodel.build_sfc(gen_cfg, index)
    try:
        return topo, sfc, placer.place_teacher(topo, sfc, budget=budget)
    except placer.InfeasiblePlacement:
        return topo, sfc, None


def cmd_generate(cfg: RunConfig, workers: int) -> None:
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as e:
        raise netmodel.ConfigError(
            f"cannot create output_dir {cfg.output_dir}: {e.strerror}") from None
    _remove_outputs(cfg, DOWNSTREAM, written=GENERATED)
    paths = _paths(cfg)
    n = cfg.gen.n_topologies
    # a pool starts all its processes at once: no more than there are chunks
    workers = max(1, min(workers, -(-n // CHUNK)))
    _log(f"generating {n} topologies ({cfg.gen.n_servers} servers, "
         f"{cfg.gen.n_instances} instances) with {workers} worker(s)")
    work = [(cfg.gen, i, cfg.teacher_budget) for i in range(n)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: its import is costly
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_gen_one, work, chunksize=CHUNK))
    else:
        done = [_gen_one(w) for w in work]

    topologies, sfcs, teacher = ([d[k] for d in done] for k in range(3))
    feasible = [i for i, p in enumerate(teacher) if p is not None]
    n_infeasible = n - len(feasible)
    if n and n_infeasible / n > cfg.max_infeasible_fraction:
        raise netmodel.PipelineError(
            f"{n_infeasible}/{n} topologies had no feasible placement "
            f"(tolerated fraction {cfg.max_infeasible_fraction})")

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(feasible))
    n_test = max(1, int(round(len(feasible) * cfg.test_fraction)))
    test_idx = sorted(feasible[i] for i in perm[:n_test])
    train_idx = sorted(feasible[i] for i in perm[n_test:])
    if not train_idx or not test_idx:
        raise netmodel.PipelineError(
            f"{len(feasible)} feasible topologies leave the train or test "
            f"split empty (train={len(train_idx)}, test={len(test_idx)})")

    found = [teacher[i] for i in feasible]
    valid, _, cp_delays = placer.score([topologies[i] for i in feasible],
                                       [sfcs[i] for i in feasible], [p.servers for p in found])
    netmodel.save_json([
        {"index": i, "assignment": {str(k): s for k, s in enumerate(p.servers)},
         "valid": v, "cp_delays": cp, "teacher_nodes": p.nodes,
         "budget_exhausted": p.budget_exhausted}
        for i, p, v, cp in zip(feasible, found, valid.tolist(), cp_delays.tolist())],
        paths["placements"])
    doc = cfg.to_json()
    netmodel.save_json({"train": train_idx, "test": test_idx,
                        "settings": {k: doc[k] for k in GENERATE_FIELDS}}, paths["split"])

    for name, idx in [("train", train_idx), ("test", test_idx)]:
        X, Y = features.build_dataset([(topologies[i], sfcs[i], teacher[i].servers)
                                       for i in idx])
        features.save_dataset(paths[name], X, Y, cfg.gen.n_servers)

    _log(f"teacher placements: {int(valid.sum())}/{len(feasible)} valid, "
         f"{n_infeasible} infeasible; train={len(train_idx)} test={len(test_idx)}; "
         f"{sum(p.nodes for p in found)} search nodes, budget exhausted on "
         f"{sum(p.budget_exhausted for p in found)} rows")


def _check_settings(artifact: dict, doc: dict, fields, path: str, stage: str) -> None:
    """Raise ArtifactError unless ``artifact`` records under ``settings`` the
    config document ``doc``'s ``fields``, key for key, naming each top-level
    setting that differs: every one, for an artifact that records none, as
    those written before the key existed."""
    recorded = artifact.get("settings")
    if not isinstance(recorded, dict):
        recorded = {}
    changed = [k for k in dict.fromkeys([*fields, *recorded])
               if k not in fields or k not in recorded or recorded[k] != doc[k]]
    if changed:
        raise netmodel.ArtifactError(
            f"{path} was {stage}d under other settings of {', '.join(changed)} "
            f"than this config's; rerun {stage}")


def _load_split(cfg: RunConfig, which: str, doc: dict):
    """Read a split's features and labels, whose rows are the teacher's
    placements, and regenerate the topology and sfc of each of its rows from
    ``cfg.gen``: returns (X, Y, topologies, sfcs), aligned by row. ``doc`` is
    ``cfg.to_json()``. In this order, a split that does not record the
    settings of ``doc`` that ``generate`` reads (it was generated under
    others), a split that lists no rows of ``which``, a dataset whose header
    is not the columns of ``cfg.gen``'s server and instance counts, a dataset
    of another row count than the split's, and a row whose features differ
    from its regenerated snapshot's (numpy's streams may change between
    versions) raise ArtifactError. The columns are derived only once the
    settings show that ``generate`` ran under ``cfg.gen``, which bounds its
    server count."""
    paths = _paths(cfg)

    def pick(split):
        idx = split[which]
        _check_settings(split, doc, GENERATE_FIELDS, paths["split"], "generate")
        if not idx:
            raise netmodel.ArtifactError(
                f"{paths['split']} lists no {which} rows; rerun generate")
        X, Y = features.load_dataset(_require(paths[which]), cfg.gen.n_servers,
                                     cfg.gen.n_instances)
        if len(idx) != len(X):
            raise netmodel.ArtifactError(
                f"{paths[which]} holds {len(X)} rows but {paths['split']} lists "
                f"{len(idx)} {which} rows; rerun generate")
        topologies, sfcs = netmodel.load_batch(cfg.gen, idx)
        regenerated = features.feature_matrix(topologies, sfcs)
        for r, (x, row) in enumerate(zip(regenerated, X)):
            if not np.array_equal(x, row):
                raise netmodel.ArtifactError(
                    f"{paths[which]}:{r + 2}: the features differ from those of "
                    f"snapshot {idx[r]} regenerated from the gen settings; rerun generate")
        return X, Y, topologies, sfcs
    return netmodel.load_json(_require(paths["split"]), pick)


def cmd_optimize(cfg: RunConfig, workers: int) -> None:
    from . import pipeline, swarm  # each stage imports only the layers it runs
    _remove_outputs(cfg, DOWNSTREAM)
    paths = _paths(cfg)
    doc = cfg.to_json()
    X, Y, topos, sfcs = _load_split(cfg, "train", doc)
    if len(X) < cfg.folds:
        raise netmodel.PipelineError(
            f"{len(X)} training rows cannot fill {cfg.folds} folds")
    ctx = swarm.make_context(topos, sfcs, Y.tolist())
    folds = features.kfold(len(X), cfg.folds, cfg.seed)
    _log(f"optimizing depth on {len(X)} training rows, {cfg.folds} folds")
    report, model, full = pipeline.run_pipeline(
        X, Y, ctx, folds, cfg.pso, cfg.pipeline, config_echo=doc)
    netmodel.save_json(report, paths["report"])
    settings = {k: doc[k] for k in GENERATE_FIELDS + OPTIMIZE_FIELDS}
    for key, m in [("model_optimized", model),
                   ("model_baseline", full.truncate(cfg.baseline_depth))]:
        netmodel.save_json(dict(m.to_json(), settings=settings), paths[key])
    a1, a2 = report["functional_range"]
    _log(f"functional range [{a1}, {a2}], optimal depth {report['h_star']}")


def cmd_compare(cfg: RunConfig, workers: int) -> None:
    from . import evaluation, tree
    _remove_outputs(cfg, ("comparison",))
    paths = _paths(cfg)
    doc = cfg.to_json()
    X, Y, topos, sfcs = _load_split(cfg, "test", doc)

    def load_model(key):
        def build(artifact):
            model = tree.DecisionTree.from_json(artifact)
            _check_settings(artifact, doc, GENERATE_FIELDS + OPTIMIZE_FIELDS, paths[key],
                            "optimize")
            if (model.n_features, model.n_outputs) != (X.shape[1], Y.shape[1]):
                raise netmodel.ArtifactError(
                    f"{paths[key]} was fitted on {model.n_features} features and "
                    f"{model.n_outputs} labels per row but {paths['test']} holds "
                    f"{X.shape[1]} and {Y.shape[1]}; rerun optimize")
            return model
        return netmodel.load_json(_require(paths[key]), build)

    optimized, baseline = load_model("model_optimized"), load_model("model_baseline")

    results = [evaluation.evaluate_strategy(name, topos, sfcs, labels.tolist())
               for name, labels in [("heuristic", Y),
                                    ("baseline_tree", baseline.predict(X)),
                                    ("optimized_tree", optimized.predict(X))]]
    report = evaluation.comparison_report(results, cfg.histogram_bin_width_us)
    report["pairs"] = [[a, b] for a, b, _ in netmodel.chain_structure(sfcs[0].counts).pairs]
    report["node_counts"] = {"baseline_tree": baseline.node_count(),
                             "optimized_tree": optimized.node_count()}
    report["baseline_equals_optimized"] = (
        baseline.to_json()["nodes"] == optimized.to_json()["nodes"])
    netmodel.save_json(report, paths["comparison"])
    if report["baseline_equals_optimized"]:
        _log(f"baseline and optimized trees are identical "
             f"({optimized.node_count()} nodes)")
    for s in report["strategies"]:
        mean = np.nan if s["mean_cp_delay"] is None else s["mean_cp_delay"]
        _log(f"{s['name']}: ip_rate={s['ip_rate']:.3f} mean_cp_delay={mean:.1f}")


COMMANDS = {"generate": cmd_generate, "optimize": cmd_optimize, "compare": cmd_compare}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vnfplace",
                                 description="VNF placement lab workflow")
    sub = ap.add_subparsers(dest="command", required=True)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)  # the cores this process may run on
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run-config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
        p.add_argument("--workers", type=int, default=cores,
                       help="parallel workers for generate (default: the usable "
                            "cores; at most one per 16 topologies); optimize and "
                            "compare accept the option and ignore it")
    return ap


def _apply_seed(cfg: RunConfig, seed: int) -> RunConfig:
    return cfg.replace(seed=seed, gen=cfg.gen.replace(base_seed=seed),
                       pso=cfg.pso.replace(seed=seed))


def main(argv=None) -> int:
    """Run one stage; the only place a failure becomes its exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise netmodel.ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = load_run_config(args.config)
        if args.seed is not None:
            cfg = _apply_seed(cfg, args.seed)
        COMMANDS[args.command](cfg, args.workers)
    except netmodel.ConfigError as e:
        _log(f"config error: {e}")
        return 2
    except netmodel.PipelineError as e:
        _log(f"pipeline failed: {e}")
        return 3
    except netmodel.ArtifactError as e:  # its message names the file
        _log(str(e))
        return 4
    return 0


def run() -> None:
    """Run one stage as the whole process: freeze the import heap, then exit
    with ``main``'s code. A ``--workers`` pool forks from the frozen heap."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
