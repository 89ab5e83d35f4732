"""Command-line entry point.

Subcommands map to workflow stages: ``generate`` (topologies, heuristic
placements, dataset), ``optimize`` (depth search and final models), and
``compare`` (held-out head-to-head report). ``teach``, ``train`` and
``evaluate`` are aliases. All state lives in files under the configured
output directory; progress goes to stderr only, so reruns with the same
config and seed are byte-identical.

Exit codes: 0 success, 2 config error, 3 infeasibility or pipeline
failure, 4 missing artifact.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import evaluation, features, netmodel, pipeline, placer, swarm, tree
from .config import RunConfig, load_run_config

EXIT_CONFIG = 2
EXIT_PIPELINE = 3
EXIT_MISSING = 4


def _log(msg: str):
    print(msg, file=sys.stderr)


def _paths(cfg: RunConfig) -> dict[str, str]:
    out = cfg.output_dir
    return {
        "batch": os.path.join(out, "batch.json"),
        "placements": os.path.join(out, "placements.json"),
        "split": os.path.join(out, "split.json"),
        "train": os.path.join(out, "train.csv"),
        "test": os.path.join(out, "test.csv"),
        "report": os.path.join(out, "pipeline_report.json"),
        "stage1_curve": os.path.join(out, "stage1_curve.csv"),
        "stage1_trace": os.path.join(out, "stage1_trace.csv"),
        "stage2_curve": os.path.join(out, "stage2_curve.csv"),
        "model_baseline": os.path.join(out, "model_baseline.json"),
        "model_optimized": os.path.join(out, "model_optimized.json"),
        "comparison": os.path.join(out, "comparison.json"),
        "cp_delays": os.path.join(out, "per_cp_delay.csv"),
        "pair_delays": os.path.join(out, "pair_delay.csv"),
    }


def _require(path: str) -> str:
    if not os.path.exists(path):
        raise netmodel.ArtifactError(f"missing artifact: {path} (run the earlier stage first)")
    return path


def _gen_one(args) -> tuple[int, netmodel.Topology, netmodel.SfcSpec, dict | None]:
    gen_cfg, index, budget = args
    topo = netmodel.generate_topology(gen_cfg, index)
    sfc = netmodel.build_sfc(gen_cfg, index)
    try:
        p = placer.place_teacher(topo, sfc, budget=budget)
        row = placer.placement_row(index, topo, sfc, p)
    except placer.InfeasiblePlacement:
        row = None
    return index, topo, sfc, row


def cmd_generate(cfg: RunConfig, workers: int) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    paths = _paths(cfg)
    n = cfg.gen.n_topologies
    _log(f"generating {n} topologies ({cfg.gen.n_servers} servers, "
         f"{cfg.gen.n_instances} instances) with {workers} worker(s)")
    work = [(cfg.gen, i, cfg.teacher_budget) for i in range(n)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_gen_one, work, chunksize=16))
    else:
        done = [_gen_one(w) for w in work]
    done.sort(key=lambda r: r[0])

    topologies = [d[1] for d in done]
    sfcs = [d[2] for d in done]
    rows = [d[3] for d in done if d[3] is not None]
    n_infeasible = n - len(rows)
    if n and n_infeasible / n > cfg.max_infeasible_fraction:
        _log(f"error: {n_infeasible}/{n} topologies had no feasible placement "
             f"(tolerated fraction {cfg.max_infeasible_fraction})")
        return EXIT_PIPELINE

    feasible = [r["index"] for r in rows]
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(feasible))
    n_test = max(1, int(round(len(feasible) * cfg.test_fraction)))
    test_idx = sorted(feasible[i] for i in perm[:n_test])
    train_idx = sorted(feasible[i] for i in perm[n_test:])
    if not train_idx or not test_idx:
        _log(f"error: {len(feasible)} feasible topologies leave the train or test "
             f"split empty (train={len(train_idx)}, test={len(test_idx)})")
        return EXIT_PIPELINE

    netmodel.save_batch(paths["batch"], topologies, sfcs, cfg.gen)
    netmodel.save_json(rows, paths["placements"])
    netmodel.save_json({"train": train_idx, "test": test_idx, "seed": cfg.seed},
                       paths["split"])

    placement_by_index = {r["index"]: placer.placement_from_row(r) for r in rows}
    for name, idx in [("train", train_idx), ("test", test_idx)]:
        ds = features.build_dataset(
            [(topologies[i], sfcs[i], placement_by_index[i]) for i in idx]
        )
        features.save_dataset(ds, paths[name])

    valid = sum(1 for r in rows if r["valid"])
    _log(f"teacher placements: {valid}/{len(rows)} valid, "
         f"{n_infeasible} infeasible; train={len(train_idx)} test={len(test_idx)}")
    return 0


def _load_context(cfg: RunConfig, which: str):
    """Rebuild per-row (topology, sfc) context and teacher data for a split."""
    paths = _paths(cfg)
    topologies, sfcs, _ = netmodel.load_batch(_require(paths["batch"]))
    split = netmodel.load_json(_require(paths["split"]))
    rows = netmodel.load_json(_require(paths["placements"]))
    by_index = {r["index"]: r for r in rows}
    idx = split[which]
    ctx_topos = [topologies[i] for i in idx]
    ctx_sfcs = [sfcs[i] for i in idx]
    teacher_rows = [by_index[i] for i in idx]
    return idx, ctx_topos, ctx_sfcs, teacher_rows


def cmd_optimize(cfg: RunConfig, workers: int) -> int:
    paths = _paths(cfg)
    ds = features.load_dataset(_require(paths["train"]))
    _, topos, sfcs, teacher_rows = _load_context(cfg, "train")
    teacher_avg = [float(np.mean(r["cp_delays"])) for r in teacher_rows]
    ctx = swarm.make_context(topos, sfcs, teacher_avg)
    if ds.n_samples < cfg.folds:
        _log(f"pipeline failed: {ds.n_samples} training rows cannot fill "
             f"{cfg.folds} folds")
        return EXIT_PIPELINE
    folds = features.kfold(ds, cfg.folds, cfg.seed)
    _log(f"optimizing depth on {ds.n_samples} training rows, {cfg.folds} folds")
    try:
        report, model, full = pipeline.run_pipeline(
            ds, ctx, folds, cfg.pso, cfg.pipeline, config_echo=cfg.to_json()
        )
    except pipeline.RangeNotFound as e:
        _log(f"pipeline failed: {e}")
        return EXIT_PIPELINE
    pipeline.save_report(report, paths["report"])
    with open(paths["stage1_curve"], "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["depth", "invalid_rate"])
        for d in sorted(report.stage1.curve):
            w.writerow([d, repr(report.stage1.curve[d])])
    with open(paths["stage1_trace"], "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "best_h", "best_objective"])
        t = report.stage1.trace
        for i, (h, v) in enumerate(zip(t.best_h, t.best_objective)):
            w.writerow([i, h, repr(v)])
    with open(paths["stage2_curve"], "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["depth", "objective"])
        for d in sorted(report.stage2.curve):
            w.writerow([d, repr(report.stage2.curve[d])])
    tree.save_model(model, paths["model_optimized"])
    tree.save_model(full.truncate(cfg.baseline_depth), paths["model_baseline"])
    _log(f"functional range [{report.functional_range.a1}, "
         f"{report.functional_range.a2}], optimal depth {report.h_star}")
    return 0


def cmd_compare(cfg: RunConfig, workers: int) -> int:
    paths = _paths(cfg)
    optimized = tree.load_model(_require(paths["model_optimized"]))
    baseline = tree.load_model(_require(paths["model_baseline"]))
    idx, topos, sfcs, teacher_rows = _load_context(cfg, "test")
    rows = [
        evaluation.EvalRow(t, s, features.extract_features(t, s))
        for t, s in zip(topos, sfcs)
    ]
    teacher_placements = [placer.placement_from_row(r) for r in teacher_rows]

    def heuristic_fn_factory():
        it = iter(teacher_placements)
        return lambda row: next(it)

    def model_fn(model):
        return lambda row: swarm.placement_from_labels(
            row.sfc, model.predict(row.features)[0]
        )

    results = [
        evaluation.evaluate_strategy("heuristic", heuristic_fn_factory(), rows),
        evaluation.evaluate_strategy("baseline_tree", model_fn(baseline), rows),
        evaluation.evaluate_strategy("optimized_tree", model_fn(optimized), rows),
    ]
    report = evaluation.comparison_report(results, cfg.histogram_bin_width_us)
    evaluation.save_report_json(report, paths["comparison"])
    evaluation.save_cp_delay_csv(results, paths["cp_delays"])
    evaluation.save_pair_delay_csv(results, sfcs[0], paths["pair_delays"])
    for a in results:
        for b in results:
            if a.name < b.name:
                d = evaluation.delay_difference_stats(a, b, cfg.histogram_bin_width_us)
                if not d.empty:
                    evaluation.save_diff_histogram_csv(
                        d, os.path.join(cfg.output_dir,
                                        f"diff_hist_{a.name}_vs_{b.name}.csv"))
    for r in results:
        _log(f"{r.name}: ip_rate={r.ip_rate:.3f} mean_cp_delay={r.mean_cp_delay:.1f}")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "teach": cmd_generate,
    "optimize": cmd_optimize,
    "train": cmd_optimize,
    "compare": cmd_compare,
    "evaluate": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vnfplace",
                                 description="VNF placement lab workflow")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run-config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel workers for generation (default: all cores)")
    return ap


def _apply_seed(cfg: RunConfig, seed: int) -> RunConfig:
    return replace(
        cfg,
        seed=seed,
        gen=replace(cfg.gen, base_seed=seed),
        pso=replace(cfg.pso, seed=seed),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        if args.seed is not None:
            cfg = _apply_seed(cfg, args.seed)
    except ValueError as e:  # ConfigError, or a seed a config dataclass rejects
        _log(f"config error: {e}")
        return EXIT_CONFIG
    workers = args.workers if args.workers else (os.cpu_count() or 1)
    try:
        return COMMANDS[args.command](cfg, workers)
    except netmodel.ArtifactError as e:
        _log(str(e))
        return EXIT_MISSING
    except features.DatasetSchemaError as e:
        _log(f"dataset error: {e}")
        return EXIT_MISSING


if __name__ == "__main__":
    sys.exit(main())
