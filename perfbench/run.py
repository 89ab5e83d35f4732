#!/usr/bin/env python3
"""End-to-end benchmark of the vnfplace CLI pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload desk-fit --seed 1 --seconds 32 --trace 0

One client runs a closed loop: each CLI stage is a fresh process started
after the previous one exits, always with ``--workers 1``. A run first times
the interpreter set-up, then repeats the workload's stage sequence at least
``MIN_REPS`` times and further while the next repetition is expected to end
within ``--seconds``, and checks every stage's exit code and outputs.

Times are CPU seconds of the child processes scaled to a reference machine
speed (see ``Probe``), because this kind of shared virtual machine changes
speed by up to 2x within seconds. The last stdout line is one JSON object:
``correct``, ``attempted`` and ``failed`` (stage runs, and stage runs whose
exit code or output check was wrong) and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every stage runs under
``perfbench/tracer.py`` and the metrics are the per-layer counters, medians
over the repetitions. ``perfbench/NOTES.md`` explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import copy
import csv
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")
TRACER = os.path.join(BENCH_DIR, "tracer.py")

#: A stage still running after this long (wall time) is killed and counted
#: as failed, so that a run ends within its time limit.
STAGE_TIMEOUT_S = 60.0
SETUP_REPEATS = 5
#: Repetitions a run makes even when they overrun --seconds: two, so that
#: every run checks that a repetition rewrites identical artifacts.
MIN_REPS = 2
#: CPU time of one ``Probe.chunk`` at the reference speed: about its fastest
#: on the 2.0 GHz Xeon vCPU the baseline was measured on, so that reported
#: times are close to uncontended CPU seconds there.
REF_CHUNK_S = 250e-6

# The desk geometry of configs/desk.json, written out here so the benchmark
# does not change when the shipped configs do. The pipeline section names
# only the keys the roadmap keeps and relies on the defaults for the rest.
DESK = {
    "gen": {
        "n_servers": 15,
        "replica_counts": {"HSS": 1, "MME": 2, "SGW": 2, "PGW": 1},
        "intra_tier_delay": {"kind": "uniform", "a": 50, "b": 200},
        "cross_tier_delay": {"kind": "uniform", "a": 200, "b": 1000},
        "cpu_capacity": {"kind": "uniform", "a": 4, "b": 5},
        "mem_capacity": {"kind": "uniform", "a": 50, "b": 100},
        "cpu_demand": {"kind": "uniform", "a": 2, "b": 2},
        "mem_demand": {"kind": "uniform", "a": 4, "b": 4},
        "tolerance": {"kind": "uniform", "a": 1000, "b": 2000},
        "n_topologies": 40,
        "base_seed": 42,
    },
    "folds": 5,
    "pso": {"swarm_size": 10, "iterations": 30, "inertia": 0.7,
            "cognitive": 1.5, "social": 1.5, "seed": 7},
    "pipeline": {"error_threshold": 0.075, "steady_window": 10,
                 "plateau_epsilon": 0.001, "initial_bounds": [2, 100]},
    "baseline_depth": 100,
    "test_fraction": 0.2,
    "teacher_budget": 1000,
    "max_infeasible_fraction": 0.0,
    "histogram_bin_width_us": 5.0,
    "seed": 42,
}


def _variant(gen=None, **top):
    cfg = copy.deepcopy(DESK)
    cfg["gen"].update(gen or {})
    cfg.update(top)
    return cfg


#: name -> (config, [(stage, expected exit code)], seeds per repetition).
#: A repetition runs the stage sequence once per seed: seed * k + i, i < k, so
#: the workload seed itself when k = 1. Why each workload exists: NOTES.md.
WORKLOADS = {
    "desk-fit": (
        _variant(),
        [("generate", 0), ("optimize", 0), ("compare", 0)],
        1,
    ),
    "medium-teach": (
        _variant(gen={"n_servers": 30,
                      "replica_counts": {"HSS": 2, "MME": 3, "SGW": 3, "PGW": 2},
                      "n_topologies": 70}),
        [("generate", 0)],
        1,
    ),
    # How many depths PSO visits before the refusal depends on the seed
    # (about +-10% of the optimize time), so each repetition averages three.
    "tight-refuse": (
        _variant(gen={"tolerance": {"kind": "uniform", "a": 100, "b": 300},
                      "n_topologies": 30},
                 folds=3, max_infeasible_fraction=0.5,
                 pipeline=dict(DESK["pipeline"], initial_bounds=[2, 800])),
        [("generate", 0), ("optimize", 3)],
        3,
    ),
}

REFUSAL = "invalid rate never reached"

END_TO_END_UNITS = {
    "setup_s": "s", "generate_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
    "teacher_mean_cp_delay_us": "us",
}

PER_LAYER_UNITS = {
    "tree.fit.calls": "count", "tree.fit.busy_s": "s", "tree.fit.nodes": "count",
    "tree.fit.us_per_node": "us", "tree.fit.redundant": "count",
    "tree.predict.calls": "count", "tree.predict.rows": "count",
    "tree.predict.us_per_row": "us",
    "swarm.fold_results.calls": "count", "swarm.fold_results.self_s": "s",
    "swarm.fold_results.distinct_depths": "count",
    "swarm.pso_minimize.calls": "count", "swarm.pso_minimize.busy_s": "s",
    "pipeline.stage1.busy_s": "s", "pipeline.stage2.busy_s": "s",
    "pipeline.stage3_build.busy_s": "s",
    "placer.place_teacher.calls": "count", "placer.place_teacher.busy_s": "s",
    "placer.place_teacher.us_per_call": "us", "placer.place_teacher.infeasible": "count",
    "placer.validate_placement.calls": "count", "placer.validate_placement.busy_s": "s",
    "placer.validate_placement.us_per_call": "us",
    "placer.validate_placement.valid_ratio": "ratio",
    "placer.avg_cp_delay.calls": "count", "placer.avg_cp_delay.busy_s": "s",
    "netmodel.generate_topology.calls": "count", "netmodel.generate_topology.busy_s": "s",
    "netmodel.build_sfc.busy_s": "s",
    "netmodel.load_batch.calls": "count", "netmodel.load_batch.busy_s": "s",
    "features.build_dataset.busy_s": "s", "features.save_dataset.busy_s": "s",
    "features.load_dataset.busy_s": "s", "features.kfold.busy_s": "s",
    "evaluation.evaluate_strategy.calls": "count",
    "evaluation.evaluate_strategy.busy_s": "s",
    "evaluation.comparison_report.busy_s": "s",
    "evaluation.comparison_report.optimized_ip_rate": "ratio",
    "evaluation.comparison_report.optimized_mean_cp_delay_us": "us",
    "cli.generate.self_s": "s", "cli.optimize.self_s": "s", "cli.compare.self_s": "s",
    "cli.generate.busy_s": "s", "cli.optimize.busy_s": "s", "cli.compare.busy_s": "s",
}


def _stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Timed:
    """A finished child process: exit code, resource use and speed scale."""
    rc: int
    cpu_s: float  # user + system CPU time of the child and its descendants
    wall_s: float
    rss_mb: float
    scale: float  # REF_CHUNK_S / probe chunk CPU time while the child ran

    @property
    def seconds(self) -> float:
        """CPU time at the reference speed."""
        return self.cpu_s * self.scale


class Probe:
    """Speed gauge run alongside every timed child on the same CPU.

    ``run.py`` pins itself, and so every child it starts, to one CPU, and
    while a child runs it executes fixed chunks of interpreter and small-array
    numpy work (the two kinds of work the stages do) and times each with its
    own thread CPU clock. The two processes take turns on that CPU every few
    milliseconds, so the chunks see the same slowdowns from other tenants as
    the child, and the child's CPU time divided by the mean chunk time no
    longer depends on them. Measured on one stage repeated eight times, this
    cut the spread (IQR / median) from 13% to 3%. The child's wall time
    doubles, since it gets half the CPU.
    """

    def __init__(self):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        rng = np.random.default_rng(0)
        self._x = rng.random((48, 8))
        self._y = rng.integers(0, 5, 48)
        self._rows = np.arange(48)

    def chunk(self):
        d: dict[int, int] = {}
        v = 1
        for i in range(400):
            v = (v * 1103515245 + 12345) & 0x7FFFFFFF
            d[v % 1009] = d.get(v % 1009, 0) + i
        for f in range(self._x.shape[1]):
            order = np.argsort(self._x[:, f], kind="stable")
            onehot = np.zeros((48, 5))
            onehot[self._rows, self._y[order]] = 1.0
            prefix = np.cumsum(onehot, axis=0)[:-1]
            score = (prefix**2).sum(axis=1)
            int(np.flatnonzero(score <= score.min())[0])

    def run(self, cmd: list[str], **popen_kw) -> Timed:
        """Run cmd to completion with chunks alongside; kill it on timeout."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, **popen_kw)
        spent, chunks, killed = 0.0, 0, False
        try:
            while True:
                c0 = time.thread_time()
                self.chunk()
                spent += time.thread_time() - c0
                chunks += 1
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not killed and time.perf_counter() - t0 > STAGE_TIMEOUT_S:
                    proc.kill()
                    killed = True
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Timed(rc=proc.returncode, cpu_s=usage.ru_utime + usage.ru_stime,
                     wall_s=time.perf_counter() - t0, rss_mb=usage.ru_maxrss / 1024.0,
                     scale=REF_CHUNK_S * chunks / spent)


def measure_setup(probe: Probe, config_path: str) -> float:
    """Median time of a fresh interpreter that imports the CLI, loads and
    validates the config, and exits. The first (cache-filling) run is not
    counted."""
    code = ("import sys, vnfplace.cli\n"
            "from vnfplace.config import load_run_config\n"
            "load_run_config(sys.argv[1])\n")
    times = []
    for i in range(SETUP_REPEATS + 1):
        t = probe.run([sys.executable, "-c", code, config_path], env=_stage_env(),
                      stdout=subprocess.DEVNULL)
        if t.rc != 0:
            raise RuntimeError(f"set-up interpreter exited with {t.rc}")
        if i:
            times.append(t.seconds)
    return statistics.median(times)


def digest_outputs(out_dirs: list[str]) -> str:
    h = hashlib.sha256()
    for out_dir in out_dirs:
        for name in sorted(os.listdir(out_dir)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the program sources: artifacts are compared only between
    runs of the same program."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "vnfplace", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_digest(workload: str, seed: int, digest: str) -> str | None:
    """Compare against the digest an earlier run of the same program, workload
    config and seed recorded in this checkout, traced or not; record it if new."""
    path = os.path.join(WORK, "digests.json")
    seen = _load(path) if os.path.exists(path) else {}
    config = json.dumps(WORKLOADS[workload], sort_keys=True).encode()
    key = f"{workload} {seed} {hashlib.sha256(config).hexdigest()} {source_digest()}"
    if seen.setdefault(key, digest) != digest:
        return f"artifacts differ from an earlier run at seed {seed}: {seen[key]}"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return None


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- output checks: each returns a list of problems, empty when correct ------

def check_generate(out: str, n_topologies: int) -> list[str]:
    rows = _load(os.path.join(out, "placements.json"))
    problems = [f"teacher row {r['index']} is not valid" for r in rows if not r["valid"]]
    split = _load(os.path.join(out, "split.json"))
    if sorted(split["train"] + split["test"]) != sorted(r["index"] for r in rows):
        problems.append("split.json does not partition the teacher rows")
    if not rows or len(rows) > n_topologies:
        problems.append(f"{len(rows)} teacher rows for {n_topologies} topologies")
    return problems


def check_optimize(out: str) -> list[str]:
    report = _load(os.path.join(out, "pipeline_report.json"))
    a1, a2 = report["functional_range"]
    problems = []
    if not a1 <= report["h_star"] <= a2:
        problems.append(f"h_star {report['h_star']} outside functional range [{a1}, {a2}]")
    for name in ("model_optimized.json", "model_baseline.json"):
        if not os.path.exists(os.path.join(out, name)):
            problems.append(f"missing {name}")
    return problems


def check_refusal(out: str, stderr: str) -> list[str]:
    problems = []
    if REFUSAL not in stderr:
        problems.append(f"optimize refused without '{REFUSAL}'")
    models = glob.glob(os.path.join(out, "model_*.json"))
    if models:
        problems.append(f"refused optimize wrote {sorted(map(os.path.basename, models))}")
    return problems


def _traverse(nodes: list[dict], x: list[float], node: int = 0) -> list[int]:
    """Reference prediction: plain recursive descent of the saved tree."""
    n = nodes[node]
    if n["feature"] < 0:
        return n["majority"]
    child = n["left"] if x[n["feature"]] <= n["threshold"] else n["right"]
    return _traverse(nodes, x, child)


def check_compare(out: str) -> list[str]:
    report = _load(os.path.join(out, "comparison.json"))
    by_name = {s["name"]: s for s in report["strategies"]}
    problems = []
    if by_name["heuristic"]["ip_rate"] != 0:
        problems.append(f"heuristic ip_rate {by_name['heuristic']['ip_rate']} != 0")
    if by_name["optimized_tree"]["mean_cp_delay"] is None:
        problems.append("optimized tree produced no valid placement")

    schema = _load(os.path.join(out, "test.schema.json"))
    nf = len(schema["feature_cols"])
    with open(os.path.join(out, "test.csv"), encoding="utf-8", newline="") as fh:
        X = [[float(v) for v in row[:nf]] for row in list(csv.reader(fh))[1:]]
    model_path = os.path.join(out, "model_optimized.json")
    nodes = _load(model_path)["nodes"]
    expected = [_traverse(nodes, x) for x in X]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from vnfplace import tree
    got = tree.load_model(model_path).predict(X).tolist()
    if got != expected:
        bad = sum(g != e for g, e in zip(got, expected))
        problems.append(f"model_optimized predictions differ from traversal on {bad} rows")
    return problems


# -- one repetition ------------------------------------------------------------

@dataclass
class Rep:
    stages: list[tuple[str, Timed]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    cp_delays: list[float] = field(default_factory=list)
    layers: dict[str, dict] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    optimized: dict | None = None  # optimized_tree row of comparison.json


def run_rep(probe: Probe, workload: str, seed: int, trace: bool, tmp: str) -> Rep:
    """Run the workload's stages once per seed of the repetition, each stage
    as a fresh process, and check them."""
    k = WORKLOADS[workload][2]
    rep = Rep()
    outs = []
    for i in range(k):
        outs.append(os.path.join(tmp, f"out{i}"))
        if not _run_stages(probe, workload, seed * k + i, trace, tmp, f"out{i}", rep):
            return rep

    rep.digest = digest_outputs(outs)
    for out in outs:
        rows = _load(os.path.join(out, "placements.json"))
        rep.cp_delays += [d for r in rows for d in r["cp_delays"]]
        rep.counts["generated_rows"] = rep.counts.get("generated_rows", 0) + len(rows)
    if any(stage == "compare" for stage, _ in rep.stages):
        (out,) = outs
        rep.counts["test_rows"] = len(_load(os.path.join(out, "split.json"))["test"])
        rep.optimized = next(s for s in _load(os.path.join(out, "comparison.json"))["strategies"]
                             if s["name"] == "optimized_tree")
    if trace:
        problem = check_validate_count(rep)
        if problem:
            rep.failed += 1
            rep.problems.append(problem)
    return rep


def _run_stages(probe: Probe, workload: str, seed: int, trace: bool, tmp: str,
                out_name: str, rep: Rep) -> bool:
    """Run the stage sequence at one seed into tmp/out_name; False on failure."""
    config, stages, _ = WORKLOADS[workload]
    # A relative output_dir (stages run in tmp) keeps pipeline_report.json's
    # config echo, and so the artifact digest, the same in every repetition.
    out = os.path.join(tmp, out_name)
    cfg_path = os.path.join(tmp, f"{out_name}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(dict(config, output_dir=out_name), fh, indent=1)

    env = _stage_env()
    for stage, expected_rc in stages:
        args = [stage, "--config", cfg_path, "--seed", str(seed), "--workers", "1"]
        stats_path = os.path.join(tmp, f"trace_{out_name}_{stage}.json")
        cmd = ([sys.executable, TRACER, stats_path] if trace
               else [sys.executable, "-m", "vnfplace.cli"]) + args
        with open(os.path.join(tmp, f"{out_name}_{stage}.stderr"), "w+",
                  encoding="utf-8") as err:
            timed = probe.run(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=tmp)
            err.seek(0)
            stderr = err.read()
        rep.stages.append((stage, timed))
        rep.attempted += 1
        problems = []
        if timed.rc != expected_rc:
            problems.append(f"exit code {timed.rc}, expected {expected_rc}: {stderr[-400:]!r}")
        else:
            try:
                if stage == "generate":
                    problems += check_generate(out, config["gen"]["n_topologies"])
                elif stage == "optimize" and expected_rc == 0:
                    problems += check_optimize(out)
                elif stage == "optimize":
                    problems += check_refusal(out, stderr)
                elif stage == "compare":
                    problems += check_compare(out)
            except (OSError, ValueError, KeyError, TypeError) as e:
                problems.append(f"output check raised {type(e).__name__}: {e}")
        if trace and os.path.exists(stats_path):
            # The tracer times with the stage's CPU clock; scale like the stage.
            for name, stats in _load(stats_path).items():
                acc = rep.layers.setdefault(name, {})
                for key, v in stats.items():
                    acc[key] = acc.get(key, 0) + (v * timed.scale if key.endswith("_s") else v)
        if problems:
            rep.failed += 1
            rep.problems += [f"{stage} --seed {seed}: {p}" for p in problems]
            return False
    return True


def check_validate_count(rep: Rep) -> str | None:
    """Every validation the program makes must reach the tracer: one per
    fold_results validation row, per generated teacher row, and per test row
    for each of the three compared strategies."""
    got = rep.layers.get("placer.validate_placement", {}).get("calls", 0)
    expected = (rep.layers.get("swarm.fold_results", {}).get("validation_rows", 0)
                + rep.counts.get("generated_rows", 0)
                + 3 * rep.counts.get("test_rows", 0))
    if got != expected:
        return (f"placer.validate_placement traced {got} calls, expected {expected}: "
                "a binding site was missed")
    return None


#: Per-layer ratios: name -> (numerator, denominator, scale), both traced stats.
RATIOS = {
    "tree.fit.us_per_node": ("tree.fit.busy_s", "tree.fit.nodes", 1e6),
    "tree.predict.us_per_row": ("tree.predict.busy_s", "tree.predict.rows", 1e6),
    "placer.place_teacher.us_per_call": (
        "placer.place_teacher.busy_s", "placer.place_teacher.calls", 1e6),
    "placer.validate_placement.us_per_call": (
        "placer.validate_placement.busy_s", "placer.validate_placement.calls", 1e6),
    "placer.validate_placement.valid_ratio": (
        "placer.validate_placement.valid", "placer.validate_placement.calls", 1.0),
}


def layer_metrics(rep: Rep) -> dict[str, float]:
    def stat(name):
        fn, key = name.rsplit(".", 1)
        return float(rep.layers.get(fn, {}).get(key, 0))

    m = {name: stat(name) for name in PER_LAYER_UNITS}
    for name, (num, den, scale) in RATIOS.items():
        m[name] = stat(num) * scale / stat(den) if stat(den) else 0.0
    if rep.optimized:
        m["evaluation.comparison_report.optimized_ip_rate"] = rep.optimized["ip_rate"]
        m["evaluation.comparison_report.optimized_mean_cp_delay_us"] = \
            rep.optimized["mean_cp_delay"]
    return m


def end_to_end_metrics(rep: Rep) -> dict[str, float]:
    return {
        "generate_s": sum(t.seconds for stage, t in rep.stages if stage == "generate"),
        "pipeline_s": sum(t.seconds for _, t in rep.stages),
        "peak_rss_mb": max(t.rss_mb for _, t in rep.stages),
        "teacher_mean_cp_delay_us": statistics.fmean(rep.cp_delays),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vnfplace", "cli.py")):
        print(f"error: no vnfplace sources under {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running stage is killed and
    # reaped and the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return _run(args, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


def _run(args, tmp_root: str) -> int:
    probe = Probe()
    t0 = time.perf_counter()
    setup_cfg = os.path.join(tmp_root, "setup.json")
    with open(setup_cfg, "w", encoding="utf-8") as fh:
        json.dump(dict(WORKLOADS[args.workload][0], output_dir="out"), fh)
    setup_s = measure_setup(probe, setup_cfg)

    reps: list[Rep] = []
    while True:
        r0 = time.perf_counter()
        rep_dir = os.path.join(tmp_root, f"rep{len(reps)}")
        os.makedirs(rep_dir)
        rep = run_rep(probe, args.workload, args.seed, bool(args.trace), rep_dir)
        shutil.rmtree(rep_dir, ignore_errors=True)
        reps.append(rep)
        print(f"rep {len(reps) - 1} {args.workload} seed={args.seed} digest={rep.digest} "
              + " ".join(f"{k}={t.seconds:.3f}s(cpu={t.cpu_s:.3f}s,wall={t.wall_s:.3f}s,"
                         f"scale={t.scale:.3f})" for k, t in rep.stages), flush=True)
        for p in rep.problems:
            print(f"  problem: {p}", flush=True)
        now = time.perf_counter()
        if rep.failed or (len(reps) >= MIN_REPS and now + (now - r0) - t0 > args.seconds):
            break

    digests = {r.digest for r in reps}
    problem = (f"artifacts differ between repetitions at seed {args.seed}"
               if len(digests) > 1 else check_digest(args.workload, args.seed, reps[0].digest))
    if problem:
        print(f"problem: {problem}", flush=True)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    good = [r for r in reps if not r.failed]
    if not good:
        per_rep, units = [], {}
    elif args.trace:
        per_rep, units = [layer_metrics(r) for r in good], PER_LAYER_UNITS
    else:
        per_rep, units = [end_to_end_metrics(r) for r in good], END_TO_END_UNITS
    metrics = {}
    for name, unit in units.items():
        value = setup_s if name == "setup_s" else statistics.median(m[name] for m in per_rep)
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and not problem, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
