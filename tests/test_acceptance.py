"""Acceptance suite: nine end-to-end correctness criteria.

Each test prints a short PASS summary with the measured quantities so a run
log doubles as an acceptance report. The heavyweight criteria (7 and 9)
share one full desk-scale workflow run through the CLI.
"""

import json
import os
import timeit

import numpy as np
import pytest

from conftest import tiny_config
from oracles import brute_force_placement, stump_oracle, total_pair_delay
from vnfplace import cli, netmodel, placer, tree
from vnfplace.config import PsoParams, load_run_config
from vnfplace.pipeline import detect_functional_range
from vnfplace.swarm import pso_minimize, reg_term

DESK_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs", "desk.json")

#: Everything a full run writes: a fixed set of names.
ARTIFACTS = [
    "placements.json", "split.json", "train.csv", "train.schema.json", "test.csv",
    "test.schema.json", "pipeline_report.json", "model_baseline.json",
    "model_optimized.json", "comparison.json",
]


def _full_run(root):
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert cli.main(["generate", "--config", DESK_CONFIG, "--workers", "1"]) == 0
        assert cli.main(["optimize", "--config", DESK_CONFIG]) == 0
        assert cli.main(["compare", "--config", DESK_CONFIG]) == 0
    finally:
        os.chdir(cwd)
    return root / "out" / "desk"


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    return _full_run(tmp_path_factory.mktemp("acceptance_run"))


# -- Criterion 1: regularization exactness -----------------------------------

def test_criterion_1_regularization_exactness():
    assert reg_term(0) == 0.0
    assert reg_term(1) == 1000.0
    assert reg_term(3) == 2000.0
    print("\n[criterion 1] PASS reg_term(0,1,3) = 0, 1000, 2000 exactly")


# -- Criterion 2: functional-range fixture ------------------------------------

def test_criterion_2_functional_range_fixture():
    curve = {}
    for d in range(2, 101):
        if d < 20:
            curve[d] = max(0.076, 1.0 - 0.05 * (d - 2))  # above threshold
        elif d < 25:
            curve[d] = 0.075 - 0.015 * (d - 20)  # crosses 7.5% at depth 20
        else:
            curve[d] = 0.0  # flat zero from depth 25
    fr = detect_functional_range(curve, threshold=0.075, steady_window=10)
    assert fr == (20, 35)
    print(f"\n[criterion 2] PASS functional range = [{fr[0]}, {fr[1]}]")


# -- Criterion 3: teacher soundness -------------------------------------------

def test_criterion_3_teacher_soundness(desk_run):
    topos, sfcs = netmodel.load_batch(load_run_config(DESK_CONFIG).gen, range(500))
    with open(desk_run / "placements.json", encoding="utf-8") as fh:
        rows = {r["index"]: r for r in json.load(fh)}
    n_valid = 0
    for i in range(500):
        p = [rows[i]["assignment"][str(k)] for k in range(sfcs[i].n_instances)]
        if placer.validate_placement(topos[i], sfcs[i], p).valid:
            n_valid += 1
    assert n_valid == 500

    cfg = tiny_config(seed=13)
    ratios = []
    for i in range(200):
        topo = netmodel.generate_topology(cfg, i)
        sfc = netmodel.build_sfc(cfg, i)
        opt, opt_cost = brute_force_placement(topo, sfc)
        assert opt is not None
        p = placer.place_teacher(topo, sfc).servers
        cost = total_pair_delay(topo, p, sfc)
        # co-locatable instances can reach a zero-delay optimum: ratio 1 iff matched
        ratios.append(cost / opt_cost if opt_cost > 0 else (1.0 if cost == 0 else np.inf))
    ratios = np.array(ratios)
    within = float((ratios <= 1.10).mean())
    assert within >= 0.95
    q = np.percentile(ratios, [50, 90, 99, 100])
    print(f"\n[criterion 3] PASS 500/500 desk placements valid; "
          f"{within:.1%} of 200 tiny instances within 1.10x of optimum; "
          f"gap ratio percentiles p50/p90/p99/max = "
          f"{q[0]:.4f}/{q[1]:.4f}/{q[2]:.4f}/{q[3]:.4f}")


# -- Criterion 4: computational-path law --------------------------------------

def test_criterion_4_cp_law():
    from conftest import simple_sfc
    cases = [((1, 2, 2, 1), 4), ((2, 3, 3, 2), 36), ((1, 1, 1, 1), 1),
             ((3, 1, 2, 2), 12), ((2, 2, 2, 2), 16)]
    for replicas, expected in cases:
        got = len(netmodel.chain_structure(simple_sfc(replicas).counts).paths)
        assert got == expected == int(np.prod(replicas))
    print("\n[criterion 4] PASS CP counts equal replica products "
          f"for {len(cases)} replica mixes (incl. 4 and 36)")


# -- Criterion 5: CART correctness --------------------------------------------

def test_criterion_5_cart_correctness():
    rng = np.random.default_rng(505)
    matched = 0
    for _ in range(50):
        n = int(rng.integers(8, 50))
        X = rng.normal(size=(n, int(rng.integers(2, 7)))).round(2)
        Y = rng.integers(0, int(rng.integers(2, 5)), size=(n, int(rng.integers(1, 4))))
        t = tree.fit(X, Y).truncate(1)
        oracle = stump_oracle(X, Y)
        if t.feature[0] < 0:
            assert oracle is None or Y.ptp(axis=0).max() == 0
            matched += 1
            continue
        f, thr, _ = oracle
        assert int(t.feature[0]) == f
        assert float(t.threshold[0]) == pytest.approx(thr, abs=1e-12)
        matched += 1
    assert matched == 50

    for d in range(1, 13):
        X = rng.normal(size=(120, 5))
        Y = rng.integers(0, 6, size=(120, 2))
        assert tree.fit(X, Y).truncate(d).tree_depth() <= d

    for sweep in range(10):
        X = rng.normal(size=(100, 5))
        # deterministic axis-aligned label rules, so depth can only help
        Y = np.stack([
            (X[:, o % 5] > 0).astype(int) + 2 * (X[:, (o + 1) % 5] > 0.5).astype(int)
            for o in range(3)
        ], axis=1)
        full = tree.fit(X, Y)
        prev = -1.0
        for d in range(1, 12):
            t = full.truncate(d)
            acc = float((t.predict(X) == Y).all(axis=1).mean())
            assert acc >= prev - 1e-12
            prev = acc
    print("\n[criterion 5] PASS 50/50 root splits match the stump oracle; "
          "depth bounds hold; training accuracy monotone over 10 sweeps")


# -- Criterion 6: PSO correctness ----------------------------------------------

def test_criterion_6_pso_correctness():
    hits = 0
    for seed in range(30):
        h, trace = pso_minimize(lambda h: (h - 17) ** 2, 2, 100,
                                PsoParams(swarm_size=10, iterations=30, seed=seed))
        for a, b in zip(trace["best_objective"], trace["best_objective"][1:]):
            assert b <= a
        hits += h == 17
    assert hits == 30
    print("\n[criterion 6] PASS PSO returned 17 for 30/30 seeds; "
          "all global-best traces non-increasing")


# -- Criterion 7: end-to-end desk pipeline -------------------------------------

def _spearman(x, y):
    def ranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        for u in np.unique(v):  # average ranks over ties
            m = v == u
            r[m] = r[m].mean()
        return r
    rx, ry = ranks(x), ranks(y)
    return float(np.corrcoef(rx, ry)[0, 1])


def test_criterion_7_end_to_end_pipeline(desk_run):
    with open(desk_run / "pipeline_report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    curve = sorted((int(d), r) for d, r in report["stage1"]["curve"].items())
    depths = [d for d, _ in curve]
    rates = [r for _, r in curve]
    assert min(rates) == 0.0  # curve reaches zero within the search bound
    first_zero = rates.index(0.0)
    rho = _spearman(depths[: first_zero + 1], rates[: first_zero + 1])
    assert rho <= -0.8

    with open(desk_run / "comparison.json", encoding="utf-8") as fh:
        comp = json.load(fh)
    by_name = {s["name"]: s for s in comp["strategies"]}
    opt = by_name["optimized_tree"]
    base = by_name["baseline_tree"]
    assert opt["ip_rate"] <= 0.10
    assert opt["mean_cp_delay"] is not None and base["mean_cp_delay"] is not None
    assert opt["mean_cp_delay"] <= base["mean_cp_delay"] + 1e-9
    print(f"\n[criterion 7] PASS pre-plateau Spearman = {rho:.3f}; curve hits 0 "
          f"at depth {depths[first_zero]}; functional range "
          f"{report['functional_range']}, h* = {report['h_star']}; held-out "
          f"ip rate {opt['ip_rate']:.3f}; mean CP delay optimized "
          f"{opt['mean_cp_delay']:.2f} <= baseline {base['mean_cp_delay']:.2f} us")


# -- Criterion 8: query scaling -------------------------------------------------

def test_criterion_8_query_scaling():
    rng = np.random.default_rng(808)
    sizes = [1000, 4000, 16000]
    Xq = rng.normal(size=(2000, 40))
    latencies = []
    for n in sizes:
        X = rng.normal(size=(n, 40))
        Y = rng.integers(0, 12, size=(n, 6))
        t = tree.fit(X, Y)
        t.predict(Xq[:100])  # warm up
        # best of 5: one timing of a few ms is at the mercy of a busy machine
        latencies.append(min(timeit.repeat(lambda: t.predict(Xq), number=1, repeat=5))
                         / len(Xq))
    for a, b in zip(latencies, latencies[1:]):
        assert b / a < 4.0  # sub-linear: slower growth than the 4x size step
    us = [f"{l * 1e6:.1f}" for l in latencies]
    print(f"\n[criterion 8] PASS mean predict latency per row (us) for "
          f"n=1k/4k/16k: {'/'.join(us)}; successive ratios "
          f"{latencies[1]/latencies[0]:.2f}, {latencies[2]/latencies[1]:.2f} < 4")


# -- Criterion 9: determinism ----------------------------------------------------

def test_criterion_9_determinism(desk_run, tmp_path_factory):
    second = _full_run(tmp_path_factory.mktemp("acceptance_rerun"))
    names = sorted(ARTIFACTS)
    assert sorted(p.name for p in desk_run.iterdir()) == names
    assert sorted(p.name for p in second.iterdir()) == names
    for name in names:
        assert (desk_run / name).read_bytes() == (second / name).read_bytes(), \
            f"{name} differs between identically-seeded runs"
    print(f"\n[criterion 9] PASS two identically-seeded runs produced "
          f"byte-identical artifacts ({len(names)} files compared)")
