import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnfplace import features, pipeline, placer, swarm
from vnfplace import tree as tree_mod
from vnfplace.swarm import EvalContext, PsoParams, reg_term


# [DERIVED] 1000*log2(ip+1) by hand: log2(1)=0, log2(2)=1, log2(4)=2,
# log2(8)=3, log2(1024)=10.
@pytest.mark.parametrize(
    "ip,expected",
    [(0, 0.0), (1, 1000.0), (3, 2000.0), (7, 3000.0), (1023, 10000.0)],
)
def test_reg_term_values(ip, expected):
    assert reg_term(ip) == pytest.approx(expected, abs=1e-9)


def test_reg_term_monotone_and_concave():
    vals = [reg_term(i) for i in range(200)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_reg_term_rejects_negative():
    with pytest.raises(ValueError):
        reg_term(-1)


def test_placement_from_labels_by_id_order(small_batch):
    cfg, topos, sfcs, _ = small_batch
    sfc = sfcs[0]
    labels = [3, 1, 4, 1, 5, 9]
    p = swarm.placement_from_labels(sfc, labels)
    inst = sorted(sfc.instances, key=lambda i: i.id)
    for i, s in zip(inst, labels):
        assert p.server_of(i.id) == s


def test_make_context_ceiling_is_percentile():
    delays = list(range(1, 101))
    ctx = swarm.make_context([], [], delays)
    assert ctx.delay_ceiling == pytest.approx(np.percentile(delays, 99), abs=0)


def test_context_alignment_enforced(small_batch):
    cfg, topos, sfcs, _ = small_batch
    with pytest.raises(ValueError):
        EvalContext(topos[:3], sfcs[:2], 100.0)


def reference_fold_results(h, ds, ctx, folds):
    """Slow reference: a fresh depth-h fit per fold, every validation row
    validated by hand. Returns (invalid count, mean valid delay) per fold."""
    out = []
    for train_idx, val_idx in folds.folds:
        sub = ds.subset(train_idx)
        t = tree_mod.fit(sub.features, sub.labels, h)
        pred = t.predict(ds.features[val_idx])
        ip = 0
        delays = []
        for row, labels in zip(val_idx, pred):
            p = swarm.placement_from_labels(ctx.sfcs[row], labels)
            if placer.validate_placement(ctx.topologies[row], ctx.sfcs[row], p).valid:
                delays.append(placer.avg_cp_delay(ctx.topologies[row], p, ctx.sfcs[row]))
            else:
                ip += 1
        out.append((ip, float(np.mean(delays)) if delays else ctx.delay_ceiling))
    return out


def unbounded_fold_trees(ds, folds):
    return [pipeline.fit_unbounded(ds.subset(train_idx)) for train_idx, _ in folds.folds]


def test_fold_results_against_manual_recompute(small_dataset):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 4, seed=0)
    res = swarm.fold_results(6, ds, ctx, folds, unbounded_fold_trees(ds, folds))
    assert len(res) == 4
    for (ip, avg), r in zip(reference_fold_results(6, ds, ctx, folds), res):
        assert r.ip == ip
        assert r.avg_delay_cp == pytest.approx(avg, rel=1e-12)
        assert r.o_pso == pytest.approx(r.avg_delay_cp + r.reg_term, rel=1e-12)
        assert r.reg_term == pytest.approx(reg_term(ip), abs=0)


def test_depth_table_matches_fresh_fits(small_dataset):
    """Every depth in [lo, D_max + 5] reads exactly what fresh depth-h fits give,
    including the depths past the deepest fold tree that share its entry,
    also when lo itself lies past it."""
    ds, ctx = small_dataset
    n = 48  # a slice keeps the fresh fits at every depth quick
    ds = ds.subset(np.arange(n))
    ctx = EvalContext(ctx.topologies[:n], ctx.sfcs[:n], ctx.delay_ceiling)
    folds = features.kfold(ds, 3, seed=5)
    trees = unbounded_fold_trees(ds, folds)
    d_max = max(t.tree_depth() for t in trees)
    hi = d_max + 5
    expected = {h: reference_fold_results(h, ds, ctx, folds) for h in range(2, hi + 1)}
    for lo in (2, d_max + 2):
        table = pipeline.depth_table(ds, ctx, folds, trees, lo, hi)
        assert sorted(table) == list(range(lo, hi + 1))
        for h, res in table.items():
            assert [(r.ip, r.avg_delay_cp) for r in res] == expected[h]


def test_invalid_rate_bounds_and_decrease(small_dataset):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 5, seed=0)
    trees = unbounded_fold_trees(ds, folds)
    rates = [swarm.invalid_rate(swarm.fold_results(h, ds, ctx, folds, trees), folds)
             for h in (1, 4, 10, 25)]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert rates[-1] <= rates[0]


def test_zero_valid_fold_uses_ceiling():
    ds = features.empty_dataset(4, 6)
    # a context whose ceiling we can see reflected when every row is invalid
    ctx = swarm.make_context([], [], [10.0, 20.0, 30.0])
    res = swarm.ObjectiveResult(avg_delay_cp=ctx.delay_ceiling, ip=5,
                                reg_term=reg_term(5),
                                o_pso=ctx.delay_ceiling + reg_term(5))
    assert res.avg_delay_cp == ctx.delay_ceiling  # construction sanity
    # end-to-end: labels pointing at out-of-range servers are always invalid


def test_depth_validation(small_dataset):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 3, seed=0)
    with pytest.raises(ValueError):
        swarm.fold_results(0, ds, ctx, folds, [])


# [DERIVED] the unique integer minimum of (h - 17)^2 on [2, 100] is 17.
def test_pso_finds_quadratic_minimum_all_seeds():
    for seed in range(30):
        params = PsoParams(seed=seed)
        h, trace = swarm.pso_minimize(lambda h: (h - 17) ** 2, 2, 100, params)
        assert h == 17
        assert trace.best_objective[-1] == 0.0


def test_pso_trace_non_increasing():
    for seed in range(10):
        params = PsoParams(seed=seed, iterations=25)
        _, trace = swarm.pso_minimize(lambda h: math.sin(h) * 50 + h, 2, 100, params)
        assert len(trace.best_objective) == 26
        for a, b in zip(trace.best_objective, trace.best_objective[1:]):
            assert b <= a


def test_pso_stays_in_bounds():
    seen = []

    def f(h):
        seen.append(h)
        return -h  # pushes toward the upper bound

    params = PsoParams(seed=3)
    h, _ = swarm.pso_minimize(f, 5, 40, params)
    assert h == 40
    assert all(5 <= s <= 40 for s in seen)


def test_pso_deterministic_per_seed():
    params = PsoParams(seed=9)
    f = lambda h: (h - 33) ** 2 + 0.1 * h
    a = swarm.pso_minimize(f, 2, 100, params)
    b = swarm.pso_minimize(f, 2, 100, params)
    assert a[0] == b[0]
    assert a[1].best_objective == b[1].best_objective
    assert a[1].best_h == b[1].best_h


def test_pso_memoizes_objective():
    calls = []

    def f(h):
        calls.append(h)
        return (h - 10) ** 2

    swarm.pso_minimize(f, 2, 100, PsoParams(seed=0))
    assert len(calls) == len(set(calls))


def test_params_validation():
    with pytest.raises(ValueError):
        PsoParams(swarm_size=1)
    with pytest.raises(ValueError):
        PsoParams(iterations=0)
    with pytest.raises(ValueError):
        PsoParams(inertia=0.0)
    with pytest.raises(ValueError):
        swarm.pso_minimize(abs, 10, 10, PsoParams())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), target=st.integers(2, 100))
def test_pso_near_optimal_on_unimodal_property(seed, target):
    params = PsoParams(seed=seed)
    h, _ = swarm.pso_minimize(lambda h: abs(h - target), 2, 100, params)
    assert abs(h - target) <= 2
