import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_avg_cp_delay, reference_cp_delay
from vnfplace import features, netmodel, pipeline, placer, swarm
from vnfplace import tree as tree_mod
from vnfplace.config import PsoParams
from vnfplace.netmodel import SfcSpec, chain_structure
from vnfplace.swarm import EvalContext, reg_term


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
    """A label row is the placement: entry k is the server of instance id k."""
    cfg, topos, sfcs, _ = small_batch
    topo, sfc = topos[0], sfcs[0]
    labels = [3, 1, 4, 1, 5, 9]
    assert sfc.n_instances == len(labels)
    _, paths = placer.delays([topo], [labels], sfc.counts)
    assert paths[0].tolist() == [reference_cp_delay(topo, labels, cp)
                                 for cp in chain_structure(sfc.counts).paths]


def test_make_context_ceiling_is_percentile(small_batch):
    _, topos, sfcs, placements = small_batch
    ctx = swarm.make_context(topos, sfcs, placements)
    delays = [reference_avg_cp_delay(t, p, s) for t, s, p in zip(topos, sfcs, placements)]
    assert ctx.delay_ceiling == pytest.approx(np.percentile(delays, 99), abs=0)


_delays = st.floats(1.0, 1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(_delays, min_size=1, max_size=300),
    # ties: every value drawn from a pool of a few
    st.lists(_delays, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)),
))
def test_percentile_99_equals_numpy_bit_for_bit(values):
    got, want = swarm.percentile_99(values), float(np.percentile(values, 99))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_context_alignment_enforced(small_batch):
    cfg, topos, sfcs, _ = small_batch
    with pytest.raises(ValueError):
        EvalContext(topos[:3], sfcs[:2], 100.0)


def test_array_records_compare_by_identity(small_dataset, small_batch):
    """``==`` on two equal topologies, datasets, contexts or trees is a bool:
    they compare by identity, never element-wise over their arrays."""
    ds, ctx = small_dataset
    cfg = small_batch[0]
    twins = [(netmodel.generate_topology(cfg, 0), netmodel.generate_topology(cfg, 0)),
             (ds, features.Dataset(ds.features, ds.labels, ds.feature_cols, ds.label_cols,
                                   ds.n_servers)),
             (ctx, EvalContext(ctx.topologies, ctx.sfcs, ctx.delay_ceiling)),
             (tree_mod.fit(ds.features, ds.labels), tree_mod.fit(ds.features, ds.labels))]
    for a, b in twins:
        assert (a == b) is False and (a == a) is True and (a != b) is True


def reference_fold_results(h, ds, ctx, folds):
    """Slow reference: each fold's tree truncated at h, every validation row
    validated by hand. Returns (invalid rate over all validation rows, mean
    over folds of mean valid delay + penalty)."""
    ips, objectives = [], []
    for train_idx, val_idx in folds.folds:
        t = tree_mod.fit(ds.features[train_idx], ds.labels[train_idx]).truncate(h)
        pred = t.predict(ds.features[val_idx])
        ip = 0
        delays = []
        for row, labels in zip(val_idx, pred):
            p = [int(s) for s in labels]
            if placer.validate_placement(ctx.topologies[row], ctx.sfcs[row], p).valid:
                delays.append(reference_avg_cp_delay(ctx.topologies[row], p, ctx.sfcs[row]))
            else:
                ip += 1
        avg = float(np.mean(delays)) if delays else ctx.delay_ceiling
        ips.append(ip)
        objectives.append(avg + reg_term(ip))
    return sum(ips) / sum(len(v) for _, v in folds.folds), float(np.mean(objectives))


def unbounded_fold_trees(ds, folds):
    return [tree_mod.fit(ds.features[train_idx], ds.labels[train_idx])
            for train_idx, _ in folds.folds]


def fold_predictions(ds, folds):
    """Per fold, its validation rows' predictions at every level of one walk
    of the fold's unbounded tree."""
    return [t.majority[t.descend(ds.features[val_idx])]
            for t, (_, val_idx) in zip(unbounded_fold_trees(ds, folds), folds.folds)]


def test_fold_results_against_manual_recompute(small_dataset):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 4, seed=0)
    preds = fold_predictions(ds, folds)
    deepest = max(len(levels) - 1 for levels in preds)
    for h in (1, 6, deepest + 3):  # past every fold tree: each reads its last level
        assert swarm.fold_results(h, ds, ctx, folds, preds) == \
            reference_fold_results(h, ds, ctx, folds)


def test_depth_table_matches_fresh_fits(small_dataset):
    """The table holds exactly the depths [lo, max(lo + 1, min(hi, D_max))],
    each what fresh fits truncated at depth h give, also when lo itself lies
    past the deepest fold tree, and when hi lies below it."""
    ds, ctx = small_dataset
    n = 48  # a slice keeps the fresh fits at every depth quick
    ds = features.Dataset(ds.features[:n], ds.labels[:n], ds.feature_cols, ds.label_cols,
                          ds.n_servers)
    ctx = EvalContext(ctx.topologies[:n], ctx.sfcs[:n], ctx.delay_ceiling)
    folds = features.kfold(ds, 3, seed=5)
    trees = unbounded_fold_trees(ds, folds)
    d_max = max(t.tree_depth() for t in trees)
    expected = {h: reference_fold_results(h, ds, ctx, folds) for h in range(2, d_max + 4)}
    for lo, hi, top in [(2, d_max + 5, d_max), (d_max + 2, d_max + 5, d_max + 3),
                        (2, d_max - 1, d_max - 1)]:
        table = pipeline.depth_table(ds, ctx, folds, trees, lo, hi)
        assert table == {h: expected[h] for h in range(lo, top + 1)}


def test_invalid_rate_bounds_and_decrease(small_dataset):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 5, seed=0)
    preds = fold_predictions(ds, folds)
    rates = [swarm.fold_results(h, ds, ctx, folds, preds)[0] for h in (1, 4, 10, 25)]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert rates[-1] <= rates[0]


def test_zero_valid_fold_uses_ceiling(small_dataset):
    """A fold whose every prediction is invalid scores the delay ceiling plus
    the penalty of its validation row count."""
    ds, ctx = small_dataset
    n = 40
    ds = features.Dataset(ds.features[:n], ds.labels[:n], ds.feature_cols, ds.label_cols,
                          ds.n_servers)
    # every instance demands more cpu than any server has: all placements fail
    heavy = [SfcSpec(s.counts, [1e9] * s.n_instances, s.mem_demand, s.tolerance)
             for s in ctx.sfcs[:n]]
    ctx = EvalContext(ctx.topologies[:n], heavy, ctx.delay_ceiling)
    folds = features.kfold(ds, 4, seed=0)
    for fold, levels in zip(folds.folds, fold_predictions(ds, folds)):
        one = features.FoldSplit(folds=[fold])
        assert swarm.fold_results(8, ds, ctx, one, [levels]) == (
            1.0, ctx.delay_ceiling + reg_term(len(fold[1])))


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
        assert trace["best_objective"][-1] == 0.0


def test_pso_trace_non_increasing():
    for seed in range(10):
        params = PsoParams(seed=seed, iterations=25)
        _, trace = swarm.pso_minimize(lambda h: math.sin(h) * 50 + h, 2, 100, params)
        assert len(trace["best_objective"]) == 26
        for a, b in zip(trace["best_objective"], trace["best_objective"][1:]):
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
    assert a == b


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


# PSO does not promise the optimum: on |h - target| it misses by more than 2
# on about one draw in a thousand (seed 531, target 5 returns 2). Stage 1 grades
# its depth by regret against the exact curve; what PSO does promise is below.
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), target=st.integers(2, 100))
def test_pso_returns_best_evaluated_depth_property(seed, target):
    calls = {}

    def f(h):
        calls[h] = abs(h - target)
        return calls[h]

    h, trace = swarm.pso_minimize(f, 2, 100, PsoParams(seed=seed))
    assert 2 <= h <= 100 and all(2 <= d <= 100 for d in calls)
    assert calls[h] == min(calls.values())
    best = trace["best_objective"]
    assert all(b <= a for a, b in zip(best, best[1:]))
    assert best[-1] == calls[h] and trace["best_h"][-1] == h
