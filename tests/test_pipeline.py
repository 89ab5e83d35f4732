import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from conftest import line_topology, simple_sfc
from vnfplace import features, pipeline, swarm, tree
from vnfplace.config import PipelineSettings, PsoParams
from vnfplace.netmodel import PipelineError
from vnfplace.pipeline import detect_functional_range, stage2


def reference_curve():
    """Invalid-rate curve over [2, 100] with the canonical shape: steep
    decline, first at-threshold depth 20, flat zero from depth 25 on.

    [DERIVED] by hand from the detection rule: a1 = 20 (first rate <= 0.075),
    the first depth whose next 10 rates never improve on it is 25 (rate 0),
    so a2 = 25 + 10 = 35.
    """
    curve = {}
    for d in range(2, 101):
        if d < 20:
            curve[d] = max(0.076, 1.0 - 0.05 * (d - 2))
        elif d < 25:
            curve[d] = 0.075 - 0.015 * (d - 20)
        else:
            curve[d] = 0.0
    return curve


def test_functional_range_on_reference_curve():
    assert detect_functional_range(reference_curve(), 0.075, 10) == (20, 35)


def test_threshold_is_inclusive():
    curve = {d: (0.075 if d >= 10 else 0.5) for d in range(2, 40)}
    a1, _ = detect_functional_range(curve, 0.075, 10)
    assert a1 == 10


def test_range_clamped_to_curve_end():
    curve = {d: 0.0 for d in range(2, 12)}
    assert detect_functional_range(curve, 0.075, 10) == (2, 11)


def test_steady_requires_no_improvement_in_window():
    # rate keeps improving by a step every 5 depths until 60, then flat
    curve = {}
    for d in range(2, 81):
        if d < 60:
            curve[d] = max(0.0, 0.07 - 0.001 * ((d - 2) // 5))
        else:
            curve[d] = 0.0
    a1, a2 = detect_functional_range(curve, 0.075, 10)
    assert a1 == 2
    # improvements recur within every 10-depth window until the curve
    # bottoms out, so the steady point is the first depth of the final flat
    first_flat = min(d for d in curve if curve[d] == 0.0)
    assert a2 == min(first_flat + 10, 80)


def test_range_not_found():
    curve = {d: 0.2 for d in range(2, 30)}
    curve[7] = curve[9] = 0.1
    with pytest.raises(PipelineError,
                       match="never reached 0.075 .*minimum 0.100, first at depth 7"):
        detect_functional_range(curve, 0.075, 10)


def test_curve_must_be_contiguous():
    with pytest.raises(ValueError, match="contiguous"):
        detect_functional_range({2: 0.0, 4: 0.0}, 0.075, 10)


def test_settings_validation():
    with pytest.raises(ValueError):
        PipelineSettings(error_threshold=1.5)
    with pytest.raises(ValueError):
        PipelineSettings(error_threshold=0.0)
    with pytest.raises(ValueError):
        PipelineSettings(steady_window=0)
    with pytest.raises(ValueError):
        PipelineSettings(initial_bounds=(100, 100))
    with pytest.raises(ValueError):
        PipelineSettings(initial_bounds=(0, 100))


class _CurveStage2:
    """Run stage2 against a hand-written objective curve over its whole range."""

    def __init__(self, curve):
        self.curve = curve

    def run(self, settings):
        return stage2((min(self.curve), max(self.curve)), self.curve, settings)


# [DERIVED] plateau rule by hand: curve flat at 100.0 from depth 29 onward,
# strictly above 100.1 before; trailing depths within 0.1% of the minimum
# start at 29, so h* = 29.
def test_stage2_plateau_picks_start_of_trailing_plateau():
    curve = {d: (100.0 if d >= 29 else 200.0 - 3.0 * (d - 20)) for d in range(20, 36)}
    assert _CurveStage2(curve).run(PipelineSettings()) == (29, curve)


def test_stage2_convex_curve_falls_back_to_argmin():
    # objective dips at 27 then rises again: no trailing plateau near the min
    curve = {d: 100.0 + (d - 27) ** 2 for d in range(20, 36)}
    h_star, _ = _CurveStage2(curve).run(PipelineSettings())
    assert h_star == 27


def test_stage2_epsilon_widens_plateau():
    curve = {20: 150.0, 21: 100.4, 22: 100.2, 23: 100.0}
    h_star, _ = _CurveStage2(curve).run(PipelineSettings(plateau_epsilon=0.005))
    assert h_star == 21
    h_tight, _ = _CurveStage2(curve).run(PipelineSettings(plateau_epsilon=0.0))
    assert h_tight == 23


def _hopeless_problem():
    """Rows whose demands exceed every capacity: no placement is ever valid."""
    topo = line_topology([10.0, 10.0, 10.0, 10.0, 10.0])
    sfc = simple_sfc(cpu=1000.0)
    rng = np.random.default_rng(0)
    X = features.feature_matrix([topo], [sfc])[0]
    Xm = np.array([X + rng.normal(0, 1e-6, X.size) for _ in range(12)])
    Y = rng.integers(0, 6, size=(12, 4))
    ds = features.Dataset(Xm, Y.astype(int),
                          features.feature_names(6, 4),
                          [f"label_inst{i}" for i in range(4)], 6)
    ctx = swarm.make_context([topo] * 12, [sfc] * 12, Y.tolist())
    return ds, ctx


def test_stage1_raises_when_threshold_unreachable():
    ds, ctx = _hopeless_problem()
    folds = features.kfold(ds, 3, seed=0)
    settings = PipelineSettings(initial_bounds=(2, 40))
    with pytest.raises(PipelineError,
                       match="never reached 0.075 .*minimum 1.000, first at depth 2"):
        pipeline.run_pipeline(ds, ctx, folds, PsoParams(seed=0, iterations=3),
                              settings)


def test_full_pipeline_on_small_batch(small_dataset):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 5, seed=0)
    settings = PipelineSettings()
    report, model, _ = pipeline.run_pipeline(
        ds, ctx, folds, PsoParams(seed=7), settings, config_echo={"note": "test"}
    )
    trees = [tree.fit(ds.features[t], ds.labels[t]) for t, _ in folds.folds]
    table = pipeline.depth_table(ds, ctx, folds, trees, *settings.initial_bounds)
    a1, a2 = report["functional_range"]
    lo, hi = settings.initial_bounds
    top = max(lo + 1, min(hi, max(t.tree_depth() for t in trees)))
    assert lo <= a1 <= a2 <= top
    curve = report["stage1"]["curve"]
    assert set(curve) == {str(h) for h in range(lo, top + 1)} == {str(h) for h in table}
    assert lo <= report["stage1"]["best_h"] <= top
    assert report["stage1"]["fold_depths"] == [t.tree_depth() for t in trees]
    h_star = report["h_star"]
    assert model.to_json() == tree.fit(ds.features, ds.labels).truncate(h_star).to_json()
    assert a1 <= h_star <= a2
    assert curve[str(a1)] <= settings.error_threshold
    assert report["stage2"]["curve"] == {str(h): table[h][1] for h in range(a1, a2 + 1)}
    assert model.tree_depth() <= h_star
    assert report["model_depth"] == model.tree_depth()
    assert report["model_nodes"] == model.node_count()
    assert report["config_echo"] == {"note": "test"}


def test_pipeline_deterministic(small_dataset):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 5, seed=0)
    r1, m1, _ = pipeline.run_pipeline(ds, ctx, folds, PsoParams(seed=7),
                                      PipelineSettings())
    r2, m2, _ = pipeline.run_pipeline(ds, ctx, folds, PsoParams(seed=7),
                                      PipelineSettings())
    assert r1 == r2
    assert m1.to_json() == m2.to_json()


def test_stage1_pso_graded_by_the_exact_objective_curve(small_dataset):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 5, seed=0)
    trees = [tree.fit(ds.features[t], ds.labels[t]) for t, _ in folds.folds]
    table = pipeline.depth_table(ds, ctx, folds, trees, 2, 40)
    curve, objective, best_h, regret, trace = pipeline.stage1(table, PsoParams(seed=7))
    exact = {h: obj for h, (_, obj) in table.items()}
    assert objective == exact
    assert curve == {h: rate for h, (rate, _) in table.items()}
    assert regret == 0.0 and exact[best_h] == min(exact.values())
    assert trace["best_h"][-1] == best_h


def test_stage1_regret_of_a_missed_minimum():
    # objective 100 + h except 0 at depth 37: a swarm of two moved once
    # evaluates at most four depths; with seed 0 it misses 37 and ends at 25
    table = {h: (0.0, 0.0 if h == 37 else 100.0 + h) for h in range(2, 101)}
    _, _, best_h, regret, _ = pipeline.stage1(
        table, PsoParams(swarm_size=2, iterations=1, seed=0))
    assert (best_h, regret) == (25, 125.0)


@pytest.mark.parametrize("bounds", [(2, 100), (2, 5), (60, 100)])
def test_report_counts_the_distinct_depths_evaluated(small_dataset, monkeypatch, bounds):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 5, seed=0)
    depths = []

    def counted(h, *args):
        depths.append(h)
        return swarm.fold_results(h, *args)

    monkeypatch.setattr(pipeline, "fold_results", counted)
    settings = PipelineSettings(error_threshold=1.0, initial_bounds=bounds)
    report, _, _ = pipeline.run_pipeline(ds, ctx, folds, PsoParams(seed=7), settings)
    lo, hi = bounds
    expected = max(lo + 1, min(hi, max(report["stage1"]["fold_depths"]))) - lo + 1
    assert report["stage1"]["distinct_depths"] == expected == len(set(depths))
    assert sorted(depths) == list(range(lo, lo + expected))
    assert sorted(report["stage1"]["curve"], key=int) == [str(h) for h in sorted(depths)]
    assert len(depths) == len(set(depths))


def _depth_choice(table, settings):
    """a1 and h* of a depth table, or the PipelineError's message."""
    curve = {h: rate for h, (rate, _) in table.items()}
    try:
        frange = detect_functional_range(curve, settings.error_threshold,
                                         settings.steady_window)
    except PipelineError as e:
        return str(e).split(" at depths")[0]
    h_star, _ = stage2(frange, {h: obj for h, (_, obj) in table.items()}, settings)
    return frange[0], h_star


@hsettings(max_examples=300, deadline=None)
@given(lo=st.integers(1, 6), span=st.integers(1, 30), deepest=st.integers(0, 40),
       window=st.integers(1, 12), data=st.data())
def test_clamped_table_picks_the_depth_of_the_padded_one_property(lo, span, deepest,
                                                                  window, data):
    """A table that stops at the deepest fold tree (at least two depths), as
    ``depth_table``'s does, and the same table padded to the upper bound with
    copies of its last entry give the same a1 and h*, or fail alike. Rates
    and objectives come from few values, so ties, plateaus and never-reached
    thresholds all occur."""
    hi = lo + span
    last = max(lo, min(hi, deepest))  # the deepest depth whose entry can differ
    entries = data.draw(st.lists(
        st.tuples(st.sampled_from([0.0, 0.05, 0.075, 0.1, 0.5]),
                  st.sampled_from([100.0, 100.05, 101.0, 150.0, 2000.0])),
        min_size=last - lo + 1, max_size=last - lo + 1))
    entry = {h: entries[min(h, last) - lo] for h in range(lo, hi + 1)}
    clamped = {h: entry[h] for h in range(lo, max(lo + 1, last) + 1)}
    settings = PipelineSettings(steady_window=window, initial_bounds=(lo, hi))
    assert _depth_choice(clamped, settings) == _depth_choice(entry, settings)
