import json

import numpy as np
import pytest

from conftest import line_topology, simple_sfc
from vnfplace import features, pipeline, swarm, tree
from vnfplace.pipeline import (
    FunctionalRange,
    PipelineSettings,
    RangeNotFound,
    detect_functional_range,
    stage2,
)
from vnfplace.swarm import ObjectiveResult, PsoParams


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
    fr = detect_functional_range(reference_curve(), 0.075, 10)
    assert (fr.a1, fr.a2) == (20, 35)


def test_threshold_is_inclusive():
    curve = {d: (0.075 if d >= 10 else 0.5) for d in range(2, 40)}
    fr = detect_functional_range(curve, 0.075, 10)
    assert fr.a1 == 10


def test_range_clamped_to_curve_end():
    curve = {d: 0.0 for d in range(2, 12)}
    fr = detect_functional_range(curve, 0.075, 10)
    assert (fr.a1, fr.a2) == (2, 11)


def test_steady_requires_no_improvement_in_window():
    # rate keeps improving by a step every 5 depths until 60, then flat
    curve = {}
    for d in range(2, 81):
        if d < 60:
            curve[d] = max(0.0, 0.07 - 0.001 * ((d - 2) // 5))
        else:
            curve[d] = 0.0
    fr = detect_functional_range(curve, 0.075, 10)
    assert fr.a1 == 2
    # improvements recur within every 10-depth window until the curve
    # bottoms out, so the steady point is the first depth of the final flat
    first_flat = min(d for d in curve if curve[d] == 0.0)
    assert fr.a2 == min(first_flat + 10, 80)


def test_range_not_found():
    curve = {d: 0.2 for d in range(2, 30)}
    curve[7] = curve[9] = 0.1
    with pytest.raises(RangeNotFound,
                       match="never reached 0.075 .*minimum 0.100, first at depth 7"):
        detect_functional_range(curve, 0.075, 10)


def test_curve_must_be_contiguous():
    with pytest.raises(ValueError, match="contiguous"):
        detect_functional_range({2: 0.0, 4: 0.0}, 0.075, 10)


def test_functional_range_validation():
    with pytest.raises(ValueError):
        FunctionalRange(a1=5, a2=3)


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
    """Run stage2 against a hand-written objective curve: one fold per depth
    whose objective is the curve value."""

    def __init__(self, curve):
        self.curve = curve

    def run(self, settings):
        frange = FunctionalRange(min(self.curve), max(self.curve))
        table = {h: [ObjectiveResult(avg_delay_cp=v, ip=0, reg_term=0.0, o_pso=v)]
                 for h, v in self.curve.items()}
        return stage2(frange, table, settings)


# [DERIVED] plateau rule by hand: curve flat at 100.0 from depth 29 onward,
# strictly above 100.1 before; trailing depths within 0.1% of the minimum
# start at 29, so h* = 29.
def test_stage2_plateau_picks_start_of_trailing_plateau():
    curve = {d: (100.0 if d >= 29 else 200.0 - 3.0 * (d - 20)) for d in range(20, 36)}
    res = _CurveStage2(curve).run(PipelineSettings())
    assert res.h_star == 29
    assert res.curve == curve


def test_stage2_convex_curve_falls_back_to_argmin():
    # objective dips at 27 then rises again: no trailing plateau near the min
    curve = {d: 100.0 + (d - 27) ** 2 for d in range(20, 36)}
    res = _CurveStage2(curve).run(PipelineSettings())
    assert res.h_star == 27


def test_stage2_epsilon_widens_plateau():
    curve = {20: 150.0, 21: 100.4, 22: 100.2, 23: 100.0}
    res = _CurveStage2(curve).run(PipelineSettings(plateau_epsilon=0.005))
    assert res.h_star == 21
    res_tight = _CurveStage2(curve).run(PipelineSettings(plateau_epsilon=0.0))
    assert res_tight.h_star == 23


def _hopeless_problem():
    """Rows whose demands exceed every capacity: no placement is ever valid."""
    topo = line_topology([10.0, 10.0, 10.0, 10.0, 10.0])
    sfc = simple_sfc(cpu=1000.0)
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(12):
        X = features.extract_features(topo, sfc)
        rows.append(X + rng.normal(0, 1e-6, X.size))
    Xm = np.array(rows)
    Y = rng.integers(0, 6, size=(12, 4))
    ds = features.Dataset(Xm, Y.astype(int),
                          features.feature_names(6, 4),
                          [f"label_inst{i}" for i in range(4)], 6)
    ctx = swarm.make_context([topo] * 12, [sfc] * 12, [50.0] * 12)
    return ds, ctx


def test_stage1_raises_when_threshold_unreachable():
    ds, ctx = _hopeless_problem()
    folds = features.kfold(ds, 3, seed=0)
    settings = PipelineSettings(initial_bounds=(2, 40))
    with pytest.raises(RangeNotFound,
                       match="never reached 0.075 .*minimum 1.000, first at depth 2"):
        pipeline.run_pipeline(ds, ctx, folds, PsoParams(seed=0, iterations=3),
                              settings)


def test_full_pipeline_on_small_batch(small_dataset, tmp_path):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 5, seed=0)
    settings = PipelineSettings()
    report, model, _ = pipeline.run_pipeline(
        ds, ctx, folds, PsoParams(seed=7), settings, config_echo={"note": "test"}
    )
    fr = report.functional_range
    lo, hi = settings.initial_bounds
    assert lo <= fr.a1 <= fr.a2 <= hi
    assert set(report.stage1.curve) == set(range(lo, hi + 1))
    assert len(report.fold_depths) == 5
    assert model.to_json() == tree.fit(ds.features, ds.labels, report.h_star).to_json()
    assert fr.a1 <= report.h_star <= fr.a2
    assert report.stage1.curve[fr.a1] <= settings.error_threshold
    assert set(report.stage2.curve) == set(range(fr.a1, fr.a2 + 1))
    assert model.tree_depth() <= report.h_star
    assert report.model_depth == model.tree_depth()
    assert report.model_nodes == model.node_count()
    # report serialization round-trips through JSON
    path = tmp_path / "report.json"
    pipeline.save_report(report, path)
    doc = json.loads(path.read_text())
    assert doc["functional_range"] == [fr.a1, fr.a2]
    assert doc["h_star"] == report.h_star
    assert doc["config_echo"] == {"note": "test"}
    assert path.read_text().endswith("\n")


def test_pipeline_deterministic(small_dataset):
    ds, ctx = small_dataset
    folds = features.kfold(ds, 5, seed=0)
    r1, m1, _ = pipeline.run_pipeline(ds, ctx, folds, PsoParams(seed=7),
                                      PipelineSettings())
    r2, m2, _ = pipeline.run_pipeline(ds, ctx, folds, PsoParams(seed=7),
                                      PipelineSettings())
    assert r1.to_json() == r2.to_json()
    assert m1.to_json() == m2.to_json()
