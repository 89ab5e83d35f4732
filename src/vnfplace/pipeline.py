"""Three-stage depth optimization.

Every stage reads one per-depth table of cross-validation fold results.
Each fold tree is fitted once with a depth bound that never binds, and its
depth-h predictions are traversals truncated at h, which equal those of a
fresh depth-h fit. A fold tree stops changing beyond its natural depth, so
the table is computed once per depth from the lower search bound up to the
deepest fold tree (or the upper bound, if that is lower), and every deeper
depth reads that last entry.

Stage 1 runs PSO over the initial depth bounds for the depth minimizing
invalid predictions and reads the per-depth invalid-rate curve over the same
bounds. Stage 2 detects the functional range (below-threshold plus steady
state) and picks the depth minimizing the full delay-plus-penalty objective
over it, with a plateau rule preferring the smallest depth within a relative
epsilon of the minimum. Stage 3 fits the full training set once, unbounded;
the final model is its truncation at that depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tree as tree_mod
from .features import Dataset, FoldSplit
from .netmodel import config_to_json, save_json
from .swarm import (
    EvalContext,
    ObjectiveResult,
    PsoParams,
    PsoTrace,
    fold_results,
    invalid_rate,
    objective_full,
    objective_invalid_only,
    pso_minimize,
)


class RangeNotFound(Exception):
    """No depth reaches an invalid rate at or below the error threshold."""


@dataclass(frozen=True)
class FunctionalRange:
    a1: int
    a2: int

    def __post_init__(self):
        if self.a1 > self.a2:
            raise ValueError("functional range requires a1 <= a2")


@dataclass(frozen=True)
class PipelineSettings:
    error_threshold: float = 0.075
    steady_window: int = 10
    plateau_epsilon: float = 0.001
    initial_bounds: tuple[int, int] = (2, 100)

    def __post_init__(self):
        if not (0 < self.error_threshold <= 1):
            raise ValueError("error_threshold must be in (0, 1]")
        if self.steady_window < 1:
            raise ValueError("steady_window must be >= 1")
        if self.plateau_epsilon < 0:
            raise ValueError("plateau_epsilon must be >= 0")
        lo, hi = self.initial_bounds
        if not (1 <= lo < hi):
            raise ValueError("initial_bounds require 1 <= lo < hi")


def fit_unbounded(ds: Dataset) -> tree_mod.DecisionTree:
    """Fit with max_depth set to the row count, a bound that never binds:
    every split leaves rows on both sides, so n rows grow at most n - 1 deep."""
    return tree_mod.fit(ds.features, ds.labels, ds.n_samples)


def depth_table(ds: Dataset, ctx: EvalContext, folds: FoldSplit,
                trees: list[tree_mod.DecisionTree], lo: int, hi: int
                ) -> dict[int, list[ObjectiveResult]]:
    """Fold results for every depth in [lo, hi] from one unbounded tree per
    fold, computing each distinct result once: every depth beyond the deepest
    fold tree shares that depth's entry."""
    top = min(max(max(t.tree_depth() for t in trees), lo), hi)
    computed = {h: fold_results(h, ds, ctx, folds, trees) for h in range(lo, top + 1)}
    return {h: computed[min(h, top)] for h in range(lo, hi + 1)}


@dataclass
class Stage1Result:
    curve: dict[int, float]  # depth -> invalid rate over all validation rows
    trace: PsoTrace
    best_h: int
    best_rate: float


def stage1(table: dict[int, list[ObjectiveResult]], folds: FoldSplit,
           pso_params: PsoParams) -> Stage1Result:
    """Invalid-minimizing PSO over the table's depth interval, plus the
    invalid-rate curve over that interval."""
    curve = {h: invalid_rate(res, folds) for h, res in table.items()}
    best_h, trace = pso_minimize(lambda h: objective_invalid_only(table[h]),
                                 min(table), max(table), pso_params)
    return Stage1Result(curve=curve, trace=trace, best_h=best_h,
                        best_rate=curve[best_h])


def detect_functional_range(curve: dict[int, float], threshold: float,
                            steady_window: int) -> FunctionalRange:
    """Find [a1, a2]: a1 = first depth at or below the threshold; a2 = the
    first depth from a1 on that the curve never improves upon for
    steady_window consecutive depths, plus the window (clamped to the curve).
    """
    depths = sorted(curve)
    if depths != list(range(depths[0], depths[-1] + 1)):
        raise ValueError("curve must cover a contiguous integer interval")
    a1 = next((d for d in depths if curve[d] <= threshold), None)
    if a1 is None:
        best = min(curve.values())
        raise RangeNotFound(
            f"invalid rate never reached {threshold:.3f} at depths "
            f"{depths[0]}-{depths[-1]}: minimum {best:.3f}, first at depth "
            f"{next(d for d in depths if curve[d] == best)}"
        )
    last = depths[-1]
    steady = None
    for d in range(a1, last + 1):
        window = [curve[j] for j in range(d + 1, min(d + steady_window, last) + 1)]
        if all(v >= curve[d] - 1e-12 for v in window):
            steady = d
            break
    if steady is None:
        steady = last
    a2 = min(steady + steady_window, last)
    return FunctionalRange(a1=a1, a2=max(a1, a2))


@dataclass
class Stage2Result:
    h_star: int
    curve: dict[int, float]  # depth -> full objective


def stage2(frange: FunctionalRange, table: dict[int, list[ObjectiveResult]],
           settings: PipelineSettings) -> Stage2Result:
    """Pick the optimal depth inside the functional range under the full
    objective; the range is small, so every depth in it is evaluated."""
    curve = {h: objective_full(table[h]) for h in range(frange.a1, frange.a2 + 1)}
    best = min(curve.values())
    # plateau rule: the objective flattens once extra depth stops changing the
    # fitted trees, so prefer the start of the trailing plateau (every depth
    # from there on within the relative epsilon of the minimum); when the
    # curve rises again at the end, fall back to the plain argmin.
    cutoff = best + abs(best) * settings.plateau_epsilon
    depths = sorted(curve)
    h_star = None
    for d in reversed(depths):
        if curve[d] <= cutoff:
            h_star = d
        else:
            break
    if h_star is None:
        h_star = next(h for h in depths if curve[h] == best)
    return Stage2Result(h_star=h_star, curve=curve)


def stage3_build(ds: Dataset, h_star: int
                 ) -> tuple[tree_mod.DecisionTree, tree_mod.DecisionTree]:
    """Fit the full training set once, unbounded; return its truncation at
    h_star (the final model) and the unbounded tree, which any other depth
    truncates."""
    full = fit_unbounded(ds)
    return full.truncate(h_star), full


@dataclass
class PipelineReport:
    settings: PipelineSettings
    stage1: Stage1Result
    fold_depths: list[int]  # natural depth of each fold tree
    functional_range: FunctionalRange
    stage2: Stage2Result
    h_star: int
    model_depth: int
    model_nodes: int
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "settings": config_to_json(self.settings),
            "stage1": {
                "curve": {str(k): v for k, v in sorted(self.stage1.curve.items())},
                "fold_depths": self.fold_depths,
                "best_h": self.stage1.best_h,
                "best_rate": self.stage1.best_rate,
                "trace": {
                    "best_h": self.stage1.trace.best_h,
                    "best_objective": self.stage1.trace.best_objective,
                },
            },
            "functional_range": [self.functional_range.a1, self.functional_range.a2],
            "stage2": {
                "curve": {str(k): v for k, v in sorted(self.stage2.curve.items())},
            },
            "h_star": self.h_star,
            "model_depth": self.model_depth,
            "model_nodes": self.model_nodes,
            "config_echo": self.config_echo,
        }


def run_pipeline(ds: Dataset, ctx: EvalContext, folds: FoldSplit,
                 pso_params: PsoParams, settings: PipelineSettings,
                 config_echo: dict | None = None
                 ) -> tuple[PipelineReport, tree_mod.DecisionTree, tree_mod.DecisionTree]:
    """Run the three stages; return the report, the final model and the
    unbounded full-training-set tree it truncates."""
    trees = [fit_unbounded(ds.subset(train_idx)) for train_idx, _ in folds.folds]
    table = depth_table(ds, ctx, folds, trees, *settings.initial_bounds)
    s1 = stage1(table, folds, pso_params)
    frange = detect_functional_range(s1.curve, settings.error_threshold,
                                     settings.steady_window)
    s2 = stage2(frange, table, settings)
    model, full = stage3_build(ds, s2.h_star)
    report = PipelineReport(
        settings=settings,
        stage1=s1,
        fold_depths=[t.tree_depth() for t in trees],
        functional_range=frange,
        stage2=s2,
        h_star=s2.h_star,
        model_depth=model.tree_depth(),
        model_nodes=model.node_count(),
        config_echo=config_echo or {},
    )
    return report, model, full


def save_report(report: PipelineReport, path):
    save_json(report.to_json(), path)
