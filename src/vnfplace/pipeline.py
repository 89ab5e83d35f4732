"""Three-stage depth optimization.

Every stage reads one per-depth table of cross-validated (invalid rate,
objective) pairs. Each fold tree is fitted once, unbounded, and walked once
over its fold's validation rows; the walk's level h holds the depth-h
predictions, those of its truncation at h, which is the depth-h fit. A
fold tree stops changing beyond its natural depth, so the whole table is
constant beyond the deepest fold tree, and it holds only the depths from
the lower search bound up to that tree's depth (or the upper bound, if that
is lower; at least two depths, the interval PSO needs).

Stage 1 reads the per-depth invalid-rate and full delay-plus-penalty
objective curves over the table's depths, and runs PSO on that objective
over the same interval; the exact curve grades PSO's depth by its regret,
the objective there minus the curve's minimum. Stage 2 detects the
functional range (below-threshold plus steady state) from the invalid-rate
curve and picks the depth minimizing the objective over it, with a plateau
rule preferring the smallest depth within a relative epsilon of the minimum.
Stage 3 fits the full training set once, unbounded; the final model is its
truncation at that depth. ``run_pipeline`` assembles each stage's results
as the ``pipeline_report.json`` document itself.
"""

from __future__ import annotations

from . import tree as tree_mod
from .config import PipelineSettings, PsoParams
from .features import FoldSplit
from .netmodel import PipelineError
from .swarm import EvalContext, fold_results, pso_minimize


def depth_table(X, ctx: EvalContext, folds: FoldSplit,
                trees: list[tree_mod.DecisionTree], lo: int, hi: int
                ) -> dict[int, tuple[float, float]]:
    """(invalid rate, objective) for every depth in [lo, max(lo + 1, min(hi,
    deepest fold tree))] from one walk of each fold's unbounded tree over that
    fold's validation rows. Every depth in [lo, hi] beyond that interval would
    read its last entry."""
    preds = [t.majority[t.descend(X[val_idx])]
             for t, (_, val_idx) in zip(trees, folds.folds, strict=True)]
    top = max(lo + 1, min(hi, max(t.tree_depth() for t in trees)))
    return {h: fold_results(h, ctx, folds, preds) for h in range(lo, top + 1)}


def stage1(table: dict[int, tuple[float, float]], pso_params: PsoParams
           ) -> tuple[dict[int, float], dict[int, float], int, float, dict]:
    """The invalid-rate and full-objective curves over the table's depth
    interval, and PSO on that objective over the interval, graded by it.

    Returns the invalid-rate and objective curves by depth, PSO's best depth,
    its regret (the objective there minus its minimum over the interval) and
    its trace.
    """
    curve = {h: rate for h, (rate, _) in table.items()}
    objective = {h: obj for h, (_, obj) in table.items()}
    best_h, trace = pso_minimize(objective.__getitem__, min(table), max(table),
                                 pso_params)
    return curve, objective, best_h, objective[best_h] - min(objective.values()), trace


def detect_functional_range(curve: dict[int, float], threshold: float,
                            steady_window: int) -> tuple[int, int]:
    """Find [a1, a2]: a1 = first depth at or below the threshold; a2 = the
    first depth from a1 on that the curve never improves upon for
    steady_window consecutive depths, plus the window (clamped to the curve).
    The last depth's window is empty, so the search stops there at the
    latest, and a2 needs no clamp to a1: the steady depth and the last depth
    are both >= a1, and steady_window >= 1 (``PipelineSettings`` enforces
    it). A curve that never reaches the threshold raises PipelineError.
    """
    depths = sorted(curve)
    if depths != list(range(depths[0], depths[-1] + 1)):
        raise ValueError("curve must cover a contiguous integer interval")
    a1 = next((d for d in depths if curve[d] <= threshold), None)
    if a1 is None:
        best = min(curve.values())
        raise PipelineError(
            f"invalid rate never reached {threshold:.3f} at depths "
            f"{depths[0]}-{depths[-1]}: minimum {best:.3f}, first at depth "
            f"{next(d for d in depths if curve[d] == best)}"
        )
    last = depths[-1]
    steady = next(d for d in range(a1, last + 1)
                  if all(curve[j] >= curve[d] - 1e-12
                         for j in range(d + 1, min(d + steady_window, last) + 1)))
    return a1, min(steady + steady_window, last)


def stage2(frange: tuple[int, int], objective: dict[int, float],
           settings: PipelineSettings) -> tuple[int, dict[int, float]]:
    """Pick the optimal depth inside the functional range [a1, a2] from the
    full objective curve over it; returns (h_star, that curve)."""
    a1, a2 = frange
    curve = {h: objective[h] for h in range(a1, a2 + 1)}
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
    return h_star, curve


def stage3_build(X, Y, h_star: int) -> tuple[tree_mod.DecisionTree, tree_mod.DecisionTree]:
    """Fit the full training set once, unbounded; return its truncation at
    h_star (the final model) and the unbounded tree, which any other depth
    truncates."""
    full = tree_mod.fit(X, Y)
    return full.truncate(h_star), full


def _by_depth(curve: dict[int, float]) -> dict[str, float]:
    """A depth-keyed curve as a JSON object. ``save_json`` sorts keys, and the
    artifact's depths sort as strings ("10" before "2"), not as ints."""
    return {str(h): v for h, v in curve.items()}


def run_pipeline(X, Y, ctx: EvalContext, folds: FoldSplit,
                 pso_params: PsoParams, settings: PipelineSettings,
                 config_echo: dict | None = None
                 ) -> tuple[dict, tree_mod.DecisionTree, tree_mod.DecisionTree]:
    """Run the three stages on the training rows' features X and labels Y;
    return the ``pipeline_report.json`` document, the final model and the
    unbounded full-training-set tree it truncates."""
    trees = [tree_mod.fit(X[train_idx], Y[train_idx]) for train_idx, _ in folds.folds]
    table = depth_table(X, ctx, folds, trees, *settings.initial_bounds)
    curve, objective, best_h, regret, trace = stage1(table, pso_params)
    frange = detect_functional_range(curve, settings.error_threshold,
                                     settings.steady_window)
    h_star, s2_curve = stage2(frange, objective, settings)
    model, full = stage3_build(X, Y, h_star)
    report = {
        "stage1": {
            "curve": _by_depth(curve),
            "best_h": best_h,
            "regret": regret,
            "trace": trace,
            "fold_depths": [t.tree_depth() for t in trees],
            "distinct_depths": len(table),
        },
        "functional_range": list(frange),
        "stage2": {"curve": _by_depth(s2_curve)},
        "h_star": h_star,
        "model_depth": model.tree_depth(),
        "model_nodes": model.node_count(),
        "config_echo": config_echo or {},
    }
    return report, model, full
