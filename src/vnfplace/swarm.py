"""Integer-domain particle swarm optimizer and the placement-quality objective.

The objective for a candidate max depth h is, per cross-validation fold:
take the depth-h prediction of every validation row from the fold tree's
one walk, score the fold's predicted placements in one ``placer.score``
call (each validated against its own topology), and combine the mean
``avg_cp_delay`` of the valid predictions with a logarithmic penalty of
1000 * log2(ip + 1) on the invalid count. The reported value is
the mean over folds, next to the invalid rate over all validation rows. A
fold with zero valid predictions contributes a data-scaled delay ceiling
instead of an undefined mean: the 99th percentile, over the training rows,
of the mean path delay of each row's teacher placement.
"""

from __future__ import annotations

import math

import numpy as np

from .config import PsoParams
from .features import FoldSplit
from .netmodel import SfcSpec, Topology
from .placer import avg_cp_delay, delays, score


def reg_term(ip: int) -> float:
    """Invalid-placement penalty: 1000 * log2(ip + 1)."""
    if ip < 0:
        raise ValueError("invalid-placement count must be >= 0")
    return 1000.0 * math.log2(ip + 1)


class EvalContext:
    """Per-row topologies and chain specs aligned with the dataset rows, plus
    the delay ceiling used when a fold has no valid prediction."""

    __slots__ = ("topologies", "sfcs", "delay_ceiling")

    def __init__(self, topologies: list[Topology], sfcs: list[SfcSpec], delay_ceiling: float):
        self.topologies, self.sfcs, self.delay_ceiling = topologies, sfcs, delay_ceiling
        if len(topologies) != len(sfcs):
            raise ValueError("topologies and sfcs must align")


def percentile_99(values) -> float:
    """``float(np.percentile(values, 99))`` bit for bit, without the
    ``numpy.ma`` import that ``np.percentile`` makes on its first call: the
    same linear interpolation between the order statistics around
    (n - 1) * 0.99, in numpy's operation order."""
    x = np.sort(np.asarray(values, dtype=float)).tolist()
    v = (len(x) - 1) * 0.99
    i = int(v)  # no values: IndexError below, as numpy's
    lo, hi, t = x[i], x[min(i + 1, len(x) - 1)], v - i
    return hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t


def make_context(topologies, sfcs, labels) -> EvalContext:
    """The context of dataset rows, given each row's topology, chain and
    label placement (the teacher's, which ``generate`` validated): the delay
    ceiling is the 99th percentile of the placements' ``avg_cp_delay``."""
    topologies, sfcs = list(topologies), list(sfcs)
    _, paths = delays(topologies, labels, sfcs[0].counts)
    return EvalContext(topologies, sfcs, percentile_99(avg_cp_delay(paths)))


def fold_results(h: int, ctx: EvalContext, folds: FoldSplit, preds: list[np.ndarray]
                 ) -> tuple[float, float]:
    """Depth h's invalid rate and objective over every fold.

    ``preds`` holds, per fold, its validation rows' predictions at every
    level of one walk of that fold's tree (``majority[descend(X)]``, shape
    (levels, rows, outputs)); depth h reads level ``min(h, last)``. Returns
    the invalid predictions as a fraction of all validation rows, and the
    mean over folds of (mean valid path delay + ``reg_term`` of the fold's
    invalid count).
    """
    if h < 1:
        raise ValueError("depth must be >= 1")
    total_ip = 0
    objectives = []
    for (_, val_idx), levels in zip(folds.folds, preds, strict=True):
        valid, _, paths = score([ctx.topologies[r] for r in val_idx],
                                [ctx.sfcs[r] for r in val_idx],
                                levels[min(h, len(levels) - 1)].tolist())
        ip = len(valid) - int(valid.sum())
        avg = (float(np.mean(avg_cp_delay(paths[valid]))) if valid.any()
               else ctx.delay_ceiling)
        total_ip += ip
        objectives.append(avg + reg_term(ip))
    return total_ip / sum(len(v) for _, v in folds.folds), float(np.mean(objectives))


def pso_minimize(f, lo: int, hi: int, params: PsoParams) -> tuple[int, dict]:
    """Global-best PSO over the integer interval [lo, hi].

    Particles move in the continuous interval; evaluation rounds to the
    nearest integer and clamps to the bounds, with results memoized per
    integer. Returns the best integer over all evaluations plus the trace:
    the global best after the initial swarm and after each iteration, as
    ``{"best_h": [...], "best_objective": [...]}``, whose objective sequence
    never increases.
    """
    if lo >= hi:
        raise ValueError("bounds require lo < hi")
    rng = np.random.default_rng(params.seed)
    n = params.swarm_size
    memo: dict[int, float] = {}

    def evaluate(pos: float) -> tuple[int, float]:
        h = int(min(max(round(pos), lo), hi))
        if h not in memo:
            memo[h] = float(f(h))
        return h, memo[h]

    x = rng.uniform(lo, hi, n)
    vmax = (hi - lo) / 2.0
    v = rng.uniform(-vmax, vmax, n) * 0.1
    pbest_x = x.copy()
    pbest_val = np.empty(n)
    gbest_h, gbest_val = None, math.inf
    for i in range(n):
        h, val = evaluate(x[i])
        pbest_val[i] = val
        if val < gbest_val:
            gbest_h, gbest_val = h, val

    trace = {"best_h": [gbest_h], "best_objective": [gbest_val]}
    for _ in range(params.iterations):
        r1 = rng.uniform(size=n)
        r2 = rng.uniform(size=n)
        v = (params.inertia * v
             + params.cognitive * r1 * (pbest_x - x)
             + params.social * r2 * (gbest_h - x))
        v = np.clip(v, -vmax, vmax)
        x = np.clip(x + v, lo, hi)
        for i in range(n):
            h, val = evaluate(x[i])
            if val < pbest_val[i]:
                pbest_val[i] = val
                pbest_x[i] = x[i]
            if val < gbest_val:
                gbest_h, gbest_val = h, val
        trace["best_h"].append(gbest_h)
        trace["best_objective"].append(gbest_val)
    return gbest_h, trace
