"""Integer-domain particle swarm optimizer and the placement-quality objective.

The objective for a candidate max depth h is, per cross-validation fold:
fit a tree on the training rows, predict every validation row, validate
each predicted placement against its own topology, and combine the mean
per-path delay of the valid predictions with a logarithmic penalty of
1000 * log2(ip + 1) on the invalid count. The reported value is the mean
over folds. A fold with zero valid predictions contributes a data-scaled
delay ceiling (99th percentile of teacher per-path delays) instead of an
undefined mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tree as tree_mod
from .features import Dataset, FoldSplit
from .netmodel import SfcSpec, Topology
from .placer import Placement, avg_cp_delay, validate_placement


@dataclass(frozen=True)
class PsoParams:
    swarm_size: int = 10
    iterations: int = 30
    inertia: float = 0.7
    cognitive: float = 1.5
    social: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0 < self.inertia <= 1):
            raise ValueError("inertia must be in (0, 1]")
        if self.cognitive <= 0 or self.social <= 0:
            raise ValueError("cognitive and social weights must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class ObjectiveResult:
    avg_delay_cp: float
    ip: int
    reg_term: float
    o_pso: float


@dataclass
class PsoTrace:
    """Per-iteration global best; the objective sequence is non-increasing."""

    best_h: list[int] = field(default_factory=list)
    best_objective: list[float] = field(default_factory=list)

    def record(self, h: int, value: float):
        self.best_h.append(h)
        self.best_objective.append(value)


def reg_term(ip: int) -> float:
    """Invalid-placement penalty: 1000 * log2(ip + 1)."""
    if ip < 0:
        raise ValueError("invalid-placement count must be >= 0")
    return 1000.0 * math.log2(ip + 1)


@dataclass
class EvalContext:
    """Per-row topologies and chain specs aligned with the dataset rows, plus
    the delay ceiling used when a fold has no valid prediction."""

    topologies: list[Topology]
    sfcs: list[SfcSpec]
    delay_ceiling: float

    def __post_init__(self):
        if len(self.topologies) != len(self.sfcs):
            raise ValueError("topologies and sfcs must align")


def make_context(topologies, sfcs, teacher_avg_delays) -> EvalContext:
    ceiling = float(np.percentile(np.asarray(teacher_avg_delays, dtype=float), 99))
    return EvalContext(list(topologies), list(sfcs), ceiling)


def placement_from_labels(sfc: SfcSpec, labels) -> Placement:
    """Interpret a predicted label row (one server id per instance, by id order)."""
    inst = sorted(sfc.instances, key=lambda i: i.id)
    return Placement(assignment={i.id: int(s) for i, s in zip(inst, labels)})


def fold_results(
    h: int,
    ds: Dataset,
    ctx: EvalContext,
    folds: FoldSplit,
    trees: list[tree_mod.DecisionTree],
) -> list[ObjectiveResult]:
    """Evaluate depth h on every fold; one ObjectiveResult per fold.

    ``trees`` holds one tree per fold, fitted on that fold's training rows
    at any depth of at least h: predictions come from traversal truncated
    at h, which is exact for top-down CART (see ``DecisionTree.truncate``).
    """
    if h < 1:
        raise ValueError("depth must be >= 1")
    if len(ctx.topologies) != ds.n_samples:
        raise ValueError("context must carry one (topology, sfc) per dataset row")
    out = []
    for (_, val_idx), t in zip(folds.folds, trees, strict=True):
        pred = t.predict(ds.features[val_idx], max_depth=h)
        ip = 0
        delays = []
        for row, labels in zip(val_idx, pred):
            topo = ctx.topologies[row]
            sfc = ctx.sfcs[row]
            p = placement_from_labels(sfc, labels)
            if validate_placement(topo, sfc, p).valid:
                delays.append(avg_cp_delay(topo, p, sfc))
            else:
                ip += 1
        avg = float(np.mean(delays)) if delays else ctx.delay_ceiling
        reg = reg_term(ip)
        out.append(ObjectiveResult(avg_delay_cp=avg, ip=ip, reg_term=reg,
                                   o_pso=avg + reg))
    return out


def objective_full(results: list[ObjectiveResult]) -> float:
    """Cross-validated mean of (average path delay + invalid penalty)."""
    return float(np.mean([r.o_pso for r in results]))


def objective_invalid_only(results: list[ObjectiveResult]) -> float:
    """Cross-validated mean invalid-prediction count, delay ignored."""
    return float(np.mean([r.ip for r in results]))


def invalid_rate(results: list[ObjectiveResult], folds: FoldSplit) -> float:
    """Invalid predictions as a fraction of all validation rows."""
    total_rows = sum(len(v) for _, v in folds.folds)
    return sum(r.ip for r in results) / total_rows


def pso_minimize(f, lo: int, hi: int, params: PsoParams) -> tuple[int, PsoTrace]:
    """Global-best PSO over the integer interval [lo, hi].

    Particles move in the continuous interval; evaluation rounds to the
    nearest integer and clamps to the bounds, with results memoized per
    integer. Returns the best integer over all evaluations plus the trace.
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

    trace = PsoTrace()
    trace.record(gbest_h, gbest_val)
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
        trace.record(gbest_h, gbest_val)
    return gbest_h, trace
