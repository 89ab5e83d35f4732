"""Head-to-head comparison of placement strategies on a held-out batch.

For every test row each strategy produces a placement; invalid placements
are flagged and excluded from delay aggregates. Win ratios count, per
(row, path) cell where every compared strategy is valid, the strategy with
strictly least delay; exact ties go to a separate ties column. Delay
differences are computed per common-valid cell and summarized as mean plus
a fixed-width histogram.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .netmodel import SfcSpec, Topology, save_json
from .placer import (
    Placement,
    cp_delay,
    dependent_pairs,
    enumerate_cps,
    server_delay,
    validate_placement,
)


@dataclass
class EvalRow:
    """One held-out test case: its topology, chain spec, and feature vector."""

    topology: Topology
    sfc: SfcSpec
    features: np.ndarray


@dataclass
class RowOutcome:
    valid: bool
    cp_delays: list[float]  # empty when invalid
    pair_delays: list[float]


@dataclass
class StrategyResult:
    name: str
    rows: list[RowOutcome]

    @property
    def ip_rate(self) -> float:
        if not self.rows:
            return 0.0
        return sum(1 for r in self.rows if not r.valid) / len(self.rows)

    @property
    def mean_cp_delay(self) -> float:
        delays = [d for r in self.rows if r.valid for d in r.cp_delays]
        return float(np.mean(delays)) if delays else float("nan")

    @property
    def mean_pair_delay(self) -> float:
        delays = [d for r in self.rows if r.valid for d in r.pair_delays]
        return float(np.mean(delays)) if delays else float("nan")


def evaluate_strategy(name: str, place_fn, rows: list[EvalRow]) -> StrategyResult:
    """Run one strategy over the test rows.

    ``place_fn(row) -> Placement`` may raise nothing; infeasibility must be
    expressed as an invalid placement upstream.
    """
    outcomes = []
    for row in rows:
        p: Placement = place_fn(row)
        report = validate_placement(row.topology, row.sfc, p)
        if report.valid:
            cps = enumerate_cps(row.sfc)
            cp_delays = [cp_delay(row.topology, p, cp) for cp in cps]
            pair_delays = [
                server_delay(row.topology, p.server_of(a), p.server_of(b))
                for a, b in dependent_pairs(row.sfc)
            ]
            outcomes.append(RowOutcome(True, cp_delays, pair_delays))
        else:
            outcomes.append(RowOutcome(False, [], []))
    return StrategyResult(name=name, rows=outcomes)


def _check_aligned(results: list[StrategyResult]):
    if len(results) < 2:
        raise ValueError("need at least two strategies to compare")
    n = len(results[0].rows)
    for r in results:
        if len(r.rows) != n:
            raise ValueError(
                f"misaligned results: {r.name} has {len(r.rows)} rows, expected {n}"
            )
    for i in range(n):
        widths = {len(r.rows[i].cp_delays) for r in results if r.rows[i].valid}
        if len(widths) > 1:
            raise ValueError(f"misaligned results: row {i} differs in path count")


@dataclass
class WinTable:
    strategies: list[str]
    wins: dict[str, int]
    ties: int
    compared_cells: int
    pairwise: dict[tuple[str, str], tuple[int, int, int]] = field(default_factory=dict)
    # pairwise value: (wins_a, wins_b, ties)


def win_ratios(results: list[StrategyResult]) -> WinTable:
    """Per-(row, path) least-delay wins, over cells valid for all strategies."""
    _check_aligned(results)
    names = [r.name for r in results]
    wins = {n: 0 for n in names}
    ties = 0
    cells = 0
    for i in range(len(results[0].rows)):
        if not all(r.rows[i].valid for r in results):
            continue
        for j in range(len(results[0].rows[i].cp_delays)):
            cells += 1
            delays = [r.rows[i].cp_delays[j] for r in results]
            m = min(delays)
            winners = [k for k, d in enumerate(delays) if d == m]
            if len(winners) == 1:
                wins[names[winners[0]]] += 1
            else:
                ties += 1
    pairwise = {}
    for a in range(len(results)):
        for b in range(a + 1, len(results)):
            sub = win_ratios_pair(results[a], results[b])
            pairwise[(names[a], names[b])] = sub
    return WinTable(strategies=names, wins=wins, ties=ties,
                    compared_cells=cells, pairwise=pairwise)


def win_ratios_pair(a: StrategyResult, b: StrategyResult) -> tuple[int, int, int]:
    _check_aligned([a, b])
    wa = wb = ties = 0
    for ra, rb in zip(a.rows, b.rows):
        if not (ra.valid and rb.valid):
            continue
        for da, db in zip(ra.cp_delays, rb.cp_delays):
            if da < db:
                wa += 1
            elif db < da:
                wb += 1
            else:
                ties += 1
    return wa, wb, ties


@dataclass
class DiffStats:
    samples: list[float]
    mean: float
    bin_width: float
    bin_edges: list[float]
    bin_counts: list[int]
    empty: bool = False


def delay_difference_stats(a: StrategyResult, b: StrategyResult,
                           bin_width: float = 5.0) -> DiffStats:
    """Per common-valid (row, path) cell: delay_a - delay_b."""
    _check_aligned([a, b])
    samples = []
    for ra, rb in zip(a.rows, b.rows):
        if ra.valid and rb.valid:
            samples.extend(da - db for da, db in zip(ra.cp_delays, rb.cp_delays))
    if not samples:
        return DiffStats([], float("nan"), bin_width, [], [], empty=True)
    lo = np.floor(min(samples) / bin_width) * bin_width
    hi = np.ceil(max(samples) / bin_width) * bin_width
    if hi <= lo:
        hi = lo + bin_width
    edges = np.arange(lo, hi + bin_width / 2, bin_width)
    counts, edges = np.histogram(samples, bins=edges)
    return DiffStats(
        samples=samples,
        mean=float(np.mean(samples)),
        bin_width=bin_width,
        bin_edges=[float(e) for e in edges],
        bin_counts=[int(c) for c in counts],
    )


# ---------------------------------------------------------------------------
# Report assembly and persistence


def comparison_report(results: list[StrategyResult],
                      bin_width: float = 5.0) -> dict:
    table = win_ratios(results)
    diffs = {}
    for (na, nb), _ in table.pairwise.items():
        a = next(r for r in results if r.name == na)
        b = next(r for r in results if r.name == nb)
        d = delay_difference_stats(a, b, bin_width)
        diffs[f"{na}_vs_{nb}"] = {
            "mean": None if d.empty else d.mean,
            "n_samples": len(d.samples),
            "bin_width": d.bin_width,
            "bin_edges": d.bin_edges,
            "bin_counts": d.bin_counts,
        }
    return {
        "strategies": [
            {
                "name": r.name,
                "ip_rate": r.ip_rate,
                "mean_cp_delay": None if np.isnan(r.mean_cp_delay) else r.mean_cp_delay,
                "mean_pair_delay": None if np.isnan(r.mean_pair_delay) else r.mean_pair_delay,
                "n_rows": len(r.rows),
            }
            for r in results
        ],
        "win_table": {
            "wins": table.wins,
            "ties": table.ties,
            "compared_cells": table.compared_cells,
            "pairwise": {
                f"{a}_vs_{b}": {"wins_a": wa, "wins_b": wb, "ties": t}
                for (a, b), (wa, wb, t) in table.pairwise.items()
            },
        },
        "delay_differences": diffs,
    }


def save_report_json(report: dict, path):
    save_json(report, path)


def save_cp_delay_csv(results: list[StrategyResult], path):
    """Plot-ready per-path mean delays (valid rows only)."""
    n_cps = max((len(r.rows[i].cp_delays)
                 for r in results for i in range(len(r.rows)) if r.rows[i].valid),
                default=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "cp_index", "mean_delay_us"])
        for r in results:
            for j in range(n_cps):
                vals = [row.cp_delays[j] for row in r.rows if row.valid]
                w.writerow([r.name, j, repr(float(np.mean(vals))) if vals else ""])


def save_pair_delay_csv(results: list[StrategyResult], sfc: SfcSpec, path):
    pairs = dependent_pairs(sfc)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "pair_index", "upstream_id", "downstream_id",
                    "mean_delay_us"])
        for r in results:
            for j, (a, b) in enumerate(pairs):
                vals = [row.pair_delays[j] for row in r.rows if row.valid]
                w.writerow([r.name, j, a, b,
                            repr(float(np.mean(vals))) if vals else ""])


def save_diff_histogram_csv(d: DiffStats, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lo_us", "bin_hi_us", "count"])
        for k in range(len(d.bin_counts)):
            w.writerow([repr(d.bin_edges[k]), repr(d.bin_edges[k + 1]),
                        d.bin_counts[k]])
