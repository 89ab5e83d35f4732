"""Head-to-head comparison of placement strategies on a held-out batch.

Each strategy gives one placement per test row: a sequence of server ids
indexed by instance id, such as a label row of ``test.csv`` (the teacher's)
or a tree's predicted one. ``evaluate_strategy`` validates each and keeps
its per-path and per-pair delays, none when it is invalid (invalid rows are
excluded from delay aggregates). The comparison
then walks once over the (row, path) cells where every strategy is valid.
That walk feeds the win table, where a cell goes to the strategy with
strictly least delay and exact ties to a separate ties column; each pair
(a, b)'s wins and ties; and each pair's per-cell delay differences
delay_a - delay_b, summarized as a mean plus a fixed-width histogram.
Each histogram CSV is written from its entry in the report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .netmodel import SfcSpec, Topology, save_csv
from .placer import (
    Placement,
    dependent_pairs,
    path_delays,
    server_delay,
    validate_placement,
)


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


def evaluate_strategy(name: str, topologies: list[Topology], sfcs: list[SfcSpec],
                      placements: list[Placement]) -> StrategyResult:
    """Validate and score one strategy's placement of each test row."""
    outcomes = []
    for topo, sfc, p in zip(topologies, sfcs, placements, strict=True):
        if validate_placement(topo, sfc, p).valid:
            pair_delays = [server_delay(topo, p[a], p[b]) for a, b in dependent_pairs(sfc)]
            outcomes.append(RowOutcome(True, path_delays(topo, p, sfc), pair_delays))
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


def _common_cells(results: list[StrategyResult]) -> np.ndarray:
    """Delays of the (row, path) cells where every strategy is valid: one
    array row per cell, in (row, path) order, one column per strategy."""
    _check_aligned(results)
    cells = [cell for rows in zip(*(r.rows for r in results)) if all(x.valid for x in rows)
             for cell in zip(*(x.cp_delays for x in rows))]
    return np.array(cells, dtype=float).reshape(len(cells), len(results))


def win_ratios(results: list[StrategyResult]) -> tuple[dict, dict[str, list[float]]]:
    """Per-(row, path) least-delay wins, over cells valid for all strategies.

    Returns the report's ``win_table`` section and each pair's per-cell
    differences delay_a - delay_b, both keyed ``<a>_vs_<b>`` for a before b
    in strategy order.
    """
    cells = _common_cells(results)
    names = [r.name for r in results]
    least = cells == cells.min(axis=1, keepdims=True)
    sole = least.sum(axis=1) == 1
    pairwise, differences = {}, {}
    for a, b in itertools.combinations(range(len(names)), 2):
        da, db = cells[:, a], cells[:, b]
        key = f"{names[a]}_vs_{names[b]}"
        pairwise[key] = {"wins_a": int((da < db).sum()), "wins_b": int((db < da).sum()),
                         "ties": int((da == db).sum())}
        differences[key] = (da - db).tolist()
    table = {"wins": {n: int((least[:, k] & sole).sum()) for k, n in enumerate(names)},
             "ties": int((~sole).sum()), "compared_cells": len(cells),
             "pairwise": pairwise}
    return table, differences


def delay_difference_stats(samples: list[float], bin_width: float = 5.0) -> dict:
    """The report's ``delay_differences`` entry for one pair: the mean (None
    without samples) and fixed-width histogram of its per-cell differences."""
    if not samples:
        return {"mean": None, "n_samples": 0, "bin_width": bin_width,
                "bin_edges": [], "bin_counts": []}
    lo = np.floor(min(samples) / bin_width) * bin_width
    hi = np.ceil(max(samples) / bin_width) * bin_width
    if hi <= lo:
        hi = lo + bin_width
    edges = np.arange(lo, hi + bin_width / 2, bin_width)
    counts, edges = np.histogram(samples, bins=edges)
    return {"mean": float(np.mean(samples)), "n_samples": len(samples),
            "bin_width": bin_width, "bin_edges": [float(e) for e in edges],
            "bin_counts": [int(c) for c in counts]}


# ---------------------------------------------------------------------------
# Report assembly and persistence


def comparison_report(results: list[StrategyResult],
                      bin_width: float = 5.0) -> dict:
    """Per-strategy aggregates, the win table and each pair's differences."""
    table, differences = win_ratios(results)
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
        "win_table": table,
        "delay_differences": {key: delay_difference_stats(samples, bin_width)
                              for key, samples in differences.items()},
    }


def _mean_cell(vals: list[float]) -> str:
    return repr(float(np.mean(vals))) if vals else ""


def save_cp_delay_csv(results: list[StrategyResult], path):
    """Plot-ready per-path mean delays (valid rows only)."""
    n_cps = max((len(r.rows[i].cp_delays)
                 for r in results for i in range(len(r.rows)) if r.rows[i].valid),
                default=0)
    save_csv(path, ["strategy", "cp_index", "mean_delay_us"],
             ([r.name, j, _mean_cell([row.cp_delays[j] for row in r.rows if row.valid])]
              for r in results for j in range(n_cps)))


def save_pair_delay_csv(results: list[StrategyResult], sfc: SfcSpec, path):
    save_csv(path, ["strategy", "pair_index", "upstream_id", "downstream_id",
                    "mean_delay_us"],
             ([r.name, j, a, b, _mean_cell([row.pair_delays[j] for row in r.rows if row.valid])]
              for r in results for j, (a, b) in enumerate(dependent_pairs(sfc))))


def save_diff_histogram_csv(entry: dict, path):
    """One ``delay_differences`` entry of the report as a table of bins."""
    edges = entry["bin_edges"]
    save_csv(path, ["bin_lo_us", "bin_hi_us", "count"],
             ([repr(lo), repr(hi), c]
              for lo, hi, c in zip(edges, edges[1:], entry["bin_counts"])))
