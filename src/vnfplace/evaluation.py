"""Head-to-head comparison of placement strategies on a held-out batch.

Each strategy gives one placement per test row: a sequence of server ids
indexed by instance id, such as a label row of ``test.csv`` (the teacher's)
or a tree's predicted one. ``evaluate_strategy`` scores them all with one
``placer.score`` call, which validates each and keeps its per-pair and
per-path delays as one row of two tables, NaN where the placement is
invalid (invalid rows are excluded from delay aggregates). Every chain of
a configuration has the same paths and pairs, so the comparison takes the
(row, path) cells of the rows valid for every strategy with one mask. Those
cells feed the win table, where a cell goes to the strategy with strictly
least delay and exact ties to a separate ties column; each pair (a, b)'s
wins and ties; and each pair's per-cell delay differences delay_a - delay_b,
summarized as a mean plus a fixed-width histogram. Each strategy's entry
also holds its mean delay per path and per dependent pair over its own valid
rows, in ``chain_structure`` order.
"""

import itertools
from typing import NamedTuple

import numpy as np

from .netmodel import ConfigError, SfcSpec, Topology
from .placer import Placement, score


class StrategyResult(NamedTuple):
    """One strategy's scores, as ``placer.score`` returns them: ``valid`` is a
    per-row bool mask, ``pair_delays`` (rows × pairs) and ``cp_delays``
    (rows × paths) are NaN on invalid rows."""

    name: str
    valid: np.ndarray
    pair_delays: np.ndarray
    cp_delays: np.ndarray

    @property
    def ip_rate(self) -> float:
        if not len(self.valid):
            return 0.0
        return int((~self.valid).sum()) / len(self.valid)


def evaluate_strategy(name: str, topologies: list[Topology], sfcs: list[SfcSpec],
                      placements: list[Placement]) -> StrategyResult:
    """Validate and score one strategy's placement of each test row."""
    return StrategyResult(name, *score(topologies, sfcs, placements))


def _mean(delays: np.ndarray, valid: np.ndarray) -> float | None:
    """The mean of the valid rows' delays, in row-major order; None without any."""
    values = delays[valid].ravel()
    return float(np.mean(values)) if values.size else None


def win_ratios(results: list[StrategyResult]) -> tuple[dict, dict[str, list[float]]]:
    """Per-(row, path) least-delay wins, over cells valid for all strategies.

    Returns the report's ``win_table`` section and each pair's per-cell
    differences delay_a - delay_b, both keyed ``<a>_vs_<b>`` for a before b
    in strategy order.
    """
    if len(results) < 2:
        raise ValueError("need at least two strategies to compare")
    shape = results[0].cp_delays.shape
    for r in results:
        if r.cp_delays.shape != shape:
            raise ValueError(f"misaligned results: {r.name} has (rows, paths) "
                             f"{r.cp_delays.shape}, expected {shape}")
    every = np.logical_and.reduce([r.valid for r in results])
    cells = np.stack([r.cp_delays[every].ravel() for r in results], axis=1)
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


#: Most bins, less the two partial ones at its ends, that a
#: ``delay_differences`` histogram may have: a bin width far below the
#: differences' spread would otherwise ask for gigabytes of edges.
MAX_HISTOGRAM_BINS = 10**6


def delay_difference_stats(samples: list[float], bin_width: float = 5.0) -> dict:
    """The report's ``delay_differences`` entry for one pair: the mean (None
    without samples) and fixed-width histogram of its per-cell differences.
    A ``bin_width`` below the differences' spread over ``MAX_HISTOGRAM_BINS``
    raises ConfigError."""
    if not samples:
        return {"mean": None, "n_samples": 0, "bin_width": bin_width,
                "bin_edges": [], "bin_counts": []}
    bins = (max(samples) - min(samples)) / bin_width
    if bins > MAX_HISTOGRAM_BINS:
        raise ConfigError(f"histogram_bin_width_us {bin_width:g} would need at least "
                          f"{bins:.3g} bins for delay differences from {min(samples):g} to "
                          f"{max(samples):g} us; at most {MAX_HISTOGRAM_BINS} are allowed")
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
# Report assembly


def comparison_report(results: list[StrategyResult],
                      bin_width: float = 5.0) -> dict:
    """Per-strategy aggregates, the win table and each pair's differences."""
    table, differences = win_ratios(results)
    return {
        "strategies": [
            {
                "name": r.name,
                "ip_rate": r.ip_rate,
                "mean_cp_delay": _mean(r.cp_delays, r.valid),
                "mean_pair_delay": _mean(r.pair_delays, r.valid),
                "mean_cp_delay_by_path": [_mean(col, r.valid) for col in r.cp_delays.T],
                "mean_pair_delay_by_pair": [_mean(col, r.valid) for col in r.pair_delays.T],
                "n_rows": len(r.valid),
            }
            for r in results
        ],
        "win_table": table,
        "delay_differences": {key: delay_difference_stats(samples, bin_width)
                              for key, samples in differences.items()},
    }
