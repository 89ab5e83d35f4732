import json

import numpy as np
import pytest

from conftest import line_topology, simple_sfc
from vnfplace import evaluation, netmodel
from vnfplace.evaluation import StrategyResult, delay_difference_stats, win_ratios


def _result(name, rows):
    """rows: list of None (invalid) or list of cp delays, which also serve as
    the pair delays; every list has the same length."""
    width = max(len(r) for r in rows if r is not None)
    delays = np.array([[np.nan] * width if r is None else r for r in rows], dtype=float)
    return StrategyResult(name, np.array([r is not None for r in rows]),
                          pair_delays=delays.copy(), cp_delays=delays)


def _differences(a, b):
    """Per common-valid cell: delay_a - delay_b, from the one cell walk."""
    return win_ratios([a, b])[1][f"{a.name}_vs_{b.name}"]


def _pair(wins_a, wins_b, ties):
    return {"wins_a": wins_a, "wins_b": wins_b, "ties": ties}


# [DERIVED] by hand: per-cell strict minimum over 3 strategies across
# 2 rows x 2 paths = 4 cells. A wins cells (0,0) and (1,1); B wins (0,1);
# cell (1,0) ties between A and C.
def test_win_ratios_hand_case():
    a = _result("A", [[1.0, 5.0], [3.0, 2.0]])
    b = _result("B", [[2.0, 4.0], [4.0, 6.0]])
    c = _result("C", [[3.0, 6.0], [3.0, 7.0]])
    table, _ = win_ratios([a, b, c])
    assert table["compared_cells"] == 4
    assert table["wins"] == {"A": 2, "B": 1, "C": 0}
    assert table["ties"] == 1
    assert table["pairwise"]["A_vs_B"] == _pair(3, 1, 0)
    assert table["pairwise"]["A_vs_C"] == _pair(3, 0, 1)


def test_invalid_rows_excluded_from_cells():
    a = _result("A", [[1.0], None, [2.0]])
    b = _result("B", [[2.0], [1.0], None])
    table, _ = win_ratios([a, b])
    assert table["compared_cells"] == 1
    assert table["wins"] == {"A": 1, "B": 0}


def test_pairwise_counts_use_cells_valid_for_every_strategy():
    a = _result("A", [[1.0], [2.0]])
    b = _result("B", [[2.0], [1.0]])
    c = _result("C", [[3.0], None])
    table, differences = win_ratios([a, b, c])
    assert table["compared_cells"] == 1
    assert table["pairwise"]["A_vs_B"] == _pair(1, 0, 0)
    assert differences["A_vs_B"] == [-1.0]


def test_win_ratios_pair_consistent_with_table():
    rng = np.random.default_rng(4)
    rows_a = [list(rng.uniform(0, 100, 4)) for _ in range(20)]
    rows_b = [list(rng.uniform(0, 100, 4)) for _ in range(20)]
    a, b = _result("A", rows_a), _result("B", rows_b)
    cells = [(x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb)]
    wa = sum(x < y for x, y in cells)
    wb = sum(y < x for x, y in cells)
    t = sum(x == y for x, y in cells)
    assert wa + wb + t == 80
    table, _ = win_ratios([a, b])
    assert table["pairwise"]["A_vs_B"] == _pair(wa, wb, t)
    assert table["wins"]["A"] == wa and table["wins"]["B"] == wb
    assert table["ties"] == t


def test_misaligned_inputs_rejected():
    a = _result("A", [[1.0], [2.0]])
    b = _result("B", [[1.0]])
    with pytest.raises(ValueError, match="misaligned"):
        win_ratios([a, b])
    with pytest.raises(ValueError):
        win_ratios([a])


# [DERIVED] by hand: diffs are A-B = [-1, +1, -3, +2]; mean = -0.25;
# with bin width 5 the edges span [-5, 5] giving counts [2, 2].
def test_delay_difference_stats_hand_case():
    a = _result("A", [[1.0, 5.0], [3.0, 8.0]])
    b = _result("B", [[2.0, 4.0], [6.0, 6.0]])
    samples = _differences(a, b)
    assert sorted(samples) == [-3.0, -1.0, 1.0, 2.0]
    d = delay_difference_stats(samples, bin_width=5.0)
    assert d == {"mean": -0.25, "n_samples": 4, "bin_width": 5.0,
                 "bin_edges": [-5.0, 0.0, 5.0], "bin_counts": [2, 2]}


def test_delay_difference_counts_cover_all_samples():
    rng = np.random.default_rng(9)
    a = _result("A", [list(rng.uniform(0, 400, 4)) for _ in range(30)])
    b = _result("B", [list(rng.uniform(0, 400, 4)) for _ in range(30)])
    samples = _differences(a, b)
    d = delay_difference_stats(samples, bin_width=5.0)
    edges = d["bin_edges"]
    assert sum(d["bin_counts"]) == d["n_samples"] == len(samples) == 120
    assert edges[0] <= min(samples)
    assert edges[-1] >= max(samples)
    assert all(e2 - e1 == pytest.approx(5.0) for e1, e2 in zip(edges, edges[1:]))


def test_delay_difference_empty_when_no_common_valid():
    a = _result("A", [None, [1.0]])
    b = _result("B", [[2.0], None])
    assert _differences(a, b) == []
    assert delay_difference_stats([]) == {"mean": None, "n_samples": 0, "bin_width": 5.0,
                                          "bin_edges": [], "bin_counts": []}


def test_evaluate_strategy_end_to_end():
    topo = line_topology([100.0, 50.0, 25.0])
    sfc = simple_sfc()
    good = [0, 1, 2, 3]
    bad = [0, 0, 0, 0]  # dependency ok...

    res = evaluation.evaluate_strategy("good", [topo], [sfc], [good])
    assert res.ip_rate == 0.0
    assert res.valid.tolist() == [True]
    assert res.cp_delays.tolist() == [[175.0]]
    assert res.pair_delays.tolist() == [[100.0, 50.0, 25.0]]

    overload = simple_sfc(cpu=60.0)
    res2 = evaluation.evaluate_strategy("bad", [topo], [overload], [bad])
    assert res2.ip_rate == 1.0
    assert res2.valid.tolist() == [False]
    assert res2.cp_delays.shape == (1, 1) and res2.pair_delays.shape == (1, 3)
    assert np.isnan(res2.cp_delays).all() and np.isnan(res2.pair_delays).all()
    strategies = evaluation.comparison_report([res, res2])["strategies"]
    assert strategies[0]["mean_cp_delay"] == 175.0
    assert strategies[1]["mean_cp_delay"] is None
    assert strategies[1]["mean_pair_delay"] is None


def test_strategy_result_aggregates():
    r = _result("A", [[10.0, 20.0], None, [30.0, 40.0]])
    assert r.ip_rate == pytest.approx(1 / 3)
    strategy = evaluation.comparison_report([r, r])["strategies"][0]
    assert strategy["mean_cp_delay"] == pytest.approx(25.0)
    assert strategy["n_rows"] == 3


def test_comparison_report_schema_and_persistence(tmp_path):
    a = _result("heuristic", [[1.0, 5.0], [3.0, 8.0]])
    b = _result("baseline_tree", [[2.0, 4.0], [6.0, 6.0]])
    report = evaluation.comparison_report([a, b], bin_width=5.0)
    names = [s["name"] for s in report["strategies"]]
    assert names == ["heuristic", "baseline_tree"]
    key = "heuristic_vs_baseline_tree"
    assert report["win_table"]["pairwise"][key] == {"wins_a": 2, "wins_b": 2, "ties": 0}
    assert report["delay_differences"][key]["mean"] == pytest.approx(-0.25)
    path = tmp_path / "comparison.json"
    netmodel.save_json(report, path)
    assert json.loads(path.read_text()) == json.loads(path.read_text())
    netmodel.save_json(report, tmp_path / "again.json")
    assert (tmp_path / "comparison.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def test_report_means_by_path_and_pair():
    """Each strategy's per-path and per-pair means are the column means over
    its valid rows, null where it has none."""
    a = _result("A", [[1.0, 5.0], None, [4.0, 8.0]])
    b = _result("B", [[2.0, 4.0], [6.0, 6.0], [3.0, 1.0]])
    none = StrategyResult("C", np.zeros(3, dtype=bool), cp_delays=np.full((3, 2), np.nan),
                          pair_delays=np.full((3, 3), np.nan))
    four = StrategyResult("D", np.array([True, False, True]), cp_delays=a.cp_delays,
                          pair_delays=np.array([[1.0, 2.0, 3.0], [np.nan] * 3,
                                                [4.0, 6.0, 9.0]]))
    strategies = evaluation.comparison_report([a, b, none, four])["strategies"]
    by_path = [s["mean_cp_delay_by_path"] for s in strategies]
    by_pair = [s["mean_pair_delay_by_pair"] for s in strategies]
    assert by_path == [[2.5, 6.5], [11 / 3, 11 / 3], [None, None], [2.5, 6.5]]
    assert by_pair == [[2.5, 6.5], [11 / 3, 11 / 3], [None, None, None], [2.5, 4.0, 6.0]]
    for r, s in zip([a, b, none, four], strategies):
        for delays, means in [(r.cp_delays, s["mean_cp_delay_by_path"]),
                              (r.pair_delays, s["mean_pair_delay_by_pair"])]:
            rows = delays[r.valid]
            assert means == [float(np.mean(rows[:, j])) if len(rows) else None
                             for j in range(delays.shape[1])]
