import functools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DESK_CONFIG_PATH, REPO_ROOT, garbage_after, line_topology, simple_sfc, tiny_config,
)
from oracles import (
    brute_force_placement, reference_avg_cp_delay, reference_chain_structure,
    reference_cp_delay, reference_path_delays, reference_place_teacher, reference_valid,
    total_pair_delay,
)
from vnfplace import netmodel, placer
from vnfplace.netmodel import Dist, GenConfig, chain_structure, config_from_json
from vnfplace.placer import InfeasiblePlacement


def test_chain_structure_path_counts():
    assert len(chain_structure((1, 2, 2, 1)).paths) == 4
    assert len(chain_structure((2, 3, 3, 2)).paths) == 36
    assert len(chain_structure((1, 1, 1, 1)).paths) == 1


def test_chain_structure_order_is_lexicographic():
    layers, pairs, paths = chain_structure((1, 2, 2, 1))
    # instance ids: HSS=0, MME=1,2, SGW=3,4, PGW=5
    assert layers == (range(0, 1), range(1, 3), range(3, 5), range(5, 6))
    assert paths == ((0, 1, 3, 5), (0, 1, 4, 5), (0, 2, 3, 5), (0, 2, 4, 5))
    assert pairs == ((0, 1, 0), (0, 2, 0), (1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 1),
                     (3, 5, 2), (4, 5, 2))
    assert chain_structure((1, 2, 2, 1)) is chain_structure((1, 2, 2, 1))


def test_cp_delay_sums_hops():
    topo = line_topology([100.0, 200.0, 300.0])
    sfc = simple_sfc()
    placements = [[0, 1, 2, 3], [1, 1, 1, 1]]  # the second co-locates every instance
    _, paths = placer.delays([topo, topo], placements, sfc.counts)
    assert paths.tolist() == [[600.0], [0.0]]
    (cp,) = chain_structure(sfc.counts).paths
    assert [reference_cp_delay(topo, p, cp) for p in placements] == [600.0, 0.0]


def test_cp_delay_matches_independent_recompute():
    """Each row's pair and path delays, from one gather over a batch of
    topologies, are those read from its own topology one by one."""
    cfg = tiny_config(seed=11, n_servers=6, replicas=(1, 2, 2, 1))
    topos = [netmodel.generate_topology(cfg, i) for i in range(5)]
    sfc = netmodel.build_sfc(cfg, 0)
    rng = np.random.default_rng(3)
    placements = rng.integers(0, 6, size=(5, sfc.n_instances)).tolist()
    pairs, paths = placer.delays(topos, placements, sfc.counts)
    for topo, p, pair_row, path_row in zip(topos, placements, pairs, paths):
        assert pair_row.tolist() == [topo.delay[p[a], p[b]]
                                     for a, b, _ in chain_structure(sfc.counts).pairs]
        assert path_row.tolist() == reference_path_delays(topo, p, sfc)


def test_avg_cp_delay_is_mean():
    # two MME and two SGW replicas on a line topology give four distinct CPs
    topo = line_topology([100.0, 100.0, 100.0, 100.0, 100.0])
    sfc = simple_sfc((1, 2, 2, 1))
    p = [0, 1, 2, 3, 4, 5]
    _, paths = placer.delays([topo], [p], sfc.counts)
    assert placer.avg_cp_delay(paths).tolist() == [reference_avg_cp_delay(topo, p, sfc)]
    assert placer.avg_cp_delay(paths)[0] == pytest.approx(
        np.mean(reference_path_delays(topo, p, sfc)), abs=0)

    one_cp = simple_sfc((1, 1, 1, 1))
    q = [0, 2, 3, 5]
    (cp,) = chain_structure(one_cp.counts).paths
    _, paths = placer.delays([topo], [q], one_cp.counts)
    assert placer.avg_cp_delay(paths).tolist() == [reference_cp_delay(topo, q, cp)]


def test_teacher_output_is_valid(small_batch):
    cfg, topos, sfcs, placements = small_batch
    for topo, sfc, p in zip(topos, sfcs, placements):
        assert placer.validate_placement(topo, sfc, p).valid


def test_anti_location_violation_detected():
    topo = line_topology([100.0, 100.0, 100.0])
    sfc = simple_sfc((1, 2, 1, 1))  # ids: HSS=0, MME=1,2, SGW=3, PGW=4
    p = [0, 1, 1, 2, 3]
    report = placer.validate_placement(topo, sfc, p)
    assert not report.valid
    assert ("anti_location", (1, 2)) in report.violations


def test_tolerance_boundary_is_inclusive():
    topo = line_topology([500.0, 500.0, 500.0])
    sfc = simple_sfc(tolerance=500.0)
    p = [0, 1, 2, 3]
    assert placer.validate_placement(topo, sfc, p).valid
    tight = simple_sfc(tolerance=499.999)
    report = placer.validate_placement(topo, tight, p)
    assert not report.valid
    kinds = {k for k, _ in report.violations}
    assert kinds == {"delay_tolerance"}


def test_capacity_violation_detected():
    topo = line_topology([100.0, 100.0, 100.0])
    sfc = simple_sfc(cpu=60.0)  # two instances exceed cpu capacity 100
    p = [0, 0, 1, 2]
    report = placer.validate_placement(topo, sfc, p)
    assert not report.valid
    assert ("capacity", (0,)) in report.violations


def test_validator_lists_every_violation():
    topo = line_topology([900.0, 900.0, 900.0])
    sfc = simple_sfc((1, 2, 1, 1), tolerance=100.0, cpu=80.0)
    p = [0, 0, 0, 1, 2]
    report = placer.validate_placement(topo, sfc, p)
    kinds = {k for k, _ in report.violations}
    assert kinds == {"capacity", "delay_tolerance", "anti_location"}


# Binding tolerances U(100, 300) us: a changed label often breaks one pair's
# tolerance and not the others, and about a third of the rows stay valid.
@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, 39),
       # (instance position, server id) changes to the teacher's label row;
       # desk geometry has 6 instances and 15 servers (id 15 is out of range)
       changes=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 15)), max_size=3))
def test_validator_matches_four_family_reference_property(desk_gen_config, index, changes):
    cfg = desk_gen_config.replace(tolerance=Dist("uniform", 100.0, 300.0))
    topo = netmodel.generate_topology(cfg, index)
    sfc = netmodel.build_sfc(cfg, index)
    try:
        labels = list(placer.place_teacher(topo, sfc).servers)
    except InfeasiblePlacement:
        labels = list(range(sfc.n_instances))
    for pos, server in changes:
        labels[pos] = server
    p = labels
    assert placer.validate_placement(topo, sfc, p).valid == reference_valid(topo, sfc, p)


@functools.cache
def _tight_snapshot(replicas, index):
    """Snapshot ``index`` of the desk geometry with ``replicas`` and binding
    tolerances U(100, 300) us: its topology, chain and teacher labels
    (0, 1, ... where the teacher finds none)."""
    with open(DESK_CONFIG_PATH, encoding="utf-8") as fh:
        cfg = config_from_json(GenConfig, json.load(fh)["gen"], "gen")
    cfg = cfg.replace(replica_counts=replicas,
                      tolerance=Dist("uniform", 100.0, 300.0))
    topo, sfc = netmodel.generate_topology(cfg, index), netmodel.build_sfc(cfg, index)
    try:
        return topo, sfc, placer.place_teacher(topo, sfc).servers
    except InfeasiblePlacement:
        return topo, sfc, tuple(range(sfc.n_instances))


# Each row is a snapshot's teacher labels with up to three (position, server
# id) changes, which break capacity (desk servers hold two instances),
# tolerance or anti-location, or name server -1 or 15 (desk has 15), and with
# one label cut off or appended. A heavy batch demands more cpu than any
# server has, so no row is valid; a batch may also have no rows.
@settings(max_examples=200, deadline=None)
@given(replicas=st.sampled_from([(1, 2, 2, 1), (2, 3, 3, 2)]),
       rows=st.lists(st.tuples(st.integers(0, 29),
                               st.lists(st.tuples(st.integers(0, 9), st.integers(-1, 15)),
                                        max_size=3),
                               st.sampled_from([0, 0, 0, -1, 1])), max_size=6),
       heavy=st.booleans())
def test_score_matches_validator_and_reference_delays_property(replicas, rows, heavy):
    """``score`` is ``validate_placement`` per row plus the per-row reference
    delays of the valid rows, NaN on the others, bit for bit; and
    ``avg_cp_delay`` of its valid rows is ``reference_avg_cp_delay``. With 36
    paths, a pairwise sum over the path columns differs from it."""
    topos, sfcs, placements = [], [], []
    for index, changes, extra in rows:
        topo, sfc, labels = _tight_snapshot(replicas, index)
        p = list(labels)
        for pos, server in changes:
            p[pos % len(p)] = server
        topos.append(topo)
        sfcs.append(netmodel.SfcSpec(sfc.counts, [1e9] * sfc.n_instances, sfc.mem_demand,
                                     sfc.tolerance) if heavy else sfc)
        placements.append(p[:extra] if extra < 0 else p + [0] * extra)

    valid, pair, path = placer.score(topos, sfcs, placements)
    ok = [placer.validate_placement(t, s, p).valid
          for t, s, p in zip(topos, sfcs, placements)]
    _, pairs, paths = reference_chain_structure(replicas) if rows else ((), (), ())
    want_pair = np.array([[float(t.delay[p[a], p[b]]) for a, b, _ in pairs] if v
                          else [np.nan] * len(pairs)
                          for t, p, v in zip(topos, placements, ok)]
                         ).reshape(len(rows), len(pairs))
    want_path = np.array([reference_path_delays(t, p, s) if v else [np.nan] * len(paths)
                          for t, s, p, v in zip(topos, sfcs, placements, ok)]
                         ).reshape(len(rows), len(paths))
    want_avg = np.array([reference_avg_cp_delay(t, p, s)
                         for t, s, p, v in zip(topos, sfcs, placements, ok) if v])
    assert valid.dtype == bool and valid.tolist() == ok
    assert pair.shape == want_pair.shape and pair.tobytes() == want_pair.tobytes()
    assert path.shape == want_path.shape and path.tobytes() == want_path.tobytes()
    if rows:  # without rows the tables have no path columns to average
        assert placer.avg_cp_delay(path[valid]).tobytes() == want_avg.tobytes()


def test_teacher_on_fully_feasible_instance():
    topo = line_topology([10.0, 10.0, 10.0])
    sfc = simple_sfc()
    p = placer.place_teacher(topo, sfc).servers
    assert placer.validate_placement(topo, sfc, p).valid


def test_teacher_matches_brute_force_on_tiny_instances():
    cfg = tiny_config(seed=13)
    within = 0
    for i in range(30):
        topo = netmodel.generate_topology(cfg, i)
        sfc = netmodel.build_sfc(cfg, i)
        opt, opt_cost = brute_force_placement(topo, sfc)
        assert opt is not None
        p = placer.place_teacher(topo, sfc).servers
        cost = total_pair_delay(topo, p, sfc)
        assert cost >= opt_cost - 1e-9
        if cost <= 1.10 * opt_cost:
            within += 1
    assert within >= 29  # near-optimal on exhaustively checkable instances


def test_teacher_search_not_cut_short_is_optimal():
    cfg = tiny_config(seed=29, n_servers=5, replicas=(1, 2, 1, 1))
    finished = 0
    for i in range(10):
        topo = netmodel.generate_topology(cfg, i)
        sfc = netmodel.build_sfc(cfg, i)
        opt, opt_cost = brute_force_placement(topo, sfc)
        p = placer.place_teacher(topo, sfc)
        if not p.budget_exhausted:
            finished += 1
            assert total_pair_delay(topo, p.servers, sfc) == pytest.approx(
                opt_cost, abs=1e-9)
    assert finished == 10


def test_teacher_skips_undersized_server():
    topo = line_topology([10.0, 10.0, 10.0])
    cpu, mem = list(topo.cpu), list(topo.mem)
    cpu[1] = mem[1] = 0.5
    topo = netmodel.Topology(cpu, mem, topo.delay)
    sfc = simple_sfc(cpu=1.0, mem=1.0)
    p = placer.place_teacher(topo, sfc)
    assert 1 not in p.servers


def test_teacher_raises_when_infeasible():
    topo = line_topology([10.0, 10.0, 10.0])
    sfc = simple_sfc(cpu=1000.0)  # no server can host anything
    with pytest.raises(InfeasiblePlacement):
        placer.place_teacher(topo, sfc)


def test_teacher_deterministic(small_batch):
    cfg, topos, sfcs, placements = small_batch
    again = placer.place_teacher(topos[5], sfcs[5])
    assert again.servers == placements[5]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_teacher_valid_or_infeasible_property(seed):
    cfg = tiny_config(seed=seed, n_servers=5, replicas=(1, 2, 1, 1))
    topo = netmodel.generate_topology(cfg, 0)
    sfc = netmodel.build_sfc(cfg, 0)
    try:
        p = placer.place_teacher(topo, sfc)
    except InfeasiblePlacement:
        opt, _ = brute_force_placement(topo, sfc)
        assert opt is None
    else:
        assert placer.validate_placement(topo, sfc, p.servers).valid


def test_cp_count_law_cross_check(small_batch):
    cfg, topos, sfcs, _ = small_batch
    for sfc in sfcs[:20]:
        assert len(chain_structure(sfc.counts).paths) == math.prod(sfc.counts)


def _assert_counters_exact(topo, sfc, got, budget):
    """The budget is exhausted exactly when a budget one larger expands one
    more node; otherwise the search ran to its end, so a budget of exactly the
    nodes it expanded, or a larger one, gives the same result."""
    assert 1 <= got.nodes <= budget
    if got.budget_exhausted:
        assert got.nodes == budget
        assert placer.place_teacher(topo, sfc, budget=budget + 1).nodes == budget + 1
    else:
        for b in (got.nodes, budget + 1000):
            again = placer.place_teacher(topo, sfc, budget=b)
            assert ((again.servers, again.nodes, again.budget_exhausted)
                    == (got.servers, got.nodes, False))


def _teacher_or_none(place, topo, sfc, budget):
    try:
        return place(topo, sfc, budget=budget)
    except InfeasiblePlacement:
        return None


# Delays on a coarse grid (50-400 us) give many cost ties. Float delays, and
# decimal fractions that no binary float holds (0.1 + 0.2 != 0.3), make a
# cost depend on the order its terms are added. Tolerances run from binding
# (most pairs out of reach) to loose, as a share of the largest delay; each
# server fits up to three unit instances or none; counts up to 5 reach the
# upstreams wider than three that ``layer_order`` scores with its loop.
# Measured over five runs of 400 examples: about a third are feasible (89-158);
# of those about 7 in 8 use up the budget and the rest search to the end
# (10-24), and about half (48-86) place an upstream wider than three. 150
# examples of grid delays and counts up to 3 had 53-74 feasible and 6-26
# searched to the end. A lower bound of the largest count on ``n_servers``
# leaves the feasible share about the same: tolerances and capacity refuse most.
DELAY_DRAWS = {  # kind -> (draw of a (rows x columns) block, the largest delay)
    "grid": (lambda rng, shape: rng.integers(1, 9, size=shape) * 50.0, 400.0),
    "float": (lambda rng, shape: rng.uniform(0.0, 400.0, size=shape), 400.0),
    "decimal": (lambda rng, shape: rng.choice([0.1, 0.2, 0.3, 0.6, 0.7, 1.1], size=shape),
                1.1),
}


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_servers=st.integers(3, 30),
       replicas=st.tuples(*[st.integers(1, 5)] * 4),
       kind=st.sampled_from(sorted(DELAY_DRAWS)),
       tolerances=st.tuples(*[st.sampled_from([0.375, 0.625, 25.0])] * 3),
       budget=st.integers(1, 3000))
def test_teacher_matches_reference_property(seed, n_servers, replicas, kind, tolerances,
                                            budget):
    rng = np.random.default_rng(seed)
    draw, largest = DELAY_DRAWS[kind]
    delay = np.triu(draw(rng, (n_servers, n_servers)), 1)
    capacity = rng.choice([0.5, 1.0, 2.0, 3.0], size=(n_servers, 2),
                          p=[0.05, 0.25, 0.35, 0.35])
    topo = netmodel.Topology(capacity[:, 0].tolist(), capacity[:, 1].tolist(),
                             delay + delay.T)
    sfc = simple_sfc(replicas)
    sfc.tolerance = [share * largest for share in tolerances]

    got = _teacher_or_none(placer.place_teacher, topo, sfc, budget)
    expected = _teacher_or_none(reference_place_teacher, topo, sfc, budget)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.servers == expected
        _assert_counters_exact(topo, sfc, got, budget)


def test_teacher_adds_upstream_delays_in_upstream_order():
    """Each server holds one instance and only the links of the chain
    0 - 1 - {2, 3, 4} - {5, 6} are short, so HSS, MME and the three SGWs sit
    on servers 0-4, the SGWs in replica order on 2, 3 and 4. Server 5 is 0.1,
    0.2 and 0.3 us from them and server 6 is 0.3, 0.2 and 0.1: added in
    upstream order, 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001 and
    0.3 + 0.2 + 0.1 to 0.6, so the PGW goes to server 6; the costs summed in
    the reverse order would put it on server 5."""
    short = {(0, 1): 0.1, (1, 2): 0.1, (1, 3): 0.2, (1, 4): 0.3,
             (2, 5): 0.1, (3, 5): 0.2, (4, 5): 0.3, (2, 6): 0.3, (3, 6): 0.2, (4, 6): 0.1}
    delay = np.full((7, 7), 1.1)
    np.fill_diagonal(delay, 0.0)
    for (a, b), d in short.items():
        delay[a, b] = delay[b, a] = d
    topo = netmodel.Topology([1.0] * 7, [1.0] * 7, delay)
    sfc = simple_sfc((1, 1, 3, 1))
    got = placer.place_teacher(topo, sfc)
    assert got.servers == reference_place_teacher(topo, sfc) == (0, 1, 2, 3, 4, 6)
    _assert_counters_exact(topo, sfc, got, 1000)


@pytest.mark.parametrize("config", ["desk.json", "medium.json"])
def test_teacher_matches_reference_on_shipped_configs(config):
    with open(os.path.join(REPO_ROOT, "configs", config), encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = netmodel.config_from_json(netmodel.GenConfig, doc["gen"], "gen")
    for i in range(40):
        topo = netmodel.generate_topology(cfg, i)
        sfc = netmodel.build_sfc(cfg, i)
        got = placer.place_teacher(topo, sfc, budget=doc["teacher_budget"])
        expected = reference_place_teacher(topo, sfc, budget=doc["teacher_budget"])
        assert got.servers == expected, i
        _assert_counters_exact(topo, sfc, got, doc["teacher_budget"])



def test_teacher_leaves_no_garbage_cycle(desk_gen_config):
    tight = desk_gen_config.replace(tolerance=Dist("uniform", 100.0, 300.0))
    # (config, row, budget): feasible rows that use up the budget, one the
    # search finishes within its budget, and a row with no feasible placement
    cases = [(desk_gen_config, 0, 1000), (desk_gen_config, 1, 1000),
             (desk_gen_config, 1, 100_000), (tight, 0, 1000), (tight, 85, 1000)]
    outcomes = []

    def place(topo, sfc, budget):
        try:
            p = placer.place_teacher(topo, sfc, budget=budget)
        except InfeasiblePlacement:
            outcomes.append("infeasible")
        else:
            outcomes.append("exhausted" if p.budget_exhausted else "finished")

    for cfg, index, budget in cases:
        topo, sfc = netmodel.generate_topology(cfg, index), netmodel.build_sfc(cfg, index)
        assert garbage_after(lambda: place(topo, sfc, budget)) == 0, (index, budget)
    assert outcomes == ["exhausted", "exhausted", "finished", "exhausted", "infeasible"]
