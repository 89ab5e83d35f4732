import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_topology, simple_sfc, tiny_config
from oracles import brute_force_placement, reference_valid
from vnfplace import netmodel, placer
from vnfplace.netmodel import Dist
from vnfplace.placer import InfeasiblePlacement, Placement


def test_enumerate_cps_counts():
    assert len(placer.enumerate_cps(simple_sfc((1, 2, 2, 1)))) == 4
    assert len(placer.enumerate_cps(simple_sfc((2, 3, 3, 2)))) == 36
    assert len(placer.enumerate_cps(simple_sfc((1, 1, 1, 1)))) == 1


def test_enumerate_cps_order_is_lexicographic():
    sfc = simple_sfc((1, 2, 2, 1))
    cps = placer.enumerate_cps(sfc)
    # instance ids: HSS=0, MME=1,2, SGW=3,4, PGW=5
    assert cps == [(0, 1, 3, 5), (0, 1, 4, 5), (0, 2, 3, 5), (0, 2, 4, 5)]


def test_cp_delay_sums_hops():
    topo = line_topology([100.0, 200.0, 300.0])
    sfc = simple_sfc()
    p = Placement(assignment={0: 0, 1: 1, 2: 2, 3: 3})
    (cp,) = placer.enumerate_cps(sfc)
    assert placer.cp_delay(topo, p, cp) == 600.0
    co = Placement(assignment={0: 1, 1: 1, 2: 1, 3: 1})
    assert placer.cp_delay(topo, co, cp) == 0.0


def test_cp_delay_matches_independent_recompute():
    cfg = tiny_config(seed=11, n_servers=6, replicas=(1, 2, 2, 1))
    topo = netmodel.generate_topology(cfg, 0)
    sfc = netmodel.build_sfc(cfg, 0)
    rng = np.random.default_rng(3)
    p = Placement(assignment={i.id: int(rng.integers(0, 6)) for i in sfc.instances})
    for cp in placer.enumerate_cps(sfc):
        expected = sum(
            topo.delay[p.server_of(a), p.server_of(b)] for a, b in zip(cp, cp[1:])
        )
        assert placer.cp_delay(topo, p, cp) == pytest.approx(expected, abs=0)


def test_avg_cp_delay_is_mean():
    # two MME and two SGW replicas on a line topology give four distinct CPs
    topo = line_topology([100.0, 100.0, 100.0, 100.0, 100.0])
    sfc = simple_sfc((1, 2, 2, 1))
    p = Placement(assignment={0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5})
    cps = placer.enumerate_cps(sfc)
    delays = [placer.cp_delay(topo, p, cp) for cp in cps]
    assert placer.avg_cp_delay(topo, p, sfc) == pytest.approx(np.mean(delays), abs=0)

    one_cp = simple_sfc((1, 1, 1, 1))
    q = Placement(assignment={0: 0, 1: 2, 2: 3, 3: 5})
    (cp,) = placer.enumerate_cps(one_cp)
    assert placer.avg_cp_delay(topo, q, one_cp) == placer.cp_delay(topo, q, cp)


def test_teacher_output_is_valid(small_batch):
    cfg, topos, sfcs, placements = small_batch
    for topo, sfc, p in zip(topos, sfcs, placements):
        assert placer.validate_placement(topo, sfc, p).valid


def test_anti_location_violation_detected():
    topo = line_topology([100.0, 100.0, 100.0])
    sfc = simple_sfc((1, 2, 1, 1))  # ids: HSS=0, MME=1,2, SGW=3, PGW=4
    p = Placement(assignment={0: 0, 1: 1, 2: 1, 3: 2, 4: 3})
    report = placer.validate_placement(topo, sfc, p)
    assert not report.valid
    assert ("anti_location", (1, 2)) in report.violations


def test_tolerance_boundary_is_inclusive():
    topo = line_topology([500.0, 500.0, 500.0])
    sfc = simple_sfc(tolerance=500.0)
    p = Placement(assignment={0: 0, 1: 1, 2: 2, 3: 3})
    assert placer.validate_placement(topo, sfc, p).valid
    tight = simple_sfc(tolerance=499.999)
    report = placer.validate_placement(topo, tight, p)
    assert not report.valid
    kinds = {k for k, _ in report.violations}
    assert kinds == {"delay_tolerance"}


def test_capacity_violation_detected():
    topo = line_topology([100.0, 100.0, 100.0])
    sfc = simple_sfc(cpu=60.0)  # two instances exceed cpu capacity 100
    p = Placement(assignment={0: 0, 1: 0, 2: 1, 3: 2})
    report = placer.validate_placement(topo, sfc, p)
    assert not report.valid
    assert ("capacity", (0,)) in report.violations


def test_validator_lists_every_violation():
    topo = line_topology([900.0, 900.0, 900.0])
    sfc = simple_sfc((1, 2, 1, 1), tolerance=100.0, cpu=80.0)
    p = Placement(assignment={0: 0, 1: 0, 2: 0, 3: 1, 4: 2})
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
    cfg = dataclasses.replace(desk_gen_config, tolerance=Dist("uniform", 100.0, 300.0))
    topo = netmodel.generate_topology(cfg, index)
    sfc = netmodel.build_sfc(cfg, index)
    try:
        labels = [s for _, s in sorted(placer.place_teacher(topo, sfc).assignment.items())]
    except InfeasiblePlacement:
        labels = list(range(sfc.n_instances))
    for pos, server in changes:
        labels[pos] = server
    p = Placement(assignment=dict(enumerate(labels)))
    assert placer.validate_placement(topo, sfc, p).valid == reference_valid(topo, sfc, p)


def test_teacher_on_fully_feasible_instance():
    topo = line_topology([10.0, 10.0, 10.0])
    sfc = simple_sfc()
    p = placer.place_teacher(topo, sfc)
    assert placer.validate_placement(topo, sfc, p).valid


def test_teacher_matches_brute_force_on_tiny_instances():
    cfg = tiny_config(seed=13)
    within = 0
    for i in range(30):
        topo = netmodel.generate_topology(cfg, i)
        sfc = netmodel.build_sfc(cfg, i)
        opt, opt_cost = brute_force_placement(topo, sfc)
        assert opt is not None
        p = placer.place_teacher(topo, sfc)
        cost = placer.total_pair_delay(topo, p, sfc)
        assert cost >= opt_cost - 1e-9
        if cost <= 1.10 * opt_cost:
            within += 1
    assert within >= 29  # near-optimal on exhaustively checkable instances


def test_teacher_skips_undersized_server():
    topo = line_topology([10.0, 10.0, 10.0])
    servers = list(topo.servers)
    servers[1] = netmodel.ServerNode(1, 0.5, 0.5, servers[1].tier, 1)
    topo = netmodel.Topology(servers=servers, delay=topo.delay, seed=0)
    sfc = simple_sfc(cpu=1.0, mem=1.0)
    p = placer.place_teacher(topo, sfc)
    assert 1 not in p.assignment.values()


def test_teacher_raises_when_infeasible():
    topo = line_topology([10.0, 10.0, 10.0])
    sfc = simple_sfc(cpu=1000.0)  # no server can host anything
    with pytest.raises(InfeasiblePlacement):
        placer.place_teacher(topo, sfc)


def test_teacher_deterministic(small_batch):
    cfg, topos, sfcs, placements = small_batch
    again = placer.place_teacher(topos[5], sfcs[5])
    assert again.assignment == placements[5].assignment


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
        assert placer.validate_placement(topo, sfc, p).valid


def test_cp_count_law_cross_check(small_batch):
    cfg, topos, sfcs, _ = small_batch
    for sfc in sfcs[:20]:
        assert len(placer.enumerate_cps(sfc)) == sfc.n_paths
