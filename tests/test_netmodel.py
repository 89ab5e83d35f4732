import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dists, fields_of, gen_settings, line_topology, simple_sfc
from oracles import (
    reference_build_sfc, reference_chain_structure, reference_generate_topology,
    reference_groupby_generate_topology,
)
from vnfplace import netmodel, placer
from vnfplace.netmodel import ConfigError, Dist, GenConfig


def test_topology_shape_and_invariants():
    cfg = GenConfig(n_servers=15, base_seed=42)
    topo = netmodel.generate_topology(cfg, 0)
    assert topo.n_servers == 15
    assert topo.delay.shape == (15, 15)
    assert np.array_equal(topo.delay, topo.delay.T)
    assert np.all(np.diag(topo.delay) == 0)
    assert np.all(topo.delay >= 0)


def test_generation_is_deterministic():
    cfg = GenConfig(n_servers=15, base_seed=42)
    a = netmodel.generate_topology(cfg, 3)
    b = netmodel.generate_topology(cfg, 3)
    assert np.array_equal(a.delay, b.delay)
    assert (a.cpu, a.mem) == (b.cpu, b.mem)
    assert fields_of(netmodel.build_sfc(cfg, 3)) == fields_of(netmodel.build_sfc(cfg, 3))


def test_batch_topologies_are_distinct():
    cfg = GenConfig(n_servers=30, base_seed=1)
    mats = [netmodel.generate_topology(cfg, i).delay.tobytes() for i in range(100)]
    assert len(set(mats)) == 100


def test_too_few_servers_rejected():
    with pytest.raises(ConfigError):
        GenConfig(n_servers=2, replica_counts=(1, 1, 1, 1))


def test_intra_tier_delays_statistically_smaller():
    cfg = GenConfig(n_servers=15, base_seed=5)
    tiers = netmodel.tier_assignment(15)
    intra, cross = [], []
    for k in range(50):
        topo = netmodel.generate_topology(cfg, k)
        for i in range(15):
            for j in range(i + 1, 15):
                (intra if tiers[i] == tiers[j] else cross).append(topo.delay[i, j])
    assert np.mean(intra) < np.mean(cross)
    assert np.percentile(intra, 90) < np.percentile(cross, 50)


def test_tier_split_ratio():
    tiers = netmodel.tier_assignment(15)
    assert tiers.count("core") == 3
    assert tiers.count("aggregation") == 6
    assert tiers.count("access") == 6
    for n in (3, 7, 30):
        t = netmodel.tier_assignment(n)
        assert len(t) == n
        assert all(t.count(x) >= 1 for x in ("core", "aggregation", "access"))


@pytest.mark.parametrize(
    "replicas,n_inst,n_cps",
    [((1, 2, 2, 1), 6, 4), ((2, 3, 3, 2), 10, 36), ((1, 1, 1, 1), 4, 1)],
)
def test_sfc_instance_and_path_counts(replicas, n_inst, n_cps):
    cfg = GenConfig(n_servers=30, replica_counts=replicas)
    sfc = netmodel.build_sfc(cfg, 0)
    assert sfc.counts == replicas
    assert sfc.n_instances == len(sfc.mem_demand) == n_inst
    assert len(netmodel.chain_structure(sfc.counts).paths) == n_cps


@pytest.mark.parametrize("change, says", [
    ({"counts": (1, 2, 2)}, "counts"),
    ({"counts": (1, 0, 2, 1)}, "counts"),
    ({"cpu_demand": [1.0] * 5}, "demands"),
    ({"mem_demand": [1.0] * 7}, "demands"),
    ({"cpu_demand": [1.0] * 5 + [-1.0]}, "non-negative"),
    ({"tolerance": [900.0] * 4}, "one value per adjacent type pair"),
    ({"tolerance": [900.0, -1.0, 900.0]}, "non-negative"),
    ({"mem_demand": [1.0] * 5 + [float("nan")]}, "non-negative"),
    ({"tolerance": [900.0, float("nan"), 900.0]}, "non-negative"),
], ids=["short-counts", "zero-count", "short-cpu", "long-mem", "negative-demand",
        "long-tolerance", "negative-tolerance", "nan-demand", "nan-tolerance"])
def test_sfc_rejects_arrays_of_wrong_length_or_sign(change, says):
    """A chain's demands have one entry per instance of its counts and are
    non-negative, and its tolerances one non-negative entry per adjacent pair
    (0: the pair must share a server); NaN is refused as a negative is."""
    sfc = netmodel.build_sfc(GenConfig(n_servers=30, replica_counts=(1, 2, 2, 1)), 0)
    with pytest.raises(ValueError, match=says):
        netmodel.SfcSpec(**{**fields_of(sfc), **change})


@pytest.mark.parametrize("cpu, mem", [([1.0] * 2, [1.0] * 3), ([1.0] * 3, [1.0] * 4),
                                      ([1.0, -0.5, 1.0], [1.0] * 3),
                                      ([1.0] * 3, [1.0, 1.0, -2.0]),
                                      ([float("nan"), 1.0, 1.0], [1.0] * 3),
                                      ([1.0] * 3, [1.0, float("nan"), 1.0])],
                         ids=["short-cpu", "long-mem", "negative-cpu", "negative-mem",
                              "nan-cpu", "nan-mem"])
def test_topology_rejects_capacities_of_wrong_length_or_sign(cpu, mem):
    """A topology holds one non-negative cpu and mem capacity per row of its
    delay matrix; NaN is refused as a negative is."""
    delay = line_topology([100.0, 250.0]).delay
    with pytest.raises(ValueError, match="disagree|non-negative"):
        netmodel.Topology(cpu, mem, delay)


@settings(max_examples=100, deadline=None)
@given(replicas=st.tuples(*[st.integers(1, 4)] * 4))
def test_chain_structure_matches_grouped_ids_property(replicas):
    """Layers, pairs and paths equal an enumeration that groups the instance
    ids by type with its own loop and orders pairs and paths by sorting."""
    layers, pairs, paths = netmodel.chain_structure(replicas)
    ref_layers, ref_pairs, ref_paths = reference_chain_structure(replicas)
    assert [list(ids) for ids in layers] == ref_layers
    assert list(pairs) == ref_pairs
    assert list(paths) == ref_paths
    assert len(paths) == math.prod(replicas)
    assert len(pairs) == sum(a * b for a, b in zip(replicas, replicas[1:]))


def test_server_delay_reads_matrix():
    """A dependent pair's delay is the topology's matrix entry for the two
    servers: zero on one server, the same both ways, and a server id out of
    range is an IndexError."""
    topo = line_topology([100.0, 250.0, 50.0])
    chain = simple_sfc().counts
    pairs, _ = placer.delays([topo] * 3, [[3, 3, 3, 3], [1, 2, 1, 2], [0, 2, 0, 2]], chain)
    assert pairs.tolist() == [[0.0] * 3, [250.0] * 3, [350.0] * 3]
    with pytest.raises(IndexError):
        placer.delays([topo], [[0, 9, 0, 9]], chain)


@pytest.mark.parametrize("entries", [
    {(0, 1): np.nan, (1, 0): np.nan},  # symmetric, but NaN equals nothing
    {(0, 2): np.nan},
    {(1, 2): np.nextafter(250.0, np.inf)},  # one ulp above its mirror
    {(2, 0): np.inf},
], ids=["nan-both", "nan-one", "asymmetric", "inf-one"])
def test_topology_rejects_nan_or_asymmetric_delays(entries):
    topo = line_topology([100.0, 250.0])
    delay = topo.delay.copy()
    for ij, value in entries.items():
        delay[ij] = value
    with pytest.raises(ValueError, match="symmetric"):
        netmodel.Topology(topo.cpu, topo.mem, delay)


def test_topology_accepts_negative_zero_mirrored_by_zero():
    delay = np.array([[0.0, -0.0], [0.0, 0.0]])
    topo = line_topology([1.0])
    assert netmodel.Topology(topo.cpu, topo.mem, delay).n_servers == 2


@settings(max_examples=25, deadline=None)
@given(
    n_servers=st.integers(min_value=6, max_value=20),
    base_seed=st.integers(min_value=0, max_value=2**31),
    index=st.integers(min_value=0, max_value=1000),
)
def test_generated_topology_invariants_property(n_servers, base_seed, index):
    cfg = GenConfig(n_servers=n_servers, base_seed=base_seed)
    topo = netmodel.generate_topology(cfg, index)
    assert np.array_equal(topo.delay, topo.delay.T)
    assert np.all(np.diag(topo.delay) == 0)
    assert np.all(topo.delay >= 0)
    sfc = netmodel.build_sfc(cfg, index)
    assert sum(sfc.counts) == sfc.n_instances == len(sfc.mem_demand)
    assert min(sfc.cpu_demand + sfc.mem_demand + topo.cpu + topo.mem) >= 0
    assert len(sfc.tolerance) == 3 and min(sfc.tolerance) > 0


@settings(max_examples=60, deadline=None)
@given(
    n_servers=st.integers(min_value=4, max_value=30),
    base_seed=st.integers(min_value=0, max_value=2**31),
    index=st.integers(min_value=0, max_value=10**6),
    intra=dists(),
    cross=dists(),
)
def test_generate_topology_matches_scalar_draws(n_servers, base_seed, index, intra, cross):
    cfg = GenConfig(n_servers=n_servers, replica_counts=(1, 1, 1, 1),
                    intra_tier_delay=intra, cross_tier_delay=cross, base_seed=base_seed)
    topo = netmodel.generate_topology(cfg, index)
    cpu, mem, delay = reference_generate_topology(cfg, index)
    assert topo.delay.tobytes() == delay.tobytes()
    assert topo.cpu == cpu.tolist() and topo.mem == mem.tolist()
    assert {type(c) for c in topo.cpu + topo.mem} == {float}


@settings(max_examples=100, deadline=None)
@given(
    replicas=st.tuples(*[st.integers(min_value=1, max_value=5)] * 4),
    base_seed=st.integers(min_value=0, max_value=2**31),
    index=st.integers(min_value=0, max_value=10**6),
    cpu=dists(),
    mem=dists(),
    tolerance=dists(),
)
def test_build_sfc_matches_scalar_draws(replicas, base_seed, index, cpu, mem, tolerance):
    cfg = GenConfig(n_servers=20, replica_counts=replicas, cpu_demand=cpu, mem_demand=mem,
                    tolerance=tolerance, base_seed=base_seed)
    sfc = netmodel.build_sfc(cfg, index)
    got = (sfc.cpu_demand, sfc.mem_demand, sfc.tolerance)
    assert [np.array(v).tobytes() for v in got] == [
        np.array(v).tobytes() for v in reference_build_sfc(cfg, index)]
    assert {type(v) for values in got for v in values} == {float}


@settings(max_examples=80, deadline=None)
@given(
    n_servers=st.integers(min_value=3, max_value=40),
    base_seed=st.integers(min_value=0, max_value=2**31),
    index=st.integers(min_value=0, max_value=10**6),
    intra=dists(),
    cross=dists(),
    capacity=dists(),
)
def test_generate_topology_matches_the_per_call_groupby(n_servers, base_seed, index, intra,
                                                        cross, capacity):
    cfg = gen_settings(n_servers, intra_tier_delay=intra, cross_tier_delay=cross,
                       cpu_capacity=capacity, base_seed=base_seed)
    topo = netmodel.generate_topology(cfg, index)
    cpu, mem, delay = reference_groupby_generate_topology(cfg, index)
    assert topo.delay.tobytes() == delay.tobytes()
    assert np.array(topo.cpu + topo.mem).tobytes() == np.array(cpu + mem).tobytes()


def test_pair_layout_is_shared_and_read_only():
    rows, cols, runs = netmodel.pair_layout(15)
    assert netmodel.pair_layout(15)[0] is rows
    with pytest.raises(ValueError):
        rows[0] = 1
    with pytest.raises(ValueError):
        cols[0] = 1
    # the runs tile the pairs and alternate between intra-tier and cross-tier
    assert [a for a, _, _ in runs] == [0] + [b for _, b, _ in runs[:-1]]
    assert runs[-1][1] == len(rows) == 105
    assert all(x[2] != y[2] for x, y in zip(runs, runs[1:]))


def test_normal_dist_clipped_at_zero():
    d = Dist("normal", 0.0, 5.0)
    rng = np.random.default_rng(0)
    assert np.all(d.sample(rng, 1000) >= 0)


def test_invalid_dist_rejected():
    with pytest.raises(ConfigError):
        Dist("uniform", 5.0, 1.0)
    with pytest.raises(ConfigError):
        Dist("pareto", 1.0, 2.0)


def test_bad_config_rejected():
    with pytest.raises(ConfigError):
        GenConfig(n_servers=4, replica_counts=(2, 3, 3, 2))
    with pytest.raises(ConfigError):
        GenConfig(replica_counts=(0, 1, 1, 1))
    with pytest.raises(ConfigError, match="one count per chain type"):
        GenConfig(replica_counts=(1, 2, 2))


def test_load_batch_regenerates_the_indexed_rows():
    cfg = GenConfig(n_servers=8, n_topologies=6, base_seed=9)
    idx = [4, 0, 5, 2]
    topos, sfcs = netmodel.load_batch(cfg, idx)
    assert len(topos) == len(sfcs) == len(idx)
    for i, topo, sfc in zip(idx, topos, sfcs):
        expected = netmodel.generate_topology(cfg, i)
        assert np.array_equal(topo.delay, expected.delay)
        assert (topo.cpu, topo.mem) == (expected.cpu, expected.mem)
        assert fields_of(netmodel.build_sfc(cfg, i)) == fields_of(sfc)


def test_failed_write_keeps_previous_artifact(tmp_path):
    path = tmp_path / "doc.json"
    netmodel.save_json({"a": [1, 2]}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        netmodel.save_json({"a": [1, object()]}, path)
    with pytest.raises(ZeroDivisionError):
        netmodel.save_csv(path, ["x"], ([1 / x] for x in (1, 0)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(),
    st.sampled_from([1e16, 1e-05, 5e-324, -0.0, sys.float_info.max, 2**63 - 1, 10**30]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, min_size=1, max_size=6), max_size=5))
@example(rows=[])
def test_save_csv_writes_what_csv_writer_writes(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "save_csv_property.csv"
    header = ["inst0_cpu_demand", "delay_0_1", "label_inst0"]
    netmodel.save_csv(path, header, iter(rows))
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + rows)
    assert path.read_bytes() == buf.getvalue().encode()


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
#: Keys of one dict are mutually comparable, as ``sort_keys`` needs.
_KEYS = [st.text(), st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()),
         st.none()]
_DOCS = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple),
    *(st.dictionaries(keys, children) for keys in _KEYS)), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_save_json_writes_what_json_dump_writes(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "save_json_property.json"
    netmodel.save_json(doc, path)
    assert path.read_bytes() == (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
