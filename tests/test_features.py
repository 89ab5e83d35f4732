import csv
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dists, gen_settings, line_topology, simple_sfc
from oracles import reference_extract_features
from vnfplace import features, netmodel
from vnfplace.netmodel import ArtifactError


def test_feature_width_desk_config():
    assert len(features.feature_names(15, 6)) == 150


@given(n_servers=st.integers(3, 40), n_instances=st.integers(4, 12))
def test_feature_width_formula(n_servers, n_instances):
    expected = (
        2 * n_instances + 2 * n_servers + 3
        + n_servers * (n_servers - 1) // 2
    )
    assert len(features.feature_names(n_servers, n_instances)) == expected


def test_extract_features_deterministic(small_batch):
    cfg, topos, sfcs, _ = small_batch
    a = features.feature_matrix([topos[0]], [sfcs[0]])[0]
    b = features.feature_matrix([topos[0]], [sfcs[0]])[0]
    assert np.array_equal(a, b)
    assert a.size == 150


def test_zero_delay_matrix_gives_zero_delay_features():
    topo = line_topology([0.0, 0.0, 0.0])
    sfc = simple_sfc()
    vec = features.feature_matrix([topo], [sfc])[0]
    names = features.feature_names(4, 4)
    delay_idx = [i for i, n in enumerate(names) if n.startswith("delay_")]
    assert len(delay_idx) == 6
    assert np.all(vec[delay_idx] == 0)


def test_feature_values_match_sources(small_batch):
    cfg, topos, sfcs, _ = small_batch
    topo, sfc = topos[2], sfcs[2]
    vec = features.feature_matrix([topo], [sfc])[0]
    names = features.feature_names(15, 6)
    col = {n: i for i, n in enumerate(names)}
    assert vec[col["inst0_cpu_demand"]] == sfc.cpu_demand[0]
    assert vec[col["inst5_mem_demand"]] == sfc.mem_demand[5]
    assert vec[col["srv3_mem_capacity"]] == topo.mem[3]
    assert vec[col["tolerance_MME_SGW"]] == sfc.tolerance[1]
    assert vec[col["delay_2_7"]] == topo.delay[2, 7]


@settings(max_examples=60, deadline=None)
@given(
    n_servers=st.integers(min_value=3, max_value=40),
    base_seed=st.integers(min_value=0, max_value=2**31),
    indices=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
    delay=dists(),
    capacity=dists(),
    demand=dists(),
)
def test_feature_matrix_matches_the_per_row_reference(n_servers, base_seed, indices, delay,
                                                      capacity, demand):
    cfg = gen_settings(n_servers, cross_tier_delay=delay, mem_capacity=capacity,
                       cpu_demand=demand, tolerance=demand, base_seed=base_seed)
    topos, sfcs = netmodel.load_batch(cfg, indices)
    expected = np.array([reference_extract_features(t, s) for t, s in zip(topos, sfcs)])
    assert features.feature_matrix(topos, sfcs).tobytes() == expected.tobytes()
    assert features.feature_matrix(topos[-1:], sfcs[-1:]).tobytes() == expected[-1:].tobytes()


def test_build_dataset_labels_match_teacher(small_batch):
    cfg, topos, sfcs, placements = small_batch
    X, Y = features.build_dataset(list(zip(topos, sfcs, placements))[:20])
    assert X.shape == (20, 150) and Y.shape == (20, 6)
    assert list(Y[7]) == list(placements[7])


def test_build_dataset_rejects_mixed_configs(small_batch):
    cfg, topos, sfcs, placements = small_batch
    other_topo = line_topology([1.0] * 7)  # 8 servers
    with pytest.raises(ValueError, match="mixed"):
        features.build_dataset(
            [(topos[0], sfcs[0], placements[0]), (other_topo, sfcs[1], placements[1])]
        )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(5, 60),
    b=st.integers(2, 8),
    seed=st.integers(0, 2**31),
)
def test_kfold_partition_laws(n, b, seed):
    if b > n:
        b = n
    split = features.kfold(n, b, seed)
    perm = np.random.default_rng(seed).permutation(n)
    val_all = np.concatenate([v for _, v in split.folds])
    assert sorted(val_all.tolist()) == list(range(n))  # coverage, disjointness
    sizes = {len(v) for _, v in split.folds}
    assert max(sizes) - min(sizes) <= 1
    for train, val in split.folds:
        assert set(train) | set(val) == set(range(n))
        assert not set(train) & set(val)
        held_out = set(val.tolist())  # the shuffle without the fold, in shuffle order
        assert train.tolist() == [i for i in perm.tolist() if i not in held_out]
    again = features.kfold(n, b, seed)
    for (t1, v1), (t2, v2) in zip(split.folds, again.folds):
        assert np.array_equal(t1, t2) and np.array_equal(v1, v2)


def test_kfold_rejects_bad_b(small_dataset):
    X, _, _ = small_dataset
    with pytest.raises(ValueError):
        features.kfold(len(X), 1, 0)
    with pytest.raises(ValueError):
        features.kfold(len(X), len(X) + 1, 0)


def test_dataset_round_trip(tmp_path, small_batch):
    cfg, topos, sfcs, placements = small_batch
    X, Y = features.build_dataset(list(zip(topos, sfcs, placements))[:10])
    path = str(tmp_path / "ds.csv")
    features.save_dataset(path, X, Y, 15)
    back_X, back_Y = features.load_dataset(path, 15, 6)
    assert back_X.tobytes() == X.tobytes() and back_Y.tolist() == Y.tolist()
    # the sidecar documents the columns; no reader of the package opens it
    feature_cols, label_cols = features.columns(15, 6)
    assert json.loads((tmp_path / "ds.schema.json").read_text()) == {
        "feature_cols": feature_cols, "label_cols": label_cols, "n_servers": 15}
    assert label_cols == [f"label_inst{i}" for i in range(6)]


def test_empty_dataset_round_trip(tmp_path):
    cols = features.feature_names(6, 4)
    path = str(tmp_path / "empty.csv")
    features.save_dataset(path, np.empty((0, len(cols))), np.empty((0, 4), dtype=int), 6)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 1  # header only
    X, Y = features.load_dataset(path, 6, 4)
    assert X.shape == (0, len(cols)) and Y.shape == (0, 4)


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([1e16, 1e-05, 5e-324, -0.0, sys.float_info.max]))
_COLS = features.feature_names(3, 4)
_LABEL_COLS = [f"label_inst{i}" for i in range(4)]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(
    st.lists(_FLOATS, min_size=len(_COLS), max_size=len(_COLS)),
    st.lists(st.integers(min_value=0, max_value=2**63 - 2), min_size=4, max_size=4)),
    max_size=4))
@example(rows=[])
@example(rows=[([1e16, 1e-05, 5e-324, -0.0, sys.float_info.max] * 4,
                [0, 1, 2**62, 2**63 - 2])])
def test_save_dataset_writes_what_csv_writer_writes(tmp_path_factory, rows):
    """The dataset CSV holds the bytes csv.writer's default dialect writes."""
    path = tmp_path_factory.getbasetemp() / "save_dataset_property.csv"
    X = np.array([x for x, _ in rows], dtype=float).reshape(len(rows), len(_COLS))
    Y = np.array([y for _, y in rows], dtype=np.int64).reshape(len(rows), 4)
    features.save_dataset(path, X, Y, 3)
    buf = io.StringIO()
    csv.writer(buf).writerows([_COLS + _LABEL_COLS] + [x + y for x, y in rows])
    assert path.read_bytes() == buf.getvalue().encode()


def test_load_reports_bad_label_column(tmp_path, small_batch):
    cfg, topos, sfcs, placements = small_batch
    X, Y = features.build_dataset(list(zip(topos, sfcs, placements))[:3])
    path = str(tmp_path / "ds.csv")
    features.save_dataset(path, X, Y, 15)
    lines = open(path).read().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "not_a_server"
    lines[1] = ",".join(cells)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ArtifactError, match="label_inst5"):
        features.load_dataset(path, 15, 6)


def test_load_rejects_wrong_header(tmp_path, small_batch):
    cfg, topos, sfcs, placements = small_batch
    X, Y = features.build_dataset(list(zip(topos, sfcs, placements))[:3])
    path = str(tmp_path / "ds.csv")
    features.save_dataset(path, X, Y, 15)
    lines = open(path).read().splitlines()
    lines[0] = lines[0].replace("inst0_cpu_demand", "renamed")
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ArtifactError, match="header"):
        features.load_dataset(path, 15, 6)

