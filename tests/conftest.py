import gc
import json
import os
import sys
import types

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from vnfplace import features, netmodel, placer, swarm
from vnfplace.netmodel import Dist, GenConfig, config_from_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_CONFIG_PATH = os.path.join(REPO_ROOT, "configs", "desk.json")


def tiny_config(seed=7, n_servers=4, replicas=(1, 1, 1, 1)):
    """Exhaustively checkable instances with generous tolerances."""
    return GenConfig(
        n_servers=n_servers,
        replica_counts=replicas,
        tolerance=Dist("uniform", 1500.0, 3000.0),
        n_topologies=200,
        base_seed=seed,
    )


def dists():
    """Uniform and normal distributions, degenerate ones included."""
    bound = st.floats(min_value=0, max_value=2000)
    return st.one_of(
        st.tuples(bound, bound).map(lambda ab: Dist("uniform", min(ab), max(ab))),
        bound.map(lambda a: Dist("uniform", a, a)),
        st.tuples(st.floats(min_value=-500, max_value=2000), bound).map(
            lambda ms: Dist("normal", *ms)),
    )


def fields_of(record) -> dict:
    """A ``__slots__`` record's fields by name, in constructor order: a chain
    spec compares by identity, so tests compare these."""
    return {name: getattr(record, name) for name in record.__slots__}


def gen_settings(n_servers, **kw):
    """The settings of ``GenConfig(n_servers, 1-1-1-1 replicas, **kw)`` as a
    plain namespace. Generation reads only the settings, and a namespace may
    also hold 3 servers, fewer than GenConfig admits for a 4-instance chain."""
    cfg = GenConfig(n_servers=max(n_servers, 4), replica_counts=(1, 1, 1, 1), **kw)
    return types.SimpleNamespace(**{
        **{name: getattr(cfg, name) for name, _, _ in cfg.FIELDS},
        "n_servers": n_servers, "n_instances": cfg.n_instances})


def garbage_after(call):
    """Run ``call`` with the cycle collector off and return the number of
    objects a full collection then frees: what ``call`` left reachable only
    through reference cycles."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="session")
def desk_gen_config():
    with open(DESK_CONFIG_PATH, encoding="utf-8") as fh:
        return config_from_json(GenConfig, json.load(fh)["gen"], "gen")


@pytest.fixture(scope="session")
def small_batch(desk_gen_config):
    """120 desk-config topologies with teacher placements (server tuples),
    shared across tests."""
    cfg = desk_gen_config.replace(n_topologies=120)
    topos, sfcs, placements = [], [], []
    for i in range(cfg.n_topologies):
        t = netmodel.generate_topology(cfg, i)
        s = netmodel.build_sfc(cfg, i)
        topos.append(t)
        sfcs.append(s)
        placements.append(placer.place_teacher(t, s).servers)
    return cfg, topos, sfcs, placements


@pytest.fixture(scope="session")
def small_dataset(small_batch):
    cfg, topos, sfcs, placements = small_batch
    X, Y = features.build_dataset(list(zip(topos, sfcs, placements)))
    ctx = swarm.make_context(topos, sfcs, placements)
    return X, Y, ctx


def line_topology(delays):
    """Hand-built topology: server i and i+1 separated by delays[i]; all other
    pairs get the summed chain distance. Capacities are ample."""
    n = len(delays) + 1
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = sum(delays[i:j])
    return netmodel.Topology([100.0] * n, [100.0] * n, mat)


def simple_sfc(replicas=(1, 1, 1, 1), tolerance=1e6, cpu=1.0, mem=1.0):
    n = sum(replicas)
    return netmodel.SfcSpec(tuple(replicas), [cpu] * n, [mem] * n,
                            [tolerance] * len(netmodel.ADJACENT_PAIRS))
