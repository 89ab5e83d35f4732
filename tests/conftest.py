import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from vnfplace import features, netmodel, placer, swarm
from vnfplace.netmodel import Dist, GenConfig, VnfType, config_from_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DESK_CONFIG_PATH = os.path.join(REPO_ROOT, "configs", "desk.json")


def counts(hss, mme, sgw, pgw):
    return (
        (VnfType.HSS, hss), (VnfType.MME, mme), (VnfType.SGW, sgw), (VnfType.PGW, pgw),
    )


def tiny_config(seed=7, n_servers=4, replicas=(1, 1, 1, 1)):
    """Exhaustively checkable instances with generous tolerances."""
    return GenConfig(
        n_servers=n_servers,
        replica_counts=counts(*replicas),
        tolerance=Dist("uniform", 1500.0, 3000.0),
        n_topologies=200,
        base_seed=seed,
    )


@pytest.fixture(scope="session")
def desk_gen_config():
    with open(DESK_CONFIG_PATH, encoding="utf-8") as fh:
        return config_from_json(GenConfig, json.load(fh)["gen"], "gen")


@pytest.fixture(scope="session")
def small_batch(desk_gen_config):
    """120 desk-config topologies with teacher placements, shared across tests."""
    import dataclasses
    cfg = dataclasses.replace(desk_gen_config, n_topologies=120)
    topos, sfcs, placements = [], [], []
    for i in range(cfg.n_topologies):
        t = netmodel.generate_topology(cfg, i)
        s = netmodel.build_sfc(cfg, i)
        topos.append(t)
        sfcs.append(s)
        placements.append(placer.place_teacher(t, s))
    return cfg, topos, sfcs, placements


@pytest.fixture(scope="session")
def small_dataset(small_batch):
    cfg, topos, sfcs, placements = small_batch
    ds = features.build_dataset(list(zip(topos, sfcs, placements)))
    delays = [placer.avg_cp_delay(t, p, s) for t, s, p in zip(topos, sfcs, placements)]
    ctx = swarm.make_context(topos, sfcs, delays)
    return ds, ctx


def line_topology(delays, tiers=None):
    """Hand-built topology: server i and i+1 separated by delays[i]; all other
    pairs get the summed chain distance. Capacities are ample."""
    n = len(delays) + 1
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = sum(delays[i:j])
    tiers = tiers or netmodel.tier_assignment(n)
    servers = [
        netmodel.ServerNode(id=i, cpu_capacity=100.0, mem_capacity=100.0,
                            tier=tiers[i], host_group=i)
        for i in range(n)
    ]
    return netmodel.Topology(servers=servers, delay=mat, seed=0)


def simple_sfc(replicas=(1, 1, 1, 1), tolerance=1e6, cpu=1.0, mem=1.0):
    cfg_counts = dict(zip(netmodel.CHAIN, replicas))
    instances = []
    next_id = 0
    for t in netmodel.CHAIN:
        for r in range(cfg_counts[t]):
            instances.append(netmodel.VnfInstance(next_id, t, cpu, mem, r))
            next_id += 1
    return netmodel.SfcSpec(
        instances=instances,
        replica_counts=cfg_counts,
        tolerance={p: tolerance for p in netmodel.ADJACENT_PAIRS},
    )
