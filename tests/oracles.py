"""Independent reference implementations used only to check the real ones."""

import itertools

import numpy as np

from vnfplace import placer
from vnfplace.netmodel import CHAIN
from vnfplace.placer import Placement


def brute_force_placement(topo, sfc):
    """Exhaustive search over all server assignments.

    Returns (best placement, best total dependent-pair delay), or (None, inf)
    when no valid assignment exists. Only usable on tiny instances.
    """
    ids = [i.id for i in sorted(sfc.instances, key=lambda x: x.id)]
    best, best_cost = None, float("inf")
    for assign in itertools.product(range(topo.n_servers), repeat=len(ids)):
        p = Placement(assignment=dict(zip(ids, assign)))
        if not placer.validate_placement(topo, sfc, p).valid:
            continue
        cost = placer.total_pair_delay(topo, p, sfc)
        if cost < best_cost:
            best, best_cost = p, cost
    return best, best_cost


def gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float((p**2).sum())


def stump_oracle(X, Y):
    """Exhaustive best (feature, threshold) by mean weighted child Gini.

    Scans every feature and every midpoint between consecutive distinct
    values; ties go to the lowest feature index then the lowest threshold.
    """
    n, nf = X.shape
    n_out = Y.shape[1]
    best = None  # (score, feature, threshold)
    for f in range(nf):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = X[:, f] <= thr
            score = 0.0
            for o in range(n_out):
                classes = np.unique(Y[:, o])
                lc = np.array([(Y[left, o] == c).sum() for c in classes], dtype=float)
                rc = np.array([(Y[~left, o] == c).sum() for c in classes], dtype=float)
                score += (left.sum() * gini(lc) + (~left).sum() * gini(rc)) / n
            score /= n_out
            if best is None or score < best[0] - 1e-12:
                best = (score, f, thr)
    return None if best is None else (best[1], best[2], best[0])


def reference_predict(model_doc, x):
    """Recursive-descent traversal of a serialized tree, written independently
    of the array-based predictor."""
    nodes = model_doc["nodes"]

    def descend(i):
        node = nodes[i]
        if node["feature"] < 0:
            return node["majority"]
        if x[node["feature"]] <= node["threshold"]:
            return descend(node["left"])
        return descend(node["right"])

    return descend(0)


def reference_valid(topo, sfc, p):
    """Validity under all four constraint families, written from their
    definitions: capacity, delay tolerance over every dependent pair,
    anti-location, and dependency (every computational path within the
    tolerance hop by hop)."""
    a = p.assignment
    if any(i.id not in a or not 0 <= a[i.id] < topo.n_servers for i in sfc.instances):
        return False
    for s in topo.servers:
        hosted = [i for i in sfc.instances if a[i.id] == s.id]
        if (sum(i.cpu_demand for i in hosted) > s.cpu_capacity
                or sum(i.mem_demand for i in hosted) > s.mem_capacity):
            return False
    by_type = [[i for i in sfc.instances if i.vnf_type == t] for t in CHAIN]

    def within(x, y):
        return topo.delay[a[x.id], a[y.id]] <= sfc.tolerance[(x.vnf_type, y.vnf_type)]

    for ups, downs in zip(by_type, by_type[1:]):
        if not all(within(x, y) for x in ups for y in downs):
            return False
    for replicas in by_type:
        groups = [topo.servers[a[i.id]].host_group for i in replicas]
        if len(set(groups)) != len(groups):
            return False
    return all(
        within(x, y)
        for path in itertools.product(*by_type)
        for x, y in zip(path, path[1:])
    )
