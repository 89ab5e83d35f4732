"""Independent reference implementations used only to check the real ones."""

import itertools

import numpy as np

from vnfplace import netmodel, placer
from vnfplace.netmodel import CHAIN
from vnfplace.placer import InfeasiblePlacement


def brute_force_placement(topo, sfc):
    """Exhaustive search over all server assignments.

    Returns (best placement, best total dependent-pair delay), or (None, inf)
    when no valid assignment exists. Only usable on tiny instances.
    """
    ids = [i.id for i in sorted(sfc.instances, key=lambda x: x.id)]
    best, best_cost = None, float("inf")
    for assign in itertools.product(range(topo.n_servers), repeat=len(ids)):
        p = assign
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


def reference_best_split(X, Yenc, n_classes):
    """Exhaustive best (feature, threshold) by mean weighted child Gini, one
    feature and one output at a time: the scan ``tree._best_split`` does for
    all features at once, with the same arithmetic and tie rules.

    Returns (feature, threshold, score) or None when no feature admits a split.
    """
    n, nf = X.shape
    n_out = Yenc.shape[1]
    best = None  # (score, feature, threshold)
    idx = np.arange(1, n, dtype=float)  # left-side sizes per split position
    for f in range(nf):
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        valid = xs[:-1] < xs[1:]
        if not valid.any():
            continue
        total = np.zeros(n - 1)
        for o in range(n_out):
            ys = Yenc[order, o]
            onehot = np.zeros((n, n_classes[o]))
            onehot[np.arange(n), ys] = 1.0
            prefix = np.cumsum(onehot, axis=0)[:-1]  # left counts at each position
            left_sq = (prefix**2).sum(axis=1)
            right = prefix[-1] + onehot[-1] - prefix
            right_sq = (right**2).sum(axis=1)
            total += (idx - left_sq / idx + (n - idx) - right_sq / (n - idx)) / n
        scores = total / n_out
        scores[~valid] = np.inf
        i = int(np.flatnonzero(scores <= scores.min() + 1e-12)[0])
        score = float(scores[i])
        if best is None or score < best[0] - 1e-12:
            best = (score, f, float((xs[i] + xs[i + 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2], best[0]


def reference_fit(X, Y, max_depth):
    """The model JSON document of the CART ``tree.fit(X, Y, max_depth)``
    grows, built by plain recursion over ``reference_best_split``: nodes in
    pre-order, per-output majorities with ties to the smallest label, a node
    a leaf at ``max_depth``, below two rows, when every output is pure, or
    when no feature admits a split."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=int)
    n, n_out = Y.shape
    classes = [sorted(set(Y[:, o].tolist())) for o in range(n_out)]
    Yenc = np.array([[classes[o].index(v) for o, v in enumerate(row)]
                     for row in Y.tolist()], dtype=int).reshape(n, n_out)
    nodes = []

    def grow(rows, depth):
        labels = [Y[rows, o].tolist() for o in range(n_out)]
        node = {"feature": -1, "threshold": None, "left": -1, "right": -1,
                "depth": depth,
                "majority": [min(set(ys), key=lambda c: (-ys.count(c), c)) for ys in labels]}
        nodes.append(node)
        here = len(nodes) - 1
        if depth >= max_depth or len(rows) < 2 or all(len(set(ys)) == 1 for ys in labels):
            return here
        split = reference_best_split(X[rows], Yenc[rows], [len(c) for c in classes])
        if split is None:
            return here
        f, thr, _ = split
        node["feature"], node["threshold"] = f, thr
        node["left"] = grow([r for r in rows if X[r, f] <= thr], depth + 1)
        node["right"] = grow([r for r in rows if X[r, f] > thr], depth + 1)
        return here

    grow(list(range(n)), 0)
    return {"n_features": X.shape[1], "n_outputs": n_out, "max_depth_fit": max_depth,
            "classes": classes, "nodes": nodes}


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
    a = dict(enumerate(p))
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
        groups = [topo.servers[a[i.id]].id for i in replicas]
        if len(set(groups)) != len(groups):
            return False
    return all(
        within(x, y)
        for path in itertools.product(*by_type)
        for x, y in zip(path, path[1:])
    )


def reference_generate_topology(cfg, index):
    """The topology generator as first written: one scalar delay draw per
    server pair, row by row. ``netmodel.generate_topology`` must return the
    same capacities and the same delay matrix, bit for bit."""
    rng = np.random.default_rng([cfg.base_seed, index, netmodel.STREAM_TOPOLOGY])
    n = cfg.n_servers
    tiers = netmodel.tier_assignment(n)
    cpu = cfg.cpu_capacity.sample(rng, n)
    mem = cfg.mem_capacity.sample(rng, n)
    delay = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist = cfg.intra_tier_delay if tiers[i] == tiers[j] else cfg.cross_tier_delay
            delay[i, j] = delay[j, i] = float(dist.sample(rng))
    return cpu, mem, delay


def reference_place_teacher(topo, sfc, budget=1000):
    """The teacher search as first written: it rebuilds every search node's
    candidate list from scratch, one server and one upstream replica at a time.
    ``placer.place_teacher`` must return the same servers, or raise
    ``InfeasiblePlacement`` exactly when this does.

    Place the chain on the topology, minimizing total dependent-pair delay.

    Depth-first search in chain order; children ordered by incremental delay
    cost then server id; branches whose partial cost cannot beat the best
    complete assignment are pruned. ``budget`` caps the number of expanded
    nodes; the best complete assignment seen is returned.
    """
    order = [i for t in CHAIN for i in sfc.replicas(t)]
    n_inst = len(order)
    by_id = {i.id: i for i in sfc.instances}
    upstream: list[list[int]] = []  # per order position: already-placed dependent ids
    for k, inst in enumerate(order):
        pos = CHAIN.index(inst.vnf_type)
        prev_type = CHAIN[pos - 1] if pos > 0 else None
        upstream.append(
            [i.id for i in order[:k] if prev_type is not None and i.vnf_type == prev_type]
        )

    delay = topo.delay
    best_cost = float("inf")
    best_assignment: dict[int, int] | None = None
    nodes = 0

    assignment: dict[int, int] = {}
    cpu_left = [s.cpu_capacity for s in topo.servers]
    mem_left = [s.mem_capacity for s in topo.servers]

    def candidates(k: int) -> list[tuple[float, int]]:
        inst = order[k]
        out = []
        used_groups = {
            topo.servers[assignment[i.id]].id
            for i in order[:k]
            if i.vnf_type == inst.vnf_type
        }
        for s in topo.servers:
            if inst.cpu_demand > cpu_left[s.id] or inst.mem_demand > mem_left[s.id]:
                continue
            if s.id in used_groups:
                continue
            cost = 0.0
            ok = True
            for uid in upstream[k]:
                d = delay[assignment[uid], s.id]
                tol = sfc.tolerance[(by_id[uid].vnf_type, inst.vnf_type)]
                if d > tol:
                    ok = False
                    break
                cost += d
            if ok:
                out.append((cost, s.id))
        out.sort()
        return out

    def search(k: int, cost: float):
        nonlocal best_cost, best_assignment, nodes
        if k == n_inst:
            if cost < best_cost:
                best_cost = cost
                best_assignment = dict(assignment)
            return
        inst = order[k]
        for inc, sid in candidates(k):
            if nodes >= budget:
                return
            if cost + inc >= best_cost:
                break  # candidates sorted: no cheaper child remains
            nodes += 1
            assignment[inst.id] = sid
            cpu_left[sid] -= inst.cpu_demand
            mem_left[sid] -= inst.mem_demand
            search(k + 1, cost + inc)
            cpu_left[sid] += inst.cpu_demand
            mem_left[sid] += inst.mem_demand
            del assignment[inst.id]

    search(0, 0.0)
    if best_assignment is None:
        raise InfeasiblePlacement(
            f"no valid assignment found within a budget of {budget} nodes"
        )
    return tuple(best_assignment[i.id] for i in sfc.instances)
