"""Independent reference implementations used only to check the real ones."""

import itertools

import numpy as np

from vnfplace import netmodel, placer
from vnfplace.netmodel import CHAIN
from vnfplace.placer import InfeasiblePlacement


def instance_types(counts):
    """The chain position of each instance, by instance id: ids run through
    the chain's types in order, ``counts[k]`` of the k-th."""
    types = []
    for k, c in enumerate(counts):
        for _ in range(c):
            types.append(k)
    return types


def reference_chain_structure(counts):
    """The layers, dependent pairs and computational paths of a chain,
    grouped from ``instance_types`` and put in order by sorting: layers as
    id lists, pairs as (upstream, downstream, adjacent-pair index) by pair,
    then upstream, then downstream, and paths lexicographically."""
    types = instance_types(counts)
    by_type = [[i for i, t in enumerate(types) if t == k] for k in range(len(counts))]
    pairs = sorted((types[a], a, b) for a in range(len(types)) for b in range(len(types))
                   if types[b] == types[a] + 1)
    paths = [[]]
    for ids in by_type:
        paths = [path + [i] for path in paths for i in ids]
    return by_type, [(a, b, k) for k, a, b in pairs], sorted(tuple(p) for p in paths)


def total_pair_delay(topo, p, sfc):
    """Summed delay over all dependent instance pairs: the teacher's objective."""
    types = instance_types(sfc.counts)
    return sum(float(topo.delay[p[a], p[b]])
               for a in range(len(types)) for b in range(len(types))
               if types[b] == types[a] + 1)


def reference_cp_delay(topo, p, cp):
    """Sum of inter-server delays over the adjacent hops of one path, added
    hop by hop."""
    total = 0.0
    for a, b in zip(cp, cp[1:]):
        total += float(topo.delay[p[a], p[b]])
    return total


def reference_path_delays(topo, p, sfc):
    """Delay of every computational path, in ``chain_structure`` order."""
    return [reference_cp_delay(topo, p, cp)
            for cp in netmodel.chain_structure(sfc.counts).paths]


def reference_avg_cp_delay(topo, p, sfc):
    """Arithmetic mean of path delay over all computational paths, the path
    delays added in order (from Python 3.12 on, ``sum`` of floats is
    compensated and would not be)."""
    total = 0.0
    delays = reference_path_delays(topo, p, sfc)
    for d in delays:
        total += d
    return total / len(delays)


def brute_force_placement(topo, sfc):
    """Exhaustive search over all server assignments.

    Returns (best placement, best total dependent-pair delay), or (None, inf)
    when no valid assignment exists. Only usable on tiny instances.
    """
    best, best_cost = None, float("inf")
    for p in itertools.product(range(topo.n_servers), repeat=sfc.n_instances):
        if not placer.validate_placement(topo, sfc, p).valid:
            continue
        cost = total_pair_delay(topo, p, sfc)
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
    feature and one output at a time: the scan ``tree.fit`` does for all
    features and nodes of a level at once, with the same arithmetic and tie
    rules.

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
    """The model JSON document of the depth-``max_depth`` CART, which
    ``tree.fit(X, Y).truncate(max_depth)`` stores in ``level_order``, built
    by plain recursion over ``reference_best_split``: nodes in pre-order,
    per-output majorities with ties to the smallest label, a node
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


def level_order(model_doc):
    """A model document with its nodes renumbered breadth-first: level by
    level, each level's nodes in the order of their parents, a left child
    before its sibling."""
    nodes = model_doc["nodes"]
    order = [0]
    for i in order:  # the loop walks the children it appends
        if nodes[i]["feature"] >= 0:
            order += [nodes[i]["left"], nodes[i]["right"]]
    new = {old: k for k, old in enumerate(order)}
    return dict(model_doc, nodes=[
        dict(nodes[i], left=new.get(nodes[i]["left"], -1),
             right=new.get(nodes[i]["right"], -1))
        for i in order])


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
    types = instance_types(sfc.counts)
    ids = range(len(types))
    a = dict(enumerate(p))
    if any(i not in a or not 0 <= a[i] < topo.n_servers for i in ids):
        return False
    for s in range(topo.n_servers):
        hosted = [i for i in ids if a[i] == s]
        if (sum(sfc.cpu_demand[i] for i in hosted) > topo.cpu[s]
                or sum(sfc.mem_demand[i] for i in hosted) > topo.mem[s]):
            return False
    by_type = [[i for i in ids if types[i] == k] for k in range(len(CHAIN))]

    def within(x, y):
        # the tolerance of the adjacent pair that starts at x's type
        return topo.delay[a[x], a[y]] <= sfc.tolerance[types[x]]

    for ups, downs in zip(by_type, by_type[1:]):
        if not all(within(x, y) for x in ups for y in downs):
            return False
    for replicas in by_type:
        servers = [a[i] for i in replicas]
        if len(set(servers)) != len(servers):
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


def reference_groupby_generate_topology(cfg, index):
    """The topology generator before its pair layout was computed once per
    server count: every call rebuilds the upper-triangle indices and the tier
    array, and groups the pairs into runs with ``itertools.groupby``, one
    sized draw per run. ``netmodel.generate_topology`` must return the same
    capacities and delay matrix, bit for bit."""
    rng = np.random.default_rng([cfg.base_seed, index, netmodel.STREAM_TOPOLOGY])
    n = cfg.n_servers
    tiers = netmodel.tier_assignment(n)
    cpu = cfg.cpu_capacity.sample(rng, n).tolist()
    mem = cfg.mem_capacity.sample(rng, n).tolist()
    rows, cols = np.triu_indices(n, 1)
    tier = np.array([t.value for t in tiers])
    upper = np.empty(len(rows))
    start = 0
    for intra, run in itertools.groupby((tier[rows] == tier[cols]).tolist()):
        m = sum(1 for _ in run)
        dist = cfg.intra_tier_delay if intra else cfg.cross_tier_delay
        upper[start:start + m] = dist.sample(rng, m)
        start += m
    delay = np.zeros((n, n))
    delay[rows, cols] = delay[cols, rows] = upper
    return cpu, mem, delay


def reference_extract_features(topo, sfc):
    """One snapshot's feature row as first written: a list of Python floats
    built value by value, with its own ``np.triu_indices``. Each row of
    ``features.feature_matrix`` must equal it, bit for bit."""
    parts = []
    for cpu, mem in zip(sfc.cpu_demand, sfc.mem_demand):
        parts += [cpu, mem]
    for cpu, mem in zip(topo.cpu, topo.mem):
        parts += [cpu, mem]
    parts += sfc.tolerance
    iu = np.triu_indices(topo.n_servers, k=1)
    parts += list(topo.delay[iu])
    return np.array(parts, dtype=float)


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
    types = instance_types(sfc.counts)
    order = [i for k in range(len(CHAIN)) for i in range(len(types)) if types[i] == k]
    n_inst = len(order)
    upstream: list[list[int]] = []  # per order position: already-placed dependent ids
    for k, inst in enumerate(order):
        upstream.append([i for i in order[:k] if types[i] == types[inst] - 1])

    delay = topo.delay
    best_cost = float("inf")
    best_assignment: dict[int, int] | None = None
    nodes = 0

    assignment: dict[int, int] = {}
    cpu_left = list(topo.cpu)
    mem_left = list(topo.mem)

    def candidates(k: int) -> list[tuple[float, int]]:
        inst = order[k]
        out = []
        used = {assignment[i] for i in order[:k] if types[i] == types[inst]}
        for s in range(topo.n_servers):
            if sfc.cpu_demand[inst] > cpu_left[s] or sfc.mem_demand[inst] > mem_left[s]:
                continue
            if s in used:
                continue
            cost = 0.0
            ok = True
            for uid in upstream[k]:
                d = delay[assignment[uid], s]
                if d > sfc.tolerance[types[uid]]:
                    ok = False
                    break
                cost += d
            if ok:
                out.append((cost, s))
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
            assignment[inst] = sid
            cpu_left[sid] -= sfc.cpu_demand[inst]
            mem_left[sid] -= sfc.mem_demand[inst]
            search(k + 1, cost + inc)
            cpu_left[sid] += sfc.cpu_demand[inst]
            mem_left[sid] += sfc.mem_demand[inst]
            del assignment[inst]

    search(0, 0.0)
    if best_assignment is None:
        raise InfeasiblePlacement(
            f"no valid assignment found within a budget of {budget} nodes"
        )
    return tuple(best_assignment[i] for i in range(n_inst))
