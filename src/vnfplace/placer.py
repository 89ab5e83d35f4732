"""Constraint-respecting delay-minimizing placement heuristic and validator.

The heuristic places instances in chain order, trying servers by lowest
incremental cost (summed delay to the replicas of the previous chain type),
then lowest server id, and backtracks within a node budget, keeping the best
complete assignment found so far (branch and bound). Every replica of a type
has the same upstream, so each layer's candidate order is computed once per
distinct placement of the layer before it within one call and shared by the
layer's replicas (one comprehension for an upstream of two or three
replicas, a loop otherwise); nothing the search builds outlives the call. A
child meets the bound before the capacity test. The first descent is the
plain greedy placement and the remaining budget buys improvement. A search
the budget cuts short is not certified optimal; one it does not is optimal
for its own objective, total dependent-pair delay, since a cut branch cannot
beat the best complete assignment. That is not the measure every stage
scores, the mean path delay, which weights each pair by the paths through
it, per adjacent type pair (2, 1, 2) on desk and (6, 4, 6) on medium, so
such a search need not minimize the mean path delay. On the first 100
topologies of ``configs/desk.json``, a budget of 100,000 nodes finds a
placement with a lower mean path delay than the default budget of 1000 on 43
of them (every one of those searches ends within 2,597 nodes).

A placement is a sequence of server ids indexed by instance id, the same
row a dataset stores as labels and a tree predicts. The validator checks
that it names one server per instance, capacity, per-pair delay tolerance
and anti-location (replicas of one type on distinct servers); it enforces
the dependency constraint through the per-pair tolerance check (see
``validate_placement``). The search, the validator and the delays walk
the layers, dependent pairs and paths of ``netmodel.chain_structure``,
which every chain with the same replica counts shares.

``score`` is every stage's one measure of a batch of placements: it
validates each row and reads the valid rows' ``delays`` per dependent pair
and per path in one gather; ``avg_cp_delay`` is a row's mean path delay.
"""

from collections.abc import Sequence
from itertools import compress
from typing import NamedTuple

import numpy as np

from .netmodel import SfcSpec, Topology, chain_structure

#: The server id of each instance, indexed by instance id: a dataset label row.
Placement = Sequence[int]


class InfeasiblePlacement(Exception):
    """No constraint-satisfying assignment found within the backtracking budget."""


class TeacherPlacement(NamedTuple):
    """A teacher placement with its search counters: the nodes expanded and
    whether the node budget cut the search short."""

    servers: tuple[int, ...]
    nodes: int
    budget_exhausted: bool


class ValidationReport(NamedTuple):
    valid: bool
    violations: list[tuple[str, tuple]]


def delays(topos: Sequence[Topology], placements, counts: tuple[int, ...]
           ) -> tuple[np.ndarray, np.ndarray]:
    """(rows × pairs, rows × paths): the delay of each dependent pair and path
    of ``chain_structure(counts)`` where ``placements[r]``, in-range server ids,
    places row r's chain on ``topos[r]`` (one row or more). One gather reads the
    pairs from each row's own matrix; a path adds its hops' columns in order, as
    a loop does (``ndarray.sum`` adds more than 8 terms pairwise)."""
    _, pairs, paths = chain_structure(counts)
    p = np.array(placements, dtype=np.intp).reshape(len(placements), sum(counts))
    d = np.stack([t.delay for t, _ in zip(topos, p, strict=True)])
    rows = np.arange(len(p))[:, None]
    up, down, _ = np.array(pairs).T
    ends = np.array(paths).T  # the instance at each chain position, by path
    return (d[rows, p[:, up], p[:, down]],
            sum(d[rows, p[:, a], p[:, b]] for a, b in zip(ends, ends[1:])))


def avg_cp_delay(cp_delays: np.ndarray) -> np.ndarray:
    """Each row's arithmetic mean over a (rows × paths) table: its columns
    added in order, then divided by the path count."""
    return sum(cp_delays.T) / cp_delays.shape[1]


def validate_placement(topo: Topology, sfc: SfcSpec, p: Placement) -> ValidationReport:
    """Check capacity, delay tolerance and anti-location; list every violation.

    A sequence whose length is not the instance count is one ``"missing"``
    violation, (its length, the instance count), and a server id out of
    range one ``"capacity"`` violation, (instance id, server id); either
    ends the check. Dependency (every computational path realizable hop by
    hop within the tolerance) needs no pass of its own: each path hop is a
    dependent pair and each dependent pair lies on some path, so a path
    breaks exactly when some pair exceeds its tolerance.
    """
    if len(p) != sfc.n_instances:
        return ValidationReport(False, [("missing", (len(p), sfc.n_instances))])
    violations: list[tuple[str, tuple]] = []

    # (1) capacity: summed demand per server within capacity
    cpu_used = [0.0] * topo.n_servers
    mem_used = [0.0] * topo.n_servers
    for iid, sid in enumerate(p):
        if not (0 <= sid < topo.n_servers):
            return ValidationReport(False, [("capacity", (iid, sid))])
        cpu_used[sid] += sfc.cpu_demand[iid]
        mem_used[sid] += sfc.mem_demand[iid]
    for sid in range(topo.n_servers):
        if cpu_used[sid] > topo.cpu[sid] or mem_used[sid] > topo.mem[sid]:
            violations.append(("capacity", (sid,)))

    # (2) delay tolerance over every dependent pair (inclusive bound)
    layers, pairs, _ = chain_structure(sfc.counts)
    for a, b, k in pairs:
        if topo.delay[p[a], p[b]] > sfc.tolerance[k]:
            violations.append(("delay_tolerance", (a, b)))

    # (3) anti-location: same-type replicas on distinct servers
    for layer in layers:
        hosted: dict[int, int] = {}
        for iid in layer:
            first = hosted.setdefault(p[iid], iid)
            if first != iid:
                violations.append(("anti_location", (first, iid)))

    return ValidationReport(not violations, violations)


def place_teacher(topo: Topology, sfc: SfcSpec, budget: int = 1000) -> TeacherPlacement:
    """Place the chain on the topology, minimizing total dependent-pair delay.

    Depth-first search in chain order. A replica's incremental cost on a
    server is its summed delay to every replica of the previous chain type,
    and a server is a candidate when each of those delays is within the
    pair's tolerance, it has the capacity left and no same-type replica
    already sits on it. Children are tried by lowest incremental
    cost, then lowest server id, and a branch whose partial cost cannot beat
    the best complete assignment is cut. Every replica of a type has the
    same upstream, so a layer's (cost, server) order depends only on where
    the previous layer sits: it is computed once per distinct placement of
    that layer within the call, when the search first enters the layer's
    first replica under it, and shared by the layer's replicas. One
    comprehension scores every server for an upstream of two or three
    replicas, a per-server loop any other layer; both add the delays from
    0.0 in upstream order. A child over the bound ends the sorted
    candidates, so it is tested before capacity and anti-location. Nothing
    the search builds outlives the call.
    ``budget`` caps the number of expanded nodes; the best complete
    assignment seen is returned with the nodes expanded and
    ``budget_exhausted``, which is true exactly when a larger budget would
    expand another node.
    """
    # each layer's tolerance to its upstream (layer 0 has none to check)
    tolerance = [0.0, *sfc.tolerance]
    # (layer, instance id, cpu demand, mem demand, first replica of its layer)
    order = [(layer, iid, sfc.cpu_demand[iid], sfc.mem_demand[iid], iid == ids.start)
             for layer, ids in enumerate(chain_structure(sfc.counts).layers)
             for iid in ids]
    last = len(order) - 1
    rows = topo.delay.tolist()
    cpu_left = list(topo.cpu)
    mem_left = list(topo.mem)
    assignment = [-1] * sfc.n_instances
    # (layer, *previous layer's servers in replica order) -> the layer's order;
    # ordered, because costs are summed in upstream order
    orders: dict[tuple[int, ...], list[tuple[float, int]]] = {}
    best_cost = float("inf")
    best_assignment: tuple[int, ...] | None = None
    nodes = 0
    exhausted = False

    def layer_order(layer: int, prev: tuple[int, ...]) -> list[tuple[float, int]]:
        upstream = [rows[s] for s in prev]
        tol = tolerance[layer]
        servers = range(len(rows))
        # every branch adds a server's upstream delays from 0.0 in upstream
        # order, so all give the same bits; a server is out when one of its
        # delays is > tol
        if len(upstream) == 2:
            out = [(0.0 + x + y, s) for s, x, y in zip(servers, *upstream)
                   if not (x > tol or y > tol)]
        elif len(upstream) == 3:
            out = [(0.0 + x + y + z, s) for s, x, y, z in zip(servers, *upstream)
                   if not (x > tol or y > tol or z > tol)]
        else:  # the first layer, or an upstream of one or over three replicas
            out = []
            for s in servers:
                cost = 0.0
                for row in upstream:
                    if row[s] > tol:
                        break
                    cost += row[s]
                else:
                    out.append((cost, s))
        out.sort()
        return out

    def search(k: int, cost: float, candidates, used: tuple[int, ...]):
        nonlocal best_cost, best_assignment, nodes, exhausted
        layer, iid, cpu, mem, first = order[k]
        if first:
            # entering a layer, ``used`` holds the previous layer's servers
            key = (layer,) + used
            candidates = orders.get(key)
            if candidates is None:
                candidates = orders[key] = layer_order(layer, used)
            used = ()
        for inc, sid in candidates:
            child = cost + inc
            if child >= best_cost:
                break  # candidates sorted: no cheaper child remains
            if cpu > cpu_left[sid] or mem > mem_left[sid] or sid in used:
                continue
            if nodes >= budget:
                exhausted = True  # this child would be expanded under a larger budget
                return
            nodes += 1
            assignment[iid] = sid
            if k == last:
                # a complete assignment; the next candidate costs no less and
                # fails the bound check above
                best_cost = child
                best_assignment = tuple(assignment)
                return
            cpu_left[sid] -= cpu
            mem_left[sid] -= mem
            search(k + 1, child, candidates, used + (sid,))
            cpu_left[sid] += cpu
            mem_left[sid] += mem

    search(0, 0.0, [], ())
    del search  # it refers to itself through its closure cell: free the cycle now
    if best_assignment is None:
        raise InfeasiblePlacement(
            f"no valid assignment found within a budget of {budget} nodes"
        )
    return TeacherPlacement(best_assignment, nodes, exhausted)


def score(topos: Sequence[Topology], sfcs: Sequence[SfcSpec], placements
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate each row's placement on its topology and chain and take the
    ``delays`` of the valid ones: (valid mask, rows × pairs, rows × paths),
    the tables NaN on invalid rows. Every chain has the replica counts of
    the first; with no rows the tables have no columns either."""
    valid = np.array([validate_placement(t, s, p).valid
                      for t, s, p in zip(topos, sfcs, placements, strict=True)], dtype=bool)
    columns = chain_structure(sfcs[0].counts)[1:] if len(valid) else ((), ())
    pair, path = (np.full((len(valid), len(c)), np.nan) for c in columns)
    if valid.any():
        pair[valid], path[valid] = delays(list(compress(topos, valid)),
                                          list(compress(placements, valid)), sfcs[0].counts)
    return valid, pair, path
