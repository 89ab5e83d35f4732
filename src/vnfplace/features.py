"""Snapshot featurization, dataset assembly, CSV persistence, k-fold splitting.

Feature order (fixed by the server and instance counts, ``feature_names``):
  1. per-instance cpu demand, mem demand          (2 * n_instances)
  2. per-server cpu capacity, mem capacity        (2 * n_servers)
  3. tolerance per adjacent type pair             (3)
  4. upper triangle of the delay matrix, row-major (n_servers*(n_servers-1)/2)
Instances and servers are taken in id order, the order of ``SfcSpec``'s
demands and ``Topology``'s capacities. A value that is the same in every row
of a configuration, such as an instance's chain position, is not a feature:
no split can use it. A row's labels are its placement: one server id per
instance, indexed by instance id. No scaling: trees are scale-invariant.
"""

import csv
from typing import NamedTuple

import numpy as np

from .netmodel import (ADJACENT_PAIRS, ArtifactError, SfcSpec, Topology, pair_layout,
                       save_csv, save_json)
from .placer import Placement


def feature_names(n_servers: int, n_instances: int) -> list[str]:
    names = []
    for i in range(n_instances):
        names += [f"inst{i}_cpu_demand", f"inst{i}_mem_demand"]
    for s in range(n_servers):
        names += [f"srv{s}_cpu_capacity", f"srv{s}_mem_capacity"]
    for a, b in ADJACENT_PAIRS:
        names.append(f"tolerance_{a}_{b}")
    rows, cols, _ = pair_layout(n_servers)
    return names + [f"delay_{i}_{j}" for i, j in zip(rows.tolist(), cols.tolist())]


def feature_matrix(topos: list[Topology], sfcs: list[SfcSpec]) -> np.ndarray:
    """The feature rows of the (topology, chain) snapshots ``zip(topos, sfcs)``,
    in one preallocated array. A snapshot of another server or instance count
    than the first's raises ValueError naming its row."""
    n, n_inst = topos[0].n_servers, sfcs[0].n_instances
    rows, cols, _ = pair_layout(n)
    s, t, u = 2 * n_inst, 2 * (n_inst + n), 2 * (n_inst + n) + len(ADJACENT_PAIRS)
    X = np.empty((len(topos), u + len(rows)))
    for r, (topo, sfc) in enumerate(zip(topos, sfcs)):
        if topo.n_servers != n or sfc.n_instances != n_inst:
            raise ValueError(f"row {r}: mixed configurations are not allowed")
        x = X[r]
        x[:s:2], x[1:s:2], x[s:t:2], x[s + 1:t:2] = (
            sfc.cpu_demand, sfc.mem_demand, topo.cpu, topo.mem)
        x[t:u], x[u:] = sfc.tolerance, topo.delay[rows, cols]
    return X


def columns(n_servers: int, n_instances: int) -> tuple[list[str], list[str]]:
    """A dataset's feature and label column names, which its geometry fixes."""
    return feature_names(n_servers, n_instances), [f"label_inst{i}" for i in range(n_instances)]


def build_dataset(pairs: list[tuple[Topology, SfcSpec, Placement]]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One row per (topology, chain, teacher placement) triple: the
    snapshot's ``feature_matrix`` row in X, and the placement, one server id
    per instance, as its label row in Y."""
    if not pairs:
        raise ValueError("build_dataset requires a configuration; got no pairs")
    topos, sfcs, placements = zip(*pairs)
    return feature_matrix(topos, sfcs), np.reshape(placements, (len(pairs), sfcs[0].n_instances))


class FoldSplit(NamedTuple):
    folds: list[tuple[np.ndarray, np.ndarray]]  # (train indices, validation indices)


def kfold(n_rows: int, b: int, seed: int) -> FoldSplit:
    """Seeded shuffle of rows 0..n_rows-1, then partition into b validation
    folds of near-equal size."""
    if b < 2:
        raise ValueError("number of folds must be >= 2")
    if b > n_rows:
        raise ValueError(f"cannot split {n_rows} samples into {b} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    val_folds = np.array_split(perm, b)
    # train order follows the shuffle; validation sorted for stable reporting
    return FoldSplit(folds=[(np.concatenate(val_folds[:k] + val_folds[k + 1:]), np.sort(v))
                            for k, v in enumerate(val_folds)])


# ---------------------------------------------------------------------------
# Persistence: CSV plus a sidecar schema file that documents its columns for
# readers outside the package; no stage reads it


def schema_path(path: str) -> str:
    base = str(path)
    if base.endswith(".csv"):
        base = base[: -len(".csv")]
    return base + ".schema.json"


def save_dataset(path: str, X: np.ndarray, Y: np.ndarray, n_servers: int):
    feature_cols, label_cols = columns(n_servers, Y.shape[1])
    save_json({"feature_cols": feature_cols, "label_cols": label_cols, "n_servers": n_servers},
              schema_path(path))
    # str() of a float is its shortest repr, which reads back bit-exactly
    save_csv(path, feature_cols + label_cols, (x.tolist() + y.tolist() for x, y in zip(X, Y)))


def load_dataset(path: str, n_servers: int, n_instances: int) -> tuple[np.ndarray, np.ndarray]:
    """Read the (X, Y) that ``save_dataset`` wrote for ``n_servers`` servers
    and ``n_instances``-instance chains. A file that cannot be read as UTF-8
    text, whose header is not ``columns(n_servers, n_instances)``, or that
    holds a non-finite feature or a label that is not a server id below
    ``n_servers`` raises ArtifactError naming the file and, where it can,
    line and column."""
    feature_cols, label_cols = columns(n_servers, n_instances)
    nf = len(feature_cols)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != feature_cols + label_cols:
                raise ArtifactError(
                    f"{path}: header does not match the {nf} feature and {n_instances} "
                    f"label columns of {n_servers} servers and {n_instances}-instance "
                    f"chains; rerun generate")
            X, Y = [], []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != nf + n_instances:
                    raise ArtifactError(f"{path}:{lineno}: wrong column count")
                try:
                    X.append([float(v) for v in row[:nf]])
                except ValueError as e:
                    raise ArtifactError(f"{path}:{lineno}: {e}") from None
                labels = []
                for col, v in zip(label_cols, row[nf:]):
                    try:
                        labels.append(int(v))
                    except ValueError:
                        raise ArtifactError(
                            f"{path}:{lineno}: column {col!r} is not an integer label: {v!r}"
                        ) from None
                    if not 0 <= labels[-1] < n_servers:
                        raise ArtifactError(
                            f"{path}:{lineno}: column {col!r} is not a server id below "
                            f"{n_servers}: {v!r}")
                Y.append(labels)
    except OSError as e:
        raise ArtifactError(f"{path} cannot be read: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ArtifactError(f"{path} is not UTF-8 text: {e.reason}") from None
    X_arr = np.array(X, dtype=float).reshape(len(X), nf)
    non_finite = np.argwhere(~np.isfinite(X_arr))
    if len(non_finite):
        r, c = non_finite[0]
        raise ArtifactError(f"{path}:{r + 2}: column {feature_cols[c]!r} "
                            f"is not finite: {float(X_arr[r, c])!r}")
    return X_arr, np.array(Y, dtype=int).reshape(len(Y), n_instances)
