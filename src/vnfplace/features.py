"""Snapshot featurization, dataset assembly, CSV persistence, k-fold splitting.

Feature order (fixed for a given configuration, mirrored in the schema file):
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

from __future__ import annotations

import csv
import os
from typing import NamedTuple

import numpy as np

from .netmodel import (ADJACENT_PAIRS, ArtifactError, SfcSpec, Topology, load_json,
                       pair_layout, save_csv, save_json)
from .placer import Placement


def feature_names(n_servers: int, n_instances: int) -> list[str]:
    names = []
    for i in range(n_instances):
        names += [f"inst{i}_cpu_demand", f"inst{i}_mem_demand"]
    for s in range(n_servers):
        names += [f"srv{s}_cpu_capacity", f"srv{s}_mem_capacity"]
    for a, b in ADJACENT_PAIRS:
        names.append(f"tolerance_{a.value}_{b.value}")
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


class Dataset:
    """Feature matrix with multi-output server labels (one column per instance):
    ``features`` (n_samples, n_features) float, ``labels`` (n_samples,
    n_instances) int."""

    __slots__ = ("features", "labels", "feature_cols", "label_cols", "n_servers")

    def __init__(self, features: np.ndarray, labels: np.ndarray, feature_cols: list[str],
                 label_cols: list[str], n_servers: int):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=int)
        self.feature_cols, self.label_cols, self.n_servers = feature_cols, label_cols, n_servers
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("features and labels must be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.features.shape[1] != len(self.feature_cols):
            raise ValueError("feature width does not match column names")
        if self.labels.shape[1] != len(self.label_cols):
            raise ValueError("label width does not match column names")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_servers):
            raise ValueError("labels must be valid server ids")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.labels.shape[1]


def build_dataset(pairs: list[tuple[Topology, SfcSpec, Placement]]) -> Dataset:
    """One row per (topology, chain, teacher placement) triple: the
    snapshot's ``feature_matrix`` row, and the placement as its labels."""
    if not pairs:
        raise ValueError("build_dataset requires a configuration; got no pairs")
    topos, sfcs, placements = zip(*pairs)
    n, n_inst = topos[0].n_servers, sfcs[0].n_instances
    return Dataset(feature_matrix(topos, sfcs), np.reshape(placements, (len(pairs), n_inst)),
                   feature_names(n, n_inst), [f"label_inst{i}" for i in range(n_inst)], n)


class FoldSplit(NamedTuple):
    folds: list[tuple[np.ndarray, np.ndarray]]  # (train indices, validation indices)


def kfold(ds: Dataset, b: int, seed: int) -> FoldSplit:
    """Seeded shuffle then partition into b validation folds of near-equal size."""
    if b < 2:
        raise ValueError("number of folds must be >= 2")
    if b > ds.n_samples:
        raise ValueError(f"cannot split {ds.n_samples} samples into {b} folds")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n_samples)
    val_folds = np.array_split(perm, b)
    # train order follows the shuffle; validation sorted for stable reporting
    return FoldSplit(folds=[(np.concatenate(val_folds[:k] + val_folds[k + 1:]), np.sort(v))
                            for k, v in enumerate(val_folds)])


# ---------------------------------------------------------------------------
# Persistence: CSV plus a sidecar schema file


def schema_path(path: str) -> str:
    base = str(path)
    if base.endswith(".csv"):
        base = base[: -len(".csv")]
    return base + ".schema.json"


def save_dataset(ds: Dataset, path: str):
    save_json({
        "feature_cols": ds.feature_cols,
        "label_cols": ds.label_cols,
        "n_servers": ds.n_servers,
    }, schema_path(path))
    # str() of a float is its shortest repr, which reads back bit-exactly
    save_csv(path, ds.feature_cols + ds.label_cols,
             (x.tolist() + y.tolist() for x, y in zip(ds.features, ds.labels)))


def load_dataset(path: str) -> Dataset:
    """Read a dataset ``save_dataset`` wrote. A file that cannot be read as
    UTF-8 text, breaks its schema, holds a non-finite feature or a label that
    is not a server id below the schema's ``n_servers`` or does not fit an
    int64 raises ArtifactError naming the file and, where it can, line
    and column."""
    schema = schema_path(path)
    if not os.path.exists(schema):
        raise ArtifactError(f"missing schema file {schema}")
    feature_cols, label_cols, n_servers = load_json(schema, lambda s: (
        list(s["feature_cols"]), list(s["label_cols"]), s["n_servers"]))
    if type(n_servers) is not int:  # int() would load 15.9 as 15
        raise ArtifactError(f"{schema} is malformed: n_servers must be an integer, "
                            f"not {n_servers!r}")
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != feature_cols + label_cols:
                raise ArtifactError(
                    f"{path}: header does not match schema (expected "
                    f"{len(feature_cols) + len(label_cols)} documented columns)")
            X, Y = [], []
            nf = len(feature_cols)
            for lineno, row in enumerate(reader, start=2):
                if len(row) != nf + len(label_cols):
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
                    if labels[-1] >= 2**63:  # the int64 label array cannot hold it
                        raise ArtifactError(f"{path}:{lineno}: column {col!r} is a "
                                            f"label too large for an int64: {v!r}")
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
    Y_arr = np.array(Y, dtype=int).reshape(len(Y), len(label_cols))
    return Dataset(X_arr, Y_arr, feature_cols, label_cols, n_servers)
