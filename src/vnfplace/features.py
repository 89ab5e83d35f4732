"""Snapshot featurization, dataset assembly, CSV persistence, k-fold splitting.

Feature order (fixed for a given configuration, mirrored in the schema file):
  1. per-instance cpu demand, mem demand          (2 * n_instances)
  2. per-server cpu capacity, mem capacity        (2 * n_servers)
  3. tolerance per adjacent type pair             (3)
  4. upper triangle of the delay matrix, row-major (n_servers*(n_servers-1)/2)
  5. per-instance dependency level                (n_instances)
Labels are one server id per instance. No scaling: trees are scale-invariant.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .netmodel import ADJACENT_PAIRS, SfcSpec, Topology, VnfType, load_json, save_json
from .placer import Placement


class DatasetSchemaError(ValueError):
    """Dataset file does not match the documented schema."""


def feature_names(n_servers: int, n_instances: int) -> list[str]:
    names = []
    for i in range(n_instances):
        names += [f"inst{i}_cpu_demand", f"inst{i}_mem_demand"]
    for s in range(n_servers):
        names += [f"srv{s}_cpu_capacity", f"srv{s}_mem_capacity"]
    for a, b in ADJACENT_PAIRS:
        names.append(f"tolerance_{a.value}_{b.value}")
    for i in range(n_servers):
        for j in range(i + 1, n_servers):
            names.append(f"delay_{i}_{j}")
    for i in range(n_instances):
        names.append(f"inst{i}_dep_level")
    return names


def feature_width(n_servers: int, n_instances: int) -> int:
    return 3 * n_instances + 2 * n_servers + 3 + n_servers * (n_servers - 1) // 2


def extract_features(topo: Topology, sfc: SfcSpec) -> np.ndarray:
    """One fixed-width feature vector for a (topology, chain) snapshot."""
    inst = sorted(sfc.instances, key=lambda i: i.id)
    parts = []
    for i in inst:
        parts += [i.cpu_demand, i.mem_demand]
    for s in topo.servers:
        parts += [s.cpu_capacity, s.mem_capacity]
    for pair in ADJACENT_PAIRS:
        parts.append(sfc.tolerance[pair])
    iu = np.triu_indices(topo.n_servers, k=1)
    parts += list(topo.delay[iu])
    for i in inst:
        parts.append(float(sfc.dependency_level[i.vnf_type]))
    vec = np.array(parts, dtype=float)
    assert vec.size == feature_width(topo.n_servers, len(inst))
    return vec


@dataclass
class Dataset:
    """Feature matrix with multi-output server labels (one column per instance)."""

    features: np.ndarray  # (n_samples, n_features) float
    labels: np.ndarray  # (n_samples, n_instances) int
    feature_cols: list[str]
    label_cols: list[str]
    n_servers: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
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

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx],
                       self.feature_cols, self.label_cols, self.n_servers)


def build_dataset(pairs: list[tuple[Topology, SfcSpec, Placement]]) -> Dataset:
    """One row per (topology, chain, teacher placement) triple."""
    if not pairs:
        raise ValueError("build_dataset requires a configuration; got no pairs")
    topo0, sfc0, _ = pairs[0]
    n_servers = topo0.n_servers
    n_inst = sfc0.n_instances
    cols = feature_names(n_servers, n_inst)
    label_cols = [f"label_inst{i}" for i in range(n_inst)]
    X = np.empty((len(pairs), len(cols)))
    Y = np.empty((len(pairs), n_inst), dtype=int)
    for r, (topo, sfc, p) in enumerate(pairs):
        if topo.n_servers != n_servers or sfc.n_instances != n_inst:
            raise ValueError(f"row {r}: mixed configurations are not allowed")
        X[r] = extract_features(topo, sfc)
        for i, inst in enumerate(sorted(sfc.instances, key=lambda x: x.id)):
            Y[r, i] = p.server_of(inst.id)
    return Dataset(X, Y, cols, label_cols, n_servers)


def empty_dataset(n_servers: int, n_instances: int) -> Dataset:
    cols = feature_names(n_servers, n_instances)
    return Dataset(
        np.empty((0, len(cols))), np.empty((0, n_instances), dtype=int),
        cols, [f"label_inst{i}" for i in range(n_instances)], n_servers,
    )


@dataclass
class FoldSplit:
    b: int
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
    folds = []
    for v in val_folds:
        vset = set(v.tolist())
        train = np.array([i for i in perm if i not in vset], dtype=int)
        # train order follows the shuffle; validation sorted for stable reporting
        folds.append((train, np.sort(v)))
    return FoldSplit(b=b, folds=folds)


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ds.feature_cols + ds.label_cols)
        for r in range(ds.n_samples):
            w.writerow([repr(float(v)) for v in ds.features[r]] + [int(v) for v in ds.labels[r]])


def load_dataset(path: str) -> Dataset:
    try:
        schema = load_json(schema_path(path))
    except FileNotFoundError:
        raise DatasetSchemaError(f"missing schema file {schema_path(path)}") from None
    feature_cols = list(schema["feature_cols"])
    label_cols = list(schema["label_cols"])
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != feature_cols + label_cols:
            raise DatasetSchemaError(
                f"{path}: header does not match schema (expected "
                f"{len(feature_cols) + len(label_cols)} documented columns)"
            )
        X, Y = [], []
        nf = len(feature_cols)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != nf + len(label_cols):
                raise DatasetSchemaError(f"{path}:{lineno}: wrong column count")
            X.append([float(v) for v in row[:nf]])
            labels = []
            for col, v in zip(label_cols, row[nf:]):
                try:
                    labels.append(int(v))
                except ValueError:
                    raise DatasetSchemaError(
                        f"{path}:{lineno}: column {col!r} is not an integer label: {v!r}"
                    ) from None
            Y.append(labels)
    nf_total = len(feature_cols)
    X_arr = np.array(X, dtype=float).reshape(len(X), nf_total)
    Y_arr = np.array(Y, dtype=int).reshape(len(Y), len(label_cols))
    return Dataset(X_arr, Y_arr, feature_cols, label_cols, int(schema["n_servers"]))
