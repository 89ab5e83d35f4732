"""Domain model: servers, 3-tier topologies, vEPC service chains, seeded generation.

All randomness flows through numpy's PCG64 seeded with integer sequences
``[base_seed, index, stream]`` so every artifact is a pure function of the
config and its index, independent of generation order.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

import numpy as np

STREAM_TOPOLOGY = 0
STREAM_SFC = 1


class Tier(str, Enum):
    CORE = "core"
    AGGREGATION = "aggregation"
    ACCESS = "access"


class VnfType(str, Enum):
    HSS = "HSS"
    MME = "MME"
    SGW = "SGW"
    PGW = "PGW"


#: Fixed chain order of the vEPC service chain.
CHAIN: tuple[VnfType, ...] = (VnfType.HSS, VnfType.MME, VnfType.SGW, VnfType.PGW)

#: Adjacent dependent type pairs, in chain order.
ADJACENT_PAIRS: tuple[tuple[VnfType, VnfType], ...] = tuple(
    (CHAIN[i], CHAIN[i + 1]) for i in range(len(CHAIN) - 1)
)

#: Chain position per type, used as the dependency-level feature.
DEPENDENCY_LEVEL: dict[VnfType, int] = {t: i for i, t in enumerate(CHAIN)}


#: Replicas per chain type, in chain order; a JSON object keyed by type name.
ReplicaCounts = tuple[tuple[VnfType, int], ...]


class ConfigError(ValueError):
    """Invalid generation or run configuration."""


def config_from_json(cls, doc, where: str):
    """Build the config dataclass ``cls`` from the JSON object ``doc``.

    Each field of ``cls`` is one JSON key, read by its annotated type, and an
    absent key takes the field's default. A non-object, an unknown or missing
    key, a value of the wrong JSON type, or a value ``cls`` rejects raises
    ConfigError naming the key path (``where``, e.g. ``config.gen.tolerance``).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}.{f.name} is required")
    types = get_type_hints(cls)
    kwargs = {k: _value_from_json(types[k], v, f"{where}.{k}") for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _value_from_json(tp, v, where: str):
    if is_dataclass(tp):
        return config_from_json(tp, v, where)
    if tp == ReplicaCounts:
        if not isinstance(v, dict) or any(type(c) is not int for c in v.values()):
            raise ConfigError(f"{where} must map chain types to integer counts")
        try:
            return tuple((VnfType(t), c) for t, c in v.items())
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
    if get_origin(tp) is tuple:
        args = get_args(tp)
        if not isinstance(v, list) or len(v) != len(args):
            raise ConfigError(f"{where} must be a list of {len(args)} values")
        return tuple(_value_from_json(a, x, f"{where}[{i}]")
                     for i, (a, x) in enumerate(zip(args, v)))
    if tp is float and type(v) in (int, float):
        return float(v)
    if tp in (int, str) and type(v) is tp:
        return v
    raise ConfigError(f"{where} must be of type {tp.__name__}, not {json.dumps(v)}")


def config_to_json(obj) -> dict:
    """The JSON object that ``config_from_json`` reads back as ``obj``."""
    types = get_type_hints(type(obj))
    return {f.name: _value_to_json(types[f.name], getattr(obj, f.name))
            for f in fields(obj)}


def _value_to_json(tp, v):
    if is_dataclass(v):
        return config_to_json(v)
    if tp == ReplicaCounts:
        return {t.value: c for t, c in v}
    return list(v) if isinstance(v, tuple) else v


@dataclass(frozen=True)
class ServerNode:
    id: int
    cpu_capacity: float
    mem_capacity: float
    tier: Tier
    host_group: int

    def __post_init__(self):
        if self.cpu_capacity < 0 or self.mem_capacity < 0:
            raise ValueError(f"server {self.id}: capacities must be non-negative")


@dataclass
class Topology:
    """A set of servers plus their symmetric inter-server delay matrix (microseconds)."""

    servers: list[ServerNode]
    delay: np.ndarray
    seed: int

    def __post_init__(self):
        n = len(self.servers)
        self.delay = np.asarray(self.delay, dtype=float)
        if self.delay.shape != (n, n):
            raise ValueError(f"delay matrix shape {self.delay.shape} != ({n}, {n})")
        if not np.allclose(self.delay, self.delay.T, rtol=0, atol=0):
            raise ValueError("delay matrix must be symmetric")
        if np.any(np.diag(self.delay) != 0):
            raise ValueError("delay matrix diagonal must be zero")
        if np.any(self.delay < 0):
            raise ValueError("delays must be non-negative")
        ids = [s.id for s in self.servers]
        if ids != list(range(n)):
            raise ValueError("server ids must be 0..n-1 in order")

    @property
    def n_servers(self) -> int:
        return len(self.servers)


def server_delay(topo: Topology, a: int, b: int) -> float:
    """Delay in microseconds between servers a and b (0 on the diagonal)."""
    n = topo.n_servers
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError(f"server index out of range: ({a}, {b}) for {n} servers")
    return float(topo.delay[a, b])


@dataclass(frozen=True)
class VnfInstance:
    id: int
    vnf_type: VnfType
    cpu_demand: float
    mem_demand: float
    replica_index: int

    def __post_init__(self):
        if self.cpu_demand < 0 or self.mem_demand < 0:
            raise ValueError(f"instance {self.id}: demands must be non-negative")


@dataclass
class SfcSpec:
    """The service chain to place: instances, replica counts, tolerances, dependency levels."""

    instances: list[VnfInstance]
    replica_counts: dict[VnfType, int]
    tolerance: dict[tuple[VnfType, VnfType], float]
    dependency_level: dict[VnfType, int] = field(
        default_factory=lambda: dict(DEPENDENCY_LEVEL)
    )

    def __post_init__(self):
        if sum(self.replica_counts.values()) != len(self.instances):
            raise ValueError("sum of replica counts must equal number of instances")
        if set(self.tolerance) != set(ADJACENT_PAIRS):
            raise ValueError("tolerance must cover exactly the adjacent type pairs")
        if any(t <= 0 for t in self.tolerance.values()):
            raise ValueError("tolerances must be positive")
        keys = {(i.vnf_type, i.replica_index) for i in self.instances}
        if len(keys) != len(self.instances):
            raise ValueError("(vnf_type, replica_index) must be unique")

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def n_paths(self) -> int:
        out = 1
        for c in self.replica_counts.values():
            out *= c
        return out

    def replicas(self, t: VnfType) -> list[VnfInstance]:
        """Replicas of a type, ordered by replica index."""
        return sorted(
            (i for i in self.instances if i.vnf_type == t),
            key=lambda i: i.replica_index,
        )


@dataclass(frozen=True)
class Dist:
    """A named sampling distribution: uniform(a, b) or normal(mean=a, sd=b) clipped at 0."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in ("uniform", "normal"):
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "uniform" and not (0 <= self.a <= self.b):
            raise ConfigError("uniform distribution requires 0 <= a <= b")
        if self.kind == "normal" and self.b < 0:
            raise ConfigError("normal distribution requires sd >= 0")

    def sample(self, rng: np.random.Generator, size=None):
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size=size)
        return np.maximum(rng.normal(self.a, self.b, size=size), 0.0)


DEFAULT_REPLICA_COUNTS = {VnfType.HSS: 1, VnfType.MME: 2, VnfType.SGW: 2, VnfType.PGW: 1}


@dataclass(frozen=True)
class GenConfig:
    """Synthetic-data generation parameters.

    The distribution defaults are synthetic stand-ins chosen for
    reproducibility; real datacenter delay/resource distributions are not
    publicly available.
    """

    n_servers: int = 15
    replica_counts: ReplicaCounts = tuple(DEFAULT_REPLICA_COUNTS.items())
    intra_tier_delay: Dist = Dist("uniform", 50.0, 200.0)
    cross_tier_delay: Dist = Dist("uniform", 200.0, 1000.0)
    cpu_capacity: Dist = Dist("uniform", 8.0, 32.0)
    mem_capacity: Dist = Dist("uniform", 16.0, 64.0)
    cpu_demand: Dist = Dist("uniform", 1.0, 4.0)
    mem_demand: Dist = Dist("uniform", 2.0, 8.0)
    tolerance: Dist = Dist("uniform", 800.0, 2000.0)
    n_topologies: int = 500
    base_seed: int = 42

    def __post_init__(self):
        counts = dict(self.replica_counts)
        if set(counts) != set(CHAIN):
            raise ConfigError("replica_counts must cover exactly the chain types")
        # normalize to chain order so equality is representation-independent
        object.__setattr__(self, "replica_counts", tuple((t, counts[t]) for t in CHAIN))
        if any(c < 1 for c in counts.values()):
            raise ConfigError("replica counts must be >= 1")
        if self.n_servers < 3:
            raise ConfigError("n_servers must be >= 3 to form three tiers")
        if self.n_servers < sum(counts.values()):
            raise ConfigError("n_servers must be >= number of instances")
        if self.n_topologies < 0:
            raise ConfigError("n_topologies must be >= 0")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")

    @property
    def counts(self) -> dict[VnfType, int]:
        return dict(self.replica_counts)

    @property
    def n_instances(self) -> int:
        return sum(dict(self.replica_counts).values())


def tier_assignment(n_servers: int) -> list[Tier]:
    """Partition server indices into core:aggregation:access roughly 1:2:2."""
    n_core = max(1, n_servers // 5)
    n_agg = max(1, (2 * n_servers) // 5)
    n_access = n_servers - n_core - n_agg
    return (
        [Tier.CORE] * n_core + [Tier.AGGREGATION] * n_agg + [Tier.ACCESS] * n_access
    )


def _rng(cfg: GenConfig, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([cfg.base_seed, index, stream])


def generate_topology(cfg: GenConfig, index: int) -> Topology:
    """Generate the index-th topology of a batch, deterministically."""
    rng = _rng(cfg, index, STREAM_TOPOLOGY)
    n = cfg.n_servers
    tiers = tier_assignment(n)
    cpu = cfg.cpu_capacity.sample(rng, n)
    mem = cfg.mem_capacity.sample(rng, n)
    servers = [
        ServerNode(id=i, cpu_capacity=float(cpu[i]), mem_capacity=float(mem[i]),
                   tier=tiers[i], host_group=i)
        for i in range(n)
    ]
    delay = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist = cfg.intra_tier_delay if tiers[i] == tiers[j] else cfg.cross_tier_delay
            d = float(dist.sample(rng))
            delay[i, j] = delay[j, i] = d
    return Topology(servers=servers, delay=delay, seed=cfg.base_seed)


def build_sfc(cfg: GenConfig, index: int) -> SfcSpec:
    """Build the index-th service-chain spec of a batch, deterministically."""
    rng = _rng(cfg, index, STREAM_SFC)
    counts = cfg.counts
    instances: list[VnfInstance] = []
    next_id = 0
    for t in CHAIN:
        for r in range(counts[t]):
            instances.append(
                VnfInstance(
                    id=next_id,
                    vnf_type=t,
                    cpu_demand=float(cfg.cpu_demand.sample(rng)),
                    mem_demand=float(cfg.mem_demand.sample(rng)),
                    replica_index=r,
                )
            )
            next_id += 1
    tolerance = {pair: float(cfg.tolerance.sample(rng)) for pair in ADJACENT_PAIRS}
    return SfcSpec(instances=instances, replica_counts=counts, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Persistence


class ArtifactError(Exception):
    """An artifact file is missing or is not valid JSON."""


def save_json(doc, path):
    """Write a JSON artifact: sorted keys, one-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_json(path):
    """Read a JSON artifact; one that does not parse raises ArtifactError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ArtifactError(f"{path} is not valid JSON: {e}") from None


def topology_to_json(topo: Topology) -> dict:
    return {
        "seed": topo.seed,
        "servers": [
            {
                "id": s.id,
                "cpu_capacity": s.cpu_capacity,
                "mem_capacity": s.mem_capacity,
                "tier": s.tier.value,
                "host_group": s.host_group,
            }
            for s in topo.servers
        ],
        "delay": topo.delay.tolist(),
    }


def topology_from_json(d: dict) -> Topology:
    servers = [
        ServerNode(
            id=int(s["id"]),
            cpu_capacity=float(s["cpu_capacity"]),
            mem_capacity=float(s["mem_capacity"]),
            tier=Tier(s["tier"]),
            host_group=int(s["host_group"]),
        )
        for s in d["servers"]
    ]
    return Topology(servers=servers, delay=np.array(d["delay"], dtype=float),
                    seed=int(d["seed"]))


def sfc_to_json(sfc: SfcSpec) -> dict:
    return {
        "instances": [
            {
                "id": i.id,
                "vnf_type": i.vnf_type.value,
                "cpu_demand": i.cpu_demand,
                "mem_demand": i.mem_demand,
                "replica_index": i.replica_index,
            }
            for i in sfc.instances
        ],
        "replica_counts": {t.value: c for t, c in sfc.replica_counts.items()},
        "tolerance": {f"{a.value}-{b.value}": v for (a, b), v in sfc.tolerance.items()},
        "dependency_level": {t.value: v for t, v in sfc.dependency_level.items()},
    }


def sfc_from_json(d: dict) -> SfcSpec:
    instances = [
        VnfInstance(
            id=int(i["id"]),
            vnf_type=VnfType(i["vnf_type"]),
            cpu_demand=float(i["cpu_demand"]),
            mem_demand=float(i["mem_demand"]),
            replica_index=int(i["replica_index"]),
        )
        for i in d["instances"]
    ]
    tolerance = {}
    for key, v in d["tolerance"].items():
        a, b = key.split("-")
        tolerance[(VnfType(a), VnfType(b))] = float(v)
    return SfcSpec(
        instances=instances,
        replica_counts={VnfType(t): int(c) for t, c in d["replica_counts"].items()},
        tolerance=tolerance,
        dependency_level={VnfType(t): int(v) for t, v in d["dependency_level"].items()},
    )


def save_batch(path, topologies: list[Topology], sfcs: list[SfcSpec], cfg: GenConfig):
    """Persist a generated batch as one JSON file."""
    save_json({
        "config": config_to_json(cfg),
        "topologies": [topology_to_json(t) for t in topologies],
        "sfcs": [sfc_to_json(s) for s in sfcs],
    }, path)


def load_batch(path) -> tuple[list[Topology], list[SfcSpec], GenConfig]:
    doc = load_json(path)
    cfg = config_from_json(GenConfig, doc["config"], f"{path} config")
    topologies = [topology_from_json(t) for t in doc["topologies"]]
    sfcs = [sfc_from_json(s) for s in doc["sfcs"]]
    return topologies, sfcs, cfg
