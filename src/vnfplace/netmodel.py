"""Domain model: servers, 3-tier topologies, vEPC service chains, seeded generation.

All randomness flows through numpy's PCG64 seeded with integer sequences
``[base_seed, index, stream]`` so every artifact is a pure function of the
config and its index, independent of generation order.

No batch file is stored: ``generate`` writes each snapshot only as its
dataset feature row, and ``optimize`` and ``compare`` regenerate the
snapshots of their split's rows with ``load_batch``. numpy does not promise
the same ``Generator`` streams across versions (NEP 19), so they check each
regenerated snapshot's features against its dataset row. That check covers
the whole snapshot: every value generation draws (demands, capacities,
tolerances, delays) is a feature column written with ``repr``, which reads
back bit-exactly, and the rest (the chain's layers, dependent pairs and
computational paths) follows from the replica counts and ``n_servers``
that ``split.json``'s fingerprint pins.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from typing import NamedTuple, get_args, get_origin, get_type_hints

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


#: Replicas per chain type, in chain order; a JSON object keyed by type name.
ReplicaCounts = tuple[tuple[VnfType, int], ...]


class ConfigError(ValueError):
    """Invalid generation or run configuration."""


def config_from_json(cls, doc, where: str):
    """Build the config dataclass ``cls`` from the JSON object ``doc``.

    Each field of ``cls`` is one JSON key, read by its annotated type, and an
    absent key takes the field's default. A non-object, an unknown or missing
    key, a value of the wrong JSON type, a number that is NaN or infinite, or
    a value ``cls`` rejects raises ConfigError naming the key path (``where``,
    e.g. ``config.gen.tolerance``).
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
        if not abs(v) <= sys.float_info.max:  # NaN, an infinity or an int no float holds
            raise ConfigError(f"{where} must be a finite number, not {json.dumps(v)}")
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


@dataclass
class Topology:
    """Each server's cpu and mem capacity by server id, plus the servers'
    symmetric inter-server delay matrix (microseconds)."""

    cpu: list[float]
    mem: list[float]
    delay: np.ndarray

    def __post_init__(self):
        n = len(self.cpu)
        self.delay = np.asarray(self.delay, dtype=float)
        if len(self.mem) != n or self.delay.shape != (n, n):
            raise ValueError(f"{n} cpu capacities, {len(self.mem)} mem capacities and "
                             f"a delay matrix of shape {self.delay.shape} disagree")
        if any(c < 0 for c in (*self.cpu, *self.mem)):
            raise ValueError("capacities must be non-negative")
        if not np.array_equal(self.delay, self.delay.T):
            raise ValueError("delay matrix must be symmetric")
        if np.any(np.diag(self.delay) != 0):
            raise ValueError("delay matrix diagonal must be zero")
        if np.any(self.delay < 0):
            raise ValueError("delays must be non-negative")

    @property
    def n_servers(self) -> int:
        return len(self.cpu)


def server_delay(topo: Topology, a: int, b: int) -> float:
    """Delay in microseconds between servers a and b (0 on the diagonal)."""
    n = topo.n_servers
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError(f"server index out of range: ({a}, {b}) for {n} servers")
    return float(topo.delay[a, b])


class ChainStructure(NamedTuple):
    """What every chain with the same replica counts shares: ``layers[k]``,
    the id range of the k-th chain type; ``pairs``, each dependent (upstream,
    downstream, adjacent-pair index) by pair, then upstream, then downstream
    id; and ``paths``, every computational path in lexicographic order."""

    layers: tuple[range, ...]
    pairs: tuple[tuple[int, int, int], ...]
    paths: tuple[tuple[int, ...], ...]


@functools.cache
def chain_structure(counts: tuple[int, ...]) -> ChainStructure:
    """The layers, dependent pairs and computational paths of a chain with
    ``counts`` replicas per type in ``CHAIN`` order, its instance ids
    running through the types in that order."""
    starts = list(itertools.accumulate(counts, initial=0))
    layers = tuple(range(a, b) for a, b in zip(starts, starts[1:]))
    pairs = tuple((a, b, k) for k, (up, down) in enumerate(zip(layers, layers[1:]))
                  for a in up for b in down)
    return ChainStructure(layers, pairs, tuple(itertools.product(*layers)))


@dataclass
class SfcSpec:
    """The service chain to place: the replicas per type in ``CHAIN`` order,
    each instance's cpu and mem demand by instance id, and one delay
    tolerance per ``ADJACENT_PAIRS`` entry. Instance ids run through the
    types in chain order (see ``chain_structure``), so a placement can be a
    sequence of server ids indexed by instance id."""

    counts: tuple[int, ...]
    cpu_demand: list[float]
    mem_demand: list[float]
    tolerance: list[float]

    def __post_init__(self):
        if len(self.counts) != len(CHAIN) or any(c < 1 for c in self.counts):
            raise ValueError(f"counts {self.counts} must give each chain type a replica")
        n = sum(self.counts)
        if len(self.cpu_demand) != n or len(self.mem_demand) != n:
            raise ValueError(f"{n} instances need {n} cpu and mem demands")
        if any(d < 0 for d in (*self.cpu_demand, *self.mem_demand)):
            raise ValueError("demands must be non-negative")
        if len(self.tolerance) != len(ADJACENT_PAIRS):
            raise ValueError("tolerance must hold one value per adjacent type pair")
        if any(t < 0 for t in self.tolerance):
            raise ValueError("tolerances must be non-negative")

    @property
    def n_instances(self) -> int:
        return len(self.cpu_demand)


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
    """Generate the index-th topology of a batch, deterministically.

    The stream draws the capacities, then one delay per server pair (i, j),
    i < j, in row-major order: intra-tier pairs from ``intra_tier_delay``,
    the others from ``cross_tier_delay``. Each run of consecutive pairs that
    share a distribution is one sized draw, which yields the same doubles as
    one scalar draw per pair.
    """
    rng = _rng(cfg, index, STREAM_TOPOLOGY)
    n = cfg.n_servers
    tiers = tier_assignment(n)
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
    return Topology(cpu, mem, delay)


def build_sfc(cfg: GenConfig, index: int) -> SfcSpec:
    """Build the index-th service-chain spec of a batch, deterministically:
    each instance's cpu then mem demand in id order, then the tolerances."""
    rng = _rng(cfg, index, STREAM_SFC)
    cpu, mem = [], []
    for _ in range(cfg.n_instances):
        cpu.append(float(cfg.cpu_demand.sample(rng)))
        mem.append(float(cfg.mem_demand.sample(rng)))
    tolerance = [float(cfg.tolerance.sample(rng)) for _ in ADJACENT_PAIRS]
    return SfcSpec(tuple(c for _, c in cfg.replica_counts), cpu, mem, tolerance)


def load_batch(gen: GenConfig, indices) -> tuple[list[Topology], list[SfcSpec]]:
    """Regenerate the topologies and chains of the rows ``indices`` of the
    batch that ``gen`` describes, in that order."""
    indices = list(indices)
    return ([generate_topology(gen, i) for i in indices],
            [build_sfc(gen, i) for i in indices])


# ---------------------------------------------------------------------------
# Persistence


class ArtifactError(Exception):
    """An artifact file is missing, is not valid JSON, or lacks what its reader needs."""


class PipelineError(Exception):
    """The data admit no result: too many infeasible topologies, an empty
    split, fewer training rows than folds, or no depth that reaches the
    error threshold."""


def _write_atomic(path, write):
    """Call ``write(fh)`` on a temporary file beside ``path``, then move it onto
    ``path``: a write that fails leaves the previous file and no temporary one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_json(doc, path):
    """Write a JSON artifact: the text of ``json.dumps(doc, sort_keys=True,
    indent=1)`` (sorted keys, one-space indent) and a final newline. The text
    is built before the file is opened, so a document that cannot be
    serialized raises before anything is written."""
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    _write_atomic(path, lambda fh: fh.write(text))


def save_csv(path, header, rows):
    """Write a CSV artifact in csv's default dialect (``\\r\\n`` line ends)."""
    def write(fh):
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    _write_atomic(path, write)


def load_json(path, build=lambda doc: doc):
    """Read a JSON artifact and return ``build(doc)``.

    A file that cannot be read (a directory, say) or does not parse, or a
    document ``build`` cannot use (it raises LookupError, TypeError,
    ValueError, ConfigError included, or OverflowError on a number too large
    for an int64 or a float), raises ArtifactError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except OSError as e:
        raise ArtifactError(f"{path} cannot be read: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ArtifactError(f"{path} is not valid JSON: {e}") from None
    except (LookupError, TypeError, ValueError, OverflowError) as e:
        raise ArtifactError(f"{path} is malformed: {type(e).__name__}: {e}") from None
