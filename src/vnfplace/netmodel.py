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

import functools
import itertools
import json
import os
import sys
from enum import Enum
from typing import NamedTuple

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


#: The default of a config field that every JSON object of its section must give.
REQUIRED = object()


class Section:
    """A config section: an immutable record of the fields its class declares
    once, in ``FIELDS``, as (name, type, default) triples. Each field is one
    JSON key; a type is ``int``, ``float``, ``str``, ``ReplicaCounts``, a
    tuple of types (a JSON list of as many values) or a section, and a
    default of ``REQUIRED`` makes the key required. The constructor takes the
    fields by position or keyword and runs ``_check``, so ``replace`` checks
    its copy too. Sections of one class are equal, and hash equal, when their
    values are."""

    FIELDS: tuple = ()

    def __init__(self, *args, **kwargs):
        names = [name for name, _, _ in self.FIELDS]
        unknown = sorted(set(kwargs) - set(names[len(args):]))
        if len(args) > len(names) or unknown:
            raise TypeError(f"{type(self).__name__} has the fields {names}, not "
                            f"{len(args)} positional ones and {unknown}")
        values = dict(zip(names, args), **kwargs)
        for name, _, default in self.FIELDS:
            if values.setdefault(name, default) is REQUIRED:
                raise TypeError(f"{type(self).__name__} needs a value of {name}")
        self.__dict__.update(values)
        self._check()

    def _check(self):
        """Raise ConfigError unless the values make a valid section."""

    def replace(self, **changes):
        """A checked copy with the values of ``changes``."""
        return type(self)(**{**self.__dict__, **changes})

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name, _, _ in self.FIELDS)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: use replace()")

    __delattr__ = __setattr__

    def __repr__(self):
        values = ", ".join(f"{name}={self.__dict__[name]!r}" for name, _, _ in self.FIELDS)
        return f"{type(self).__name__}({values})"

    def to_json(self) -> dict:
        """The JSON object that ``config_from_json`` reads back as this section."""
        return {name: _value_to_json(tp, self.__dict__[name]) for name, tp, _ in self.FIELDS}


def _value_to_json(tp, v):
    if isinstance(v, Section):
        return v.to_json()
    if tp is ReplicaCounts:
        return {t.value: c for t, c in v}
    return list(v) if isinstance(v, tuple) else v


def config_from_json(cls, doc, where: str):
    """Build the section ``cls`` from the JSON object ``doc``.

    Each field of ``cls`` is one JSON key, read by its declared type, and an
    absent key takes the field's default. A non-object, an unknown or missing
    key, a value of the wrong JSON type, a number that is NaN or infinite, or
    a value ``cls`` rejects raises ConfigError naming the key path (``where``,
    e.g. ``config.gen.tolerance``).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    types = {name: tp for name, tp, _ in cls.FIELDS}
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    for name, _, default in cls.FIELDS:
        if name not in doc and default is REQUIRED:
            raise ConfigError(f"{where}.{name} is required")
    kwargs = {k: _value_from_json(types[k], v, f"{where}.{k}") for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _value_from_json(tp, v, where: str):
    if tp is ReplicaCounts:
        if not isinstance(v, dict) or any(type(c) is not int for c in v.values()):
            raise ConfigError(f"{where} must map chain types to integer counts")
        try:
            return tuple((VnfType(t), c) for t, c in v.items())
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
    if isinstance(tp, tuple):
        if not isinstance(v, list) or len(v) != len(tp):
            raise ConfigError(f"{where} must be a list of {len(tp)} values")
        return tuple(_value_from_json(a, x, f"{where}[{i}]")
                     for i, (a, x) in enumerate(zip(tp, v)))
    if issubclass(tp, Section):
        return config_from_json(tp, v, where)
    if tp is float and type(v) in (int, float):
        if not abs(v) <= sys.float_info.max:  # NaN, an infinity or an int no float holds
            raise ConfigError(f"{where} must be a finite number, not {json.dumps(v)}")
        return float(v)
    if tp in (int, str) and type(v) is tp:
        return v
    raise ConfigError(f"{where} must be of type {tp.__name__}, not {json.dumps(v)}")


class Topology:
    """Each server's cpu and mem capacity by server id, plus the servers'
    symmetric inter-server delay matrix (microseconds)."""

    __slots__ = ("cpu", "mem", "delay")

    def __init__(self, cpu: list[float], mem: list[float], delay: np.ndarray):
        self.cpu, self.mem, self.delay = cpu, mem, np.asarray(delay, dtype=float)
        n = len(cpu)
        if len(self.mem) != n or self.delay.shape != (n, n):
            raise ValueError(f"{n} cpu capacities, {len(self.mem)} mem capacities and "
                             f"a delay matrix of shape {self.delay.shape} disagree")
        if not all(c >= 0 for c in (*self.cpu, *self.mem)):  # NaN included
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


class SfcSpec:
    """The service chain to place: the replicas per type in ``CHAIN`` order,
    each instance's cpu and mem demand by instance id, and one delay
    tolerance per ``ADJACENT_PAIRS`` entry. Instance ids run through the
    types in chain order (see ``chain_structure``), so a placement can be a
    sequence of server ids indexed by instance id."""

    __slots__ = ("counts", "cpu_demand", "mem_demand", "tolerance")

    def __init__(self, counts: tuple[int, ...], cpu_demand: list[float],
                 mem_demand: list[float], tolerance: list[float]):
        self.counts, self.cpu_demand, self.mem_demand, self.tolerance = (
            counts, cpu_demand, mem_demand, tolerance)
        if len(self.counts) != len(CHAIN) or any(c < 1 for c in self.counts):
            raise ValueError(f"counts {self.counts} must give each chain type a replica")
        n = sum(self.counts)
        if len(self.cpu_demand) != n or len(self.mem_demand) != n:
            raise ValueError(f"{n} instances need {n} cpu and mem demands")
        if not all(d >= 0 for d in (*self.cpu_demand, *self.mem_demand)):  # NaN included
            raise ValueError("demands must be non-negative")
        if len(self.tolerance) != len(ADJACENT_PAIRS):
            raise ValueError("tolerance must hold one value per adjacent type pair")
        if not all(t >= 0 for t in self.tolerance):  # NaN included
            raise ValueError("tolerances must be non-negative")

    @property
    def n_instances(self) -> int:
        return len(self.cpu_demand)


class Dist(Section):
    """A named sampling distribution: uniform(a, b) or normal(mean=a, sd=b) clipped at 0."""

    FIELDS = (("kind", str, REQUIRED), ("a", float, REQUIRED), ("b", float, REQUIRED))

    def _check(self):
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


class GenConfig(Section):
    """Synthetic-data generation parameters.

    The distribution defaults are synthetic stand-ins chosen for
    reproducibility; real datacenter delay/resource distributions are not
    publicly available.
    """

    FIELDS = (
        ("n_servers", int, 15),
        ("replica_counts", ReplicaCounts, tuple(DEFAULT_REPLICA_COUNTS.items())),
        ("intra_tier_delay", Dist, Dist("uniform", 50.0, 200.0)),
        ("cross_tier_delay", Dist, Dist("uniform", 200.0, 1000.0)),
        ("cpu_capacity", Dist, Dist("uniform", 8.0, 32.0)),
        ("mem_capacity", Dist, Dist("uniform", 16.0, 64.0)),
        ("cpu_demand", Dist, Dist("uniform", 1.0, 4.0)),
        ("mem_demand", Dist, Dist("uniform", 2.0, 8.0)),
        ("tolerance", Dist, Dist("uniform", 800.0, 2000.0)),
        ("n_topologies", int, 500),
        ("base_seed", int, 42),
    )

    def _check(self):
        counts = dict(self.replica_counts)
        if set(counts) != set(CHAIN):
            raise ConfigError("replica_counts must cover exactly the chain types")
        # normalize to chain order so equality is representation-independent
        self.__dict__["replica_counts"] = tuple((t, counts[t]) for t in CHAIN)
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


@functools.cache
def pair_layout(n_servers: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The server pairs (i, j), i < j, in row-major order, once per server
    count: ``rows`` and ``cols`` as ``np.triu_indices`` gives them (read-only:
    every caller shares them), and each (start, stop, intra-tier) run of pairs
    that are all intra-tier or all cross-tier in ``tier_assignment``'s tiers."""
    rows, cols = np.triu_indices(n_servers, 1)
    rows.flags.writeable = cols.flags.writeable = False
    tier = np.array([t.value for t in tier_assignment(n_servers)])
    intra = (tier[rows] == tier[cols]).tolist()
    ends = [0, *itertools.accumulate(len(list(run)) for _, run in itertools.groupby(intra))]
    return rows, cols, tuple((a, b, intra[a]) for a, b in zip(ends, ends[1:]))


def _draw(cfg: GenConfig, name: str, rng: np.random.Generator, size=None):
    """``size`` draws (one, without it) of the distribution ``cfg.<name>``. A
    value that is not finite raises ConfigError naming the setting: a
    normal's tail may pass the float range, a uniform's draws lie in [a, b]."""
    dist = getattr(cfg, name)
    values = dist.sample(rng, size)
    if dist.kind == "normal" and not np.isfinite(values).all():
        raise ConfigError(f"gen.{name} = {dist} draws a value that is not finite")
    return values


def generate_topology(cfg: GenConfig, index: int) -> Topology:
    """Generate the index-th topology of a batch, deterministically.

    The stream draws the capacities, then one delay per server pair (i, j),
    i < j, in row-major order: intra-tier pairs from ``intra_tier_delay``,
    the others from ``cross_tier_delay``. Each run of ``pair_layout``, which
    is computed once per server count, is one sized draw, which yields the
    same doubles as one scalar draw per pair.
    """
    rng = _rng(cfg, index, STREAM_TOPOLOGY)
    n = cfg.n_servers
    cpu = _draw(cfg, "cpu_capacity", rng, n).tolist()
    mem = _draw(cfg, "mem_capacity", rng, n).tolist()
    rows, cols, runs = pair_layout(n)
    upper = np.empty(len(rows))
    for start, stop, intra in runs:
        name = "intra_tier_delay" if intra else "cross_tier_delay"
        upper[start:stop] = _draw(cfg, name, rng, stop - start)
    delay = np.zeros((n, n))
    delay[rows, cols] = delay[cols, rows] = upper
    return Topology(cpu, mem, delay)


def build_sfc(cfg: GenConfig, index: int) -> SfcSpec:
    """Build the index-th service-chain spec of a batch, deterministically:
    each instance's cpu then mem demand in id order, then the tolerances."""
    rng = _rng(cfg, index, STREAM_SFC)
    cpu, mem = [], []
    for _ in range(cfg.n_instances):
        cpu.append(float(_draw(cfg, "cpu_demand", rng)))
        mem.append(float(_draw(cfg, "mem_demand", rng)))
    tolerance = [float(_draw(cfg, "tolerance", rng)) for _ in ADJACENT_PAIRS]
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
    """Write a CSV artifact, streaming one line per row: each value's ``str``
    joined by commas, then ``\\r\\n``. For ints, floats (``str`` is their
    shortest repr) and names without commas, quotes or line breaks, all that
    a dataset holds, these are the bytes of csv's default dialect."""
    _write_atomic(path, lambda fh: fh.writelines(
        ",".join(map(str, row)) + "\r\n" for row in itertools.chain([header], rows)))


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
