"""Run configuration: one JSON file drives every CLI command.

The JSON keys of each section are exactly the fields of its dataclass
(``RunConfig``, ``GenConfig``, ``Dist``, ``PsoParams``, ``PipelineSettings``),
and an absent key takes the field's default, so the defaults live only in
those dataclasses. ``netmodel.config_from_json`` reads a document by the
field types and rejects anything else with ``ConfigError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .netmodel import ConfigError, GenConfig, config_from_json, config_to_json
from .pipeline import PipelineSettings
from .swarm import PsoParams


@dataclass(frozen=True)
class RunConfig:
    gen: GenConfig = field(default_factory=GenConfig)
    folds: int = 5
    pso: PsoParams = PsoParams()
    pipeline: PipelineSettings = PipelineSettings()
    baseline_depth: int = 100
    test_fraction: float = 0.2
    teacher_budget: int = 1000
    max_infeasible_fraction: float = 0.0
    histogram_bin_width_us: float = 5.0
    output_dir: str = "out"
    seed: int = 42

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if not (0 < self.test_fraction < 1):
            raise ConfigError("test_fraction must be in (0, 1)")
        if self.baseline_depth < 1:
            raise ConfigError("baseline_depth must be >= 1")
        if self.teacher_budget < 1:
            raise ConfigError("teacher_budget must be >= 1")
        if not (0 <= self.max_infeasible_fraction < 1):
            raise ConfigError("max_infeasible_fraction must be in [0, 1)")
        if self.histogram_bin_width_us <= 0:
            raise ConfigError("histogram_bin_width_us must be > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def to_json(self) -> dict:
        return config_to_json(self)


def run_config_from_json(d: dict) -> RunConfig:
    return config_from_json(RunConfig, d, "config")


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    return run_config_from_json(doc)
