"""Run configuration: one JSON file drives every CLI command."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .netmodel import ConfigError, GenConfig
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

    def to_json(self) -> dict:
        return {
            "gen": self.gen.to_json(),
            "folds": self.folds,
            "pso": {
                "swarm_size": self.pso.swarm_size,
                "iterations": self.pso.iterations,
                "inertia": self.pso.inertia,
                "cognitive": self.pso.cognitive,
                "social": self.pso.social,
                "seed": self.pso.seed,
            },
            "pipeline": self.pipeline.to_json(),
            "baseline_depth": self.baseline_depth,
            "test_fraction": self.test_fraction,
            "teacher_budget": self.teacher_budget,
            "max_infeasible_fraction": self.max_infeasible_fraction,
            "histogram_bin_width_us": self.histogram_bin_width_us,
            "output_dir": self.output_dir,
            "seed": self.seed,
        }


def _reject_unknown(section: str, d: dict, known: set[str]):
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")


def _pso_from_json(d: dict) -> PsoParams:
    _reject_unknown("pso config", d, {
        "swarm_size", "iterations", "inertia", "cognitive", "social", "seed",
    })
    try:
        return PsoParams(
            swarm_size=int(d.get("swarm_size", 10)),
            iterations=int(d.get("iterations", 30)),
            inertia=float(d.get("inertia", 0.7)),
            cognitive=float(d.get("cognitive", 1.5)),
            social=float(d.get("social", 1.5)),
            seed=int(d.get("seed", 0)),
        )
    except ValueError as e:
        raise ConfigError(f"bad pso config: {e}") from None


def _pipeline_from_json(d: dict) -> PipelineSettings:
    _reject_unknown("pipeline config", d, {
        "error_threshold", "steady_window", "plateau_epsilon", "initial_bounds",
    })
    try:
        lo, hi = d.get("initial_bounds", [2, 100])
        return PipelineSettings(
            error_threshold=float(d.get("error_threshold", 0.075)),
            steady_window=int(d.get("steady_window", 10)),
            plateau_epsilon=float(d.get("plateau_epsilon", 0.001)),
            initial_lo=int(lo),
            initial_hi=int(hi),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad pipeline config: {e}") from None


def run_config_from_json(d: dict) -> RunConfig:
    _reject_unknown("config", d, {
        "gen", "folds", "pso", "pipeline", "baseline_depth", "test_fraction",
        "teacher_budget", "max_infeasible_fraction", "histogram_bin_width_us",
        "output_dir", "seed",
    })
    kwargs: dict = {}
    if "gen" in d:
        kwargs["gen"] = GenConfig.from_json(d["gen"])
    if "pso" in d:
        kwargs["pso"] = _pso_from_json(d["pso"])
    if "pipeline" in d:
        kwargs["pipeline"] = _pipeline_from_json(d["pipeline"])
    try:
        for key, conv in [
            ("folds", int), ("baseline_depth", int), ("test_fraction", float),
            ("teacher_budget", int), ("max_infeasible_fraction", float),
            ("histogram_bin_width_us", float), ("output_dir", str), ("seed", int),
        ]:
            if key in d:
                kwargs[key] = conv(d[key])
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from None


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return run_config_from_json(doc)
