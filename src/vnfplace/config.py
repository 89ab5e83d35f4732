"""Run configuration: one JSON file drives every CLI command.

The JSON keys of each section (``RunConfig``, ``GenConfig``, ``Dist``,
``PsoParams``, ``PipelineSettings``) are exactly the fields its class
declares once, in ``FIELDS``, with their types and defaults (see
``netmodel.Section``), and an absent key takes the field's default, so the
defaults live only in those declarations. Every section is defined here
except ``GenConfig`` and ``Dist``, which ``netmodel``'s generators use; so
this module imports only ``netmodel``, and loading a config loads no stage
layer. ``netmodel.config_from_json`` reads a document by the declared types
and rejects anything else with ``ConfigError``; ``to_json`` writes it back.
An artifact records the JSON of the fields its stage read, so that a later
stage can name each field its own config sets otherwise.
"""

import json

from .netmodel import ConfigError, GenConfig, Section, config_from_json


class PsoParams(Section):
    FIELDS = (("swarm_size", int, 10), ("iterations", int, 30), ("inertia", float, 0.7),
              ("cognitive", float, 1.5), ("social", float, 1.5), ("seed", int, 0))

    def _check(self):
        if self.swarm_size < 2:
            raise ConfigError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if not (0 < self.inertia <= 1):
            raise ConfigError("inertia must be in (0, 1]")
        if self.cognitive <= 0 or self.social <= 0:
            raise ConfigError("cognitive and social weights must be > 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


class PipelineSettings(Section):
    FIELDS = (("error_threshold", float, 0.075), ("steady_window", int, 10),
              ("plateau_epsilon", float, 0.001), ("initial_bounds", (int, int), (2, 100)))

    def _check(self):
        if not (0 < self.error_threshold <= 1):
            raise ConfigError("error_threshold must be in (0, 1]")
        if self.steady_window < 1:
            raise ConfigError("steady_window must be >= 1")
        if self.plateau_epsilon < 0:
            raise ConfigError("plateau_epsilon must be >= 0")
        lo, hi = self.initial_bounds
        if not (1 <= lo < hi):
            raise ConfigError("initial_bounds require 1 <= lo < hi")


class RunConfig(Section):
    FIELDS = (
        ("gen", GenConfig, GenConfig()),
        ("folds", int, 5),
        ("pso", PsoParams, PsoParams()),
        ("pipeline", PipelineSettings, PipelineSettings()),
        ("baseline_depth", int, 100),
        ("test_fraction", float, 0.2),
        ("teacher_budget", int, 1000),
        ("max_infeasible_fraction", float, 0.0),
        ("histogram_bin_width_us", float, 5.0),
        ("output_dir", str, "out"),
        ("seed", int, 42),
    )

    def _check(self):
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


#: The RunConfig fields ``generate`` reads, which ``split.json`` records. The
#: other sections (``pso``, ``pipeline``, ``folds``, ``baseline_depth``, ...)
#: shape only later stages.
GENERATE_FIELDS = ("gen", "seed", "test_fraction", "teacher_budget",
                   "max_infeasible_fraction")

#: The RunConfig fields ``optimize`` reads beyond those its input was generated
#: under; the models record both.
OPTIMIZE_FIELDS = ("folds", "pso", "pipeline", "baseline_depth")


def run_config_from_json(d: dict) -> RunConfig:
    return config_from_json(RunConfig, d, "config")


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"config file {path} cannot be read: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    return run_config_from_json(doc)
