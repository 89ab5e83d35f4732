import csv
import glob
import hashlib
import json
import os
import pickle
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from oracles import level_order, reference_fit
from vnfplace import cli, config, features, netmodel
from vnfplace.config import (
    GENERATE_FIELDS, OPTIMIZE_FIELDS, PsoParams, RunConfig, load_run_config,
    run_config_from_json,
)
from vnfplace.netmodel import ConfigError, Dist


CONFIGS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def quick_config(output_dir="out", n_topologies=80, seed=42):
    """A fast end-to-end run config built on the desk generator settings."""
    doc = json.loads(open(os.path.join(CONFIGS_DIR, "desk.json")).read())
    doc["gen"]["n_topologies"] = n_topologies
    doc["gen"]["base_seed"] = seed
    doc["seed"] = seed
    doc["output_dir"] = output_dir
    return doc


def write_config(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return str(path)


# ---------------------------------------------------------------------------
# RunConfig


def test_run_config_round_trip():
    cfg = run_config_from_json(quick_config())
    assert run_config_from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS_DIR, "*.json"))),
                         ids=os.path.basename)
def test_shipped_config_round_trip(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = load_run_config(path)
    assert cfg.to_json() == doc  # every key is a field, every field a key
    assert run_config_from_json(cfg.to_json()) == cfg


def test_defaults_applied_for_missing_sections():
    cfg = run_config_from_json({"seed": 5})
    assert cfg.seed == 5
    assert cfg.folds == 5
    assert cfg.pso.swarm_size == 10
    assert cfg.pipeline.error_threshold == 0.075
    assert cfg.pipeline.initial_bounds == (2, 100)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        run_config_from_json({"seeed": 5})


def test_replace_checks_the_copy():
    cfg = run_config_from_json(quick_config())
    assert cfg.replace(seed=3).seed == 3 and cfg.replace(seed=3).gen is cfg.gen
    for section, change, says in [(cfg, {"seed": -1}, "seed must be >= 0"),
                                  (cfg.gen, {"base_seed": -1}, "base_seed must be >= 0"),
                                  (cfg.pso, {"seed": -1}, "seed must be >= 0"),
                                  (cfg.pipeline, {"initial_bounds": (5, 5)}, "1 <= lo < hi"),
                                  (cfg.gen.tolerance, {"kind": "beta"}, "unknown")]:
        with pytest.raises(ConfigError, match=says):
            section.replace(**change)
    with pytest.raises(TypeError):
        cfg.replace(seeed=1)


def test_sections_are_immutable_values():
    cfg, twin = run_config_from_json(quick_config()), run_config_from_json(quick_config())
    assert twin is not cfg and twin == cfg and hash(twin) == hash(cfg)
    assert twin.gen == cfg.gen and hash(twin.gen) == hash(cfg.gen)
    assert cfg.replace(seed=cfg.seed + 1) != cfg and cfg != cfg.to_json()
    assert pickle.loads(pickle.dumps(cfg)) == cfg  # a process pool sends gen to its workers
    for section, name in [(cfg, "seed"), (cfg.gen, "n_servers"), (cfg.gen.tolerance, "a"),
                          (cfg.pso, "seed"), (cfg.pipeline, "steady_window"), (cfg, "extra")]:
        with pytest.raises(AttributeError):
            setattr(section, name, 1)
        with pytest.raises(AttributeError):
            delattr(section, name)
    assert cfg == twin


def test_sections_take_fields_by_position_or_keyword():
    dist = Dist("uniform", 1.0, 2.0)
    assert dist == Dist(kind="uniform", a=1.0, b=2.0) == Dist("uniform", b=2.0, a=1.0)
    assert repr(dist) == "Dist(kind='uniform', a=1.0, b=2.0)"
    assert PsoParams(12).swarm_size == 12 and PsoParams(12).seed == 0
    for args, kwargs in [(("uniform", 1.0), {}), (("uniform", 1.0, 2.0, 3.0), {}),
                         (("uniform", 1.0, 2.0), {"a": 1.0}), ((), {"kind": "uniform"}),
                         (("uniform", 1.0, 2.0), {"c": 1.0})]:
        with pytest.raises(TypeError):
            Dist(*args, **kwargs)


#: A type missing, a type not in the chain, a count that is not an int.
BAD_REPLICA_COUNTS = [{"HSS": 1, "MME": 2, "SGW": 2},
                      {"HSS": 1, "MME": 2, "SGW": 2, "PGW": 1, "XYZ": 1},
                      {"HSS": True, "MME": 2, "SGW": 2, "PGW": 1}]


@pytest.mark.parametrize(
    "patch",
    [
        {"folds": 1},
        {"test_fraction": 0.0},
        {"test_fraction": 1.0},
        {"baseline_depth": 0},
        {"teacher_budget": 0},
        {"max_infeasible_fraction": 1.0},
        {"histogram_bin_width_us": 0},
        {"pso": {"swarm_size": 1}},
        {"pipeline": {"bound_doubling_cap": 800}},
        {"pipeline": {"error_threshold": 1.5}},
        {"pso": {"hi": 50}},
        {"pipeline": {"initial_bounds": [2]}},
        {"pso": 5},
        {"folds": "x"},
        {"gen": 5},
        {"gen": {"n_servers": "x"}},
        {"gen": {"tolerance": 5}},
        {"gen": {"replica_counts": 5}},
        {"gen": {"tolerance": {"kind": "uniform", "a": "x", "b": 1}}},
        {"pso": {"swarm_size": None}},
        {"pso": {"seed": -2}},
        {"gen": {"base_seed": -1}},
        {"seed": -1},
        {"folds": 2.9},
        {"output_dir": 5},
        {"gen": {"cpu_capacity": {"kind": "uniform", "a": 0, "b": float("inf")}}},
        {"gen": {"cpu_capacity": {"kind": "normal", "a": float("nan"), "b": 1}}},
        {"pso": {"cognitive": float("nan")}},
        {"histogram_bin_width_us": float("nan")},
        {"histogram_bin_width_us": float("inf")},
        *[{"gen": {"replica_counts": counts}} for counts in BAD_REPLICA_COUNTS],
    ],
)
def test_bad_values_rejected(patch):
    with pytest.raises(ConfigError):
        run_config_from_json(patch)


def test_bad_replica_counts_name_their_key():
    """``gen.replica_counts`` maps each chain type, and only those, to an int."""
    for counts in BAD_REPLICA_COUNTS:
        with pytest.raises(ConfigError, match=r"config\.gen\.replica_counts must map each"):
            run_config_from_json({"gen": {"replica_counts": counts}})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-too-large"])
def test_non_finite_config_number_names_its_key(value):
    """JSON's ``NaN`` and ``Infinity``, and an integer no float holds, are
    refused where a float is read, naming the key path."""
    with pytest.raises(ConfigError, match=r"config\.pso\.cognitive must be a finite"):
        run_config_from_json({"pso": {"cognitive": value}})


def _named(err: str) -> list[str]:
    """The settings that a refusal's message ``err`` names."""
    return re.search(r"under other settings of (.*) than this config's; rerun", err)[1].split(", ")


def _refused_settings(artifact, cfg, fields):
    """The settings named when ``cfg`` meets ``artifact``, which records
    ``fields``: [] when it is accepted."""
    try:
        cli._check_settings(artifact, cfg.to_json(), fields, "artifact.json", "generate")
    except netmodel.ArtifactError as e:
        return _named(str(e))
    return []


def test_split_settings_cover_exactly_what_generate_reads(cli_run):
    """split.json records the settings generate reads and no other: a config
    that differs from them in one is refused naming it alone, and one that
    differs only in settings of later stages is accepted."""
    split = json.loads((cli_run / "out" / "split.json").read_text())
    assert sorted(split["settings"]) == sorted(GENERATE_FIELDS)
    cfg = run_config_from_json(quick_config())
    retuned = cfg.replace(folds=3, baseline_depth=7, output_dir="elsewhere",
                          histogram_bin_width_us=2.0,
                          pso=cfg.pso.replace(swarm_size=4, seed=9),
                          pipeline=cfg.pipeline.replace(error_threshold=0.5))
    assert _refused_settings(split, retuned, GENERATE_FIELDS) == []
    changed = {"gen": cfg.gen.replace(base_seed=cfg.gen.base_seed + 1), "seed": cfg.seed + 1,
               "test_fraction": 0.3, "teacher_budget": 999, "max_infeasible_fraction": 0.5}
    assert sorted(changed) == sorted(GENERATE_FIELDS)
    for key, value in changed.items():
        assert _refused_settings(split, cfg.replace(**{key: value}), GENERATE_FIELDS) == [key]


def test_model_settings_cover_the_split_and_what_optimize_reads(cli_run):
    """Both models record the settings generate and optimize read and no
    other, each refused alone when a config differs in it."""
    fields = GENERATE_FIELDS + OPTIMIZE_FIELDS
    models = [json.loads((cli_run / "out" / name).read_text())
              for name in ("model_optimized.json", "model_baseline.json")]
    assert models[0]["settings"] == models[1]["settings"]
    assert sorted(models[0]["settings"]) == sorted(fields)
    cfg = run_config_from_json(quick_config())
    retuned = cfg.replace(output_dir="elsewhere", histogram_bin_width_us=2.0)
    assert _refused_settings(models[0], retuned, fields) == []
    changed = {"folds": 3, "pso": cfg.pso.replace(swarm_size=4), "baseline_depth": 7,
               "pipeline": cfg.pipeline.replace(error_threshold=0.5)}
    assert sorted(changed) == sorted(OPTIMIZE_FIELDS)
    changed["teacher_budget"] = 999  # a generate setting, which the split records too
    for key, value in changed.items():
        assert _refused_settings(models[0], cfg.replace(**{key: value}), fields) == [key]


def test_load_missing_and_invalid_files(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_run_config(str(arr))


# ---------------------------------------------------------------------------
# CLI


def _run(*argv):
    return cli.main(list(argv))


def test_cli_missing_config_exits_2(tmp_path):
    assert _run("generate", "--config", str(tmp_path / "nope.json")) == 2


def _refuses_output_directory(tmp_path, capsys, stage, name):
    """Run ``stage`` in ``tmp_path`` with a directory in the place of its
    output ``out/<name>``: it exits 2 naming the path, and leaves the
    directory, and every other file of ``out``, as they were."""
    target = tmp_path / "out" / name
    if target.exists():
        target.unlink()
    target.mkdir(parents=True)
    (target / "keep").write_text("kept\n")
    before = sorted(p.name for p in (tmp_path / "out").iterdir())
    path = write_config(tmp_path / "cfg.json", quick_config(n_topologies=4))
    assert _run(stage, "--config", path, "--workers", "1") == 2
    err = capsys.readouterr().err
    assert f"config error: output path {os.path.join('out', name)} is a directory" in err
    assert (target / "keep").read_text() == "kept\n"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == before


@pytest.mark.parametrize("name", ["comparison.json", "placements.json",
                                  "train.schema.json", "test.schema.json"])
def test_cli_generate_output_path_that_is_a_directory_exits_2(tmp_path, monkeypatch,
                                                               capsys, name):
    monkeypatch.chdir(tmp_path)
    _refuses_output_directory(tmp_path, capsys, "generate", name)


def test_cli_optimize_output_path_that_is_a_directory_exits_2(cli_run, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    _refuses_output_directory(tmp_path, capsys, "optimize", "model_optimized.json")


@pytest.mark.parametrize("name", ["comparison.json"])
def test_cli_compare_output_path_that_is_a_directory_exits_2(cli_run, tmp_path,
                                                             monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    _refuses_output_directory(tmp_path, capsys, "compare", name)


def test_cli_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert _run("generate", "--config", str(tmp_path)) == 2
    assert f"config error: config file {tmp_path} cannot be read" in capsys.readouterr().err


def test_cli_output_dir_that_is_a_file_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").write_text("not a directory\n")
    path = write_config(tmp_path / "cfg.json", quick_config(n_topologies=4))
    assert _run("generate", "--config", path, "--workers", "1") == 2
    assert "config error: cannot create output_dir out" in capsys.readouterr().err
    assert (tmp_path / "out").read_text() == "not a directory\n"


def test_cli_bad_config_exits_2(tmp_path):
    doc = quick_config()
    doc["not_a_key"] = 1
    path = write_config(tmp_path / "cfg.json", doc)
    assert _run("generate", "--config", path) == 2


@pytest.mark.parametrize("patch, argv", [
    ({"gen": 5}, []),
    ({}, ["--seed", "-1"]),
    ({"histogram_bin_width_us": float("nan")}, []),  # json.dump writes NaN
])
def test_cli_malformed_config_or_seed_exits_2(tmp_path, capsys, patch, argv):
    path = write_config(tmp_path / "cfg.json", dict(quick_config(), **patch))
    assert _run("generate", "--config", path, *argv) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_negative_seed_override_names_the_first_seed_it_breaks(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("generate", "--config", path, "--seed", "-1") == 2
    assert capsys.readouterr().err == "config error: base_seed must be >= 0\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_workers_below_one_exits_2(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path / "cfg.json", quick_config(n_topologies=4))
    assert _run("generate", "--config", path, "--workers", workers) == 2
    assert "config error: --workers" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_optimize_before_generate_exits_4(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("optimize", "--config", path) == 4
    assert _run("compare", "--config", path) == 4


def test_cli_infeasible_generation_exits_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = quick_config(n_topologies=2)
    doc["gen"]["cpu_demand"] = {"kind": "uniform", "a": 1000, "b": 1000}
    path = write_config(tmp_path / "cfg.json", doc)
    assert _run("generate", "--config", path, "--workers", "1") == 3


@pytest.mark.parametrize("tolerance", [{"kind": "normal", "a": 100, "b": 1000},
                                       {"kind": "uniform", "a": 0, "b": 0}],
                         ids=["normal-clipped-at-0", "uniform-0"])
def test_cli_zero_tolerance_is_infeasible_not_a_crash(tmp_path, monkeypatch, capsys,
                                                      tolerance):
    """A tolerance of 0 asks a dependent pair to share a server, which the
    anti-location of the replicas forbids: no feasible placement, exit 3."""
    monkeypatch.chdir(tmp_path)
    doc = quick_config(n_topologies=20)
    doc["gen"]["tolerance"] = tolerance
    path = write_config(tmp_path / "cfg.json", doc)
    assert _run("generate", "--config", path, "--workers", "1") == 3
    assert "had no feasible placement" in capsys.readouterr().err


def test_cli_optimize_teacher_ceiling_is_avg_cp_delay(tmp_path, monkeypatch):
    """Each training row's teacher delay is the mean that scores the tree's
    predictions, its path delays added in order. With 36 paths numpy's
    pairwise ``np.mean`` differs from it in the last bits on some rows."""
    from oracles import reference_avg_cp_delay, reference_path_delays
    from vnfplace import swarm

    class Captured(Exception):
        pass

    def capture(teacher_avg):
        raise Captured(teacher_avg)

    monkeypatch.chdir(tmp_path)
    doc = quick_config(n_topologies=20)
    doc["gen"].update(n_servers=30,
                      replica_counts={"HSS": 2, "MME": 3, "SGW": 3, "PGW": 2})
    path = write_config(tmp_path / "cfg.json", doc)
    assert _run("generate", "--config", path, "--workers", "1") == 0
    monkeypatch.setattr(swarm, "percentile_99", capture)
    with pytest.raises(Captured) as got:
        _run("optimize", "--config", path)
    teacher_avg, = got.value.args
    cfg = load_run_config(path)
    _, Y, topos, sfcs = cli._load_split(cfg, "train", cfg.to_json())
    rows = list(zip(topos, Y.tolist(), sfcs))
    assert list(teacher_avg) == [reference_avg_cp_delay(*row) for row in rows]
    assert list(teacher_avg) != [float(np.mean(reference_path_delays(*row))) for row in rows]


def test_cli_validates_each_scored_placement_once(tmp_path, monkeypatch):
    """generate, optimize and compare validate each generated teacher row,
    each validation row of every ``fold_results`` call and each test row of
    the three compared strategies once, and make no other validation: the
    count that the benchmark checks under its tracer."""
    from vnfplace import pipeline, placer

    validations, fold_rows = [0], [0]
    validate, fold_results = placer.validate_placement, pipeline.fold_results

    def counted_validate(*args):
        validations[0] += 1
        return validate(*args)

    def counted_fold_results(h, ctx, folds, preds):
        fold_rows[0] += sum(len(v) for _, v in folds.folds)
        return fold_results(h, ctx, folds, preds)

    monkeypatch.setattr(placer, "validate_placement", counted_validate)
    monkeypatch.setattr(pipeline, "fold_results", counted_fold_results)
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path / "cfg.json", quick_config(n_topologies=40))
    for stage in ("generate", "optimize", "compare"):
        assert _run(stage, "--config", path, "--workers", "1") == 0
    with open(tmp_path / "out" / "placements.json", encoding="utf-8") as fh:
        generated = len(json.load(fh))
    with open(tmp_path / "out" / "split.json", encoding="utf-8") as fh:
        test_rows = len(json.load(fh)["test"])
    assert fold_rows[0] > 0
    assert validations[0] == fold_rows[0] + generated + 3 * test_rows


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_generate_refuses_a_draw_that_is_not_finite(tmp_path, monkeypatch, capsys,
                                                        workers):
    """normal(1e308, 1e308) draws delays past the float range: generate exits
    2 naming the setting, from its own process or from a worker's, and
    writes no dataset."""
    monkeypatch.chdir(tmp_path)
    doc = quick_config(n_topologies=40)
    doc["gen"]["intra_tier_delay"] = {"kind": "normal", "a": 1e308, "b": 1e308}
    path = write_config(tmp_path / "cfg.json", doc)
    assert _run("generate", "--config", path, "--workers", workers) == 2
    assert ("config error: gen.intra_tier_delay = Dist(kind='normal', a=1e+308, b=1e+308) "
            "draws a value that is not finite") in capsys.readouterr().err
    assert not (tmp_path / "out" / "train.csv").exists()


def test_cli_runs_capacities_near_the_float_range_end_to_end(tmp_path):
    """Capacities up to 1.7e308: every midpoint between two of them that
    overflows splits at the lower one instead, so each stage ends, exits 0
    and warns of no overflow. Each stage runs in its own process under a
    timeout, so that a fit that never ends fails the test."""
    doc = quick_config(output_dir=str(tmp_path / "out"), n_topologies=40)
    doc["gen"]["cpu_capacity"] = {"kind": "uniform", "a": 0.0, "b": 1.7e308}
    path = write_config(tmp_path / "cfg.json", doc)
    for stage in ("generate", "optimize", "compare"):
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "vnfplace.cli", stage,
             "--config", path, "--workers", "1"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
    thresholds = [n["threshold"] for n in json.loads(
        (tmp_path / "out" / "model_optimized.json").read_text())["nodes"]]
    assert max(t for t in thresholds if t is not None) > 1e307


def test_cli_generate_without_a_train_and_test_row_exits_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path / "cfg.json", quick_config(n_topologies=1))
    assert _run("generate", "--config", path, "--workers", "1") == 3
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_cli_stage_refuses_artifacts_generated_under_other_settings(tmp_path, monkeypatch,
                                                                    capsys):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path / "cfg.json", quick_config(n_topologies=12))
    assert _run("generate", "--config", path, "--workers", "1", "--seed", "1") == 0
    split = json.loads((tmp_path / "out" / "split.json").read_text())
    assert (split["settings"]["seed"], split["settings"]["gen"]["base_seed"]) == (1, 1)
    capsys.readouterr()
    assert _run("optimize", "--config", path, "--seed", "2") == 4
    assert ("split.json was generated under other settings of gen, seed than"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "pipeline_report.json").exists()
    assert _run("optimize", "--config", path, "--seed", "1") == 0
    capsys.readouterr()
    assert _run("compare", "--config", path, "--seed", "2") == 4
    assert "split.json was generated under other settings" in capsys.readouterr().err
    assert not (tmp_path / "out" / "comparison.json").exists()


def test_cli_optimize_with_fewer_rows_than_folds_exits_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path / "cfg.json", quick_config(n_topologies=3))
    assert _run("generate", "--config", path, "--workers", "1") == 0
    assert len(json.loads((tmp_path / "out" / "split.json").read_text())["train"]) < 5
    assert _run("optimize", "--config", path) == 3
    assert not (tmp_path / "out" / "pipeline_report.json").exists()


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One complete generate -> optimize -> compare run, shared by tests."""
    root = tmp_path_factory.mktemp("cli_run")
    cfgpath = write_config(root / "cfg.json", quick_config())
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert _run("generate", "--config", str(cfgpath), "--workers", "1") == 0
        assert _run("optimize", "--config", str(cfgpath)) == 0
        assert _run("compare", "--config", str(cfgpath)) == 0
    finally:
        os.chdir(cwd)
    return root


EXPECTED_ARTIFACTS = [
    "placements.json", "split.json", "train.csv", "train.schema.json", "test.csv",
    "test.schema.json", "pipeline_report.json", "model_baseline.json",
    "model_optimized.json", "comparison.json",
]


def test_cli_workflow_produces_artifacts(cli_run):
    out = cli_run / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(EXPECTED_ARTIFACTS)
    comparison = json.loads((out / "comparison.json").read_text())
    names = [s["name"] for s in comparison["strategies"]]
    assert names == ["heuristic", "baseline_tree", "optimized_tree"]
    # desk chains (1, 2, 2, 1): 4 paths, 8 dependent pairs by instance id
    assert comparison["pairs"] == [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4],
                                   [3, 5], [4, 5]]
    for s in comparison["strategies"]:
        assert len(s["mean_cp_delay_by_path"]) == 4
        assert len(s["mean_pair_delay_by_pair"]) == 8
    report = json.loads((out / "pipeline_report.json").read_text())
    a1, a2 = report["functional_range"]
    assert a1 <= report["h_star"] <= a2
    # the config appears once, as config_echo: no copy of its pipeline section
    assert sorted(report) == ["config_echo", "functional_range", "h_star", "model_depth",
                              "model_nodes", "stage1", "stage2"]


def test_cli_split_respects_test_fraction(cli_run):
    split = json.loads((cli_run / "out" / "split.json").read_text())
    n = len(split["train"]) + len(split["test"])
    assert len(split["test"]) == round(n * 0.2)
    assert not set(split["train"]) & set(split["test"])


def test_cli_rerun_is_byte_identical(cli_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgpath = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("generate", "--config", str(cfgpath), "--workers", "1") == 0
    assert _run("optimize", "--config", str(cfgpath)) == 0
    assert _run("compare", "--config", str(cfgpath)) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(EXPECTED_ARTIFACTS)
    for name in EXPECTED_ARTIFACTS:
        a = (cli_run / "out" / name).read_bytes()
        b = (tmp_path / "out" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"


def test_cli_parallel_generation_matches_serial(cli_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgpath = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("generate", "--config", str(cfgpath), "--workers", "4") == 0
    for name in ("placements.json", "split.json", "train.csv", "test.csv"):
        assert (cli_run / "out" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_cli_process_entry_writes_the_in_process_bytes(cli_run, tmp_path):
    """Each stage as its own ``python -m vnfplace.cli`` process, which freezes
    its import heap before the stage, and ``generate`` with a pool forked
    from that frozen parent: every artifact equals the in-process run's."""
    path = write_config(tmp_path / "cfg.json", quick_config())
    for stage, *extra in (("generate", "--workers", "2"), ("optimize",), ("compare",)):
        done = subprocess.run([sys.executable, "-m", "vnfplace.cli", stage, "--config", path,
                               *extra], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(EXPECTED_ARTIFACTS)
    for name in EXPECTED_ARTIFACTS:
        assert (tmp_path / "out" / name).read_bytes() == (cli_run / "out" / name).read_bytes(), name


def test_cli_generate_pool_has_at_most_one_worker_per_chunk(tmp_path, monkeypatch, capsys):
    """A pool starts all its processes at once, so ``generate`` sizes it at
    one process per 16-topology chunk at most and runs one chunk in this
    process. The fake pool maps in this process: the test starts no process."""
    import concurrent.futures
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.chdir(tmp_path)
    for n, pools in [(80, [5]), (10, [])]:
        sizes.clear()
        path = write_config(tmp_path / "cfg.json", quick_config(n_topologies=n))
        assert _run("generate", "--config", path, "--workers", "10000") == 0
        assert sizes == pools
        assert f"with {pools[0] if pools else 1} worker(s)" in capsys.readouterr().err
    default = cli.build_parser().parse_args(["generate", "--config", path]).workers
    assert default == (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)


def test_cli_seed_override_changes_data(cli_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgpath = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("generate", "--config", str(cfgpath), "--workers", "1",
                "--seed", "123") == 0
    assert ((cli_run / "out" / "train.csv").read_bytes()
            != (tmp_path / "out" / "train.csv").read_bytes())
    split = json.loads((tmp_path / "out" / "split.json").read_text())
    assert split["settings"]["seed"] == 123


def test_cli_former_aliases_exit_2(tmp_path):
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert sorted(cli.COMMANDS) == ["compare", "generate", "optimize"]
    for alias in ("teach", "train", "evaluate"):
        with pytest.raises(SystemExit) as exit_info:
            _run(alias, "--config", path)
        assert exit_info.value.code == 2, alias


def _truncate(text):
    return text[:100]


def _non_finite_features(text):
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[1], cells[2] = "nan", "inf"
    return "\n".join([header, ",".join(cells), rest])


def _drop_settings(text):
    return json.dumps({k: v for k, v in json.loads(text).items() if k != "settings"})


def _drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _widen_model(text):
    doc = json.loads(text)
    return json.dumps(dict(doc, n_features=doc["n_features"] + 6))


def _drop_outputs(text):
    """Keep the first five of the model's outputs, as if it were fitted on
    chains of five instances; the settings stay."""
    doc = json.loads(text)
    for node in doc["nodes"]:
        node["majority"] = node["majority"][:5]
    return json.dumps(dict(doc, n_outputs=5, classes=doc["classes"][:5]))


def _preorder(text):
    """The depth-3 tree of ``tests/oracles.py``'s reference fit on the
    model's own ``train.csv``, stored in the pre-order that models had before
    ``fit`` stored its level order; the settings stay."""
    gen = run_config_from_json(quick_config()).gen
    doc = reference_fit(*features.load_dataset("out/train.csv", gen.n_servers,
                                               gen.n_instances), 3)
    assert level_order(doc) != doc
    return json.dumps(dict(doc, settings=json.loads(text)["settings"]))


def _set_root_left(value):
    """Point the root's left child at node ``value``; the settings stay."""
    def edit(text):
        doc = json.loads(text)
        doc["nodes"][0]["left"] = value
        return json.dumps(doc)
    return edit


def _set_first_label(value):
    """Set the last label cell of the first data row to ``value``."""
    def edit(text):
        header, first, rest = text.split("\n", 2)
        return "\n".join([header, first.rsplit(",", 1)[0] + f",{value}", rest])
    return edit


def _set_raw(path, raw):
    """Set the JSON value at ``path`` (a list of keys and indices) to the
    literal text ``raw``, such as ``1e400``, which ``json.dumps`` cannot write."""
    def edit(text):
        root = doc = json.loads(text)
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = "@raw@"
        return json.dumps(root).replace('"@raw@"', raw)
    return edit


def _shift_delay(row):
    """Add 1 us to the delay_0_1 cell of data row ``row`` (0-based, negative
    from the end)."""
    def edit(text):
        header, *rows = text.splitlines()
        col = header.split(",").index("delay_0_1")
        cells = rows[row].split(",")
        cells[col] = repr(float(cells[col]) + 1.0)
        rows[row] = ",".join(cells)
        return "\n".join([header, *rows]) + "\n"
    return edit


@pytest.mark.parametrize("name, stage, edit, says", [
    pytest.param("split.json", "optimize", _truncate, "is not valid JSON",
                 id="split.json-optimize"),
    pytest.param("model_optimized.json", "compare", _truncate, "is not valid JSON",
                 id="model_optimized.json-compare"),
    pytest.param("split.json", "optimize", lambda _: "{}", "is malformed",
                 id="split.json-optimize-no-key"),
    pytest.param("model_optimized.json", "compare", lambda _: '{"nodes": []}',
                 "is malformed", id="model_optimized.json-compare-no-key"),
    pytest.param("train.csv", "optimize", lambda _: "", "header does not match",
                 id="train.csv-optimize-empty"),
    pytest.param("train.csv", "optimize", lambda text: text.replace("\n", "\nx", 1),
                 "could not convert", id="train.csv-optimize-not-a-number"),
    pytest.param("train.csv", "optimize", _non_finite_features, "is not finite",
                 id="train.csv-optimize-non-finite"),
    # a split that records no settings
    pytest.param("split.json", "optimize", _drop_settings, "rerun generate",
                 id="split.json-optimize-no-settings"),
    pytest.param("train.csv", "optimize", _drop_last_row, "rerun generate",
                 id="train.csv-optimize-row-missing"),
    pytest.param("test.csv", "compare", _drop_last_row, "rerun generate",
                 id="test.csv-compare-row-missing"),
    # a hand-edited node structure: a cycle back to the root, a missing node
    pytest.param("model_optimized.json", "compare", _set_root_left(0),
                 "not in level order", id="model_optimized.json-compare-root-cycle"),
    pytest.param("model_optimized.json", "compare", _set_root_left(9999),
                 "not in level order", id="model_optimized.json-compare-root-dangling"),
    # a model stored in pre-order, before fit stored its level order
    pytest.param("model_optimized.json", "compare", _preorder, "not in level order",
                 id="model_optimized.json-compare-preorder"),
    # a node that to_json never writes
    pytest.param("model_optimized.json", "compare", _set_raw(["nodes", 0, "threshold"], "null"),
                 "is malformed", id="model_optimized.json-compare-null-threshold"),
    pytest.param("model_optimized.json", "compare",
                 _set_raw(["nodes", 0, "threshold"], "Infinity"),
                 "is malformed", id="model_optimized.json-compare-infinite-threshold"),
    pytest.param("model_optimized.json", "compare", _set_raw(["nodes", 0, "feature"], "0.7"),
                 "is malformed", id="model_optimized.json-compare-float-feature"),
    pytest.param("model_optimized.json", "compare", _set_raw(["max_depth_fit"], "5.9"),
                 "is malformed", id="model_optimized.json-compare-float-depth"),
    # fitted on the wider feature rows of an earlier version
    pytest.param("model_optimized.json", "compare", _widen_model, "rerun optimize",
                 id="model_optimized.json-compare-other-width"),
    # a model of fewer outputs than the chains have instances
    pytest.param("model_optimized.json", "compare", _drop_outputs, "5 labels per row",
                 id="model_optimized.json-compare-fewer-outputs"),
    pytest.param("train.csv", "optimize", _set_first_label(-1), "is not a server id",
                 id="train.csv-optimize-label-out-of-range"),
    pytest.param("test.csv", "compare", _set_first_label(99), "is not a server id",
                 id="test.csv-compare-label-out-of-range"),
    # a feature that its regenerated topology does not reproduce
    pytest.param("train.csv", "optimize", _shift_delay(0), "rerun generate",
                 id="train.csv-optimize-delay-changed"),
    pytest.param("test.csv", "compare", _shift_delay(-1), "rerun generate",
                 id="test.csv-compare-delay-changed"),
    # numbers too large for an int64 or a float
    pytest.param("model_optimized.json", "compare", _set_raw(["max_depth_fit"], "1e400"),
                 "is malformed", id="model_optimized.json-compare-huge-depth"),
    pytest.param("model_optimized.json", "compare",
                 _set_raw(["nodes", 0, "majority", 0], str(10**30)),
                 "is malformed", id="model_optimized.json-compare-huge-label"),
    # a label that no int64 holds
    pytest.param("test.csv", "compare", _set_first_label(10**25), "is not a server id",
                 id="test.csv-compare-huge-label"),
])
def test_cli_truncated_artifact_exits_4(cli_run, tmp_path, monkeypatch, capsys,
                                        name, stage, edit, says):
    """``edit`` rewrites the text of ``name``; the message must name ``name``."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    target = tmp_path / "out" / name
    target.write_text(edit(target.read_text()))
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run(stage, "--config", path) == 4
    err = capsys.readouterr().err
    assert name in err and says in err


def _bad_byte(path):
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))


def _directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("name, stage, spoil, says", [
    pytest.param("train.csv", "optimize", _bad_byte, "is not UTF-8 text",
                 id="train.csv-optimize-bad-byte"),
    pytest.param("split.json", "optimize", _directory, "cannot be read",
                 id="split.json-optimize-directory"),
    pytest.param("split.json", "compare", _directory, "cannot be read",
                 id="split.json-compare-directory"),
    pytest.param("test.csv", "compare", _directory, "cannot be read",
                 id="test.csv-compare-directory"),
])
def test_cli_unreadable_artifact_exits_4(cli_run, tmp_path, monkeypatch, capsys,
                                         name, stage, spoil, says):
    """A file that is not UTF-8 text, or a directory in an artifact's place,
    is refused with a message naming it, not a traceback."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    spoil(tmp_path / "out" / name)
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run(stage, "--config", path) == 4
    err = capsys.readouterr().err
    assert os.path.join("out", name) in err and says in err


@pytest.mark.parametrize("stage, which", [("optimize", "train"), ("compare", "test")])
def test_cli_split_without_rows_exits_4(cli_run, tmp_path, monkeypatch, capsys, stage,
                                        which):
    """A split that keeps its settings but lists no rows of the stage's
    dataset, next to a header-only CSV, is refused, not a traceback."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    split_path = tmp_path / "out" / "split.json"
    split_path.write_text(json.dumps(dict(json.loads(split_path.read_text()), **{which: []})))
    csv_path = tmp_path / "out" / f"{which}.csv"
    csv_path.write_text(csv_path.read_text().split("\n", 1)[0] + "\n")
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run(stage, "--config", path) == 4
    assert f"split.json lists no {which} rows; rerun generate" in capsys.readouterr().err


def test_cli_dataset_of_another_label_width_exits_4(cli_run, tmp_path, monkeypatch,
                                                   capsys):
    """A dataset whose rows lost their last label column, header included."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    csv_path = tmp_path / "out" / "train.csv"
    csv_path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                for line in csv_path.read_text().splitlines()))
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("optimize", "--config", path) == 4
    err = capsys.readouterr().err
    assert "train.csv: header does not match the 150 feature and 6 label columns" in err
    assert "rerun generate" in err


@pytest.mark.parametrize("n_servers, n_instances", [(14, 6), (15, 5)])
@pytest.mark.parametrize("stage, which", [("optimize", "train"), ("compare", "test")])
def test_cli_dataset_header_of_another_geometry_exits_4(cli_run, tmp_path, monkeypatch,
                                                        capsys, stage, which, n_servers,
                                                        n_instances):
    """A dataset whose header holds the columns of another server count or
    chain length than the gen settings' is refused, naming the CSV."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    csv_path = tmp_path / "out" / f"{which}.csv"
    feature_cols, label_cols = features.columns(n_servers, n_instances)
    rows = csv_path.read_text().split("\n", 1)[1]
    csv_path.write_text(",".join(feature_cols + label_cols) + "\n" + rows)
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run(stage, "--config", path) == 4
    err = capsys.readouterr().err
    assert f"{os.path.join('out', which)}.csv: header does not match the 150 feature and " \
           "6 label columns of 15 servers and 6-instance chains; rerun generate" in err


@pytest.mark.parametrize("stage, which", [("optimize", "train"), ("compare", "test")])
def test_cli_missing_split_is_reported_before_the_dataset_is_read(cli_run, tmp_path,
                                                                  monkeypatch, capsys,
                                                                  stage, which):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    (tmp_path / "out" / "split.json").unlink()
    (tmp_path / "out" / f"{which}.csv").write_text("not a dataset\n")

    def unread(*args):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(features, "load_dataset", unread)
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run(stage, "--config", path) == 4
    err = capsys.readouterr().err
    assert f"missing artifact: {os.path.join('out', 'split.json')}" in err
    assert f"{which}.csv" not in err


@pytest.mark.parametrize("stage, which", [("optimize", "train"), ("compare", "test")])
def test_cli_schema_of_another_server_count_exits_4(cli_run, tmp_path, monkeypatch, capsys,
                                                    stage, which):
    """A schema whose ``n_servers`` is not the config's admits no label beyond
    the config's servers: no stage reads it, and the gen settings' server
    count refuses the label, naming the CSV, before it reaches the
    topologies."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    schema_path = tmp_path / "out" / f"{which}.schema.json"
    schema_path.write_text(json.dumps(dict(json.loads(schema_path.read_text()),
                                           n_servers=100)))
    csv_path = tmp_path / "out" / f"{which}.csv"
    csv_path.write_text(_set_first_label(20)(csv_path.read_text()))
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run(stage, "--config", path) == 4
    err = capsys.readouterr().err
    assert f"{which}.csv:2: column 'label_inst5' is not a server id below 15: '20'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n_servers", [15.9, 15.0, True, "15"])
@pytest.mark.parametrize("stage, which", [("optimize", "train"), ("compare", "test")])
def test_cli_schema_server_count_that_is_no_integer_exits_4(cli_run, tmp_path, monkeypatch,
                                                            capsys, stage, which, n_servers):
    """A schema ``n_servers`` of 15.9 would admit server 15; no stage reads
    it, and the gen settings' 15 servers refuse that label, naming the CSV."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    schema_path = tmp_path / "out" / f"{which}.schema.json"
    schema_path.write_text(json.dumps(dict(json.loads(schema_path.read_text()),
                                           n_servers=n_servers)))
    csv_path = tmp_path / "out" / f"{which}.csv"
    csv_path.write_text(_set_first_label(15)(csv_path.read_text()))
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run(stage, "--config", path) == 4
    err = capsys.readouterr().err
    assert f"{which}.csv:2: column 'label_inst5' is not a server id below 15: '15'" in err
    assert "schema" not in err and "Traceback" not in err


def _set_n_servers(raw):
    return lambda path: path.write_text(_set_raw(["n_servers"], raw)(path.read_text()))


@pytest.mark.parametrize("spoil", [
    pytest.param(lambda path: path.unlink(), id="deleted"),
    pytest.param(lambda path: path.write_text(path.read_text()[:40]), id="truncated"),
    pytest.param(lambda path: path.write_text('{"feature_cols": []}'), id="no-key"),
    pytest.param(_set_n_servers("1e400"), id="huge-n-servers"),
    *(pytest.param(_set_n_servers(raw), id=f"n-servers-{name}")
      for raw, name in [("15.9", "15.9"), ("15.0", "15.0"), ("true", "true"),
                        ('"15"', "string")]),
])
def test_cli_stages_do_not_read_the_schema_sidecars(cli_run, tmp_path, monkeypatch, spoil):
    """The gen settings fix a dataset's columns: with both ``.schema.json``
    files deleted or garbled, optimize and compare write the same bytes."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    for which in ("train", "test"):
        spoil(tmp_path / "out" / f"{which}.schema.json")
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("optimize", "--config", path) == 0
    assert _run("compare", "--config", path) == 0
    for name in ["pipeline_report.json", "model_baseline.json", "model_optimized.json",
                 "comparison.json"]:
        assert (cli_run / "out" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_cli_refuses_rows_that_regenerate_differently(cli_run, tmp_path, monkeypatch,
                                                     capsys):
    """A changed numpy stream regenerates other data than the datasets hold;
    here one delay of the last training row's topology."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    last = json.loads((tmp_path / "out" / "split.json").read_text())["train"][-1]
    generate_topology = netmodel.generate_topology

    def perturbed(gen, index):
        topo = generate_topology(gen, index)
        if index == last:
            topo.delay[0, 1] = topo.delay[1, 0] = topo.delay[0, 1] + 1.0
        return topo

    monkeypatch.setattr(netmodel, "generate_topology", perturbed)
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("optimize", "--config", path) == 4
    err = capsys.readouterr().err
    assert "train.csv" in err and "rerun generate" in err
    assert not (tmp_path / "out" / "pipeline_report.json").exists()


def test_cli_compare_refuses_models_of_other_optimize_settings(cli_run, tmp_path,
                                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    models = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("model_*.json")}
    assert sorted(models) == ["model_baseline.json", "model_optimized.json"]
    downstream = ["pipeline_report.json", "comparison.json"]
    assert all((tmp_path / "out" / name).exists() for name in downstream)
    doc = quick_config()
    train_rows = len(json.loads((tmp_path / "out" / "split.json").read_text())["train"])
    doc["folds"] = train_rows + 1
    path = write_config(tmp_path / "cfg.json", doc)
    assert _run("optimize", "--config", path) == 3
    assert not list((tmp_path / "out").glob("model_*.json"))
    for name in downstream:
        assert not (tmp_path / "out" / name).exists(), name
    capsys.readouterr()
    assert _run("compare", "--config", path) == 4
    assert "model_optimized.json" in capsys.readouterr().err
    # models an earlier optimize wrote under other settings, left in place
    for name, data in models.items():
        (tmp_path / "out" / name).write_bytes(data)
    assert _run("compare", "--config", path) == 4
    err = capsys.readouterr().err
    assert "model_optimized.json was optimized under other settings" in err
    assert "rerun optimize" in err
    assert _run("compare", "--config", write_config(tmp_path / "same.json",
                                                    quick_config())) == 0


@pytest.mark.parametrize("stage, key, value, name, upstream", [
    pytest.param("optimize", "teacher_budget", 999, "split.json", "generate",
                 id="teacher_budget"),
    pytest.param("compare", "folds", 4, "model_optimized.json", "optimize", id="folds"),
])
def test_cli_refusal_names_only_the_setting_that_changed(cli_run, tmp_path, monkeypatch,
                                                         capsys, stage, key, value, name,
                                                         upstream):
    """A split generated under teacher_budget 1000 and optimized under 999,
    and models optimized under 5 folds and compared under 4, are refused
    naming that one setting."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    doc = quick_config()
    assert (doc["teacher_budget"], doc["folds"]) == (1000, 5)
    path = write_config(tmp_path / "cfg.json", dict(doc, **{key: value}))
    assert _run(stage, "--config", path) == 4
    err = capsys.readouterr().err
    assert (f"{name} was {upstream}d under other settings of {key} than this config's; "
            f"rerun {upstream}") in err


def _fingerprint_for_settings(text):
    """The artifact as written before it recorded its settings: the sha256 of
    their canonical JSON under ``config_fingerprint`` in their place."""
    doc = json.loads(text)
    settings = json.dumps(doc.pop("settings"), sort_keys=True, separators=(",", ":"))
    return json.dumps(dict(doc, config_fingerprint=hashlib.sha256(settings.encode()).hexdigest()))


@pytest.mark.parametrize("name, stage, upstream, fields", [
    pytest.param("split.json", "optimize", "generate", GENERATE_FIELDS, id="split.json"),
    pytest.param("model_optimized.json", "compare", "optimize",
                 GENERATE_FIELDS + OPTIMIZE_FIELDS, id="model_optimized.json"),
])
def test_cli_refuses_a_fingerprinted_artifact_naming_every_setting(
        cli_run, tmp_path, monkeypatch, capsys, name, stage, upstream, fields):
    """An artifact that holds a ``config_fingerprint`` and no ``settings``,
    as the stages wrote before, records none of the settings."""
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    target = tmp_path / "out" / name
    target.write_text(_fingerprint_for_settings(target.read_text()))
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run(stage, "--config", path) == 4
    err = capsys.readouterr().err
    assert name in err and f"rerun {upstream}" in err
    assert _named(err) == list(fields)


def test_cli_dataset_labels_are_the_teacher_placements(cli_run):
    out = cli_run / "out"
    assignments = {r["index"]: r["assignment"]
                   for r in json.loads((out / "placements.json").read_text())}
    split = json.loads((out / "split.json").read_text())
    for which in ("train", "test"):
        schema = json.loads((out / f"{which}.schema.json").read_text())
        with open(out / f"{which}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == len(split[which])
        for index, row in zip(split[which], rows):
            labels = [int(v) for v in row[len(schema["feature_cols"]):]]
            assert {str(i): s for i, s in enumerate(labels)} == assignments[index]


def test_cli_optimize_and_compare_do_not_read_placements(cli_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    (tmp_path / "out" / "placements.json").unlink()
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("optimize", "--config", path) == 0
    assert _run("compare", "--config", path) == 0
    names = sorted(p.name for p in (cli_run / "out").iterdir() if p.name != "placements.json")
    assert names == sorted(p.name for p in (tmp_path / "out").iterdir())
    for name in names:
        assert (cli_run / "out" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_cli_generate_records_teacher_counters(cli_run):
    rows = json.loads((cli_run / "out" / "placements.json").read_text())
    budget = quick_config()["teacher_budget"]
    for row in rows:
        assert 1 <= row["teacher_nodes"] <= budget
        assert isinstance(row["budget_exhausted"], bool)
        assert not row["budget_exhausted"] or row["teacher_nodes"] == budget
    assert any(r["budget_exhausted"] for r in rows)


def test_cli_stages_remove_stale_outputs_before_they_can_fail(cli_run, tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    out = tmp_path / "out"
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("compare", "--config", path, "--seed", "5") == 4
    left = {p.name for p in out.iterdir()}
    assert "comparison.json" not in left
    assert {"pipeline_report.json", "model_optimized.json"} <= left
    assert _run("generate", "--config", path, "--workers", "1", "--seed", "5") == 0
    assert not {p.name for p in out.iterdir()} & set(cli.DOWNSTREAM.values())


def test_cli_import_leaves_the_process_pool_unloaded():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, vnfplace.cli; print('concurrent.futures.process' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_cli_compare_flags_identical_trees(cli_run, tmp_path, monkeypatch, capsys):
    out = cli_run / "out"
    comparison = json.loads((out / "comparison.json").read_text())
    models = {name: json.loads((out / f"model_{name}.json").read_text())
              for name in ("baseline", "optimized")}
    assert comparison["node_counts"] == {f"{name}_tree": len(m["nodes"])
                                         for name, m in models.items()}
    assert comparison["baseline_equals_optimized"] == (
        models["baseline"]["nodes"] == models["optimized"]["nodes"])

    monkeypatch.chdir(tmp_path)
    shutil.copytree(out, tmp_path / "out")
    shutil.copyfile(out / "model_optimized.json", tmp_path / "out" / "model_baseline.json")
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("compare", "--config", path) == 0
    same = json.loads((tmp_path / "out" / "comparison.json").read_text())
    assert same["baseline_equals_optimized"] is True
    assert "trees are identical" in capsys.readouterr().err


@pytest.mark.parametrize("width", [1e-300, 1e-7])
def test_cli_compare_refuses_a_histogram_of_too_many_bins(cli_run, tmp_path, monkeypatch,
                                                           capsys, width):
    """A bin width far below the delay differences' spread would ask numpy
    for more histogram edges than memory holds (1e-300 overflowed its
    arange): compare exits 2 naming the key and the bin count, and writes no
    report."""
    from vnfplace.evaluation import MAX_HISTOGRAM_BINS
    report = json.loads((cli_run / "out" / "comparison.json").read_text())
    spreads = [d["bin_edges"][-1] - d["bin_edges"][0]
               for d in report["delay_differences"].values() if d["n_samples"]]
    assert max(spreads) * 1e7 > MAX_HISTOGRAM_BINS
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    path = write_config(tmp_path / "cfg.json",
                        dict(quick_config(), histogram_bin_width_us=width))
    capsys.readouterr()
    assert _run("compare", "--config", path) == 2
    err = capsys.readouterr().err
    assert f"histogram_bin_width_us {width:g} would need at least" in err
    assert f"at most {MAX_HISTOGRAM_BINS} are allowed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "comparison.json").exists()


def test_cli_compare_reports_a_tree_with_no_valid_row(cli_run, tmp_path, monkeypatch,
                                                      capsys):
    """Trees that put every instance on server 0 break anti-location on every
    row: the report has no mean delay for them and stderr prints nan."""
    from vnfplace import tree
    monkeypatch.setattr(tree.DecisionTree, "predict",
                        lambda self, X: np.zeros((len(X), self.n_outputs), dtype=int))
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("compare", "--config", path) == 0
    report = json.loads((tmp_path / "out" / "comparison.json").read_text())
    trees = [s for s in report["strategies"] if s["name"] != "heuristic"]
    assert [(s["ip_rate"], s["mean_cp_delay"], s["mean_pair_delay"]) for s in trees] == [
        (1.0, None, None)] * 2
    assert [s["mean_cp_delay_by_path"] + s["mean_pair_delay_by_pair"] for s in trees] == [
        [None] * 12] * 2
    assert report["win_table"]["compared_cells"] == 0
    err = capsys.readouterr().err
    assert "baseline_tree: ip_rate=1.000 mean_cp_delay=nan" in err
    assert "optimized_tree: ip_rate=1.000 mean_cp_delay=nan" in err
