import glob
import json
import os
import shutil

import pytest

from vnfplace import cli, config
from vnfplace.config import RunConfig, load_run_config, run_config_from_json
from vnfplace.netmodel import ConfigError


CONFIGS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs")


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
    ],
)
def test_bad_values_rejected(patch):
    with pytest.raises(ConfigError):
        run_config_from_json(patch)


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


def test_cli_bad_config_exits_2(tmp_path):
    doc = quick_config()
    doc["not_a_key"] = 1
    path = write_config(tmp_path / "cfg.json", doc)
    assert _run("generate", "--config", path) == 2


@pytest.mark.parametrize("patch, argv", [
    ({"gen": 5}, []),
    ({}, ["--seed", "-1"]),
])
def test_cli_malformed_config_or_seed_exits_2(tmp_path, capsys, patch, argv):
    path = write_config(tmp_path / "cfg.json", dict(quick_config(), **patch))
    assert _run("generate", "--config", path, *argv) == 2
    assert "config error:" in capsys.readouterr().err


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


def test_cli_generate_without_a_train_and_test_row_exits_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path / "cfg.json", quick_config(n_topologies=1))
    assert _run("generate", "--config", path, "--workers", "1") == 3
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


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
    "batch.json", "placements.json", "split.json", "train.csv", "test.csv",
    "pipeline_report.json", "stage1_curve.csv", "stage1_trace.csv",
    "stage2_curve.csv", "model_baseline.json", "model_optimized.json",
    "comparison.json", "per_cp_delay.csv", "pair_delay.csv",
]


def test_cli_workflow_produces_artifacts(cli_run):
    out = cli_run / "out"
    for name in EXPECTED_ARTIFACTS:
        assert (out / name).exists(), name
    comparison = json.loads((out / "comparison.json").read_text())
    names = [s["name"] for s in comparison["strategies"]]
    assert names == ["heuristic", "baseline_tree", "optimized_tree"]
    report = json.loads((out / "pipeline_report.json").read_text())
    a1, a2 = report["functional_range"]
    assert a1 <= report["h_star"] <= a2


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
    for name in EXPECTED_ARTIFACTS:
        a = (cli_run / "out" / name).read_bytes()
        b = (tmp_path / "out" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    hists = sorted(p.name for p in (cli_run / "out").glob("diff_hist_*.csv"))
    assert hists == sorted(p.name for p in (tmp_path / "out").glob("diff_hist_*.csv"))
    for name in hists:
        assert (cli_run / "out" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_cli_parallel_generation_matches_serial(cli_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgpath = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("generate", "--config", str(cfgpath), "--workers", "4") == 0
    for name in ("batch.json", "placements.json", "split.json", "train.csv", "test.csv"):
        assert (cli_run / "out" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_cli_seed_override_changes_data(cli_run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfgpath = write_config(tmp_path / "cfg.json", quick_config())
    assert _run("generate", "--config", str(cfgpath), "--workers", "1",
                "--seed", "123") == 0
    assert ((cli_run / "out" / "batch.json").read_bytes()
            != (tmp_path / "out" / "batch.json").read_bytes())
    split = json.loads((tmp_path / "out" / "split.json").read_text())
    assert split["seed"] == 123


def test_cli_aliases_map_to_same_commands():
    assert cli.COMMANDS["teach"] is cli.COMMANDS["generate"]
    assert cli.COMMANDS["train"] is cli.COMMANDS["optimize"]
    assert cli.COMMANDS["evaluate"] is cli.COMMANDS["compare"]


@pytest.mark.parametrize("name, stage", [
    ("batch.json", "optimize"),
    ("split.json", "optimize"),
    ("model_optimized.json", "compare"),
])
def test_cli_truncated_artifact_exits_4(cli_run, tmp_path, monkeypatch, capsys, name, stage):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(cli_run / "out", tmp_path / "out")
    target = tmp_path / "out" / name
    target.write_bytes(target.read_bytes()[:100])
    path = write_config(tmp_path / "cfg.json", quick_config())
    assert _run(stage, "--config", path) == 4
    assert name in capsys.readouterr().err
