import importlib.util
import json
import os

import pytest

from conftest import DESK_CONFIG_PATH, REPO_ROOT


def _script(name):
    """The module of ``scripts/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(REPO_ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_experiment_passes_workers_0_on_to_generate(tmp_path, capsys):
    """``--workers 0`` reaches ``generate``, which refuses it, instead of
    being dropped for all cores."""
    with open(DESK_CONFIG_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["gen"]["n_topologies"] = 4
    doc["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run = _script("run_desk_experiment")
    assert run.main(["--config", str(path), "--workers", "0"]) == 2
    assert "config error: --workers" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def _line(correct, **values):
    return {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_bench_pairs_summary_of_canned_result_lines():
    pairs = [(_line(True, t=1.0, r=5.0), _line(True, t=0.9, r=5.0)),
             (_line(True, t=1.2, r=4.0), _line(True, t=1.0, r=6.0)),
             (_line(True, t=1.1, r=6.0), _line(True, t=1.15, r=7.0)),
             # a run that reported no metrics leaves its pair out
             (_line(False), _line(True, t=0.1, r=0.1))]
    lines = _script("bench_pairs").summarize(pairs, [("t", "lower"), ("r", "higher")])
    assert lines == [
        "3 pairs with metrics; runs not correct: 1",
        # quartiles by the inclusive method: parent 1.0, 1.1, 1.2 gives
        # 1.05, 1.1, 1.15; the change is lower, so better, in pairs 0 and 1
        "t (lower is better): parent 1.1000 [1.0500, 1.1500], "
        "change 1.0000 [0.9500, 1.0750] (-9.1%); change better in 2/3, parent in 1/3; "
        "median gap 0.1000, parent IQR 0.1000",
        # higher is better: pair 0 ties, pairs 1 and 2 go to the change
        "r (higher is better): parent 5.0000 [4.5000, 5.5000], "
        "change 6.0000 [5.5000, 6.5000] (+20.0%); change better in 2/3, parent in 0/3; "
        "median gap 1.0000, parent IQR 1.0000",
    ]


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_bench_pairs_refuses_fewer_than_two_pairs(pairs, capsys):
    with pytest.raises(SystemExit) as stop:
        _script("bench_pairs").main([".", ".", "--workload", "desk-fit", "--seed", "1",
                                     "--seconds", "1", "--pairs", pairs])
    assert stop.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
