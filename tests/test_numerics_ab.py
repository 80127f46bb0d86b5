"""tools/numerics_ab.py, run in its quick mode on this tree against itself:
every gradient, probability and cohort-subcommand output is bit-equal, and
both sides time a step and a cohort load in each shape, taking turns in one
child. Its full mode's x4 config is the benchmark's."""

import importlib.util
import json
from pathlib import Path

from vitalnet.nn.model import TENSOR_ORDER
from vitalnet.synth import default_config

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("numerics_ab", ROOT / "tools" / "numerics_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_against_itself(tmp_path, capsys):
    tool = load_tool()
    out = tmp_path / "ab.json"
    assert tool.main([str(ROOT / "src"), str(ROOT / "src"), "--out", str(out), "--quick"]) == 0
    report = json.loads(out.read_text())
    assert report["all_equal"] is True
    assert sorted(report["gradients"], key=int) == [str(b) for b in tool.BATCHES]
    for row in report["gradients"].values():
        assert set(row) == {"probabilities", *TENSOR_ORDER}
        assert all(cell == {"equal": True, "max_rel_diff": 0.0} for cell in row.values())
    outputs = report["outputs"]
    assert outputs["equal"] is True and outputs["seeds"] == [11]
    (hashes,) = outputs["sha256"]["a"].values()
    assert sorted(hashes) == ["boxplot.csv", "calibration.json", "cohort.csv", "stats.csv",
                              "test.csv", "train.csv"]
    shapes = report["load_ms"]["shapes"]
    assert sorted(shapes) == sorted(tool.LOAD_SHAPES)
    assert report["load_ms"]["loads_per_child"] == {
        shape: 3 if shape == "as_written" else 1 for shape in tool.LOAD_SHAPES}
    for timing in [report["step_ms"], *shapes.values()]:
        assert len(timing["per_child"]["a"]) == len(timing["per_child"]["b"]) == 1
        assert timing["median"]["a"] > 0 and timing["median"]["b"] > 0
        assert timing["b_lower_in_children"] in (0, 1) and 0 <= timing["b_faster_share"] <= 1
    env = report["environment"]
    assert env["a"] == env["b"]
    assert env["a"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "all_equal True" in capsys.readouterr().out


def test_x4_config_is_the_benchmarks(tmp_path):
    path = load_tool()._call("write_x4_config", ROOT / "src", str(tmp_path))
    config = json.loads(Path(path).read_text())
    assert [g["patients_per_bin"] for g in config["groups"]] == [
        [4 * n for n in g.patients_per_bin] for g in default_config().groups]
