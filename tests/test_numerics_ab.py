"""tools/numerics_ab.py, run in its quick mode on this tree against itself:
every gradient, probability and cohort-subcommand output is bit-equal, and
both sides time a step, an epoch of `train`, a cohort load in each shape and
a split, taking turns in one child. Its full mode's x4 config is the
benchmark's, and its held-out metrics are `eval`'s."""

import importlib.util
import json
from pathlib import Path
from unittest import mock

from vitalnet import data
from vitalnet.data import load_cohort, write_cohort
from vitalnet.nn.model import TENSOR_ORDER
from vitalnet.synth import default_config, generate_cohort

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
    assert report["split_ms"]["splits_per_child"] == 1
    assert {k: report["train_ms"][k] for k in ("windows", "epochs", "trains_per_child")} == {
        "windows": tool.TRAIN_WINDOWS, "epochs": 1, "trains_per_child": 1}
    assert report["heldout"] == {"seeds": []}  # full mode only
    timings = [report["step_ms"], report["train_ms"], *shapes.values(), report["split_ms"]]
    for timing in timings:
        assert len(timing["per_child"]["a"]) == len(timing["per_child"]["b"]) == 1
        assert timing["median"]["a"] > 0 and timing["median"]["b"] > 0
        assert timing["b_lower_in_children"] in (0, 1) and 0 <= timing["b_faster_share"] <= 1
    env = report["environment"]
    assert env["a"] == env["b"]
    assert env["a"]["OPENBLAS_NUM_THREADS"] == "1"
    assert "all_equal True" in capsys.readouterr().out


def test_quoted_header_shape_takes_the_header_check_then_the_row_path(tmp_path):
    # the one shape whose header line is not exactly the header: its loads
    # time the header check and then the row path
    path = tmp_path / "c.csv"
    write_cohort(generate_cohort(default_config()), path)
    want = load_cohort(path)
    path.write_bytes(load_tool().LOAD_SHAPES["quoted_header"](path.read_bytes()))
    assert path.read_bytes().startswith(b'"patient_id",timestamp,')
    with mock.patch.object(data, "_byte_columns", wraps=data._byte_columns) as bytes_read, \
            mock.patch.object(data, "_row_columns", wraps=data._row_columns) as rows:
        got = load_cohort(path)
    assert rows.called and not bytes_read.called
    assert [(p.patient_id, p.times.tobytes(), p.values.tobytes()) for p in got.patients] == [
        (p.patient_id, p.times.tobytes(), p.values.tobytes()) for p in want.patients]


def test_x4_config_is_the_benchmarks(tmp_path):
    path = load_tool()._call("write_x4_config", ROOT / "src", str(tmp_path))
    config = json.loads(Path(path).read_text())
    assert [g["patients_per_bin"] for g in config["groups"]] == [
        [4 * n for n in g.patients_per_bin] for g in default_config().groups]


def test_heldout_is_evals(tmp_path, monkeypatch):
    # one seed pair of the six: the accuracy and AUC of the default
    # walkthrough's model, which pass the held-out gate
    tool = load_tool()
    monkeypatch.setattr(tool, "HELDOUT_SEEDS", ((11, 7),))
    metrics = tool.heldout(ROOT / "src", tmp_path / "heldout")
    assert list(metrics) == ["11/7"]
    assert metrics["11/7"]["accuracy"] >= 0.85 and metrics["11/7"]["auc"] >= 0.90
