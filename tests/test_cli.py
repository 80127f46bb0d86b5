import json
import os
from pathlib import Path

import pytest

from vitalnet.cli import run
from vitalnet.synth import default_config

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

FAST_TRAIN = [
    "--set", "conv1_filters=4", "--set", "conv2_filters=4", "--set", "lstm_hidden=8",
    "--set-train", "epochs=2",
]


def small_config_file(tmp_path, n_per_bin=1, stay=(3, 6), seed=42) -> Path:
    cfg = default_config()
    cfg.seed = seed
    for g in cfg.groups:
        g.patients_per_bin = [n_per_bin] * 4
        g.stay_days = stay
    path = tmp_path / "synth_small.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


@pytest.fixture()
def small_cohort_csv(tmp_path) -> Path:
    cfg = small_config_file(tmp_path)
    out = tmp_path / "cohort.csv"
    assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def small_model(tmp_path, small_cohort_csv):
    model = tmp_path / "model.json"
    history = tmp_path / "history.csv"
    code = run(
        ["train", "--train", str(small_cohort_csv), "--seed", "3",
         "--out", str(model), "--history-out", str(history), *FAST_TRAIN]
    )
    assert code == 0
    return model


def compare_golden(got: bytes, name: str) -> None:
    golden = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_bytes(got)
    assert golden.exists(), f"golden file {name} missing; run with UPDATE_GOLDENS=1"
    assert got == golden.read_bytes(), f"{name} drifted from golden copy"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["synth", "--nope", "x"]) == 2

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_missing_input_is_validation_error(self, tmp_path, capsys):
        code = run(["stats", "--cohort", str(tmp_path / "absent.csv"),
                    "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_success_is_zero(self, small_cohort_csv):
        assert small_cohort_csv.exists()


class TestSynth:
    def test_patient_count_and_manifest(self, tmp_path):
        out = tmp_path / "cohort.csv"
        assert run(["synth", "--seed", "42", "--out", str(out)]) == 0
        # 70 patients in the default config
        ids = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert len(ids) == 70
        manifest = json.loads((tmp_path / "cohort.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 42
        assert manifest["tool_version"]
        assert "duration_seconds" in manifest

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config_file(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["synth", "--config", str(cfg), "--seed", "9", "--out", str(a)]) == 0
        assert run(["synth", "--config", str(cfg), "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSplit:
    def test_partition_written(self, tmp_path, small_cohort_csv):
        tr, te = tmp_path / "train.csv", tmp_path / "test.csv"
        code = run(["split", "--cohort", str(small_cohort_csv), "--seed", "1",
                    "--train-out", str(tr), "--test-out", str(te)])
        assert code == 0
        n_train = len(set(l.split(",")[0] for l in tr.read_text().splitlines()[1:]))
        n_test = len(set(l.split(",")[0] for l in te.read_text().splitlines()[1:]))
        assert n_train + n_test == 8
        assert n_test >= 2


class TestTrainEvalSweep:
    def test_train_writes_checkpoint_and_history(self, tmp_path, small_model):
        doc = json.loads(small_model.read_text())
        assert doc["format_version"] == 1
        assert {t["name"] for t in doc["tensors"]} >= {"conv1_w", "lstm_wx", "dense2_b"}
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,accuracy"
        assert len(history) == 3  # header + 2 epochs

    def test_train_byte_identical_reruns(self, tmp_path, small_cohort_csv):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            code = run(["train", "--train", str(small_cohort_csv), "--seed", "7",
                        "--out", str(out), *FAST_TRAIN])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_eval_metrics_schema(self, tmp_path, small_cohort_csv, small_model):
        out = tmp_path / "metrics.json"
        code = run(["eval", "--model", str(small_model),
                    "--test", str(small_cohort_csv), "--out", str(out)])
        assert code == 0
        metrics = json.loads(out.read_text())
        assert set(metrics) == {"accuracy", "auc", "n_windows", "threshold"}
        assert 0 <= metrics["accuracy"] <= 1 and 0 <= metrics["auc"] <= 1

    def test_eval_per_patient_mode(self, tmp_path, small_cohort_csv, small_model):
        out = tmp_path / "metrics_pp.json"
        code = run(["eval", "--model", str(small_model), "--test",
                    str(small_cohort_csv), "--per-patient", "--out", str(out)])
        assert code == 0

    def test_sweep_day_range(self, tmp_path, small_cohort_csv, small_model):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--model", str(small_model), "--test",
                    str(small_cohort_csv), "--days", "2:6:2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "days,n_windows,accuracy,auc"
        assert [l.split(",")[0] for l in lines[1:]] == ["2", "4", "6"]

    def test_sweep_default_14_rows(self, tmp_path, small_cohort_csv, small_model):
        out = tmp_path / "sweep14.csv"
        code = run(["sweep", "--model", str(small_model), "--test",
                    str(small_cohort_csv), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 15

    def test_bad_day_range(self, tmp_path, small_cohort_csv, small_model):
        code = run(["sweep", "--model", str(small_model), "--test",
                    str(small_cohort_csv), "--days", "2:8", "--out",
                    str(tmp_path / "x.csv")])
        assert code == 1


class TestOutOfRangeValues:
    @pytest.mark.parametrize(
        "extra",
        [
            ["sweep", "--days", "-2"],
            ["sweep", "--days", "0"],
            ["sweep", "--days", "2,0,4"],
            ["sweep", "--days", "0:4:2"],
            ["sweep", "--days", "two"],
            ["sweep", "--threshold", "7"],
            ["eval", "--threshold", "7"],
            ["eval", "--threshold", "-0.1"],
            ["eval", "--threshold", "nan"],
            ["embed", "--days", "0"],
        ],
    )
    def test_rejected_with_error_exit(
        self, tmp_path, small_cohort_csv, small_model, capsys, extra
    ):
        command, *flags = extra
        data_flag = "--data" if command == "embed" else "--test"
        out = tmp_path / "out.csv"
        code = run([command, "--model", str(small_model), data_flag,
                    str(small_cohort_csv), *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--set", "seed=1e3"],
            ["--set", "lstm_hidden=8.5"],
            ["--set-train", "epochs=2.0"],
            ["--set-train", "learning_rate=fast"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_config_values_rejected(self, tmp_path, small_cohort_csv, capsys, flags):
        out = tmp_path / "model.json"
        code = run(["train", "--train", str(small_cohort_csv), *FAST_TRAIN, *flags,
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestEmbed:
    def test_embedding_csv_and_determinism(self, tmp_path, small_cohort_csv, small_model):
        a, b = tmp_path / "emb_a.csv", tmp_path / "emb_b.csv"
        for out in (a, b):
            code = run(["embed", "--model", str(small_model), "--data",
                        str(small_cohort_csv), "--perplexity", "5",
                        "--iters", "60", "--seed", "2", "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "window_index,patient_id,label,y1,y2"
        assert len(lines) > 4


class TestValidate:
    def test_report_written(self, tmp_path):
        cohort = tmp_path / "cohort.csv"
        assert run(["synth", "--seed", "42", "--out", str(cohort)]) == 0
        report = tmp_path / "report.json"
        code = run(["validate", "--cohort", str(cohort), "--out", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc["cells"]) == 24
        assert all(c["overlaps"] for c in doc["cells"] if c["stat"] == "mean")


class TestStatsCommand:
    def test_layout(self, tmp_path, small_cohort_csv):
        out = tmp_path / "stats.csv"
        box = tmp_path / "box.csv"
        code = run(["stats", "--cohort", str(small_cohort_csv), "--out", str(out),
                    "--boxplot-out", str(box)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "vital,feature,r,p,ci_lo_pos,ci_hi_pos,ci_lo_neg,ci_hi_neg"
        firsts = [l.split(",")[0] for l in lines[1:]]
        assert firsts == ["hr"] * 4 + ["sbp"] * 4 + ["dbp"] * 4 + ["age"]
        box_lines = box.read_text().splitlines()
        assert box_lines[0] == "label,q1,median,q3,whisker_lo,whisker_hi"
        assert len(box_lines) == 3


class TestPlot:
    @pytest.mark.parametrize(
        "kind,ref",
        [
            ("sweep", "sweep_ref.csv"),
            ("embedding", "embedding_ref.csv"),
            ("boxplot", "boxplot_ref.csv"),
        ],
    )
    def test_golden_svg(self, tmp_path, kind, ref):
        out = tmp_path / f"{kind}.svg"
        code = run(["plot", "--kind", kind, "--in", str(DATA_DIR / ref),
                    "--out", str(out)])
        assert code == 0
        compare_golden(out.read_bytes(), f"{kind}_ref.svg")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert run(["plot", "--kind", "sweep", "--in",
                        str(DATA_DIR / "sweep_ref.csv"), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_has_one_marker_per_row_per_series(self, tmp_path):
        out = tmp_path / "sweep.svg"
        run(["plot", "--kind", "sweep", "--in", str(DATA_DIR / "sweep_ref.csv"),
             "--out", str(out)])
        content = out.read_text()
        assert content.count("<circle") == 2 * 14  # accuracy + auc series
        assert content.count("<polyline") == 2

    def test_embedding_marker_per_row(self, tmp_path):
        out = tmp_path / "emb.svg"
        run(["plot", "--kind", "embedding", "--in",
             str(DATA_DIR / "embedding_ref.csv"), "--out", str(out)])
        content = out.read_text()
        # one marker per data row plus two legend markers
        assert content.count("<circle") == 10 + 2

    def test_schema_mismatch_lists_expected_header(self, tmp_path, capsys):
        code = run(["plot", "--kind", "sweep", "--in",
                    str(DATA_DIR / "embedding_ref.csv"), "--out",
                    str(tmp_path / "x.svg")])
        assert code == 1
        assert "days,n_windows,accuracy,auc" in capsys.readouterr().err

    def test_no_timestamps_fixed_canvas(self, tmp_path):
        out = tmp_path / "sweep.svg"
        run(["plot", "--kind", "sweep", "--in", str(DATA_DIR / "sweep_ref.csv"),
             "--out", str(out)])
        content = out.read_text()
        assert 'width="800" height="600"' in content
        assert content.endswith("</svg>\n")


class TestGoldenDefaultStats:
    def test_stats_on_default_cohort(self, tmp_path):
        cohort = tmp_path / "cohort.csv"
        assert run(["synth", "--seed", "42", "--out", str(cohort)]) == 0
        out = tmp_path / "stats.csv"
        box = tmp_path / "box.csv"
        assert run(["stats", "--cohort", str(cohort), "--out", str(out),
                    "--boxplot-out", str(box)]) == 0
        compare_golden(out.read_bytes(), "stats_default.csv")
        compare_golden(box.read_bytes(), "boxplot_default.csv")
