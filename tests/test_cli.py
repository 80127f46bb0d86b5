import json
import os
import time
import tracemalloc
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from vitalnet import __version__, svg, tsne
from vitalnet.cli import run
from vitalnet.nn.train import MAX_EPOCHS
from vitalnet.synth import MAX_ROWS, MAX_STAY_DAYS, default_config

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

    def test_unwritable_out_is_validation_error(self, tmp_path, capsys):
        code = run(["synth", "--out", str(tmp_path / "absent" / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["synth", "--config"], ["train", "--model-config"],
        # valid JSON that is not an object, with an override to merge into it
        ["train", "--set", "conv1_filters=8", "--model-config"],
        ["train", "--set-train", "epochs=1", "--train-config"],
    ])
    def test_malformed_json_config_is_validation_error(
        self, tmp_path, small_cohort_csv, capsys, command
    ):
        not_object = len(command) > 2
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]" if not_object else '{"seed": 1,')
        out = tmp_path / "out"
        extra = ["--train", str(small_cohort_csv)] if command[0] == "train" else []
        code = run([*command, str(bad), *extra, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        message = (f"error: {bad}: expected a JSON object, got list" if not_object
                   else "error: malformed JSON")
        assert err.startswith(message) and "Traceback" not in err
        assert not out.exists()

    def test_checkpoint_without_shape_is_validation_error(
        self, tmp_path, small_cohort_csv, small_model, capsys
    ):
        doc = json.loads(small_model.read_text())
        del doc["tensors"][0]["shape"]
        small_model.write_text(json.dumps(doc))
        code = run(["eval", "--model", str(small_model), "--test", str(small_cohort_csv),
                    "--out", str(tmp_path / "eval.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "shape" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["stats", "eval"])
    def test_non_utf8_cohort_is_validation_error(
        self, tmp_path, small_model, capsys, command
    ):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"patient_id,timestamp,hr,sbp,dbp,age,label\n\xff\xfe\n")
        out = tmp_path / "out"
        flags = {"stats": ["--cohort", str(bad)],
                 "eval": ["--model", str(small_model), "--test", str(bad)]}[command]
        code = run([command, *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_utf8_plot_input_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "sweep.csv"
        bad.write_bytes(b"days,n_windows,accuracy,auc\n2,\xff,0.5,0.5\n")
        out = tmp_path / "sweep.svg"
        code = run(["plot", "--kind", "sweep", "--in", str(bad), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err and "Traceback" not in err
        assert not out.exists()

    def test_stamp_outside_utc_years_is_validation_error(self, tmp_path, capsys):
        f = tmp_path / "c.csv"
        f.write_text("patient_id,timestamp,hr,sbp,dbp,age,label\n"
                     "p1,0001-01-01T00:00:00+01:00,80,120,70,55,1\n")
        code = run(["stats", "--cohort", str(f), "--out", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["stats", "plot"])
    def test_field_over_csv_limit_is_validation_error(self, tmp_path, capsys, command):
        # csv.field_size_limit() is 131,072 characters
        long = "x" * 200_000
        src = tmp_path / "in.csv"
        out = tmp_path / "out"
        if command == "stats":
            src.write_text("patient_id,timestamp,hr,sbp,dbp,age,label\n"
                           f'"{long}",2020-03-21T00:00:00Z,80,120,70,55,1\n')
            argv = ["stats", "--cohort", str(src), "--out", str(out)]
        else:
            src.write_text(f"days,n_windows,accuracy,auc\n2,{long},0.5,0.5\n")
            argv = ["plot", "--kind", "sweep", "--in", str(src), "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed CSV:") and "Traceback" not in err
        assert not out.exists()

    def test_long_unquoted_id_then_bad_row_names_the_row(self, tmp_path, capsys):
        # the comma-split reader has no field limit, so neither may the re-read
        # that names the bad row
        long = "p" * 200_000
        src = tmp_path / "in.csv"
        src.write_text("patient_id,timestamp,hr,sbp,dbp,age,label\n"
                       f"{long},2020-03-21T00:00:00Z,80,120,70,55,1\n"
                       f"{long},2020-03-21T01:00:00Z,x,120,70,55,1\n")
        out = tmp_path / "out.csv"
        assert run(["stats", "--cohort", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 3: non-numeric hr 'x'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value",
        [("window_len", "48"), ("window_len", 0), ("stride", 2.5),
         ("channel_std", [1.0, 0.0, 1.0]), ("channel_mean", [1.0, 2.0]),
         ("channel_mean", "x"), ("channel_mean", [10**400, 0.0, 0.0])],
    )
    def test_bad_checkpoint_preprocess_is_validation_error(
        self, tmp_path, small_cohort_csv, small_model, capsys, key, value
    ):
        doc = json.loads(small_model.read_text())
        doc["preprocess"][key] = value
        small_model.write_text(json.dumps(doc))
        out = tmp_path / "eval.json"
        code = run(["eval", "--model", str(small_model), "--test", str(small_cohort_csv),
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["embed", "--iters", "0"],
            ["embed", "--seed", "-1"],
            ["split", "--seed", "-1"],
            ["synth", "--seed", "-1"],
            ["eval", "--header-only"],
        ],
    )
    def test_bad_values_are_validation_errors(
        self, tmp_path, small_cohort_csv, small_model, capsys, argv
    ):
        command, *flags = argv
        cohort = small_cohort_csv
        if flags == ["--header-only"]:
            cohort, flags = tmp_path / "empty.csv", []
            cohort.write_text(small_cohort_csv.read_text().splitlines()[0] + "\n")
        out = tmp_path / "out.csv"
        inputs = {
            "embed": ["--model", str(small_model), "--data", str(cohort)],
            "eval": ["--model", str(small_model), "--test", str(cohort)],
            "split": ["--cohort", str(cohort), "--train-out", str(out),
                      "--test-out", str(tmp_path / "test.csv")],
            "synth": [],
        }[command]
        if command != "split":
            inputs += ["--out", str(out)]
        code = run([command, *inputs, *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_success_is_zero(self, small_cohort_csv):
        assert small_cohort_csv.exists()

    def test_huge_integer_seed_is_compared_exactly(self, tmp_path, capsys):
        # a 400-digit seed is a valid seed; it used to overflow float()
        out = tmp_path / "cohort.csv"
        assert run(["synth", "--seed", "1" + "0" * 400, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert out.exists()

    @pytest.mark.parametrize(
        "path",
        [("groups", 0, "circadian_hr_amp"), ("groups", 1, "patients_per_bin", 0),
         ("cadences_minutes", 1), ("dynamics", "ar_coef_hourly")],
    )
    def test_huge_integer_in_synth_config_is_validation_error(self, tmp_path, capsys, path):
        raw = json.loads(small_config_file(tmp_path).read_text())
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 10**400
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "cohort.csv"
        code = run(["synth", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value", [("conv_activation", "tanh"), ("dense1_units", 64)]
    )
    def test_checkpoint_legacy_key_off_its_fixed_value_is_validation_error(
        self, tmp_path, small_cohort_csv, small_model, capsys, key, value
    ):
        doc = json.loads(small_model.read_text())
        doc["model_config"][key] = value
        small_model.write_text(json.dumps(doc))
        out = tmp_path / "eval.json"
        code = run(["eval", "--model", str(small_model), "--test", str(small_cohort_csv),
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert not out.exists()

    def test_checkpoint_legacy_keys_at_fixed_values_evaluate_the_same(
        self, tmp_path, small_cohort_csv, small_model
    ):
        outs = tmp_path / "eval_a.json", tmp_path / "eval_b.json"
        legacy = tmp_path / "legacy.json"
        doc = json.loads(small_model.read_text())
        doc["model_config"].update(dense1_units=100, dense2_units=1,
                                   conv_activation="relu", dense1_activation="relu")
        legacy.write_text(json.dumps(doc))
        for model, out in zip((small_model, legacy), outs):
            assert run(["eval", "--model", str(model), "--test", str(small_cohort_csv),
                        "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


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
            ["--set", "dense1_units=64"],
            ["--set", "conv_activation=tanh"],
            ["--set-train", "epochs"],
        ],
    )
    def test_bad_config_values_rejected(self, tmp_path, small_cohort_csv, capsys, flags):
        out = tmp_path / "model.json"
        code = run(["train", "--train", str(small_cohort_csv), *FAST_TRAIN, *flags,
                    "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        if flags[0].startswith("--set") and "=" not in flags[1]:  # names its flag
            assert err.startswith(f"error: {flags[0]} expects key=value")
        assert not out.exists()

    # sizes past NumPy's limits used to end in ValueError/OverflowError
    # tracebacks; they are now rejected before anything is allocated
    @pytest.mark.parametrize(
        "flags", [["--set", "lstm_hidden=1" + "0" * 30], ["--window-len", "1" + "0" * 30],
                  ["--stride", str(2**70)]],
    )
    def test_huge_sizes_rejected_quickly(self, tmp_path, small_cohort_csv, capsys, flags):
        out = tmp_path / "model.json"
        t0 = time.perf_counter()
        code = run(["train", "--train", str(small_cohort_csv), *FAST_TRAIN, *flags,
                    "--out", str(out)])
        assert time.perf_counter() - t0 < 10
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_unbounded_epochs_rejected_quickly(self, tmp_path, small_cohort_csv, capsys):
        # one epoch per second would take ~30,000 years
        out = tmp_path / "model.json"
        t0 = time.perf_counter()
        code = run(["train", "--train", str(small_cohort_csv), *FAST_TRAIN,
                    "--set-train", f"epochs={10**12}", "--out", str(out)])
        assert time.perf_counter() - t0 < 2
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: epochs must be an integer in [0, {MAX_EPOCHS}]")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [("model_config", "pool_stride", 2**70), ("model_config", "conv2_kernel", 10**12),
         ("preprocess", "window_len", 10**12), ("preprocess", "stride", 2**70)],
    )
    def test_huge_checkpoint_sizes_rejected_quickly(
        self, tmp_path, small_cohort_csv, small_model, capsys, section, key, value
    ):
        doc = json.loads(small_model.read_text())
        doc[section][key] = value
        small_model.write_text(json.dumps(doc))
        out = tmp_path / "eval.json"
        t0 = time.perf_counter()
        code = run(["eval", "--model", str(small_model), "--test", str(small_cohort_csv),
                    "--out", str(out)])
        assert time.perf_counter() - t0 < 10
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert not out.exists()

    def test_synth_stays_up_to_max_rejected_quickly(self, tmp_path, capsys):
        # each stay is valid alone, but one patient at the longest stay and a
        # 15-minute cadence would be ~280 million rows
        cfg = small_config_file(tmp_path, stay=(1, MAX_STAY_DAYS))
        out = tmp_path / "cohort.csv"
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            code = run(["synth", "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 10
        assert peak < 10 * 2**20
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "worst-case synth rows" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_synth_rows_bound_admits_the_x4_cohort(self):
        cfg = default_config()
        for g in cfg.groups:
            g.patients_per_bin = [4 * n for n in g.patients_per_bin]
        cfg.validate()
        assert 166_000 < cfg.max_rows() < MAX_ROWS / 10

    def test_legacy_keys_at_fixed_values_accepted(self, tmp_path, small_cohort_csv):
        out = tmp_path / "model.json"
        code = run(["train", "--train", str(small_cohort_csv), *FAST_TRAIN,
                    "--set", "conv_activation=relu", "--set", "dense1_units=100",
                    "--out", str(out)])
        assert code == 0
        assert "conv_activation" not in json.loads(out.read_text())["model_config"]


class TestEmbed:
    def test_more_windows_than_the_row_bound_is_validation_error(
        self, tmp_path, small_cohort_csv, small_model, capsys, monkeypatch
    ):
        monkeypatch.setattr(tsne, "MAX_ROWS", 4)
        out = tmp_path / "emb.csv"
        code = run(["embed", "--model", str(small_model), "--data", str(small_cohort_csv),
                    "--perplexity", "2", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: embed: at most 4 rows") and "Traceback" not in err
        assert not out.exists()

    def test_unbounded_iters_rejected_quickly(
        self, tmp_path, small_cohort_csv, small_model, capsys
    ):
        # at ~0.4 ms an iteration, 10**12 iterations would take ~13 years
        out = tmp_path / "emb.csv"
        t0 = time.perf_counter()
        code = run(["embed", "--model", str(small_model), "--data", str(small_cohort_csv),
                    "--perplexity", "2", "--iters", str(10**12), "--out", str(out)])
        assert time.perf_counter() - t0 < 2
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: embed: iters must be an integer in [1, {tsne.MAX_ITERS}]")
        assert "Traceback" not in err
        assert not out.exists()

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


class TestManifest:
    MANIFEST_KEYS = {"subcommand", "config", "inputs", "outputs", "seed", "tool_version",
                     "environment", "duration_seconds"}

    @pytest.fixture()
    def nine_runs(self, tmp_path, monkeypatch):
        """Run every subcommand once; return the run directory and the
        expected manifest, minus its environment and duration, per subcommand."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        d = tmp_path
        cfg = small_config_file(tmp_path)
        model, cohort = f"{d}/model.json", f"{d}/cohort.csv"
        runs = {
            "synth": (["--config", str(cfg), "--out", cohort],
                      json.loads(cfg.read_text()), [str(cfg)], [cohort], 42),
            "train": (["--train", cohort, "--seed", "3", "--out", model, *FAST_TRAIN],
                      None, [cohort], [model], 3),
            "validate": (["--cohort", cohort, "--out", f"{d}/report.json"],
                         {}, [cohort], [f"{d}/report.json"], None),
            "stats": (["--cohort", cohort, "--out", f"{d}/stats.csv",
                       "--boxplot-out", f"{d}/box.csv"],
                      {}, [cohort], [f"{d}/stats.csv", f"{d}/box.csv"], None),
            "split": (["--cohort", cohort, "--train-out", f"{d}/tr.csv",
                       "--test-out", f"{d}/te.csv"],
                      {"train_fraction": 0.8}, [cohort], [f"{d}/tr.csv", f"{d}/te.csv"], 0),
            "eval": (["--model", model, "--test", cohort, "--out", f"{d}/eval.json"],
                     {"per_patient": False}, [model, cohort], [f"{d}/eval.json"], None),
            "sweep": (["--model", model, "--test", cohort, "--days", "2,4",
                       "--out", f"{d}/sweep.csv"],
                      {"days": [2, 4], "per_patient": False}, [model, cohort],
                      [f"{d}/sweep.csv"], None),
            "embed": (["--model", model, "--data", cohort, "--perplexity", "2",
                       "--iters", "5", "--out", f"{d}/emb.csv"],
                      {"perplexity": 2.0, "iters": 5, "days": None}, [model, cohort],
                      [f"{d}/emb.csv"], 0),
            "plot": (["--kind", "sweep", "--in", f"{d}/sweep.csv", "--out", f"{d}/sweep.svg"],
                     {"kind": "sweep"}, [f"{d}/sweep.csv"], [f"{d}/sweep.svg"], None),
        }
        expected = {}
        for command, (argv, config, inputs, outputs, seed) in runs.items():
            assert run([command, *argv]) == 0
            expected[command] = {"subcommand": command, "config": config, "inputs": inputs,
                                 "outputs": outputs, "seed": seed, "tool_version": __version__}
        expected["train"]["config"] = {
            "model": {"conv1_filters": 4, "conv1_kernel": 5, "conv2_filters": 4,
                      "conv2_kernel": 5, "pool_size": 2, "pool_stride": 2, "lstm_hidden": 8,
                      "seed": 3},
            "train": {"learning_rate": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                      "batch_size": 32, "epochs": 2, "seed": 3},
            "preprocess": json.loads(Path(model).read_text())["preprocess"],
        }
        return d, expected

    def test_every_subcommand_records_the_environment(self, nine_runs):
        d, _ = nine_runs
        manifests = [json.loads(p.read_text()) for p in d.glob("*.manifest.json")]
        assert len(manifests) == 9
        for m in manifests:
            env = m["environment"]
            assert env["numpy"] == np.__version__
            assert env["blas"] and env["blas_version"]
            assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] is None
            assert env["cpu_count"] == os.cpu_count()

    def test_every_subcommand_pins_its_manifest(self, nine_runs):
        d, expected = nine_runs
        assert sorted(p.name for p in d.glob("*.manifest.json")) == sorted(
            Path(e["outputs"][0]).name + ".manifest.json" for e in expected.values())
        for e in expected.values():
            m = json.loads(Path(e["outputs"][0] + ".manifest.json").read_text())
            assert set(m) == self.MANIFEST_KEYS
            assert isinstance(m["duration_seconds"], float) and m["duration_seconds"] >= 0
            assert {k: m[k] for k in e} == e

    def test_no_manifest_without_a_report_or_after_a_failure(self, tmp_path, small_cohort_csv):
        d, cohort = tmp_path, str(small_cohort_csv)
        before = sorted(d.glob("*.manifest.json"))
        assert run(["validate", "--cohort", cohort]) == 0
        for argv in (
            ["eval", "--model", f"{d}/absent.json", "--test", cohort, "--out", f"{d}/e.json"],
            # the train half is written before the test half fails
            ["split", "--cohort", cohort, "--train-out", f"{d}/tr.csv",
             "--test-out", f"{d}/absent/te.csv"],
        ):
            assert run(argv) == 1
        assert (d / "tr.csv").exists()
        assert sorted(d.glob("*.manifest.json")) == before


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

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([], "no data rows"),
            (["4,9,0.5,0.5", "2,5,0.5"], "line 3: expected 4 fields"),
            (["4,9,0.5,0.5", "2,5,0.5,high"], "non-numeric value in column auc"),
            (["4,9,0.5,0.5", "2,5,nan,0.5"], "non-finite value in column accuracy"),
            (["inf,5,0.5,0.5"], "non-finite value in column days"),
        ],
    )
    def test_bad_rows_are_validation_errors(self, tmp_path, capsys, rows, message):
        src = tmp_path / "sweep.csv"
        src.write_text("\n".join(["days,n_windows,accuracy,auc", *rows]) + "\n")
        out = tmp_path / "x.svg"
        code = run(["plot", "--kind", "sweep", "--in", str(src), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not out.exists()

    def test_range_below_float_spacing_terminates(self, tmp_path):
        # at 1e17 floats are 16 apart, so a tick step of 5 cannot advance
        src = tmp_path / "sweep.csv"
        src.write_text("days,n_windows,accuracy,auc\n"
                       "100000000000000000,5,0.5,0.5\n100000000000000016,5,0.6,0.6\n")
        out = tmp_path / "x.svg"
        assert run(["plot", "--kind", "sweep", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text().count("<circle") == 2 * 2

    def test_blank_lines_skipped(self, tmp_path):
        src = tmp_path / "sweep.csv"
        src.write_text("days,n_windows,accuracy,auc\n\n2,5,0.5,0.6\n\n4,9,0.7,0.8\n")
        out = tmp_path / "x.svg"
        assert run(["plot", "--kind", "sweep", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text().count("<circle") == 2 * 2

    def test_schema_mismatch_lists_expected_header(self, tmp_path, capsys):
        code = run(["plot", "--kind", "sweep", "--in",
                    str(DATA_DIR / "embedding_ref.csv"), "--out",
                    str(tmp_path / "x.svg")])
        assert code == 1
        assert "days,n_windows,accuracy,auc" in capsys.readouterr().err

    def test_label_text_is_escaped(self, tmp_path):
        src = tmp_path / "box.csv"
        src.write_text("label,q1,median,q3,whisker_lo,whisker_hi\n"
                       "0<x,54.2,55.4,56.3,52.8,58.1\n1&,47.1,48.3,49.6,45.2,51.4\n")
        out = tmp_path / "box.svg"
        assert run(["plot", "--kind", "boxplot", "--in", str(src), "--out", str(out)]) == 0
        texts = [t.firstChild.data for t in
                 minidom.parse(str(out)).getElementsByTagName("text")]
        assert "label 0<x" in texts and "label 1&" in texts

    def test_title_axis_and_legend_text_is_escaped(self):
        doc = minidom.parseString(svg.line_chart(
            [("a<b", [1.0, 2.0], [0.5, 0.6])], "x & y", "<days>", "AUC > 0.5"))
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert {"a<b", "x & y", "<days>", "AUC > 0.5"} <= set(texts)

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
