"""Property test of the CLI's exit contract: for real subcommands and flags,
over valid and corrupted input files, `run` returns 0, 1 or 2, exit 1 prints
`error:`, and nothing escapes as a traceback. A corpus of in-range maxima,
whose products of sizes are over the element budget, must be rejected
before anything large is allocated.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from checkpoint_docs import as_version, b64_floats, with_data
from childproc import run_cli
from vitalnet.cli import run
from vitalnet.data import Cohort, PatientRecord, write_cohort
from vitalnet.nn import ModelConfig, init_params, save_checkpoint
from vitalnet.synth import default_config

COHORT_HEADER = "patient_id,timestamp,hr,sbp,dbp,age,label"
FAST_MODEL = ["--set", "conv1_filters=2", "--set", "conv2_filters=2",
              "--set", "lstm_hidden=3", "--set-train", "epochs=1"]


def _quiet_run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    """One valid file of every kind a subcommand reads."""
    d = tmp_path_factory.mktemp("fuzz_inputs")
    cfg = default_config()
    for g in cfg.groups:
        g.patients_per_bin = [1, 1, 1, 1]
        g.stay_days = (1.5, 4)
    files = {name: d / name for name in
             ("config.json", "cohort.csv", "model.json", "history.csv",
              "sweep.csv", "embedding.csv", "boxplot.csv")}
    files["config.json"].write_text(json.dumps(cfg.to_dict()))
    steps = [
        ["synth", "--config", str(files["config.json"]), "--out", str(files["cohort.csv"])],
        ["train", "--train", str(files["cohort.csv"]), *FAST_MODEL,
         "--out", str(files["model.json"]), "--history-out", str(files["history.csv"])],
        ["sweep", "--model", str(files["model.json"]), "--test", str(files["cohort.csv"]),
         "--days", "1,2,3", "--out", str(files["sweep.csv"])],
        ["embed", "--model", str(files["model.json"]), "--data", str(files["cohort.csv"]),
         "--perplexity", "3", "--iters", "20", "--out", str(files["embedding.csv"])],
        ["stats", "--cohort", str(files["cohort.csv"]), "--out", str(d / "stats.csv"),
         "--boxplot-out", str(files["boxplot.csv"])],
    ]
    for argv in steps:
        assert _quiet_run(argv)[0] == 0, argv
    return files


def _corrupt_csv(text: str, kind: str, cut: float) -> bytes:
    lines = text.splitlines()
    if kind == "truncated":
        return text.encode()[: int(len(text) * cut)]
    if kind == "wrong_header":
        lines[0] = lines[0].replace(lines[0].split(",")[-1], "outcome")
    elif kind == "empty":
        return b""
    elif kind == "header_only":
        lines = lines[:1]
    elif kind in ("nan", "inf", "non_numeric"):
        fields = lines[-1].split(",")
        fields[len(fields) // 2] = {"nan": "nan", "inf": "-inf", "non_numeric": "x"}[kind]
        lines[-1] = ",".join(fields)
    elif kind == "non_utf8":
        return ("\n".join(lines[:2]) + "\n").encode() + b"\xff\xfe\n"
    elif kind == "stamp_out_of_range" and lines[0] == COHORT_HEADER:
        fields = lines[1].split(",")
        fields[1] = "0001-01-01T00:00:00+01:00"
        lines[1] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_leaves(value, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _corrupt_json(text: str, kind: str, cut: float) -> bytes:
    if kind == "truncated":
        return text.encode()[: int(len(text) * cut)]
    if kind == "not_an_object":
        return b"[1, 2, 3]"
    if kind == "non_utf8":
        return b'{"seed": "\xff"}'
    if kind == "deep_nesting":  # past the decoder's recursion limit
        return b"[" * 100_000 + b"]" * 100_000
    if kind == "long_integer":  # past Python's int digit limit, which json.dumps refuses
        return b'{"seed": ' + b"7" * 5_000 + b"}"
    if kind in BAD_NUMBERS:  # one numeric leaf, picked by `cut`, replaced
        doc = json.loads(text)
        leaves = list(_numeric_leaves(doc))
        *parents, last = leaves[int(cut * len(leaves))]
        node = doc
        for key in parents:
            node = node[key]
        node[last] = BAD_NUMBERS[kind]
        return json.dumps(doc).encode()
    return text.encode()


def mostly(valid: list[str], invalid: list[str]):
    """A flag value or file kind, valid three times in four."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(valid), st.sampled_from(invalid))


BAD_NUMBERS = {"nan_number": float("nan"), "negative_number": -3, "huge_number": 1e300,
               "huge_integer": 10**400, "string_number": "7", "zero_number": 0,
               "large_integer": 10**12, "int64_overflow": 2**70}
CSV_KINDS = mostly(["valid"], ["truncated", "wrong_header", "empty", "header_only", "nan",
                               "inf", "non_numeric", "non_utf8", "stamp_out_of_range"])
JSON_KINDS = mostly(["valid"], ["truncated", "not_an_object", "non_utf8", "deep_nesting",
                               "long_integer", *BAD_NUMBERS])

DAYS = mostly(["2:28:2", "1,3,40", "2,2,1", "1:3:1"], ["0", "-2", "two", "5:1:1", "1:3:0",
                                                       "1e3", ""])
PROB = mostly(["0.5", "0", "1", "0.25"], ["7", "-0.1", "nan", "half"])
SEED = mostly(["0", "1", "3"], ["-1", "2.5", "x"])
# subcommand -> ({flag: input file read through it}, {other flag: value strategy})
COMMANDS = {
    "synth": ({"--config": "config.json"}, {"--seed": SEED}),
    "validate": ({"--cohort": "cohort.csv", "--config": "config.json"}, {}),
    "stats": ({"--cohort": "cohort.csv"}, {"--boxplot-out": st.just("{dir}/box.csv")}),
    "split": ({"--cohort": "cohort.csv"}, {"--seed": SEED, "--train-fraction": PROB}),
    "train": ({"--train": "cohort.csv"},
              {"--seed": SEED, "--window-len": mostly(["16", "24"], ["4", "0", "x"]),
               "--stride": mostly(["24", "6"], ["0", "-3"]),
               "--set": mostly(["lstm_hidden=2", "seed=5"], ["seed=1e3", "nope=1", "x"]),
               "--set-train": mostly(["batch_size=4", "learning_rate=0.01"],
                                     ["epochs=0", "epochs=2.0", "learning_rate=fast",
                                      f"epochs={10**12}"])}),
    "eval": ({"--model": "model.json", "--test": "cohort.csv"},
             {"--threshold": PROB, "--per-patient": st.none()}),
    "sweep": ({"--model": "model.json", "--test": "cohort.csv"},
              {"--days": DAYS, "--threshold": PROB, "--per-patient": st.none()}),
    "embed": ({"--model": "model.json", "--data": "cohort.csv"},
              {"--days": mostly(["1", "3"], ["0", "-1", "x"]),
               "--perplexity": mostly(["3", "5"], ["1", "500", "nan"]),
               "--iters": mostly(["5", "12"], ["0", "-1", str(10**12)]), "--seed": SEED}),
    "plot": ({}, {}),
}
PLOT_INPUTS = {"sweep": "sweep.csv", "history": "history.csv",
               "embedding": "embedding.csv", "boxplot": "boxplot.csv"}


@st.composite
def invocations(draw):
    """(argv template, {file name: corruption kind}, where to cut or which
    number to replace); `{dir}` marks the directory of the example's files."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    file_flags, other_flags = COMMANDS[command]
    argv = [command]
    if command == "plot":
        kind = draw(st.sampled_from(sorted(PLOT_INPUTS)))
        file_flags = {"--in": PLOT_INPUTS[kind]}
        argv += ["--kind", kind]
    corrupt = {}
    for flag, name in file_flags.items():
        corrupt[name] = draw(JSON_KINDS if name.endswith(".json") else CSV_KINDS)
        argv += [flag, "{dir}/" + name]
    if command == "train":
        argv += FAST_MODEL  # before the drawn flags, which override it
    flags = st.lists(st.sampled_from(sorted(other_flags)), unique=True) if other_flags \
        else st.just([])
    for flag in draw(flags):
        value = draw(other_flags[flag])
        argv += [flag] if value is None else [flag, value]
    if command == "embed" and "--iters" not in argv:
        argv += ["--iters", "10"]
    if command == "split":
        argv += ["--train-out", "{dir}/train.csv", "--test-out", "{dir}/test.csv"]
    else:
        argv += ["--out", "{dir}/out"]
    if draw(st.integers(0, 9)) == 0:  # a usage error
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(
            ["--nope", "--out", "--kind", "-x"])))
    return argv, corrupt, draw(st.floats(0.05, 0.95))


@given(case=invocations())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_exit_contract(inputs, tmp_path_factory, case):
    argv, corrupt, cut = case
    d = tmp_path_factory.mktemp("fuzz_case")
    for name, kind in corrupt.items():
        text = inputs[name].read_text(encoding="utf-8")
        fix = _corrupt_json if name.endswith(".json") else _corrupt_csv
        (d / name).write_bytes(fix(text, kind, cut))
    argv = [a.replace("{dir}", str(d)) for a in argv]
    code, err = _quiet_run(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code, err)
    if code == 1:
        assert err.startswith("error:"), (argv, err)
    assert "Traceback" not in err, (argv, err)


# every reader of a JSON file: its argv, where {json} is the file read
JSON_READERS = {
    "synth": ["synth", "--config", "{json}"],
    "validate": ["validate", "--cohort", "{cohort}", "--config", "{json}"],
    "train_model_config": ["train", "--train", "{cohort}", "--model-config", "{json}"],
    "train_train_config": ["train", "--train", "{cohort}", "--train-config", "{json}"],
    "eval": ["eval", "--model", "{json}", "--test", "{cohort}"],
    "sweep": ["sweep", "--model", "{json}", "--test", "{cohort}"],
    "embed": ["embed", "--model", "{json}", "--data", "{cohort}"],
}


@pytest.mark.parametrize("kind", ["deep_nesting", "long_integer"])
@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_undecodable_json_exits_1(inputs, tmp_path, reader, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(_corrupt_json("", kind, 0.5))
    files = {"{json}": str(bad), "{cohort}": str(inputs["cohort.csv"])}
    code, err = _quiet_run([files.get(a, a) for a in JSON_READERS[reader]]
                           + ["--out", str(tmp_path / "out")])
    assert code == 1 and err.startswith("error: malformed JSON:"), err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def _last_tensor(doc: dict) -> dict:
    return doc["tensors"][-1]  # dense2_b, one float: 12 base64 characters


# checkpoint corruptions: (the versions they apply to, an edit of the document)
BAD_CHECKPOINTS = {
    "missing_name": ((1, 2), lambda d: _last_tensor(d).pop("name")),
    "missing_shape": ((1, 2), lambda d: _last_tensor(d).pop("shape")),
    "missing_data": ((1, 2), lambda d: _last_tensor(d).pop("data")),
    "shape": ((1, 2), lambda d: _last_tensor(d).update(shape=[1, 1])),
    "short_data": ((1, 2), lambda d: _last_tensor(d).update(
        data=with_data(d["format_version"], []))),
    "unknown_tensor": ((1, 2), lambda d: d["tensors"].append(
        {"name": "extra_w", "shape": [1], "data": with_data(d["format_version"], [0.0])})),
    "repeated_tensor": ((1, 2), lambda d: d["tensors"].append(dict(_last_tensor(d)))),
    "unknown_version": ((1, 2), lambda d: d.update(format_version=3)),
    "non_alphabet": ((2,), lambda d: _last_tensor(d).update(data="AAAA!AAAAAA=")),
    "bad_padding": ((2,), lambda d: _last_tensor(d).update(data="AAAAAAAAAAA")),
    "byte_count": ((2,), lambda d: _last_tensor(d).update(data=b64_floats([0.0, 0.0]))),
    "nan_bytes": ((2,), lambda d: _last_tensor(d).update(data=b64_floats([float("nan")]))),
    "inf_bytes": ((2,), lambda d: _last_tensor(d).update(data=b64_floats([float("inf")]))),
    "list_in_version_2": ((2,), lambda d: _last_tensor(d).update(data=[0.0])),
    "string_in_version_1": ((1,), lambda d: _last_tensor(d).update(data=b64_floats([0.0]))),
    "integer_beyond_float": ((1,), lambda d: _last_tensor(d).update(data=[10**400])),
}


@pytest.mark.parametrize("case,version", [(c, v) for c, (versions, _) in BAD_CHECKPOINTS.items()
                                          for v in versions])
def test_bad_checkpoint_exits_1(inputs, tmp_path, capsys, case, version):
    doc = as_version(json.loads(inputs["model.json"].read_text()), version)
    BAD_CHECKPOINTS[case][1](doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code = run(["eval", "--model", str(model), "--test", str(inputs["cohort.csv"]),
                "--out", str(tmp_path / "eval.json")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and "Traceback" not in err, err


# in-range sizes whose products are over the element budget; each runs in a
# child process under a 2 GiB address-space limit, where allocating the
# arrays would end in a MemoryError traceback
MAX_WINDOW = ["--window-len", "8784", "--stride", "8784"]
BIG_CONVS = ["--set", "conv1_filters=1024", "--set", "conv2_filters=1024"]
MAXIMA = {
    "conv_filters": ["train", *MAX_WINDOW, *BIG_CONVS],
    "conv_filters_batch_1": ["train", *MAX_WINDOW, *BIG_CONVS, "--set-train", "batch_size=1"],
    "lstm_hidden": ["train", *MAX_WINDOW, "--set", "lstm_hidden=1024"],
    "every_size": ["train", *MAX_WINDOW, *BIG_CONVS, "--set", "conv1_kernel=64",
                   "--set", "conv2_kernel=64", "--set", "lstm_hidden=1024"],
    "parameters": ["train", "--window-len", "128", *BIG_CONVS, "--set", "conv1_kernel=64",
                   "--set", "conv2_kernel=64"],
    "eval_checkpoint": ["eval", "--model", "{big_model}"],
    "sweep_checkpoint": ["sweep", "--model", "{big_model}"],
    "embed_checkpoint": ["embed", "--model", "{big_model}"],
    # every stride-1 window of 400-day stays: 13,072 windows, 2.75 GB
    "window_table": ["train", "--window-len", "8784", "--stride", "1",
                     "--train", "{long_stays}"],
    "eval_window_table": ["eval", "--model", "{long_model}", "--test", "{long_stays}"],
    "sweep_window_table": ["sweep", "--model", "{long_model}", "--days", "400",
                           "--test", "{long_stays}"],
    "embed_window_table": ["embed", "--model", "{long_model}", "--data", "{long_stays}"],
    # one patient's hourly grid from year 1 to 9999: 87,649,393 slots
    "stats_grid": ["stats", "--cohort", "{long_span}"],
    "train_grid": ["train", "--train", "{long_span}"],
}
ADDRESS_LIMIT = 2 << 30
LONG_STAY_PATIENTS = 16
LONG_STAY_HOURS = 400 * 24


@pytest.fixture(scope="module")
def big_model(tmp_path_factory) -> Path:
    """A checkpoint of in-range maxima that fits in a few MB of JSON: conv1
    has 1,024 filters of width 64 and conv2 width 64, over 8,784-slot windows."""
    path = tmp_path_factory.mktemp("maxima") / "big_model.json"
    cfg = ModelConfig(conv1_filters=1024, conv1_kernel=64, conv2_filters=2, conv2_kernel=64,
                      lstm_hidden=3)
    save_checkpoint(path, init_params(cfg), {"window_len": 8784, "stride": 8784,
                                             "channel_mean": [0.0] * 3, "channel_std": [1.0] * 3})
    return path


@pytest.fixture(scope="module")
def long_stays(tmp_path_factory) -> Path:
    """A cohort of LONG_STAY_PATIENTS hourly stays of 400 days each."""
    path = tmp_path_factory.mktemp("long_stays") / "cohort.csv"
    hours = np.arange(LONG_STAY_HOURS)
    times = np.datetime64("2020-01-01T00:00:00", "us") + hours * np.timedelta64(1, "h")
    wave = np.round(np.sin(hours / 24.0), 2)[:, None]
    values = np.array([80.0, 120.0, 70.0]) + np.array([10.0, 15.0, 5.0]) * wave
    write_cohort(Cohort([PatientRecord(f"P{i}", 60, i % 2, times, values)
                         for i in range(LONG_STAY_PATIENTS)]), path)
    return path


@pytest.fixture(scope="module")
def long_model(tmp_path_factory) -> Path:
    """A small checkpoint that reads every stride-1 window of 8,784 slots."""
    path = tmp_path_factory.mktemp("long_model") / "model.json"
    cfg = ModelConfig(conv1_filters=2, conv2_filters=2, lstm_hidden=3)
    save_checkpoint(path, init_params(cfg), {"window_len": 8784, "stride": 1,
                                             "channel_mean": [0.0] * 3, "channel_std": [1.0] * 3})
    return path


@pytest.fixture(scope="module")
def long_span(tmp_path_factory) -> Path:
    """Four patients of two rows each; patient A's rows span years 1 to 9999."""
    path = tmp_path_factory.mktemp("long_span") / "cohort.csv"
    rows = ["A,0001-01-01T00:00:00Z,80,120,80,50,1", "A,9999-12-31T00:00:00Z,80,120,80,50,1"]
    rows += [f"{pid},2020-01-01T0{h}:00:00Z,{80 + h},{120 + h},{80 + h},{age},{label}"
             for pid, age, label in (("B", 50, 0), ("C", 60, 1), ("D", 70, 0)) for h in (0, 1)]
    path.write_text("\n".join([COHORT_HEADER, *rows]) + "\n")
    return path


@pytest.mark.parametrize("case", sorted(MAXIMA))
def test_in_range_maxima_rejected(inputs, big_model, long_model, long_stays, long_span,
                                  tmp_path, case):
    files = {"{big_model}": big_model, "{long_model}": long_model, "{long_stays}": long_stays,
             "{long_span}": long_span}
    argv = [str(files.get(a, a)) for a in MAXIMA[case]]
    data = {"train": "--train", "embed": "--data", "stats": "--cohort"}.get(argv[0], "--test")
    if data not in argv:
        argv += [data, str(inputs["cohort.csv"])]
    argv += ["--out", str(tmp_path / "out")]
    result = run_cli(argv, rlimit_as=ADDRESS_LIMIT, timeout=120)
    assert result.code == 1, result.stderr
    assert result.stderr.startswith("error:") and "float64 elements" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.seconds < 30
