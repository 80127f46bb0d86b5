"""The benchmark's workloads: how each sets up its inputs, which subcommands
one pass runs through `vitalnet.cli.run`, and how each output is checked.

Every workload is a closed loop with one caller: the subcommands of a pass
run back to back in one process, each after the previous one returned.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hostspeed

COHORT_SCALE = 4  # per-bin patient counts x4: 280 patients, ~166k rows
# train and analyze hold out the same 14 patients (216 windows) for every
# seed. A seeded split moves the held-out windows by +-20%: analyze's exact
# t-SNE costs O(n^2) in them, and train's window count and eval memory follow
# them, so run_s and peak_rss_mb would track the seed. The seed still drives
# the training seed, and analyze's t-SNE seed.
SPLIT_SEED = 11
ANALYZE_CHECKPOINT_EPOCHS = 2  # forward cost does not depend on the weights
SWEEP_DAYS = "2:28:2"
SWEEP_ROWS = 14
STATS_ROWS = 13  # 3 vitals x 4 statistics + age
GATE_ACCURACY = 0.85  # the repository's held-out quality gate
GATE_AUC = 0.90
TRAINED = re.compile(r"trained (\d+) epochs on (\d+) windows")  # train's stdout


Files = dict[str, Path]  # input name -> path, as returned by a workload's set-up


@dataclass
class Op:
    """One subcommand of a pass; `check` returns an error message or None."""

    name: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[Path], str | None] | None = None


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cohort_timestamps(path: Path) -> dict[str, list[str]]:
    """Timestamp strings per patient of a cohort CSV, in file order."""
    stamps: dict[str, list[str]] = defaultdict(list)
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row:
                stamps[row[0]].append(row[1])
    return stamps


def row_count(stamps: dict[str, list[str]]) -> int:
    return sum(len(ts) for ts in stamps.values())


def _call(cli, argv: list[str]) -> None:
    """Run a set-up subcommand; set-up failures end the benchmark."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"set-up step {argv[0]} exited {code}: {err.getvalue().strip()}")


def _default_split(cli, d: Path) -> Files:
    files = {"cohort": d / "cohort.csv", "train": d / "train.csv", "test": d / "test.csv"}
    _call(cli, ["synth", "--out", str(files["cohort"])])
    _call(cli, ["split", "--cohort", str(files["cohort"]), "--seed", str(SPLIT_SEED),
                "--train-out", str(files["train"]), "--test-out", str(files["test"])])
    return files


# ---------------------------------------------------------------------------
# cohort: synth -> validate -> stats -> split on a x4 cohort
# ---------------------------------------------------------------------------


def cohort_setup(cli, d: Path, seed: int) -> Files:
    from vitalnet.synth import default_config

    config = default_config().to_dict()
    for group in config["groups"]:
        group["patients_per_bin"] = [n * COHORT_SCALE for n in group["patients_per_bin"]]
    path = d / "synth_x4.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return {"config": path}


def _check_stats(out: Path) -> str | None:
    n = len(read_rows(out / "stats.csv"))
    return None if n == STATS_ROWS else f"stats table has {n} rows, want {STATS_ROWS}"


def _check_validate(out: Path) -> str | None:
    report = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    return None if report.get("cells") else "calibration report has no cells"


def _check_split(out: Path) -> str | None:
    cohort, train, test = (cohort_timestamps(out / f"{name}.csv")
                           for name in ("cohort", "train", "test"))
    rows, reloaded = row_count(cohort), row_count(train) + row_count(test)
    if reloaded != rows:
        return f"reloaded {reloaded} rows, generated {rows}"
    if set(train) & set(test) or set(train) | set(test) != set(cohort):
        return "train/test split does not partition the patients"
    return None


def cohort_ops(inputs: Files, out: Path, seed: int) -> list[Op]:
    cohort, config = str(out / "cohort.csv"), str(inputs["config"])
    return [
        Op("synth", ["synth", "--config", config, "--seed", str(seed), "--out", cohort],
           ["cohort.csv"]),
        Op("validate", ["validate", "--cohort", cohort, "--config", config,
                        "--out", str(out / "calibration.json")],
           ["calibration.json"], _check_validate),
        Op("stats", ["stats", "--cohort", cohort, "--out", str(out / "stats.csv"),
                     "--boxplot-out", str(out / "boxplot.csv")],
           ["stats.csv", "boxplot.csv"], _check_stats),
        Op("split", ["split", "--cohort", cohort, "--seed", str(seed),
                     "--train-out", str(out / "train.csv"),
                     "--test-out", str(out / "test.csv")],
           ["train.csv", "test.csv"], _check_split),
    ]


def cohort_metrics(out: Path, stdout: dict[str, str], op_s: dict[str, float],
                   run_s: float) -> dict:
    rows = row_count(cohort_timestamps(out / "cohort.csv"))
    return {"cohort_rows_per_s": (rows / run_s, "1/s")}


# ---------------------------------------------------------------------------
# train: train (default configs) -> eval on the held-out split
# ---------------------------------------------------------------------------


def train_setup(cli, d: Path, seed: int) -> Files:
    return _default_split(cli, d)


def _check_eval_gate(out: Path) -> str | None:
    m = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    if m["accuracy"] >= GATE_ACCURACY and m["auc"] >= GATE_AUC:
        return None
    return f"held-out accuracy {m['accuracy']:.4f} / AUC {m['auc']:.4f} below the gate"


def train_ops(inputs: Files, out: Path, seed: int) -> list[Op]:
    model = str(out / "model.json")
    return [
        Op("train", ["train", "--train", str(inputs["train"]), "--seed", str(seed),
                     "--out", model, "--history-out", str(out / "history.csv")],
           ["model.json", "history.csv"]),
        Op("eval", ["eval", "--model", model, "--test", str(inputs["test"]),
                    "--out", str(out / "eval.json")],
           ["eval.json"], _check_eval_gate),
    ]


def train_warmup(inputs: Files, out: Path, seed: int) -> list[Op]:
    """One epoch, then eval. Without it the first timed pass ran 10-23%
    slower than the second; a 1-epoch train alone, without eval's forward
    pass over every held-out window at once, did not remove that."""
    ops = train_ops(inputs, out, seed)
    ops[0].argv += ["--set-train", "epochs=1"]
    return ops


def train_metrics(out: Path, stdout: dict[str, str], op_s: dict[str, float],
                  run_s: float) -> dict:
    epochs, windows = map(int, TRAINED.search(stdout["train"]).groups())
    m = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    return {
        "train_windows_per_s": (epochs * windows / op_s["train"], "1/s"),
        "heldout_auc": (m["auc"], "1"),
        "heldout_accuracy": (m["accuracy"], "1"),
    }


# ---------------------------------------------------------------------------
# analyze: eval -> sweep -> embed -> plot sweep/embedding, forward-only nn
# ---------------------------------------------------------------------------


def analyze_setup(cli, d: Path, seed: int) -> Files:
    files = _default_split(cli, d)
    files["model"] = d / "model.json"
    _call(cli, ["train", "--train", str(files["train"]), "--seed", str(seed),
                "--set-train", f"epochs={ANALYZE_CHECKPOINT_EPOCHS}",
                "--out", str(files["model"])])
    return files


def _check_eval_ran(out: Path) -> str | None:
    m = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    return None if m["n_windows"] > 0 else "eval scored no windows"


def _check_sweep(out: Path) -> str | None:
    rows = read_rows(out / "sweep.csv")
    if len(rows) != SWEEP_ROWS:
        return f"sweep has {len(rows)} rows, want {SWEEP_ROWS}"
    n = [int(r["n_windows"]) for r in rows]
    if any(b < a for a, b in zip(n, n[1:])):
        return f"sweep n_windows decreases as N grows: {n}"
    return None


def _check_embedding(out: Path) -> str | None:
    rows = read_rows(out / "embedding.csv")
    n_eval = json.loads((out / "eval.json").read_text(encoding="utf-8"))["n_windows"]
    if len(rows) != n_eval:
        return f"embedding has {len(rows)} rows, eval scored {n_eval} windows"
    if not all(math.isfinite(float(r[k])) for r in rows for k in ("y1", "y2")):
        return "embedding has non-finite coordinates"
    return None


def _check_svg(name: str) -> Callable[[Path], str | None]:
    def check(out: Path) -> str | None:
        text = (out / name).read_text(encoding="utf-8")
        return None if text.lstrip().startswith("<svg") else f"{name} is not an SVG"

    return check


def analyze_ops(inputs: Files, out: Path, seed: int) -> list[Op]:
    model, test = str(inputs["model"]), str(inputs["test"])
    sweep, emb = str(out / "sweep.csv"), str(out / "embedding.csv")
    return [
        Op("eval", ["eval", "--model", model, "--test", test, "--out", str(out / "eval.json")],
           ["eval.json"], _check_eval_ran),
        Op("sweep", ["sweep", "--model", model, "--test", test, "--days", SWEEP_DAYS,
                     "--out", sweep],
           ["sweep.csv"], _check_sweep),
        Op("embed", ["embed", "--model", model, "--data", test, "--seed", str(seed),
                     "--out", emb],
           ["embedding.csv"], _check_embedding),
        Op("plot_sweep", ["plot", "--kind", "sweep", "--in", sweep,
                          "--out", str(out / "sweep.svg")],
           ["sweep.svg"], _check_svg("sweep.svg")),
        Op("plot_embedding", ["plot", "--kind", "embedding", "--in", emb,
                              "--out", str(out / "embedding.svg")],
           ["embedding.svg"], _check_svg("embedding.svg")),
    ]


def analyze_metrics(out: Path, stdout: dict[str, str], op_s: dict[str, float],
                    run_s: float) -> dict:
    return {"sweep_s": (op_s["sweep"], "s"), "embed_s": (op_s["embed"], "s")}


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    setup: Callable
    ops: Callable
    metrics: Callable
    # times the host's speed during a pass; it should resemble the pass's work
    kernel: Callable = hostspeed.python_kernel
    warmup: Callable | None = None  # ops run once, untimed, before the first pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cohort", cohort_setup, cohort_ops, cohort_metrics),
        Workload("train", train_setup, train_ops, train_metrics,
                 kernel=hostspeed.numpy_kernel, warmup=train_warmup),
        Workload("analyze", analyze_setup, analyze_ops, analyze_metrics),
    )
}
