"""Command-line pipeline: synthetic cohort generation, statistical tables,
patient splits, training, evaluation, day sweeps, t-SNE embeddings, and SVG
charts. Every subcommand is seed-deterministic and writes a run manifest
next to its primary output.

Exit codes: 0 success, 1 validation/parse error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, svg
from .data import (
    ChannelStats,
    check_window_args,
    compute_channel_stats,
    load_cohort,
    resample,
    split_by_patient,
    write_cohort,
)
from .errors import ValidationError, VitalnetError
from .evaluate import (
    day_sweep,
    extract_features,
    predict,
    window_metrics,
    windows_from_cohort,
)
from .nn.model import ModelConfig, load_checkpoint, save_checkpoint
from .nn.train import TrainConfig, train
from .stats import boxplot_stats, confidence_interval, point_biserial
from .synth import (
    STATS,
    VITALS,
    calibration_report,
    default_config,
    generate_cohort,
    load_config,
    patient_feature_table,
)
from .tsne import embed

STATS_HEADER = ["vital", "feature", "r", "p", "ci_lo_pos", "ci_hi_pos", "ci_lo_neg", "ci_hi_neg"]
BOXPLOT_HEADER = ["label", "q1", "median", "q3", "whisker_lo", "whisker_hi"]
SWEEP_HEADER = ["days", "n_windows", "accuracy", "auc"]
HISTORY_HEADER = ["epoch", "loss", "accuracy"]
EMBEDDING_HEADER = ["window_index", "patient_id", "label", "y1", "y2"]

DEFAULT_WINDOW_LEN = 48  # hourly slots (2 days)
DEFAULT_STRIDE = 24  # one day


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _write_rows(path, header, rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path, expected_header) -> list[dict]:
    """Data rows of a CSV with exactly `expected_header`; blank lines skipped."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ValidationError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header or [])}"
            )
        for row in filter(None, reader):
            if len(row) != len(expected_header):
                raise ValidationError(f"{path}: line {reader.line_num}: expected "
                                      f"{len(expected_header)} fields, got {len(row)}")
            rows.append(dict(zip(expected_header, row)))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return rows


def _numbers(rows, key, path, cast=float) -> list:
    """Column `key` of `_read_rows` output as finite numbers."""
    try:
        values = [cast(r[key]) for r in rows]
    except ValueError:
        raise ValidationError(f"{path}: non-numeric value in column {key}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{path}: non-finite value in column {key}")
    return values


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _load_json_config(path, overrides: list[str], flag: str) -> dict:
    raw = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ValidationError(f"no such file: {p}")
        raw = json.loads(p.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValidationError(f"{p}: expected a JSON object, got {type(raw).__name__}")
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"{flag} expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key] = _coerce(value)
    return raw


def _parse_days(spec: str) -> tuple[int, ...]:
    """Parse 'start:end:step' (inclusive of end when aligned) or 'a,b,c'."""
    parts = spec.split(":") if ":" in spec else spec.split(",")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValidationError(f"bad day spec {spec!r}: values must be integers") from None
    if ":" in spec:
        if len(values) != 3:
            raise ValidationError(f"bad day range {spec!r}, want start:end:step")
        start, end, step = values
        if step <= 0 or start <= 0 or end < start:
            raise ValidationError(f"bad day range {spec!r}")
        return tuple(range(start, end + 1, step))
    if min(values) < 1:
        raise ValidationError(f"bad day list {spec!r}, every N must be >= 1")
    return tuple(values)


@functools.cache
def _numpy_build() -> dict:
    """NumPy's version and the BLAS it was built with, read once per process."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}


def _environment() -> dict:
    """What the bits of a float result depend on besides the inputs: the BLAS
    kernels and the thread counts they may split a reduction over."""
    return {
        **_numpy_build(),
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def _write_json(path, doc) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RunRecord:
    """What one subcommand run did: its resolved config, the paths it read
    and wrote, and its seed. The manifest goes next to outputs[0]."""

    config: dict
    inputs: list[str]
    outputs: list[str]
    seed: int | None = None


def _write_manifest(subcommand: str, record: RunRecord, seconds: float) -> None:
    _write_json(f"{record.outputs[0]}.manifest.json", {
        "subcommand": subcommand,
        **asdict(record),
        "tool_version": __version__,
        "environment": _environment(),
        "duration_seconds": round(seconds, 3),
    })


def _load_model(path):
    params, preprocess = load_checkpoint(path)
    if not isinstance(preprocess, dict):
        raise ValidationError("checkpoint preprocess must be an object")
    for key in ("window_len", "stride", "channel_mean", "channel_std"):
        if key not in preprocess:
            raise ValidationError(f"checkpoint missing preprocess field {key!r}")
    check_window_args(preprocess["window_len"], preprocess["stride"], "checkpoint ")
    try:
        mean, std = (np.array(preprocess[k], dtype=float)
                     for k in ("channel_mean", "channel_std"))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("checkpoint channel_mean/channel_std must be numbers") from None
    if mean.shape != (3,) or std.shape != (3,) or not np.isfinite([mean, std]).all() \
            or (std <= 0).any():
        raise ValidationError("checkpoint channel_mean/channel_std must be 3 finite "
                              "numbers each, std > 0")
    stats = ChannelStats(mean=mean, std=std)
    return params, stats, preprocess["window_len"], preprocess["stride"]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> RunRecord:
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        config.seed = args.seed
    cohort = generate_cohort(config)
    write_cohort(cohort, args.out)
    print(f"wrote {len(cohort)} patients to {args.out}")
    return RunRecord(config.to_dict(), [args.config or "<builtin>"], [args.out], config.seed)


def _cmd_validate(args) -> RunRecord | None:
    config = load_config(args.config) if args.config else default_config()
    cohort = load_cohort(args.cohort)
    report = calibration_report(cohort, config)
    for cell in report.cells:
        flag = "ok  " if cell.overlaps else "MISS"
        print(
            f"{flag} label={cell.label} {cell.vital:>3s} {cell.stat:<4s} "
            f"ci=({cell.ci[0]:.2f}, {cell.ci[1]:.2f}) "
            f"target=({cell.target[0]:.2f}, {cell.target[1]:.2f})"
        )
    for label, row in sorted(report.resting_hr.items()):
        flag = "ok  " if row["within_5_bpm"] else "MISS"
        print(
            f"{flag} label={label} resting HR mean {row['observed_mean']:.2f} "
            f"vs reference {row['reference']:.2f}"
        )
    if not args.out:
        return None
    _write_json(args.out, asdict(report))
    return RunRecord({}, [args.cohort], [args.out])


def _cmd_stats(args) -> RunRecord:
    cohort = load_cohort(args.cohort)
    table = patient_feature_table(cohort)
    labels = table["label"]
    if len(set(labels.tolist())) < 2:
        raise ValidationError("stats: need both labels present in the cohort")
    rows = []
    columns = [(v, s, table[f"{v}_{s}"]) for v in VITALS for s in STATS]
    columns.append(("age", "value", table["age"].astype(float)))
    for vital, stat, values in columns:
        corr = point_biserial(values, labels)
        ci_pos = confidence_interval(values[labels == 1])
        ci_neg = confidence_interval(values[labels == 0])
        rows.append(
            [vital, stat, repr(corr.r), repr(corr.p),
             repr(ci_pos[0]), repr(ci_pos[1]), repr(ci_neg[0]), repr(ci_neg[1])]
        )
    _write_rows(args.out, STATS_HEADER, rows)
    outputs = [args.out]
    if args.boxplot_out:
        box_rows = []
        for label in (0, 1):
            b = boxplot_stats(table["hr_min"][labels == label])
            box_rows.append(
                [label, repr(b["q1"]), repr(b["median"]), repr(b["q3"]),
                 repr(b["whisker_lo"]), repr(b["whisker_hi"])]
            )
        _write_rows(args.boxplot_out, BOXPLOT_HEADER, box_rows)
        outputs.append(args.boxplot_out)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return RunRecord({}, [args.cohort], outputs)


def _cmd_split(args) -> RunRecord:
    cohort = load_cohort(args.cohort)
    train_cohort, test_cohort = split_by_patient(cohort, args.train_fraction, args.seed)
    write_cohort(train_cohort, args.train_out)
    write_cohort(test_cohort, args.test_out)
    print(f"split {len(cohort)} patients -> {len(train_cohort)} train / {len(test_cohort)} test")
    return RunRecord({"train_fraction": args.train_fraction}, [args.cohort],
                     [args.train_out, args.test_out], args.seed)


def _cmd_train(args) -> RunRecord:
    mcfg = ModelConfig.from_dict(_load_json_config(args.model_config, args.set, "--set"))
    tcfg = TrainConfig.from_dict(
        _load_json_config(args.train_config, args.set_train, "--set-train"))
    if args.seed is not None:
        mcfg.seed = args.seed
        tcfg.seed = args.seed
    check_window_args(args.window_len, args.stride)
    cohort = load_cohort(args.train)
    stats = compute_channel_stats([resample(p) for p in cohort.patients])
    dataset = windows_from_cohort(cohort, stats, args.window_len, args.stride)
    params, history = train(dataset, mcfg, tcfg)
    preprocess = {
        "window_len": args.window_len,
        "stride": args.stride,
        "channel_mean": stats.mean.tolist(),
        "channel_std": stats.std.tolist(),
    }
    save_checkpoint(args.out, params, preprocess)
    outputs = [args.out]
    if args.history_out:
        _write_rows(
            args.history_out,
            HISTORY_HEADER,
            [[h["epoch"], repr(h["loss"]), repr(h["accuracy"])] for h in history],
        )
        outputs.append(args.history_out)
    final = history[-1] if history else {"loss": float("nan"), "accuracy": float("nan")}
    print(
        f"trained {tcfg.epochs} epochs on {len(dataset)} windows; "
        f"final loss {final['loss']:.4f}, accuracy {final['accuracy']:.4f}"
    )
    return RunRecord(
        {"model": mcfg.__dict__, "train": tcfg.__dict__, "preprocess": preprocess},
        [args.train], outputs, tcfg.seed,
    )


def _cmd_eval(args) -> RunRecord:
    params, stats, window_len, stride = _load_model(args.model)
    cohort = load_cohort(args.test)
    dataset = windows_from_cohort(cohort, stats, window_len, stride)
    probs = predict(params, dataset)
    acc, auc = window_metrics(probs, dataset, args.threshold, args.per_patient)
    _write_json(args.out, {
        "accuracy": acc,
        "auc": auc,
        "n_windows": len(dataset),
        "threshold": args.threshold,
    })
    print(f"accuracy {acc:.4f}, auc {auc:.4f} over {len(dataset)} windows")
    return RunRecord({"per_patient": args.per_patient}, [args.model, args.test], [args.out])


def _cmd_sweep(args) -> RunRecord:
    params, stats, window_len, stride = _load_model(args.model)
    cohort = load_cohort(args.test)
    days = _parse_days(args.days)
    rows = day_sweep(
        params, cohort, stats, window_len, stride, days,
        threshold=args.threshold, per_patient=args.per_patient,
    )
    _write_rows(
        args.out,
        SWEEP_HEADER,
        [[r.days, r.n_windows, repr(r.accuracy), repr(r.auc)] for r in rows],
    )
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return RunRecord({"days": list(days), "per_patient": args.per_patient},
                     [args.model, args.test], [args.out])


def _cmd_embed(args) -> RunRecord:
    params, stats, window_len, stride = _load_model(args.model)
    cohort = load_cohort(args.data)
    days = None if args.days is None else (args.days,)
    dataset = windows_from_cohort(cohort, stats, window_len, stride, days)
    if len(dataset) < 4:
        raise ValidationError("embed: need at least 4 windows")
    features = extract_features(params, dataset)
    result = embed(features, perplexity=args.perplexity, iters=args.iters, seed=args.seed)
    rows = [
        [i, dataset.patient_ids[i], int(dataset.y[i]),
         repr(float(result.Y[i, 0])), repr(float(result.Y[i, 1]))]
        for i in range(len(dataset))
    ]
    _write_rows(args.out, EMBEDDING_HEADER, rows)
    print(f"embedded {len(rows)} windows; final KL {result.kl_history[-1]:.4f}")
    return RunRecord({"perplexity": args.perplexity, "iters": args.iters, "days": args.days},
                     [args.model, args.data], [args.out], args.seed)


def _cmd_plot(args) -> RunRecord:
    path = args.input
    if args.kind == "sweep":
        rows = _read_rows(path, SWEEP_HEADER)
        days, acc, auc = (_numbers(rows, k, path) for k in ("days", "accuracy", "auc"))
        content = svg.line_chart(
            [("accuracy", days, acc), ("auc", days, auc)],
            "Test performance by number of included days",
            "days of data", "metric",
        )
    elif args.kind == "history":
        rows = _read_rows(path, HISTORY_HEADER)
        epochs, loss, acc = (_numbers(rows, k, path) for k in ("epoch", "loss", "accuracy"))
        content = svg.line_chart(
            [("loss", epochs, loss), ("accuracy", epochs, acc)],
            "Training history", "epoch", "value",
        )
    elif args.kind == "embedding":
        rows = _read_rows(path, EMBEDDING_HEADER)
        content = svg.scatter_chart(
            list(zip(_numbers(rows, "y1", path), _numbers(rows, "y2", path),
                     _numbers(rows, "label", path, int))),
            "2-D feature embedding of test windows", "y1", "y2",
        )
    elif args.kind == "boxplot":
        rows = _read_rows(path, BOXPLOT_HEADER)
        columns = {k: _numbers(rows, k, path) for k in BOXPLOT_HEADER[1:]}
        content = svg.box_plot(
            [
                (f"label {r['label']}", {k: v[i] for k, v in columns.items()})
                for i, r in enumerate(rows)
            ],
            "Resting heart rate by test result", "test result", "resting HR (bpm)",
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown plot kind {args.kind}")
    Path(args.out).write_text(content, encoding="utf-8")
    print(f"wrote {args.kind} chart to {args.out}")
    return RunRecord({"kind": args.kind}, [args.input], [args.out])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vitalnet",
        description="Vital-sign pipeline: synthetic cohorts, statistics, "
        "CNN+LSTM training, day-sweep evaluation, t-SNE, SVG charts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    p.add_argument("--config", help="synth config JSON (defaults to the built-in)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="calibration report for a cohort CSV")
    p.add_argument("--cohort", required=True)
    p.add_argument("--config", help="synth config JSON with target intervals")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="correlation + confidence-interval table")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--boxplot-out", help="optional resting-HR box-plot CSV")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("split", help="stratified patient-level train/test split")
    p.add_argument("--cohort", required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train the classifier on a cohort CSV")
    p.add_argument("--train", required=True, help="training cohort CSV")
    p.add_argument("--model-config", help="ModelConfig JSON")
    p.add_argument("--train-config", help="TrainConfig JSON")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a model-config key")
    p.add_argument("--set-train", action="append", metavar="KEY=VALUE",
                   help="override a train-config key")
    p.add_argument("--seed", type=int, help="seed for init and shuffling")
    p.add_argument("--window-len", type=int, default=DEFAULT_WINDOW_LEN)
    p.add_argument("--stride", type=int, default=DEFAULT_STRIDE)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--history-out", help="per-epoch loss/accuracy CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="accuracy and AUC on a test cohort")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--per-patient", action="store_true",
                   help="aggregate windows per patient (majority vote)")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="accuracy/AUC vs number of included days")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--days", default="2:28:2", help="start:end:step or a,b,c")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--per-patient", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("embed", help="t-SNE projection of penultimate features")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="cohort CSV to embed")
    p.add_argument("--days", type=int, help="truncate each patient to N days first")
    p.add_argument("--perplexity", type=float, default=30.0)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="embedding CSV path")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("plot", help="render a CSV as a deterministic SVG chart")
    p.add_argument("--kind", required=True,
                   choices=["sweep", "history", "embedding", "boxplot"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        record = args.func(args)
        if record is not None:
            _write_manifest(args.command, record, time.perf_counter() - t0)
    except (VitalnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 1
    except csv.Error as exc:
        print(f"error: malformed CSV: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
