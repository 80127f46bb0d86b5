"""Command-line pipeline: synthetic cohort generation, statistical tables,
patient splits, training, evaluation, day sweeps, t-SNE embeddings, and SVG
charts. Every subcommand is seed-deterministic and writes a run manifest
next to its primary output.

Exit codes: 0 success, 1 validation/parse error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, svg
from .data import (
    ChannelStats,
    compute_channel_stats,
    load_cohort,
    make_windows,
    resample,
    split_by_patient,
    write_cohort,
)
from .errors import ParseError, ValidationError, VitalnetError
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
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ValidationError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header or [])}"
            )
        return [dict(zip(expected_header, row)) for row in reader]


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _load_json_config(path, overrides: list[str]) -> dict:
    raw = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ValidationError(f"no such file: {p}")
        raw = json.loads(p.read_text(encoding="utf-8"))
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
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


def _write_manifest(out_path, subcommand, config, inputs, outputs, seed, t0) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "tool_version": __version__,
        "duration_seconds": round(time.time() - t0, 3),
    }
    path = Path(str(out_path) + ".manifest.json")
    with path.open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_model(path):
    params, preprocess = load_checkpoint(path)
    for key in ("window_len", "stride", "channel_mean", "channel_std"):
        if key not in preprocess:
            raise ValidationError(f"checkpoint missing preprocess field {key!r}")
    stats = ChannelStats(
        mean=np.array(preprocess["channel_mean"], dtype=float),
        std=np.array(preprocess["channel_std"], dtype=float),
    )
    return params, stats, int(preprocess["window_len"]), int(preprocess["stride"])


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> None:
    t0 = time.time()
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        config.seed = args.seed
    cohort = generate_cohort(config)
    write_cohort(cohort, args.out)
    _write_manifest(
        args.out, "synth", config.to_dict(), [args.config or "<builtin>"],
        [args.out], config.seed, t0,
    )
    print(f"wrote {len(cohort)} patients to {args.out}")


def _cmd_validate(args) -> None:
    t0 = time.time()
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
    if args.out:
        with Path(args.out).open("w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(
            args.out, "validate", {}, [args.cohort], [args.out], None, t0
        )


def _cmd_stats(args) -> None:
    t0 = time.time()
    cohort = load_cohort(args.cohort)
    table = patient_feature_table(cohort)
    labels = table["label"]
    if len(set(labels.tolist())) < 2:
        raise ValidationError("stats: need both labels present in the cohort")
    rows = []
    features = [(v, s) for v in VITALS for s in ("mean", "std", "min", "max")]
    for vital, stat in features:
        values = table[f"{vital}_{stat}"]
        corr = point_biserial(values, labels)
        ci_pos = confidence_interval(values[labels == 1])
        ci_neg = confidence_interval(values[labels == 0])
        rows.append(
            [vital, stat, repr(corr.r), repr(corr.p),
             repr(ci_pos[0]), repr(ci_pos[1]), repr(ci_neg[0]), repr(ci_neg[1])]
        )
    age = table["age"].astype(float)
    corr = point_biserial(age, labels)
    ci_pos = confidence_interval(age[labels == 1])
    ci_neg = confidence_interval(age[labels == 0])
    rows.append(
        ["age", "value", repr(corr.r), repr(corr.p),
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
    _write_manifest(args.out, "stats", {}, [args.cohort], outputs, None, t0)
    print(f"wrote {len(rows)} feature rows to {args.out}")


def _cmd_split(args) -> None:
    t0 = time.time()
    cohort = load_cohort(args.cohort)
    train_cohort, test_cohort = split_by_patient(cohort, args.train_fraction, args.seed)
    write_cohort(train_cohort, args.train_out)
    write_cohort(test_cohort, args.test_out)
    _write_manifest(
        args.train_out, "split", {"train_fraction": args.train_fraction},
        [args.cohort], [args.train_out, args.test_out], args.seed, t0,
    )
    print(f"split {len(cohort)} patients -> {len(train_cohort)} train / {len(test_cohort)} test")


def _cmd_train(args) -> None:
    t0 = time.time()
    mcfg = ModelConfig.from_dict(_load_json_config(args.model_config, args.set))
    tcfg = TrainConfig.from_dict(_load_json_config(args.train_config, args.set_train))
    if args.seed is not None:
        mcfg.seed = args.seed
        tcfg.seed = args.seed
    cohort = load_cohort(args.train)
    series = [(p.patient_id, resample(p), p.label) for p in cohort.patients]
    stats = compute_channel_stats([reg for _, reg, _ in series])
    dataset = make_windows(series, args.window_len, args.stride, stats)
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
    _write_manifest(
        args.out, "train",
        {"model": mcfg.__dict__, "train": tcfg.__dict__, "preprocess": preprocess},
        [args.train], outputs, tcfg.seed, t0,
    )
    final = history[-1] if history else {"loss": float("nan"), "accuracy": float("nan")}
    print(
        f"trained {tcfg.epochs} epochs on {len(dataset)} windows; "
        f"final loss {final['loss']:.4f}, accuracy {final['accuracy']:.4f}"
    )


def _cmd_eval(args) -> None:
    t0 = time.time()
    params, stats, window_len, stride = _load_model(args.model)
    cohort = load_cohort(args.test)
    dataset = windows_from_cohort(cohort, stats, window_len, stride)
    probs = predict(params, dataset)
    acc, auc = window_metrics(probs, dataset, args.threshold, args.per_patient)
    metrics = {
        "accuracy": acc,
        "auc": auc,
        "n_windows": len(dataset),
        "threshold": args.threshold,
    }
    with Path(args.out).open("w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(
        args.out, "eval", {"per_patient": args.per_patient},
        [args.model, args.test], [args.out], None, t0,
    )
    print(f"accuracy {acc:.4f}, auc {auc:.4f} over {len(dataset)} windows")


def _cmd_sweep(args) -> None:
    t0 = time.time()
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
    _write_manifest(
        args.out, "sweep", {"days": list(days), "per_patient": args.per_patient},
        [args.model, args.test], [args.out], None, t0,
    )
    print(f"wrote {len(rows)} sweep rows to {args.out}")


def _cmd_embed(args) -> None:
    t0 = time.time()
    params, stats, window_len, stride = _load_model(args.model)
    cohort = load_cohort(args.data)
    dataset = windows_from_cohort(
        cohort, stats, window_len, stride, max_days=args.days
    )
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
    _write_manifest(
        args.out, "embed",
        {"perplexity": args.perplexity, "iters": args.iters, "days": args.days},
        [args.model, args.data], [args.out], args.seed, t0,
    )
    print(f"embedded {len(rows)} windows; final KL {result.kl_history[-1]:.4f}")


def _cmd_plot(args) -> None:
    t0 = time.time()
    if args.kind == "sweep":
        rows = _read_rows(args.input, SWEEP_HEADER)
        days = [float(r["days"]) for r in rows]
        content = svg.line_chart(
            [
                ("accuracy", days, [float(r["accuracy"]) for r in rows]),
                ("auc", days, [float(r["auc"]) for r in rows]),
            ],
            "Test performance by number of included days",
            "days of data", "metric",
        )
    elif args.kind == "history":
        rows = _read_rows(args.input, HISTORY_HEADER)
        epochs = [float(r["epoch"]) for r in rows]
        content = svg.line_chart(
            [
                ("loss", epochs, [float(r["loss"]) for r in rows]),
                ("accuracy", epochs, [float(r["accuracy"]) for r in rows]),
            ],
            "Training history", "epoch", "value",
        )
    elif args.kind == "embedding":
        rows = _read_rows(args.input, EMBEDDING_HEADER)
        content = svg.scatter_chart(
            [(float(r["y1"]), float(r["y2"]), int(r["label"])) for r in rows],
            "2-D feature embedding of test windows", "y1", "y2",
        )
    elif args.kind == "boxplot":
        rows = _read_rows(args.input, BOXPLOT_HEADER)
        content = svg.box_plot(
            [
                (
                    f"label {r['label']}",
                    {k: float(r[k]) for k in BOXPLOT_HEADER[1:]},
                )
                for r in rows
            ],
            "Resting heart rate by test result", "test result", "resting HR (bpm)",
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown plot kind {args.kind}")
    Path(args.out).write_text(content, encoding="utf-8")
    _write_manifest(
        args.out, "plot", {"kind": args.kind}, [args.input], [args.out], None, t0
    )
    print(f"wrote {args.kind} chart to {args.out}")


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
    try:
        args.func(args)
    except (ParseError, ValidationError, VitalnetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
