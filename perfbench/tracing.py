"""Layer spans recorded from outside the program.

`Tracer` replaces each target function with a wrapper at every name under
which a `vitalnet` module holds it, so callers that did `from .data import
resample` are traced as well as callers that go through `layers.lstm_forward`.
Spans (name, start, end, parent) stay in memory; `restore()` puts every
original back. Counters are computed from the wrapped calls' arguments and
return values, never from inside the program, and the time spent computing
them is excluded from every span's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from datetime import datetime
from pathlib import Path
from time import perf_counter

import workloads

N_VITAL_CHANNELS = 3  # conv1 reads the raw (hr, sbp, dbp) channels


def _conv_fwd_name(args, result):
    return "nn.conv1_fwd" if args["w"].shape[2] == N_VITAL_CHANNELS else "nn.conv2_fwd"


def _conv_bwd_name(args, result):
    # result is (dx, dw, db); dw has the layer's weight shape
    return "nn.conv1_bwd" if result[1].shape[2] == N_VITAL_CHANNELS else "nn.conv2_bwd"


def _occupied_slots(stamps: list[str]) -> int:
    """Distinct hourly slots, counted from the first observation, that hold one."""
    ts = [datetime.fromisoformat(t.replace("Z", "+00:00")) for t in stamps]
    first = min(ts)
    return len({int((t - first).total_seconds() // 3600) for t in ts})


def _on_load_cohort(tracer, args, result):
    path = Path(args["path"])
    stat = path.stat()
    key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size)
    if key not in tracer.csv_cache:
        stamps = workloads.cohort_timestamps(path)
        tracer.csv_cache[key] = (workloads.row_count(stamps),
                                 {pid: _occupied_slots(ts) for pid, ts in stamps.items()})
    rows, occupied = tracer.csv_cache[key]
    tracer.counts["data.rows"] += rows
    tracer.occupied.update(occupied)


def _on_resample(tracer, args, result):
    grid = len(result.values)
    tracer.counts["data.grid_slots"] += grid
    occupied = tracer.occupied.get(args["record"].patient_id)
    if occupied is not None:
        tracer.counts["data.imputed_slots"] += grid - occupied


def _on_make_windows(tracer, args, result):
    tracer.counts["data.padded_windows"] += int(result.padded.sum())


def _on_forward(tracer, args, result):
    x = args["x"]
    tracer.counts["nn.forward_windows"] += x.shape[0] if x.ndim == 3 else 1


def _on_adam_step(tracer, args, result):
    tracer.counts["nn.train_steps"] += 1


def _on_score(tracer, args, result):
    x = args["dataset"].X
    tracer.counts["evaluate.windows_scored"] += len(x)
    tracer.distinct_windows.update(hashlib.blake2b(w.tobytes()).digest() for w in x)


def _on_embed(tracer, args, result):
    tracer.counts["tsne.iters"] += args["iters"]


# (defining module, function, span name or namer(args, result), counter hook)
TARGETS = [
    ("vitalnet.data", "load_cohort", "data.load_cohort", _on_load_cohort),
    ("vitalnet.data", "write_cohort", "data.write_cohort", None),
    ("vitalnet.data", "resample", "data.resample", _on_resample),
    ("vitalnet.data", "make_windows", "data.make_windows", _on_make_windows),
    ("vitalnet.data", "split_by_patient", "data.split_by_patient", None),
    ("vitalnet.synth", "generate_cohort", "synth.generate_cohort", None),
    ("vitalnet.synth", "patient_feature_table", "synth.patient_feature_table", None),
    ("vitalnet.stats", "point_biserial", "stats.point_biserial", None),
    ("vitalnet.stats", "confidence_interval", "stats.confidence_interval", None),
    ("vitalnet.stats", "boxplot_stats", "stats.boxplot_stats", None),
    ("vitalnet.svg", "line_chart", "svg.line_chart", None),
    ("vitalnet.svg", "scatter_chart", "svg.scatter_chart", None),
    ("vitalnet.svg", "box_plot", "svg.box_plot", None),
    ("vitalnet.nn.layers", "conv1d_forward", _conv_fwd_name, None),
    ("vitalnet.nn.layers", "conv1d_backward", _conv_bwd_name, None),
    ("vitalnet.nn.layers", "maxpool1d_forward", "nn.pool_fwd", None),
    ("vitalnet.nn.layers", "maxpool1d_backward", "nn.pool_bwd", None),
    ("vitalnet.nn.layers", "lstm_forward", "nn.lstm_fwd", None),
    ("vitalnet.nn.layers", "lstm_backward", "nn.lstm_bwd", None),
    ("vitalnet.nn.layers", "dense_forward", "nn.dense_fwd", None),
    ("vitalnet.nn.layers", "dense_backward", "nn.dense_bwd", None),
    ("vitalnet.nn.model", "forward", "nn.forward", _on_forward),
    ("vitalnet.nn.model", "backward", "nn.backward", None),
    ("vitalnet.nn.model", "loss_and_grads", "nn.loss_and_grads", None),
    ("vitalnet.nn.model", "save_checkpoint", "nn.save_checkpoint", None),
    ("vitalnet.nn.model", "load_checkpoint", "nn.load_checkpoint", None),
    ("vitalnet.nn.train", "train", "nn.train", None),
    ("vitalnet.nn.train", "adam_step", "nn.adam_step", _on_adam_step),
    ("vitalnet.evaluate", "predict", "evaluate.predict", _on_score),
    ("vitalnet.evaluate", "extract_features", "evaluate.extract_features", _on_score),
    ("vitalnet.evaluate", "windows_from_cohort", "evaluate.windows_from_cohort", None),
    ("vitalnet.evaluate", "day_sweep", "evaluate.day_sweep", None),
    ("vitalnet.tsne", "embed", "tsne.embed", _on_embed),
    ("vitalnet.tsne", "joint_affinities", "tsne.joint_affinities", None),
    ("vitalnet.tsne", "kl_gradient", "tsne.kl_gradient", None),
    ("vitalnet.tsne", "kl_divergence", "tsne.kl_divergence", None),
]

# per-layer metric -> (aggregate, span names); "self" subtracts child spans
SPAN_METRICS = {
    "nn.lstm_fwd_s": ("self", ["nn.lstm_fwd"]),
    "nn.lstm_bwd_s": ("self", ["nn.lstm_bwd"]),
    "nn.conv1_fwd_s": ("self", ["nn.conv1_fwd"]),
    "nn.conv1_bwd_s": ("self", ["nn.conv1_bwd"]),
    "nn.conv2_fwd_s": ("self", ["nn.conv2_fwd"]),
    "nn.conv2_bwd_s": ("self", ["nn.conv2_bwd"]),
    "nn.pool_fwd_s": ("self", ["nn.pool_fwd"]),
    "nn.pool_bwd_s": ("self", ["nn.pool_bwd"]),
    "nn.dense_s": ("self", ["nn.dense_fwd", "nn.dense_bwd"]),
    "nn.loss_self_s": ("self", ["nn.loss_and_grads"]),
    "nn.glue_self_s": ("self", ["nn.forward", "nn.backward", "nn.train"]),
    "nn.adam_s": ("self", ["nn.adam_step"]),
    "nn.checkpoint_io_s": ("total", ["nn.save_checkpoint", "nn.load_checkpoint"]),
    "data.load_cohort_s": ("total", ["data.load_cohort"]),
    "data.write_cohort_s": ("total", ["data.write_cohort"]),
    "data.resample_s": ("total", ["data.resample"]),
    "data.make_windows_s": ("total", ["data.make_windows"]),
    "data.split_by_patient_s": ("total", ["data.split_by_patient"]),
    "synth.generate_cohort_s": ("total", ["synth.generate_cohort"]),
    "synth.feature_table_self_s": ("self", ["synth.patient_feature_table"]),
    "evaluate.predict_s": ("total", ["evaluate.predict", "evaluate.extract_features"]),
    "evaluate.day_sweep_self_s": ("self", ["evaluate.day_sweep"]),
    "evaluate.windows_from_cohort_self_s": ("self", ["evaluate.windows_from_cohort"]),
    "tsne.affinities_s": ("total", ["tsne.joint_affinities"]),
    "tsne.kl_gradient_s": ("total", ["tsne.kl_gradient"]),
    "tsne.kl_divergence_s": ("total", ["tsne.kl_divergence"]),
    "tsne.embed_self_s": ("self", ["tsne.embed"]),
    "stats.self_s": ("self", ["stats.point_biserial", "stats.confidence_interval",
                              "stats.boxplot_stats"]),
    "svg.self_s": ("self", ["svg.line_chart", "svg.scatter_chart", "svg.box_plot"]),
    "cli.self_s": ("self", ["cli"]),
}

COUNT_METRICS = [
    "nn.train_steps",
    "nn.forward_windows",
    "data.rows",
    "data.grid_slots",
    "data.imputed_slots",
    "data.padded_windows",
    "evaluate.windows_scored",
    "tsne.iters",
]


class Tracer:
    """Wraps TARGETS while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.excluded: defaultdict[int, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.distinct_windows: set[bytes] = set()
        self.occupied: dict[str, int] = {}
        self.csv_cache: dict[tuple, tuple[int, dict[str, int]]] = {}
        self.hook_s = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, name: str | None = None) -> None:
        self.spans[idx][2] = perf_counter()
        if name is not None:
            self.spans[idx][0] = name
        self._stack.pop()

    def _run_hook(self, hook, args, result) -> None:
        t0 = perf_counter()
        hook(self, args, result)
        spent = perf_counter() - t0
        self.hook_s += spent
        # the enclosing span did not do this work; keep it out of its self time
        if self._stack:
            self.excluded[self._stack[-1]] += spent

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name if isinstance(name, str) else "?")
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            bound = None
            if hook is not None or not isinstance(name, str):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            self.close(idx, None if isinstance(name, str) else name(bound, result))
            if hook is not None:
                self._run_hook(hook, bound, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target the program still has (see missing_targets)."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "vitalnet" or n.startswith("vitalnet.")) and m is not None]
        for module_name, func_name, name, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- aggregation -------------------------------------------------------

    def self_and_total(self) -> tuple[dict[str, float], dict[str, float]]:
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        total, self_ = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_[name] += end - start - child[i] - self.excluded[i]
        return self_, total

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        self_, total = self.self_and_total()
        out = {}
        for metric, (kind, names) in SPAN_METRICS.items():
            table = self_ if kind == "self" else total
            out[metric] = sum(table.get(n, 0.0) for n in names)
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        distinct = len(self.distinct_windows)
        out["evaluate.rescore_ratio"] = (
            self.counts["evaluate.windows_scored"] / distinct if distinct else 0.0
        )
        # share of the subcommands' time spent inside layer spans; counter
        # hooks are excluded from both sides
        cli_s = total.get("cli", 0.0) - self.hook_s
        out["trace.coverage"] = 1.0 - self_.get("cli", 0.0) / cli_s if cli_s > 0 else 0.0
        return out


def missing_targets() -> list[str]:
    """Targets the program no longer defines; their metrics read 0."""
    return [f"{m}.{f}" for m, f, _, _ in TARGETS
            if not hasattr(importlib.import_module(m), f)]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "count" if metric in COUNT_METRICS else "ratio"


PER_LAYER = [*SPAN_METRICS, *COUNT_METRICS, "evaluate.rescore_ratio", "trace.coverage",
             "trace.overhead_s"]
