"""The benchmark's own tests: run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from vitalnet import cli  # noqa: E402
from vitalnet.errors import ValidationError  # noqa: E402
from vitalnet.synth import default_config  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_pipeline(d: Path) -> None:
    """Every traced layer on a cohort of 8 patients, in seconds."""
    config = default_config().to_dict()
    for group in config["groups"]:
        group["patients_per_bin"] = [1] * len(group["patients_per_bin"])
    (d / "synth.json").write_text(json.dumps(config))
    steps = [
        ["synth", "--config", f"{d}/synth.json", "--seed", "3", "--out", f"{d}/cohort.csv"],
        ["validate", "--cohort", f"{d}/cohort.csv", "--config", f"{d}/synth.json",
         "--out", f"{d}/calibration.json"],
        ["stats", "--cohort", f"{d}/cohort.csv", "--out", f"{d}/stats.csv",
         "--boxplot-out", f"{d}/boxplot.csv"],
        ["split", "--cohort", f"{d}/cohort.csv", "--seed", "3",
         "--train-out", f"{d}/train.csv", "--test-out", f"{d}/test.csv"],
        ["train", "--train", f"{d}/train.csv", "--set-train", "epochs=1",
         "--out", f"{d}/model.json"],
        ["eval", "--model", f"{d}/model.json", "--test", f"{d}/test.csv",
         "--out", f"{d}/eval.json"],
        ["sweep", "--model", f"{d}/model.json", "--test", f"{d}/test.csv",
         "--days", "2,4", "--out", f"{d}/sweep.csv"],
        ["embed", "--model", f"{d}/model.json", "--data", f"{d}/cohort.csv",
         "--perplexity", "5", "--iters", "20", "--out", f"{d}/embedding.csv"],
        ["plot", "--kind", "sweep", "--in", f"{d}/sweep.csv", "--out", f"{d}/sweep.svg"],
        ["plot", "--kind", "embedding", "--in", f"{d}/embedding.csv",
         "--out", f"{d}/embedding.svg"],
        ["plot", "--kind", "boxplot", "--in", f"{d}/boxplot.csv", "--out", f"{d}/boxplot.svg"],
    ]
    for argv in steps:
        assert cli.run(argv) == 0, argv


def _digests(d: Path) -> dict[str, str]:
    return {p.name: run.sha256(p) for p in sorted(d.iterdir())
            if not p.name.endswith(".manifest.json")}


def _vitalnet_bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "vitalnet" or name.startswith("vitalnet.")
            for attr, value in vars(module).items() if callable(value)}


def test_metric_names_use_the_allowed_characters():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_what_the_run_prints():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_traced_run_matches_untraced_and_restores_every_function(tmp_path):
    before = _vitalnet_bindings()
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    _small_pipeline(plain)
    with tracing.Tracer() as tracer:
        assert tracer._patches, "nothing was wrapped"
        _small_pipeline(traced)
    assert _vitalnet_bindings() == before
    assert _digests(plain) == _digests(traced)
    names = {span[0] for span in tracer.spans}
    missing = {t[2] for t in tracing.TARGETS if isinstance(t[2], str)} - names
    assert not missing, f"targets never traced: {missing}"
    assert {"nn.conv1_fwd", "nn.conv2_fwd", "nn.conv1_bwd", "nn.conv2_bwd"} <= names
    metrics = tracer.metrics()
    assert metrics["nn.train_steps"] > 0 and metrics["tsne.iters"] == 20
    assert metrics["data.grid_slots"] > 0 and metrics["evaluate.windows_scored"] > 0


def test_tracer_restores_functions_when_the_program_raises(tmp_path):
    before = _vitalnet_bindings()
    with pytest.raises(ValidationError), tracing.Tracer() as tracer:
        cli.load_cohort(tmp_path / "missing.csv")
    assert _vitalnet_bindings() == before
    assert [span[0] for span in tracer.spans] == ["data.load_cohort"]
    assert tracer.spans[0][2] is not None


@pytest.mark.parametrize("kernel", list(hostspeed.REF_KERNEL_S))
def test_sampler_restores_the_alarm_handler_and_scales_by_the_kernel(kernel):
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(kernel)
    sampler.resume()
    sum(i * i for i in range(200_000))
    sampler.pause()
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.samples and sampler.spent_s >= sum(sampler.samples) > 0
    kernel_s = sum(sampler.samples) / len(sampler.samples)
    assert sampler.scaled_s(2.0) == pytest.approx(2.0 * hostspeed.REF_KERNEL_S[kernel] / kernel_s)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


# a traced run makes at least two traced passes; traced train would take minutes
@pytest.mark.parametrize("workload,trace", [("cohort", "1"), ("train", "0"), ("analyze", "1")])
def test_smoke_run(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stdout
    key = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[key]]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "cohort", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
