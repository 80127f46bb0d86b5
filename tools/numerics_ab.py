"""Compare two vitalnet source trees: the bits of a training step's outputs
and of the cohort subcommands' outputs, how long a training step takes, and
how long a cohort load takes.

    python3 tools/numerics_ab.py A/src B/src --out ab.json [--rounds 10] [--steps 300]
    python3 tools/numerics_ab.py A/src B/src --out ab.json --quick

Every measurement runs in a fresh interpreter with one BLAS thread
(`tests/childproc.py`). The JSON holds:

- `gradients`: for each batch size in BATCHES, one `loss_and_grads` of the
  default model (init seed = batch size) on a fixed random batch, run by
  each tree in its own child, with that tree first on PYTHONPATH. Per
  tensor of TENSOR_ORDER and for the probabilities: whether the two trees'
  arrays are equal bit for bit, and their max |a - b| over max |a|.
- `outputs`: per tree and per seed in OUTPUT_SEEDS, the SHA-256 of every
  output of `synth`, `validate`, `stats` and `split` on the benchmark's x4
  cohort (the default config with 4x the patients per bin), each
  subcommand run by `run_cli` with that tree first on PYTHONPATH; and
  whether the two trees' hashes are all equal. Manifests hold timings and
  are not hashed.
- `step_ms`: the wall time of a B=32 `loss_and_grads` plus `adam_step`.
  Each round is one child process that imports each tree's `vitalnet`
  under its own name (`vitalnet_a`, `vitalnet_b`; the package's relative
  imports keep each copy self-contained) and alternates them step by step,
  the first tree changing every step, so that both see the same stretch of
  host speed. Per child, each tree's median step; over all children, the
  median of each tree's values, B's median over A's, the number of
  children in which B's median was the lower, and the share of paired
  steps in which B was faster.
- `load_ms`: the wall time of one `data.load_cohort` of tree A's seed-11
  cohort file from `outputs`, as written and rewritten in each other shape
  of LOAD_SHAPES, with the same statistics per shape. Each of the same
  number of children alternates the trees call by call, as `step_ms`
  alternates steps: LOADS calls per tree of the file as written, then
  SHAPE_LOADS of each other shape. The shape `bad_last_row` times the error
  path: each of its loads must raise the ValidationError that names the
  file's last line.
- `environment`: each tree's `vitalnet.cli._environment()` in its child.
- `all_equal`: whether every gradient, probability and output hash is equal.

`--quick` takes one round of 20 timed steps, 3 timed loads of the file as
written and one of each other shape, and runs the cohort subcommands at
seed 11 only, on the x1 default config, whose cohort is then the one
loaded: enough to check that both trees run and to compare their bytes, not
to compare their speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from functools import partial
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS.parent / "tests"))

from childproc import run_call, run_cli  # noqa: E402

BATCHES = (1, 17, 32, 256)
STEP_BATCH = 32
WINDOW_LEN = 48
OUTPUT_SEEDS = (3, 11)
LOAD_SEED = 11
LOADS = 20
SHAPE_LOADS = 5


def _quote_first_id(text: bytes) -> bytes:
    header, first, rest = text.split(b"\n", 2)
    return b"\n".join([header, b'"' + first.replace(b",", b'",', 1), rest])


def _cr_after_first_row(text: bytes) -> bytes:
    header, first, rest = text.split(b"\n", 2)
    return header + b"\n" + first + b"\r" + rest


def _dbp_at_sbp_in_last_row(text: bytes) -> bytes:
    rest, last = text.rstrip(b"\n").rsplit(b"\n", 1)
    fields = last.split(b",")
    fields[4] = fields[3]  # dbp = sbp breaks the rule dbp < sbp
    return rest + b"\n" + b",".join(fields) + b"\n"


# the file as written, and each shape in which a reader may see it otherwise
LOAD_SHAPES = {
    "as_written": lambda text: text,
    "non_ascii_ids": lambda text: text.replace(b"SYN-", "SYNé-".encode()),
    "crlf": lambda text: text.replace(b"\n", b"\r\n"),
    "offset_stamp": lambda text: text.replace(b"Z,", b"+00:00,", 1),
    "quoted_id": _quote_first_id,  # the first row's
    "lone_cr": _cr_after_first_row,  # a CR, not an LF, ends the first row
    "bad_last_row": _dbp_at_sbp_in_last_row,  # its load must fail, naming that line
}
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _batch(b: int):
    import numpy as np

    rng = np.random.default_rng(b)
    return rng.standard_normal((b, WINDOW_LEN, 3)), (np.arange(b) % 2).astype(float)


def probe(batches) -> dict:
    """Child side: the environment, and per batch size the probabilities and
    the gradients of one step, as plain arrays."""
    from vitalnet.cli import _environment
    from vitalnet.nn import ModelConfig, Workspace, init_params, loss_and_grads
    from vitalnet.nn.model import TENSOR_ORDER

    out = {}
    for b in batches:
        x, y = _batch(b)
        _, probs, grads = loss_and_grads(init_params(ModelConfig(seed=b)), x, y, Workspace())
        out[b] = {"probabilities": probs.copy(), **{n: grads[n].copy() for n in TENSOR_ORDER}}
    return {"environment": _environment(), "outputs": out}


def _load(src: str, name: str, module: str):
    """`vitalnet.<module>` of the tree `src`, its package imported under the
    name `name`, so that two trees load side by side."""
    import importlib
    import importlib.util

    package = Path(src) / "vitalnet"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.{module}")


def _alternate(calls: dict, count: int, warmup: int) -> dict[str, list[float]]:
    """The milliseconds of `count` calls of each side's `calls[side](i)`,
    after `warmup` untimed ones, the sides taking turns call by call and the
    first side changing every call."""
    import time

    times = {"a": [], "b": []}
    for i in range(1, count + warmup + 1):
        for side in ("ab" if i % 2 else "ba"):
            start = time.perf_counter()
            calls[side](i)
            if i > warmup:
                times[side].append((time.perf_counter() - start) * 1e3)
    return times


def time_steps(src_a: str, src_b: str, steps: int) -> dict[str, list[float]]:
    """Child side: the milliseconds of each of `steps` B=32 training steps per
    tree, after 10 untimed ones, the trees taking turns step by step."""
    x, y = _batch(STEP_BATCH)
    calls = {}
    for side, src in (("a", src_a), ("b", src_b)):
        nn = _load(src, f"vitalnet_{side}", "nn")
        params, state, cfg, ws = (nn.init_params(nn.ModelConfig(seed=1)), nn.AdamState(),
                                  nn.TrainConfig(), nn.Workspace())

        def step(i, nn=nn, params=params, state=state, cfg=cfg, ws=ws):
            _, _, grads = nn.loss_and_grads(params, x, y, ws)
            nn.adam_step(params, grads, state, i, cfg, ws)

        calls[side] = step
    return _alternate(calls, steps, 10)


def _load_failing_at(data, path: str, line: int) -> None:
    """A `data.load_cohort(path)` that must raise the ValidationError that
    names line `line`."""
    try:
        data.load_cohort(path)
    except data.ValidationError as exc:
        if not str(exc).startswith(f"line {line}: "):
            raise
    else:
        raise AssertionError(f"{path} loaded without an error")


def time_loads(src_a: str, src_b: str, paths: dict[str, str], loads: int,
               shape_loads: int) -> dict[str, dict[str, list[float]]]:
    """Child side: per shape, the milliseconds of each `load_cohort` of its
    file per tree, the trees taking turns call by call: `loads` calls of
    the file as written after 2 untimed ones, and `shape_loads` of each
    other shape after one untimed one, if it takes more than one."""
    modules = {side: _load(src, f"vitalnet_{side}", "data")
               for side, src in (("a", src_a), ("b", src_b))}
    out = {}
    for shape, path in paths.items():
        load = (partial(_load_failing_at, line=Path(path).read_bytes().count(b"\n"))
                if shape == "bad_last_row" else lambda data, path: data.load_cohort(path))
        calls = {side: lambda i, data=data, path=path, load=load: load(data, path)
                 for side, data in modules.items()}
        count, warmup = (loads, 2) if shape == "as_written" else (shape_loads, shape_loads > 1)
        out[shape] = _alternate(calls, count, int(warmup))
    return out


def write_x4_config(out: str) -> str:
    """Child side: the benchmark's x4 synth config, written into the
    directory `out` by the benchmark's own set-up; its path."""
    sys.path.insert(0, str(TOOLS.parent / "perfbench"))
    from workloads import cohort_setup

    return str(cohort_setup(None, Path(out), 0)["config"])


def _call(target: str, src: Path, *args):
    run = run_call(f"numerics_ab:{target}", *args, src=src, timeout=600,
                   env={**ONE_THREAD, "PYTHONPATH": str(TOOLS)})
    if run.code != 0:
        raise SystemExit(f"{target} failed in {src}:\n{run.stderr}")
    return run.value


def cli_outputs(src: Path, work: Path, config: Path | None, seeds) -> dict:
    """Per seed, the SHA-256 of each output of `synth`, `validate`, `stats`
    and `split`, run by the tree `src` in `work` on the synth config
    `config` (None: the built-in one)."""
    hashes = {}
    for seed in seeds:
        out = work / f"seed{seed}"
        out.mkdir(parents=True)
        cohort, cfg = out / "cohort.csv", ["--config", config] if config else []
        for argv in (["synth", *cfg, "--seed", seed, "--out", cohort],
                     ["validate", "--cohort", cohort, *cfg, "--out", out / "calibration.json"],
                     ["stats", "--cohort", cohort, "--out", out / "stats.csv",
                      "--boxplot-out", out / "boxplot.csv"],
                     ["split", "--cohort", cohort, "--seed", seed,
                      "--train-out", out / "train.csv", "--test-out", out / "test.csv"]):
            run = run_cli(argv, env=ONE_THREAD, src=src, timeout=600)
            if run.code != 0:
                raise SystemExit(f"vitalnet {argv[0]} failed in {src}:\n{run.stderr}")
        hashes[str(seed)] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                             for f in sorted(out.iterdir())
                             if not f.name.endswith(".manifest.json")}
    return hashes


def compare(a: dict, b: dict) -> dict:
    import numpy as np

    table = {}
    for batch, tensors in a.items():
        table[str(batch)] = {}
        for name, want in tensors.items():
            got = b[batch][name]
            scale = float(np.abs(want).max(initial=0.0)) or 1.0
            table[str(batch)][name] = {
                "equal": bool(got.shape == want.shape and np.array_equal(got, want)),
                "max_rel_diff": (float(np.abs(got - want).max(initial=0.0)) / scale
                                 if got.shape == want.shape else None),
            }
    return table


def timing(target: str, src_a: Path, src_b: Path, rounds: int, *args) -> list:
    """What each of `rounds` children of the timing function `target`
    returns."""
    return [_call(target, src_a, str(src_a), str(src_b), *args) for _ in range(rounds)]


def summary(children: list[dict[str, list[float]]]) -> dict:
    """Per child, each tree's median; over all, each tree's median of those,
    B's over A's, the children in which B's was the lower, and B's share of
    faster calls."""
    times, faster, paired = {"a": [], "b": []}, 0, 0
    for child in children:
        for side, values in child.items():
            times[side].append(statistics.median(values))
        faster += sum(b < a for a, b in zip(child["a"], child["b"]))
        paired += len(child["a"])
    median = {side: statistics.median(values) for side, values in times.items()}
    return {"per_child": times, "median": median, "ratio_b_over_a": median["b"] / median["a"],
            "b_lower_in_children": sum(b < a for a, b in zip(times["a"], times["b"])),
            "b_faster_share": faster / paired}


def run(src_a: Path, src_b: Path, rounds: int, steps: int, loads: int, shape_loads: int,
        quick: bool) -> dict:
    probes = [_call("probe", src, BATCHES) for src in (src_a, src_b)]
    table = compare(probes[0]["outputs"], probes[1]["outputs"])
    seeds = (LOAD_SEED,) if quick else OUTPUT_SEEDS
    with tempfile.TemporaryDirectory() as tmp:
        work, config = Path(tmp), None
        if not quick:
            config = Path(_call("write_x4_config", src_a, str(work)))
        hashes = {side: cli_outputs(src, work / side, config, seeds)
                  for side, src in (("a", src_a), ("b", src_b))}
        cohort = work / "a" / f"seed{LOAD_SEED}" / "cohort.csv"
        paths = {}
        for shape, reshape in LOAD_SHAPES.items():
            paths[shape] = str(work / f"{shape}.csv")
            Path(paths[shape]).write_bytes(reshape(cohort.read_bytes()))
        children = timing("time_loads", src_a, src_b, rounds, paths, loads, shape_loads)
    loading = {shape: summary([child[shape] for child in children]) for shape in LOAD_SHAPES}
    stepping = summary(timing("time_steps", src_a, src_b, rounds, steps))
    outputs_equal = hashes["a"] == hashes["b"]
    return {
        "trees": {"a": str(src_a), "b": str(src_b)},
        "all_equal": outputs_equal and all(
            cell["equal"] for row in table.values() for cell in row.values()),
        "gradients": table,
        "outputs": {"config": "x1 default" if quick else "x4", "seeds": list(seeds),
                    "equal": outputs_equal, "sha256": hashes},
        "step_ms": {"batch": STEP_BATCH, "steps_per_child": steps, **stepping},
        "load_ms": {"cohort": f"tree a's seed-{LOAD_SEED} synth output",
                    "loads_per_child": {shape: loads if shape == "as_written" else shape_loads
                                        for shape in LOAD_SHAPES},
                    "shapes": loading},
        "environment": {"a": probes[0]["environment"], "b": probes[1]["environment"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    rounds, steps, loads, shape_loads = ((1, 20, 3, 1) if args.quick else
                                         (args.rounds, args.steps, LOADS, SHAPE_LOADS))
    report = run(args.src_a.resolve(), args.src_b.resolve(), rounds, steps, loads, shape_loads,
                 args.quick)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"all_equal {report['all_equal']}  outputs equal {report['outputs']['equal']}")
    timings = [("step_ms", "steps", report["step_ms"])] + [
        (f"load_ms {shape}", "loads", t) for shape, t in report["load_ms"]["shapes"].items()]
    for name, unit, t in timings:
        print(f"{name} {t['median']}  ratio {t['ratio_b_over_a']:.3f}  b lower in "
              f"{t['b_lower_in_children']}/{len(t['per_child']['a'])} children, faster in "
              f"{t['b_faster_share']:.0%} of {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
