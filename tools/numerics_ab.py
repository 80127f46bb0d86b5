"""Compare two vitalnet source trees: the bits of a training step's outputs,
and how long the step takes.

    python3 tools/numerics_ab.py A/src B/src --out ab.json [--rounds 10] [--steps 300]
    python3 tools/numerics_ab.py A/src B/src --out ab.json --quick

Every measurement runs in a fresh interpreter with one BLAS thread
(`tests/childproc.run_call`). The JSON holds:

- `gradients`: for each batch size in BATCHES, one `loss_and_grads` of the
  default model (init seed = batch size) on a fixed random batch, run by
  each tree in its own child, with that tree first on PYTHONPATH. Per
  tensor of TENSOR_ORDER and for the probabilities: whether the two trees'
  arrays are equal bit for bit, and their max |a - b| over max |a|.
- `step_ms`: the wall time of a B=32 `loss_and_grads` plus `adam_step`.
  Each round is one child process that imports each tree's `vitalnet`
  under its own name (`vitalnet_a`, `vitalnet_b`; the package's relative
  imports keep each copy self-contained) and alternates them step by step,
  the first tree changing every step, so that both see the same stretch of
  host speed. Per child, each tree's median step; over all children, the
  median of each tree's values, B's median over A's, the number of
  children in which B's median was the lower, and the share of paired
  steps in which B was faster.
- `environment`: each tree's `vitalnet.cli._environment()` in its child.

`--quick` takes one round of 20 timed steps: enough to check that both trees
run, not to compare their speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS.parent / "tests"))

from childproc import run_call  # noqa: E402

BATCHES = (1, 17, 32, 256)
STEP_BATCH = 32
WINDOW_LEN = 48
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


def _load_nn(src: str, name: str):
    """`vitalnet.nn` of the tree `src`, its package imported under the name
    `name`, so that two trees load side by side."""
    import importlib.util

    package = Path(src) / "vitalnet"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.nn")


def time_steps(src_a: str, src_b: str, steps: int) -> dict[str, list[float]]:
    """Child side: the milliseconds of each of `steps` B=32 training steps per
    tree, after 10 untimed ones, the trees taking turns step by step."""
    import time

    x, y = _batch(STEP_BATCH)
    runs = {}
    for side, src in (("a", src_a), ("b", src_b)):
        nn = _load_nn(src, f"vitalnet_{side}")
        runs[side] = (nn, nn.init_params(nn.ModelConfig(seed=1)), nn.AdamState(),
                      nn.TrainConfig(), nn.Workspace())
    times = {"a": [], "b": []}
    for step in range(1, steps + 11):
        for side in ("ab" if step % 2 else "ba"):
            nn, params, state, cfg, ws = runs[side]
            start = time.perf_counter()
            _, _, grads = nn.loss_and_grads(params, x, y, ws)
            nn.adam_step(params, grads, state, step, cfg, ws)
            if step > 10:
                times[side].append((time.perf_counter() - start) * 1e3)
    return times


def _call(target: str, src: Path, *args):
    run = run_call(f"numerics_ab:{target}", *args, src=src, timeout=600,
                   env={**ONE_THREAD, "PYTHONPATH": str(TOOLS)})
    if run.code != 0:
        raise SystemExit(f"{target} failed in {src}:\n{run.stderr}")
    return run.value


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


def run(src_a: Path, src_b: Path, rounds: int, steps: int) -> dict:
    probes = [_call("probe", src, BATCHES) for src in (src_a, src_b)]
    times, faster, paired = {"a": [], "b": []}, 0, 0
    for _ in range(rounds):
        child = _call("time_steps", src_a, str(src_a), str(src_b), steps)
        for side, values in child.items():
            times[side].append(statistics.median(values))
        faster += sum(b < a for a, b in zip(child["a"], child["b"]))
        paired += len(child["a"])
    median = {side: statistics.median(values) for side, values in times.items()}
    table = compare(probes[0]["outputs"], probes[1]["outputs"])
    return {
        "trees": {"a": str(src_a), "b": str(src_b)},
        "all_equal": all(cell["equal"] for row in table.values() for cell in row.values()),
        "gradients": table,
        "step_ms": {"batch": STEP_BATCH, "steps_per_child": steps, "per_child": times,
                    "median": median, "ratio_b_over_a": median["b"] / median["a"],
                    "b_lower_in_children": sum(b < a for a, b in zip(times["a"], times["b"])),
                    "b_faster_share": faster / paired},
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
    rounds, steps = (1, 20) if args.quick else (args.rounds, args.steps)
    report = run(args.src_a.resolve(), args.src_b.resolve(), rounds, steps)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    timing = report["step_ms"]
    print(f"all_equal {report['all_equal']}  step_ms {timing['median']}  "
          f"ratio {timing['ratio_b_over_a']:.3f}  b lower in {timing['b_lower_in_children']}/"
          f"{len(timing['per_child']['a'])} children, faster in {timing['b_faster_share']:.0%} "
          "of steps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
