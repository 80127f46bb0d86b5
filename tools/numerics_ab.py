"""Compare two vitalnet source trees: the bits of a training step's outputs,
and how long the step takes.

    python3 tools/numerics_ab.py A/src B/src --out ab.json [--rounds 10] [--steps 300]
    python3 tools/numerics_ab.py A/src B/src --out ab.json --quick

Every measurement runs in a fresh interpreter with one tree first on
PYTHONPATH and one BLAS thread (`tests/childproc.run_call`). The JSON holds:

- `gradients`: for each batch size in BATCHES, one `loss_and_grads` of the
  default model (init seed = batch size) on a fixed random batch, run by
  each tree. Per tensor of TENSOR_ORDER and for the probabilities: whether
  the two trees' arrays are equal bit for bit, and their max |a - b| over
  max |a|.
- `step_ms`: the median wall time of a B=32 `loss_and_grads` plus
  `adam_step`, one value per child process, the trees alternating and the
  first tree changing every round; then the median of each tree's values
  and B's median over A's.
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


def time_steps(steps: int) -> float:
    """Child side: the median milliseconds of `steps` B=32 training steps,
    after 10 untimed ones."""
    import time

    from vitalnet.nn import (AdamState, ModelConfig, TrainConfig, Workspace, adam_step,
                             init_params, loss_and_grads)

    params, state, cfg = init_params(ModelConfig(seed=1)), AdamState(), TrainConfig()
    ws = Workspace()
    x, y = _batch(STEP_BATCH)
    times = []
    for step in range(1, steps + 11):
        start = time.perf_counter()
        _, _, grads = loss_and_grads(params, x, y, ws)
        adam_step(params, grads, state, step, cfg, ws)
        times.append(time.perf_counter() - start)
    return statistics.median(times[10:]) * 1e3


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
    times = {"a": [], "b": []}
    for r in range(rounds):
        for side in ("ab" if r % 2 == 0 else "ba"):
            times[side].append(_call("time_steps", src_a if side == "a" else src_b, steps))
    median = {side: statistics.median(values) for side, values in times.items()}
    table = compare(probes[0]["outputs"], probes[1]["outputs"])
    return {
        "trees": {"a": str(src_a), "b": str(src_b)},
        "all_equal": all(cell["equal"] for row in table.values() for cell in row.values()),
        "gradients": table,
        "step_ms": {"batch": STEP_BATCH, "steps_per_child": steps, "per_child": times,
                    "median": median, "ratio_b_over_a": median["b"] / median["a"]},
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
    print(f"all_equal {report['all_equal']}  step_ms {report['step_ms']['median']}  "
          f"ratio {report['step_ms']['ratio_b_over_a']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
