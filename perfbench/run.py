"""vitalnet benchmark: runs one workload through `vitalnet.cli.run` in this
process, checks every output, and prints its metrics.

    python3 perfbench/run.py --workload {cohort,train,analyze} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics, measured untraced; their times are scaled to a fixed host
speed by timing a reference kernel while they run (see hostspeed.py). With
--trace 1 the run alternates untraced and traced passes, checks that both
write byte-identical outputs, and the last line holds the per-layer metrics
of the traced passes.
perfbench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads

BLAS_THREADS = "1"  # fixed before NumPy loads; the reference machine has 2 cores
SETUP_MIN_REPEATS = 3
SETUP_SHARE = 0.15  # set-ups take at least this share of a run's time
MIN_PASSES = 2  # untraced passes, or with --trace 1 traced ones, whatever --seconds says
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    op_s: dict[str, float] = field(default_factory=dict)  # wall time per subcommand
    # less the sampler's time, at the reference host speed; wall time if traced
    op_ref_s: dict[str, float] = field(default_factory=dict)
    sampler_s: float = 0.0  # the sampler's time inside op_s
    stdout: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (op, error)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[list] = field(default_factory=list)  # [name, start, end, parent]

    @property
    def run_s(self) -> float:
        return sum(self.op_ref_s.values())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_identity() -> tuple[str, int]:
    """Digest of every file under src/ and the line count of its .py files."""
    h = hashlib.sha256()
    lines = 0
    files = (p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in sorted(files):
        data = path.read_bytes()
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        if path.suffix == ".py":
            lines += data.count(b"\n")
    return h.hexdigest(), lines


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_sha, src_lines = src_identity()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": src_sha,
        "src_py_lines": src_lines,
        "seed": seed,
    }


# one set-up in a fresh interpreter, sampling the host's speed from its start:
# import the CLI, make the inputs, and print their paths and the sampler's
# figures as the last line
SETUP_CHILD = """
import hostspeed
sampler = hostspeed.Sampler()
sampler.resume()
import json, sys
from pathlib import Path
import workloads
from vitalnet import cli
files = workloads.WORKLOADS[sys.argv[1]].setup(cli, Path(sys.argv[2]), int(sys.argv[3]))
sampler.pause()
print(json.dumps({"files": {name: str(path) for name, path in files.items()},
                  "scale": sampler.scaled_s(1.0),
                  "spent_s": sampler.warmup_s + sampler.spent_s}))
"""


def set_up(name: str, d: Path, seed: int) -> tuple[float, float, dict[str, Path]]:
    """Set the workload up once in a fresh interpreter; returns its wall
    seconds, the same scaled to the reference host speed, and the input
    files. Set-up never runs in this process, so its memory stays out of
    peak_rss_mb."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    d.mkdir(parents=True)
    t0 = perf_counter()
    # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, name, str(d), str(seed)],
                          env=env, capture_output=True, text=True)
    wall_s = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    child = json.loads(proc.stdout.splitlines()[-1])
    scaled_s = (wall_s - child["spent_s"]) * child["scale"]
    return wall_s, scaled_s, {k: Path(v) for k, v in child["files"].items()}


def run_pass(cli, ops, out: Path, sampler=None, tracer=None) -> Pass:
    """One pass of the workload's subcommands. An untraced pass samples the
    host's speed while each subcommand runs; a traced one does not, so that
    the sampler stays out of the layer spans."""
    result = Pass(traced=tracer is not None)
    out.mkdir(parents=True)
    t0 = perf_counter()
    for op in ops:
        stdout, stderr = io.StringIO(), io.StringIO()
        if sampler:
            sampler.resume()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            span = tracer.open("cli") if tracer else None
            try:
                code = cli.run(op.argv)
            except Exception:  # a traceback breaks the CLI's exit contract
                code = "traceback"
                traceback.print_exc()
            finally:
                if tracer:
                    tracer.close(span)
        result.op_s[op.name] = perf_counter() - start
        result.op_ref_s[op.name] = result.op_s[op.name]
        if sampler:
            result.sampler_s += sampler.spent_s
            net_s = result.op_s[op.name] - sampler.spent_s
            sampler.pause()
            result.op_ref_s[op.name] = sampler.scaled_s(net_s)
        result.stdout[op.name] = stdout.getvalue()
        error = None
        if code != 0:
            error = f"exit {code}: {stderr.getvalue().strip()[-500:]}"
        else:
            try:
                error = op.check(out) if op.check else None
                for name in op.outputs:
                    result.digests[name] = sha256(out / name)
            except Exception as exc:  # a missing or malformed output fails the op
                error = f"output check raised {exc!r}"
        if error:
            result.failures.append((op.name, error))
            break
    result.wall_s = perf_counter() - t0
    if tracer:
        result.layers = tracer.metrics()
        result.spans = tracer.spans
    return result


def check_digests(passes: list[Pass], writer: dict[str, str], key: str):
    """Outputs must match across passes, traced or not, and across runs of
    the same workload, seed, src/ and workloads.py (remembered in the work
    directory).
    Returns (pass index, op, error) for each output that differs."""
    problems = []
    first = passes[0].digests
    for i, p in enumerate(passes[1:], start=1):
        for name, digest in p.digests.items():
            if first.get(name, digest) != digest:
                problems.append((i, writer[name], f"{name} differs from pass 0's"))
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    for name, digest in known.get(key, {}).items():
        if first.get(name, digest) != digest:
            problems.append((0, writer[name], f"{name} differs from an earlier run's"))
    if not problems and first:
        known[key] = {**known.get(key, {}), **first}
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)
    return problems


def measure(cli, workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Alternate passes with rounds of set-ups until --seconds is used. Every
    pass uses the first set-up's inputs.

    The host's speed drifts over tens of seconds, so set-ups are spread over
    the whole run rather than bunched before the passes: setup_s and run_s
    then sample the same stretch of time. Each set-up is a (wall, scaled)
    pair of seconds."""
    start = perf_counter()
    *first, inputs = set_up(workload.name, work / "setup", seed)
    setups = [tuple(first)]

    def set_up_again():
        d = work / "setup-again"
        setups.append(set_up(workload.name, d, seed)[:2])
        shutil.rmtree(d)

    sampler = hostspeed.Sampler(workload.kernel)
    passes: list[Pass] = []
    if workload.warmup:
        run_pass(cli, workload.warmup(inputs, work / "warmup", seed), work / "warmup")
    while True:
        traced = trace and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        ops = workload.ops(inputs, out, seed)
        if traced:
            with tracing.Tracer() as tracer:
                p = run_pass(cli, ops, out, tracer=tracer)
        else:
            p = run_pass(cli, ops, out, sampler)
        passes.append(p)
        if p.failures:
            break
        while sum(wall for wall, _ in setups) < SETUP_SHARE * (perf_counter() - start):
            set_up_again()
        if sum(q.traced == trace for q in passes) >= MIN_PASSES:
            # the next pass and the set-ups that follow it
            typical = statistics.median(q.wall_s for q in passes) / (1 - SETUP_SHARE)
            if perf_counter() - start + typical > seconds:
                break
        if len(passes) > 1:
            shutil.rmtree(work / f"pass{len(passes) - 2}")
    while len(setups) < SETUP_MIN_REPEATS:
        set_up_again()
    return {"setups": setups, "inputs": inputs, "passes": passes, "last_out": out}


def summarize(name: str, workload, seed: int, m: dict):
    passes: list[Pass] = m["passes"]
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.op_s) for p in passes)
    writer = {out: op.name for op in workload.ops(m["inputs"], m["last_out"], seed)
              for out in op.outputs}
    failures = {(i, op): error for i, p in enumerate(passes) for op, error in p.failures}
    key = f"{name}:{seed}:{src_identity()[0]}:{sha256(HERE / 'workloads.py')[:16]}"
    for i, op, error in check_digests(passes, writer, key):
        failures.setdefault((i, op), error)
    run_s = statistics.median(p.run_s for p in plain)
    op_s = {op: statistics.median(p.op_ref_s[op] for p in plain if op in p.op_s)
            for op in plain[0].op_s}
    end_to_end = {
        "setup_s": (statistics.median(scaled for _, scaled in m["setups"]), "s"),
        "run_s": (run_s, "s"),
        # set-up ran in child processes, so this is the passes' peak
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    workload_metrics = {}
    if not any(p.failures for p in plain):
        workload_metrics = workload.metrics(m["last_out"], plain[-1].stdout, op_s, run_s)
    workload_metrics["error_rate"] = (len(failures) / attempted, "1")
    layers = {}
    if traced:
        for metric in traced[0].layers:
            layers[metric] = statistics.median(p.layers[metric] for p in traced)
        layers["trace.overhead_s"] = (statistics.median(p.run_s for p in traced)
                                      - statistics.median(sum(p.op_s.values()) - p.sampler_s
                                                          for p in plain))
    return end_to_end, workload_metrics, layers, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vitalnet" / "cli.py").is_file():
        print(f"error: no vitalnet sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from vitalnet import cli

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        m = measure(cli, workload, args.seed, args.seconds, bool(args.trace), work)
        end_to_end, workload_metrics, layers, attempted, failures = summarize(
            args.workload, workload, args.seed, m)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = m["passes"]
    traced = [p for p in passes if p.traced]
    if traced:
        spans = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(traced[-1].spans))
        print(f"spans of the last traced pass: {spans}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}")
    print("set-ups [wall, scaled] " + json.dumps(m["setups"]))
    print("passes " + json.dumps([{"traced": p.traced, "op_s": p.op_s, "op_ref_s": p.op_ref_s}
                                  for p in passes]))
    if args.trace and tracing.missing_targets():
        print("not traced, gone from the program: " + ", ".join(tracing.missing_targets()))
    for (i, op), error in sorted(failures.items()):
        print(f"FAILED pass {i} {op}: {error}")
    for metric, (value, unit) in {**end_to_end, **workload_metrics}.items():
        print(f"  {metric:<24} {value:.6g} {unit}")
    for metric, value in layers.items():
        print(f"  {metric:<36} {value:.6g} {tracing.unit(metric)}")
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: dict(zip(("value", "unit"), end_to_end[k])) for k in END_TO_END}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
