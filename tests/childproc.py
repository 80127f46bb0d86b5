"""Run the vitalnet CLI, or one library call, in a fresh interpreter and
report what it cost.

`run_cli(argv)` starts `python -m vitalnet *argv`, and `run_call(target,
*args)` calls the function `target` names on `args` and returns its value.
Either runs with a `src` tree (this checkout's by default) first on
PYTHONPATH, extra environment variables (None unsets one) and an optional
address-space limit, waits for the child, and returns its exit code, stdout
and stderr with the child's own resource usage: minor page faults, peak
resident set size and wall time. A fresh process starts with a fresh heap and
picks its SIMD and BLAS kernels anew, so these results do not depend on what
the test process ran or set before.
"""

from __future__ import annotations

import os
import pickle
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


@dataclass(frozen=True)
class ChildResult:
    code: int
    stdout: str
    stderr: str
    minor_faults: int  # ru_minflt
    maxrss_kb: int  # ru_maxrss, KiB on Linux
    seconds: float
    value: object = None  # run_call's return value; None when the call failed


# the child's side of run_call: argv[1] holds the pickled (target, args), and
# the return value is pickled to argv[2]
_CALL = """
import importlib, pickle, sys
with open(sys.argv[1], "rb") as fh:
    target, args = pickle.load(fh)
module, name = target.split(":")
value = getattr(importlib.import_module(module), name)(*args)
with open(sys.argv[2], "wb") as fh:
    pickle.dump(value, fh)
"""


def run_cli(argv, env: dict[str, str | None] | None = None, rlimit_as: int | None = None,
            timeout: float = 300.0, src: Path = SRC) -> ChildResult:
    """Run the CLI on `argv` in a child process; `rlimit_as` caps its address
    space in bytes. Raises TimeoutError, after killing the child, if it runs
    longer than `timeout` seconds."""
    argv = list(map(str, argv))
    return _run(["-m", "vitalnet", *argv], f"vitalnet {' '.join(argv)}", env, rlimit_as,
                timeout, src)


def run_call(target: str, *args, env: dict[str, str | None] | None = None,
             rlimit_as: int | None = None, timeout: float = 300.0,
             src: Path = SRC) -> ChildResult:
    """Call the function `target` ("package.module:function") on `args` in a
    child process, as `run_cli` runs the CLI. The arguments and the return
    value cross as pickles; the value is the result's `value`."""
    with tempfile.TemporaryDirectory() as tmp:
        call, value = Path(tmp) / "call.pickle", Path(tmp) / "value.pickle"
        call.write_bytes(pickle.dumps((target, args)))
        result = _run(["-c", _CALL, str(call), str(value)], target, env, rlimit_as, timeout,
                      src)
        if result.code != 0:
            return result
        # the child this function started wrote it
        return replace(result, value=pickle.loads(value.read_bytes()))


def _run(args: list[str], what: str, env, rlimit_as, timeout, src) -> ChildResult:
    child_env = {k: v for k, v in {**os.environ, **(env or {})}.items() if v is not None}
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), child_env.get("PYTHONPATH")) if p)

    def limit():
        if rlimit_as is not None:
            resource.setrlimit(resource.RLIMIT_AS, (rlimit_as, rlimit_as))

    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=child_env, stdout=out,
                                stderr=err, preexec_fn=limit)
        # os.wait4, not proc.wait, so that the child's rusage is read
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise TimeoutError(f"{what} ran over {timeout} s")
            time.sleep(0.005)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read().decode(), err.read().decode(),
                           usage.ru_minflt, usage.ru_maxrss, seconds)
