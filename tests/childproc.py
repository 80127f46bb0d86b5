"""Run the vitalnet CLI in a fresh interpreter and report what it cost.

`run_cli(argv)` starts `python -m vitalnet *argv` with a `src` tree (this
checkout's by default) first on PYTHONPATH, extra environment variables and
an optional address-space limit, waits for it, and returns its exit code,
stdout and stderr with the child's own resource usage: minor page faults,
peak resident set size and wall time. A fresh process starts with a fresh
heap, so these numbers do not depend on what the test process ran before.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
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


def run_cli(argv, env: dict[str, str] | None = None, rlimit_as: int | None = None,
            timeout: float = 300.0, src: Path = SRC) -> ChildResult:
    """Run the CLI on `argv` in a child process; `rlimit_as` caps its address
    space in bytes. Raises TimeoutError, after killing the child, if it runs
    longer than `timeout` seconds."""
    child_env = {**os.environ, **(env or {})}
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), child_env.get("PYTHONPATH")) if p)

    def limit():
        if rlimit_as is not None:
            resource.setrlimit(resource.RLIMIT_AS, (rlimit_as, rlimit_as))

    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "vitalnet", *map(str, argv)],
                                env=child_env, stdout=out, stderr=err, preexec_fn=limit)
        # os.wait4, not proc.wait, so that the child's rusage is read
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise TimeoutError(f"vitalnet {' '.join(map(str, argv))} ran over {timeout} s")
            time.sleep(0.005)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read().decode(), err.read().decode(),
                           usage.ru_minflt, usage.ru_maxrss, seconds)
