"""The benchmark's tracer binds vitalnet functions by name, parameter name and
return shape (see perfbench/tracing.py). Its own tests live under perfbench/;
this runs the three that check those bindings, so that renaming a traced
function or one of the arguments it reads fails here too.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_binds_every_target():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/test_perfbench.py", "-k", "traced_run or restores_functions or lists_what"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 passed" in proc.stdout, proc.stdout
