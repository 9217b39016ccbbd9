"""The benchmark harness's self-check, run as a test: every workload at toy
size with span tracing on. It fails when a refactor breaks a function name
or a parameter name that the tracer binds."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_toy_run_with_tracing():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--toy",
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
