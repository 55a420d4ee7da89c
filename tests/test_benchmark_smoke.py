"""The benchmark's smoke mode runs against the current sources.

The benchmark wraps package entry points by name (``perfbench/tracer.py``),
so renaming one of them breaks it; this test makes that show up in the test
suite rather than only when the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
