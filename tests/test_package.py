"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import sbm_miss

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_resolves():
    assert [name for name in sbm_miss.__all__ if not hasattr(sbm_miss, name)] == []
    assert len(set(sbm_miss.__all__)) == len(sbm_miss.__all__)


def test_import_loads_no_heavy_scipy_module():
    # scipy.sparse and scipy.linalg each add 60-100 ms to every start of the
    # package (the CLI's, a worker's); of scipy, only scipy.special is needed
    code = ("import sys, sbm_miss; print(' '.join(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'sparse'], ['scipy', 'linalg'])))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout.split() == []
