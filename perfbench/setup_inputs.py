"""Benchmark set-up, run in a fresh process so that its time includes the
import of sbm_miss: draw a workload's inputs for one seed and write them.

    python3 perfbench/setup_inputs.py WORKLOAD SEED OUT_DIR [--tiny]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.make_inputs(workloads.get(name, tiny="--tiny" in sys.argv[4:]), seed, out)
