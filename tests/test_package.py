"""The package's public surface, and what starting it costs."""

import os
import subprocess
import sys
from pathlib import Path

import sbm_miss

SRC = Path(__file__).resolve().parent.parent / "src"

# the first calls of a fresh process: every CLI command of a fit and, for every design with and
# without use_cov, estimate_miss_sbm and impute; prints the modules that they load
FIRST_CALLS = """
import sys
from pathlib import Path

import sbm_miss.cli

before = set(sys.modules)
import numpy as np
from sbm_miss import (AVAILABLE_SAMPLINGS, ControlOptions, CovariateSet, Partition, SbmParams,
                      estimate_miss_sbm, impute, observe_network, sample_network)
from sbm_miss.sampling import make_default_design

net, mem, obs, fit, imp = (str(Path(sys.argv[1]) / name) for name in ("net", "mem", "obs", "fit", "imp"))
for argv in (["generate", "--nodes", "30", "--blocks", "2", "--pi-within", "0.6", "--pi-between", "0.1",
              "--out", net, "--out-memberships", mem],
             ["observe", "--input", net, "--sampling", "block-node", "--parameters", "0.8,0.4",
              "--clusters", mem, "--out", obs],
             ["fit", "--input", obs, "--sampling", "block-node", "--blocks", "1:3", "--exploration", "both",
              "--threads", "1", "--out", fit],
             ["impute", "--input", obs, "--fit", fit, "--out", imp]):
    assert sbm_miss.cli.main(argv) == 0, argv
params = SbmParams(alpha=np.full(3, 1 / 3), pi=np.full((3, 3), 0.1) + 0.4 * np.eye(3))
adj, draw = sample_network(params, 24, rng_seed=1)
cov = CovariateSet.from_nodal([np.random.default_rng(2).normal(size=24)])
for tag in AVAILABLE_SAMPLINGS:
    observed = observe_network(adj, make_default_design(tag, 3, cov), clusters=Partition(draw.labels, 3),
                               covariates=cov, rng_seed=3)
    for use_cov in (False, True):
        control = ControlOptions(use_cov=use_cov, workers=1)
        impute(estimate_miss_sbm(observed, [1, 2], tag, covariates=cov, control=control).best_model)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def fresh_process(*argv) -> str:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.stdout


def test_every_public_name_resolves():
    assert [name for name in sbm_miss.__all__ if not hasattr(sbm_miss, name)] == []
    assert len(set(sbm_miss.__all__)) == len(sbm_miss.__all__)


def test_import_loads_no_scipy_and_no_process_pool():
    # scipy.special would take more than half of every start of the package (the CLI's, a
    # worker's); the process pool is imported only when a pool runs
    code = ("import sys, sbm_miss, sbm_miss.cli; print(' '.join(m for m in sys.modules if m == 'scipy' "
            "or m.startswith(('scipy.', 'concurrent.futures.process', 'multiprocessing'))))")
    assert fresh_process("-c", code).split() == []


def test_first_calls_load_no_module(tmp_path):
    # a module loaded on first use counts in the time and memory of the first fit, which is the
    # benchmark's traced peak-memory call.  This also fails when a numpy or Python upgrade makes
    # some call load a helper lazily: then import that module where the package loads (as
    # network.py does numpy.random), rather than loosen this test
    loaded = fresh_process("-c", FIRST_CALLS, str(tmp_path)).split()
    assert loaded == [], f"the first calls loaded {loaded}; import them when the package loads"


def test_a_graphml_fit_runs_on_numpy_alone(tmp_path):
    # networkx and scipy are test oracles only: a None entry in sys.modules makes importing them fail
    path = tmp_path / "g.graphml"
    edges = "".join(f'<edge source="n{i}" target="n{j}"/>' for i in range(8) for j in range(i + 1, 8)
                    if (i < 4) == (j < 4))
    path.write_text('<?xml version="1.0" encoding="UTF-8"?>\n'
                    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
                    f'<graph edgedefault="undirected">{edges}</graph>\n</graphml>\n')
    code = ("import sys; sys.modules['networkx'] = sys.modules['scipy'] = None; import sbm_miss.cli; "
            "sys.exit(sbm_miss.cli.main(sys.argv[1:]))")
    fresh_process("-c", code, "fit", "--input", str(path), "--format", "graphml", "--sampling", "dyad",
                  "--blocks", "1:2", "--out", str(tmp_path / "fit.json"))
    assert (tmp_path / "fit.json").exists()
