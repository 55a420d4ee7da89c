"""A fixed reference kernel, timed alternately with the benchmark's calls.

The benchmark runs on shared hosts whose speed swings by 20 % or more within
a minute, so raw wall times of the same call drift from run to run.  The
kernel below does a fixed amount of work of the same kind as a VE sweep: a
Python loop over rows with small numpy products, and n x n elementwise
passes.  It does not use sbm_miss, so no change to the package moves it; a
call's time divided by the kernel's time next to it is the call's cost in
units of the kernel, and most of the host's swing cancels out of that ratio.
"""

from __future__ import annotations

import time

import numpy as np

N, Q, ROUNDS, REPEATS = 300, 3, 12, 2


def kernel() -> np.ndarray:
    rng = np.random.default_rng(20190628)
    adj = (rng.random((N, N)) < 0.2).astype(float)
    tau = rng.dirichlet(np.ones(Q), N)
    log_pi = np.log(rng.random((Q, Q)))
    for _ in range(ROUNDS):
        m = 0.5 * adj + 0.5 * adj.T
        for i in range(N):
            s = log_pi @ (m[i] @ tau)
            s -= s.max()
            e = np.exp(s)
            tau[i] = e / e.sum()
    return tau


def timed() -> float:
    """Wall time of ``REPEATS`` kernel runs, in seconds."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return time.perf_counter() - start
