"""Shared helpers for the test suite."""

import tracemalloc

import numpy as np

from sbm_miss import PartialAdjacency, SbmParams


def planted_params(q, p_in, p_out, alpha=None, directed=False):
    alpha = np.full(q, 1.0 / q) if alpha is None else np.asarray(alpha, dtype=float)
    pi = np.full((q, q), p_out) + (p_in - p_out) * np.eye(q)
    return SbmParams(alpha=alpha, pi=pi, directed=directed)


def adjacency_from_edges(n, edges, missing=(), directed=False):
    mat = np.zeros((n, n))
    for i, j in edges:
        mat[i, j] = 1.0
        if not directed:
            mat[j, i] = 1.0
    for i, j in missing:
        mat[i, j] = np.nan
        if not directed:
            mat[j, i] = np.nan
    np.fill_diagonal(mat, np.nan)
    return PartialAdjacency(mat, directed=directed)


def random_partial(n, directed, seed):
    """Random network with about a third of its dyads missing."""
    rng = np.random.default_rng(seed)
    mat = (rng.random((n, n)) < 0.4).astype(float)
    missing = rng.random((n, n)) < 0.35
    if not directed:
        mat = np.triu(mat, 1) + np.triu(mat, 1).T
        missing = np.triu(missing, 1) | np.triu(missing, 1).T
    mat[missing] = np.nan
    return PartialAdjacency(mat, directed=directed)


def dyad_values(adj, state):
    """{dyad: value} over the dyads in play: observed ones, plus the missing
    ones at their imputation means when the state carries them."""
    values = {d: adj.entry(*d) for d in adj.dyads() if adj.entry(*d) is not None}
    if state.nu is not None:
        values.update(zip(adj.missing_dyads(), state.nu))
    return values


def elbo_is_monotone(fit, slack=1e-8):
    values = [row.elbo for row in fit.monitoring]
    return all(b >= a - slack for a, b in zip(values, values[1:]))


def peak_floats(fn, n):
    """Peak memory that fn allocates above what is held on entry, in n x n
    float arrays."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - held) / (8.0 * n * n)
