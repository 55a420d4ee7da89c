"""Evaluation utilities: partition agreement, imputation quality, sweeps.

The sweep helpers reproduce the two study protocols used to validate the
estimation on simulated data: imputation AUC against the observation rate,
and ICL comparison across candidate sampling designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .network import CovariateSet, PartialAdjacency, Partition, as_rng
from .sampling import SamplingDesign, design_spec, make_default_design, observe_network
from .sbm import SbmParams, sample_network
from .vem import ControlOptions, derive_seed, estimate_miss_sbm, fan_out, fit_single, impute

# the designs whose psi the AUC sweep draws: one-rate, edge-value or block strata
SWEEP_DESIGNS = ("dyad", "double-standard", "node", "block-node")


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index between two partitions (any hashable labels)."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.size != b.size:
        raise InputError(f"partitions differ in length: {a.size} vs {b.size}")
    if a.size < 2:
        raise InputError("ARI needs at least two nodes")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    contingency = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(contingency, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(contingency).sum()
    sum_rows = comb2(contingency.sum(axis=1)).sum()
    sum_cols = comb2(contingency.sum(axis=0)).sum()
    total = comb2(a.size)
    expected = sum_rows * sum_cols / total
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0 if sum_cells == expected else 0.0
    return float((sum_cells - expected) / (maximum - expected))


def auc(truth, scores) -> float:
    """Probability a random positive outscores a random negative (ties count half)."""
    y = np.asarray(truth, dtype=float).ravel()
    s = np.asarray(scores, dtype=float).ravel()
    if y.size != s.size:
        raise InputError(f"truth and scores differ in length: {y.size} vs {s.size}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise InputError("truth must be binary")
    if np.isnan(s).any():
        raise InputError("scores must not be NaN")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InputError("AUC needs both classes present")
    _, where, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = ((ends - counts + 1 + ends) / 2.0)[where]
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class ExperimentSpec:
    """A seeded sweep: planted generator, design, rate range, replicates.

    ``rate_range = (lo, hi)`` bounds the expected observed-dyad rate of every
    replicate's design (see ``_draw_sweep_design``); ``lo = hi`` pins it, and
    rates of exactly 0 and 1 are allowed.  The realized rate of a replicate is
    a random draw of the observation mask and can stray from the range.
    """

    params: SbmParams
    n_nodes: int
    design: str = "block-node"
    rate_range: tuple[float, float] = (0.4, 0.9)
    fit_blocks: int = 3
    replicates: int = 100
    base_seed: int = 0
    workers: int = 1
    control: ControlOptions = field(default_factory=ControlOptions)

    def __post_init__(self):
        if self.replicates < 1:
            raise InputError("replicate count must be >= 1")
        lo, hi = self.rate_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise InputError("rate range must satisfy 0 <= lo <= hi <= 1")


def _draw_sweep_design(spec: ExperimentSpec, q: int, rng) -> SamplingDesign:
    """Random psi whose expected observed-dyad rates lie inside the spec range.

    Dyad-centered designs draw their rates in ``[lo, hi]`` directly.
    Node-centered designs draw node rates in ``[v_lo, v_hi]``, the interval
    whose dyad rates ``1 - (1 - v)^2`` span ``[lo, hi]``; block strata jitter a
    per-replicate base rate by block and clips each block's rate back into
    that interval, so every dyad's observation probability
    ``1 - (1 - psi_a)(1 - psi_b)`` lies in ``[lo, hi]``.  A range narrower
    than the jitter piles block rates up at the interval ends.  Rates of
    exactly 0 and 1 are allowed; the realized rate is still a random draw of
    the mask and can stray from the range.
    """
    lo, hi = spec.rate_range
    tag = spec.design
    if tag not in SWEEP_DESIGNS:
        raise InputError(f"sweep does not support the {tag!r} design")
    design = design_spec(tag)
    if design.centering == "node-centered":
        # a dyad is observed unless both ends are missed, so a node rate v
        # yields a dyad rate 1 - (1 - v)^2
        lo = 1.0 - np.sqrt(1.0 - lo)
        hi = 1.0 - np.sqrt(1.0 - hi)
    if design.psi == "block":
        # one base rate per replicate spreads the realized rates over the
        # requested range; per-block jitter keeps the design heterogeneous
        base = rng.uniform(lo, hi)
        psi = np.clip(base + rng.uniform(-0.2, 0.2, size=q), lo, hi)
        return SamplingDesign(tag, psi)
    # one rate, or the two edge-value rates
    return SamplingDesign(tag, rng.uniform(lo, hi, size=make_default_design(tag, q).psi.shape))


def _sweep_replicate(args):
    spec, replicate, adj, memberships = args
    rng = as_rng(derive_seed(spec.base_seed, 1, replicate))
    design = _draw_sweep_design(spec, spec.params.q, rng)
    observed = observe_network(
        adj, design,
        clusters=Partition(labels=memberships, q=spec.params.q),
        rng_seed=derive_seed(spec.base_seed, 2, replicate),
    )
    rate = observed.n_observed / observed.n_dyads
    row = {"replicate": replicate, "rate": float(rate), "auc": None, "flag": ""}
    mi, mj = observed.missing_pairs
    if mi.size == 0:
        row["flag"] = "no-missing-dyads"
        return row
    if observed.n_observed == 0:
        row["flag"] = "no-observed-dyads"
        return row
    truth = adj.matrix[mi, mj]
    if truth.min() == truth.max():
        row["flag"] = "single-class-truth"
        return row
    control = ControlOptions(**{**spec.control.__dict__, "rng_seed": int(spec.base_seed + 100003 * replicate)})
    fit = fit_single(observed, spec.fit_blocks, spec.design, control=control)
    scores = impute(fit)[mi, mj]
    row["auc"] = auc(truth, scores)
    return row


def run_auc_sweep(spec: ExperimentSpec) -> list[dict]:
    """Observe / fit / impute replicates; returns rows (replicate, rate, auc, flag).

    The planted network is drawn once from the spec generator; each replicate
    redraws the design parameters and the observation mask.  Replicates with
    nothing to impute or nothing observed are kept as flagged rows without an
    AUC.
    """
    adj, draw = sample_network(spec.params, spec.n_nodes,
                               rng_seed=derive_seed(spec.base_seed, 0))
    tasks = [(spec, r, adj, draw.labels) for r in range(spec.replicates)]
    return fan_out(_sweep_replicate, tasks, spec.workers)


def compare_designs(adj: PartialAdjacency, designs: Sequence[str],
                    v_blocks: Sequence[int],
                    control: Optional[ControlOptions] = None,
                    covariates: Optional[CovariateSet] = None) -> list[dict]:
    """ICL table over candidate sampling designs (long format: design, Q, ICL).

    A design that fails to fit (``InputError`` or ``NumericalError``)
    contributes a single row with missing values instead of aborting the
    comparison; any other exception, a bug, propagates.
    """
    control = control or ControlOptions()
    rows = []
    for tag in designs:
        try:
            collection = estimate_miss_sbm(adj, v_blocks, tag,
                                           covariates=covariates, control=control)
        except (InputError, NumericalError) as exc:
            rows.append({"design": tag, "Q": None, "ICL": None, "error": str(exc)})
            continue
        for fit in collection.models:
            rows.append({"design": tag, "Q": fit.q, "ICL": float(fit.icl), "error": ""})
    return rows
