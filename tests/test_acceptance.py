"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either computed by an independent oracle inside the
test or pinned from a stated tolerance.  Runtime-bounded criteria assert
their wall-clock budget.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import sbm_miss as sm
from sbm_miss import (
    ControlOptions,
    CovariateSet,
    ExperimentSpec,
    Partition,
    SamplingDesign,
    ari,
    auc,
    estimate_miss_sbm,
    fit_single,
    impute,
    observe_network,
    run_auc_sweep,
    sample_network,
    spectral_init,
)
from sbm_miss.vem import _Engine

from util import planted_params


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _random_design(tag, rng, q_true, labels, x):
    if tag == "dyad":
        return SamplingDesign(tag, rng.uniform(0.5, 0.9))
    if tag == "node":
        return SamplingDesign(tag, rng.uniform(0.5, 0.9))
    if tag == "double-standard":
        return SamplingDesign(tag, [rng.uniform(0.7, 0.95), rng.uniform(0.4, 0.7)])
    if tag == "block-dyad":
        psi = rng.uniform(0.4, 0.95, size=(q_true, q_true))
        return SamplingDesign(tag, 0.5 * (psi + psi.T))
    if tag == "block-node":
        return SamplingDesign(tag, rng.uniform(0.4, 0.95, size=q_true))
    if tag == "covar-dyad":
        return SamplingDesign(tag, [rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0)])
    if tag == "covar-node":
        return SamplingDesign(tag, [rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)])
    if tag == "degree":
        return SamplingDesign(tag, [rng.uniform(-1.0, 0.0), rng.uniform(0.05, 0.25)])
    return SamplingDesign(tag, rng.uniform(0.2, 0.5), waves=int(rng.integers(1, 3)))


def test_elbo_monotonicity_across_designs():
    """200 randomized fits over all nine designs: every VE+M cycle ascends."""
    start = time.time()
    designs = list(sm.AVAILABLE_SAMPLINGS)
    worst = math.inf
    for rep in range(200):
        rng = np.random.default_rng(rep)
        tag = designs[rep % len(designs)]
        q_true = int(rng.integers(1, 4))
        p_in = rng.uniform(0.3, 0.7)
        p_out = rng.uniform(0.02, 0.15)
        params = planted_params(q_true, p_in, p_out)
        adj, draw = sample_network(params, 60, rng_seed=10_000 + rep)
        x = (np.arange(60) % 2).astype(float)
        cov = CovariateSet.from_nodal([x]) if tag.startswith("covar") else None
        design = _random_design(tag, rng, q_true, draw.labels, x)
        observed = observe_network(adj, design,
                                   clusters=Partition.from_labels(draw.labels, q_true),
                                   covariates=cov, rng_seed=20_000 + rep)
        q_fit = rep % 3 + 1
        fit = fit_single(observed, q_fit, tag, covariates=cov,
                         control=ControlOptions(rng_seed=rep))
        values = [row.elbo for row in fit.monitoring]
        worst = min(worst, min((b - a for a, b in zip(values, values[1:])), default=0.0))
    elapsed = time.time() - start
    report("elbo-monotonicity",
           worst >= -1e-8 and elapsed < 120,
           f"(worst cycle change {worst:.3e}, {elapsed:.1f}s over 200 fits)")


def _exact_logp_double_standard(adj, params, rho1, rho0):
    """Full enumeration of log p(Y^o, R): all memberships x all completions.

    Probabilities are clamped exactly as inside the estimation objective, so
    the bound is evaluated against the same (clamped) model.
    """
    n = adj.n
    q = params.q
    clamp = lambda p: np.clip(p, 1e-12, 1.0 - 1e-12)
    log_alpha = np.log(clamp(params.alpha))
    pi = clamp(params.pi)
    rho1, rho0 = float(clamp(rho1)), float(clamp(rho0))
    obs = [(i, j, adj.entry(i, j)) for i, j in adj.dyads() if adj.entry(i, j) is not None]
    miss = adj.missing_dyads()
    z_grid = np.array(list(itertools.product(range(q), repeat=n)), dtype=int)
    base = log_alpha[z_grid].sum(axis=1)
    for i, j, y in obs:
        p = pi[z_grid[:, i], z_grid[:, j]]
        base += np.log(p) if y else np.log1p(-p)
        base += math.log(rho1 if y else rho0)
    if not miss:
        return float(logsumexp(base))
    edge_terms = np.empty((z_grid.shape[0], len(miss)))
    non_terms = np.empty_like(edge_terms)
    for k, (i, j) in enumerate(miss):
        p = pi[z_grid[:, i], z_grid[:, j]]
        edge_terms[:, k] = np.log(p) + math.log(1.0 - rho1)
        non_terms[:, k] = np.log1p(-p) + math.log(1.0 - rho0)
    patterns = np.array(list(itertools.product((0, 1), repeat=len(miss))), dtype=float)
    combos = base[:, None] + edge_terms @ patterns.T + non_terms @ (1.0 - patterns).T
    return float(logsumexp(combos))


def test_enumeration_oracle_bounds_elbo():
    """Converged ELBO below the exact evidence; small gap on most instances."""
    start = time.time()
    bound_ok = 0
    tight = 0
    total = 0
    rep = 0
    while total < 50:
        rep += 1
        rng = np.random.default_rng(rep)
        n = int(rng.integers(6, 9))
        p_in = rng.uniform(0.6, 0.85)
        p_out = rng.uniform(0.15, 0.4)
        params = planted_params(2, p_in, p_out)
        adj, _ = sample_network(params, n, rng_seed=30_000 + rep)
        design = SamplingDesign("double-standard", [rng.uniform(0.8, 0.95), rng.uniform(0.65, 0.85)])
        observed = observe_network(adj, design, rng_seed=40_000 + rep)
        if not 1 <= observed.n_missing <= 6:
            continue
        total += 1
        fit = fit_single(observed, 2, "double-standard",
                         control=ControlOptions(rng_seed=rep, threshold=1e-6, max_iter=300))
        exact = _exact_logp_double_standard(observed, fit.params,
                                            fit.design.psi[0], fit.design.psi[1])
        if fit.elbo <= exact + 1e-9:
            bound_ok += 1
        if exact - fit.elbo < 0.05 * abs(exact):
            tight += 1
    elapsed = time.time() - start
    report("enumeration-oracle",
           bound_ok == 50 and tight >= 40 and elapsed < 60,
           f"(bound {bound_ok}/50, gap<5% on {tight}/50, {elapsed:.1f}s)")


def test_bayes_posterior_exactness():
    """Q=1 double-standard imputation equals the closed-form posterior."""
    params = planted_params(1, 0.45, 0.45)
    adj, _ = sample_network(params, 40, rng_seed=7)
    observed = observe_network(adj, SamplingDesign("double-standard", [0.8, 0.3]), rng_seed=8)
    fit = fit_single(observed, 1, "double-standard",
                     control=ControlOptions(rng_seed=9, threshold=1e-12, max_iter=2000))
    pi = fit.params.pi[0, 0]
    rho1, rho0 = fit.design.psi
    posterior = pi * (1 - rho1) / (pi * (1 - rho1) + (1 - pi) * (1 - rho0))
    stored_gap = float(np.max(np.abs(fit.state.nu - posterior)))
    refreshed = _Engine(observed, "double-standard", None, False).ve_step(fit.params, fit.design, fit.state, 1)
    refreshed_gap = float(np.max(np.abs(refreshed.nu - posterior)))
    report("bayes-posterior-exactness",
           stored_gap < 1e-10 and refreshed_gap < 1e-14,
           f"(fixed point gap {stored_gap:.2e}, one-step gap {refreshed_gap:.2e})")


def test_mnar_parameter_recovery():
    """Double-standard rates and memberships recovered on planted model."""
    start = time.time()
    params = planted_params(3, 0.35, 0.05)
    rho = np.array([0.9, 0.4])
    errors, aris = [], []
    for seed in range(20):
        adj, draw = sample_network(params, 300, rng_seed=50_000 + seed)
        observed = observe_network(adj, SamplingDesign("double-standard", rho),
                                   rng_seed=60_000 + seed)
        fit = fit_single(observed, 3, "double-standard", control=ControlOptions(rng_seed=seed))
        errors.append(np.abs(fit.design.psi - rho).mean())
        aris.append(ari(fit.memberships, draw.labels))
    elapsed = time.time() - start
    report("mnar-parameter-recovery",
           np.mean(errors) < 0.05 and np.mean(aris) >= 0.9 and elapsed < 300,
           f"(mean |rho err| {np.mean(errors):.4f}, mean ARI {np.mean(aris):.3f}, {elapsed:.0f}s)")


def test_mar_bias_freedom():
    """Proposition 1: the sampling factor leaves theta-hat unchanged under MAR."""
    params = planted_params(3, 0.35, 0.05)
    worst = 0.0
    for seed in range(3):
        adj, _ = sample_network(params, 300, rng_seed=70_000 + seed)
        observed = observe_network(adj, SamplingDesign("node", 0.7), rng_seed=80_000 + seed)
        init = spectral_init(observed, 3, rng_seed=seed)
        aware = fit_single(observed, 3, "node", init=init, control=ControlOptions(rng_seed=seed))
        bare = fit_single(observed, 3, None, init=init, control=ControlOptions(rng_seed=seed))
        worst = max(worst,
                    float(np.max(np.abs(aware.params.pi - bare.params.pi))),
                    float(np.max(np.abs(aware.params.alpha - bare.params.alpha))))
    report("mar-bias-freedom", worst < 1e-6, f"(max theta difference {worst:.2e})")


def test_icl_selection():
    """Argmin-ICL recovers the planted block count, fully observed and MNAR."""
    start = time.time()
    params = planted_params(3, 0.35, 0.05)
    hits_full = 0
    hits_mnar = 0
    for seed in range(50):
        adj, draw = sample_network(params, 90, rng_seed=90_000 + seed)
        coll = estimate_miss_sbm(adj, [1, 2, 3, 4, 5, 6], "node",
                                 control=ControlOptions(rng_seed=seed))
        hits_full += coll.best_model.q == 3

        rng = np.random.default_rng(seed)
        psi = rng.uniform(0.72, 0.95, size=3)
        observed = observe_network(adj, SamplingDesign("block-node", psi),
                                   clusters=Partition.from_labels(draw.labels, 3),
                                   rng_seed=95_000 + seed)
        coll = estimate_miss_sbm(observed, [1, 2, 3, 4, 5, 6], "block-node",
                                 control=ControlOptions(rng_seed=1_000_000 + seed))
        hits_mnar += coll.best_model.q in (2, 3)
    elapsed = time.time() - start
    report("icl-selection",
           hits_full >= 40 and hits_mnar >= 40,
           f"(fully observed {hits_full}/50, block-node MNAR {hits_mnar}/50, {elapsed:.0f}s)")


def test_imputation_auc_sweep():
    """AUC of imputed dyads rises with the observation rate and is high at mild rates."""
    start = time.time()
    spec = ExperimentSpec(
        params=planted_params(3, 0.5, 0.02),
        n_nodes=102,
        design="block-node",
        rate_range=(0.4, 0.9),
        fit_blocks=3,
        replicates=100,
        base_seed=2024,
        control=ControlOptions(rng_seed=2024, exploration="none"),
    )
    rows = run_auc_sweep(spec)
    scored = [(r["rate"], r["auc"]) for r in rows if r["auc"] is not None]
    rates = np.array([r for r, _ in scored])
    aucs = np.array([a for _, a in scored])
    slope = np.polyfit(rates, aucs, 1)[0]
    high = aucs[rates >= 0.6]
    elapsed = time.time() - start
    report("imputation-auc-sweep",
           slope > 0 and high.mean() > 0.8 and elapsed < 600,
           f"(slope {slope:.3f}, mean AUC at rate>=0.6 {high.mean():.3f} on {high.size} reps, {elapsed:.0f}s)")


def test_covariate_scenarios():
    """Covar-node generation: slope sign, exact node-rate estimate, ICL preference."""
    start = time.time()
    sign_ok = 0
    icl_ok = 0
    psi_exact = True
    for seed in range(20):
        # x from its own child seed: sample_network(rng_seed=seed) below
        # starts from the same seed and would draw labels equal to x
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        n = 100
        x = (rng.random(n) < 0.5).astype(float)
        cov = CovariateSet.from_nodal([x])
        gamma = np.array([[0.4, -1.4], [-1.4, 0.4]])
        params = sm.SbmParams(alpha=np.array([0.5, 0.5]), gamma=gamma, beta=np.array([3.0]))
        adj, _ = sample_network(params, n, covariates=cov, rng_seed=seed)
        observed = observe_network(adj, SamplingDesign("covar-node", [0.0, 10.0]),
                                   covariates=cov, rng_seed=seed + 31)
        fits = {}
        for name, tag, use_cov in [("i", "covar-node", True), ("ii", "covar-node", False),
                                   ("iii", "node", True), ("iv", "node", False)]:
            coll = estimate_miss_sbm(observed, [2], tag, covariates=cov,
                                     control=ControlOptions(rng_seed=900 + seed,
                                                            use_cov=use_cov, exploration="none"))
            fits[name] = coll.best_model
        sign_ok += fits["i"].design.psi[1] > 0 and fits["ii"].design.psi[1] > 0
        icl_ok += fits["i"].icl < fits["iii"].icl and fits["ii"].icl < fits["iv"].icl
        v = observed.observed_nodes
        empirical = v.sum() / n
        psi_exact &= float(fits["iii"].design.psi) == empirical
        psi_exact &= float(fits["iv"].design.psi) == empirical
    elapsed = time.time() - start
    report("covariate-scenarios",
           sign_ok >= 19 and psi_exact and icl_ok >= 16,
           f"(slope sign {sign_ok}/20, node psi exact: {psi_exact}, ICL prefers covar-node {icl_ok}/20, {elapsed:.0f}s)")


def test_design_aware_clustering_advantage():
    """Modeling the block-node observation process yields clusterings closer
    to the full-data reference than ignoring it.

    The planted small block is a satellite of a large one: it connects into
    that block at the block's own within rate while staying sparse elsewhere,
    so once its members are mostly unobserved their dyad profiles no longer
    separate them and the observation pattern carries the missing signal.
    """
    start = time.time()
    pin, pout = 0.25, 0.03
    pi = np.array([[pin, pin, pout],
                   [pin, pout, pout],
                   [pout, pout, pin]])
    alpha = np.array([0.43, 0.14, 0.43])
    params = sm.SbmParams(alpha=alpha, pi=pi)
    psi = np.array([0.8, 0.2, 0.8])
    ari_block, ari_node = [], []
    for seed in range(20):
        adj, draw = sample_network(params, 250, rng_seed=seed)
        observed = observe_network(adj, SamplingDesign("block-node", psi),
                                   clusters=Partition.from_labels(draw.labels, 3),
                                   rng_seed=seed + 70)
        full = fit_single(adj, 3, "node", control=ControlOptions(rng_seed=300 + seed))
        f_block = fit_single(observed, 3, "block-node", control=ControlOptions(rng_seed=400 + seed))
        f_node = fit_single(observed, 3, "node", control=ControlOptions(rng_seed=400 + seed))
        ari_block.append(ari(f_block.memberships, full.memberships))
        ari_node.append(ari(f_node.memberships, full.memberships))
    strict = sum(b > n for b, n in zip(ari_block, ari_node))
    mean_block, mean_node = np.mean(ari_block), np.mean(ari_node)
    elapsed = time.time() - start
    report("design-aware-clustering-advantage",
           mean_block > mean_node and strict >= 14,
           f"(mean ARI block-node {mean_block:.3f} vs node {mean_node:.3f}, strict {strict}/20, {elapsed:.0f}s)")


def test_runtime_bound():
    """Single fit at n=194, Q=10, fully observed, single-threaded."""
    params = planted_params(10, 0.25, 0.02)
    adj, _ = sample_network(params, 194, rng_seed=4)
    start = time.time()
    fit = fit_single(adj, 10, "node", control=ControlOptions(rng_seed=5))
    elapsed = time.time() - start
    report("runtime-bound", elapsed < 60.0 and np.isfinite(fit.icl),
           f"({elapsed:.2f}s, converged={fit.converged})")


def test_cli_determinism(tmp_path):
    """Byte-identical outputs across repeated runs and worker counts."""
    # the package runs from the source tree, installed or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "sbm_miss", *map(str, args)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc

    net = tmp_path / "net.csv"
    mem = tmp_path / "mem.csv"
    obs = tmp_path / "obs.csv"
    run("generate", "--nodes", 40, "--blocks", 3, "--pi-within", 0.5, "--pi-between", 0.05,
        "--seed", 1, "--out", net, "--out-memberships", mem)
    run("observe", "--input", net, "--sampling", "block-node", "--parameters", "0.9,0.5,0.7",
        "--clusters", mem, "--seed", 2, "--out", obs)

    fit_outputs = []
    for name, threads in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / f"fit_{name}.json"
        mon = tmp_path / f"mon_{name}.csv"
        run("fit", "--input", obs, "--blocks", "1:3", "--sampling", "block-node",
            "--seed", 3, "--threads", threads, "--out", out, "--monitoring-csv", mon)
        fit_outputs.append(out.read_bytes() + mon.read_bytes())
    sweep_outputs = []
    for name, threads in (("a", 2), ("b", 1)):
        out = tmp_path / f"sweep_{name}.csv"
        run("sweep-auc", "--nodes", 30, "--blocks", 2, "--pi-within", 0.5, "--pi-between", 0.05,
            "--replicates", 4, "--seed", 9, "--threads", threads, "--out", out)
        sweep_outputs.append(out.read_bytes())
    obs_bytes = [obs.read_bytes()]
    run("observe", "--input", net, "--sampling", "block-node", "--parameters", "0.9,0.5,0.7",
        "--clusters", mem, "--seed", 2, "--out", obs)
    obs_bytes.append(obs.read_bytes())

    ok = (fit_outputs[0] == fit_outputs[1] == fit_outputs[2]
          and sweep_outputs[0] == sweep_outputs[1]
          and obs_bytes[0] == obs_bytes[1])
    report("cli-determinism", ok, "(fit x3 across threads, sweep x2, observe x2)")
