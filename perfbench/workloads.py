"""The three benchmark workloads: inputs, the timed call, output checks, quality.

Every workload fits a panel of replicate networks drawn from the workload
seed, as the paper's simulation studies do.  Averaging over the panel keeps
the run-to-run spread of the metrics small, because one network's fit time
and fit quality depend strongly on which network was drawn.

Set-up (``make_inputs``) runs in a fresh process and writes the inputs and
the hidden truth to a work directory.  The timed call (``run``) receives only
the inputs; the truth is read back for scoring after the call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import sbm_miss
from sbm_miss import cli, io
from sbm_miss.vem import ELBO_SLACK

# Quality gates on the panel means: a benchmark whose fits fall below them
# is failing, not slow.  Single networks are too noisy to gate on.
MIN_ARI = 0.5
MIN_AUC = 0.6
MAX_COVARIATE_LABEL_ARI = 0.5   # independent draws at n = 60 stayed below 0.24 in 20 000 tries


@dataclass(frozen=True)
class Workload:
    name: str
    design: str
    n: int
    blocks: tuple[int, ...]
    exploration: str
    panel: int
    why: str
    threshold: float = 1e-2     # the package's default stopping rule
    max_iter: int = 50
    peak_cases: int = 1         # networks whose peak memory is averaged

    def describe(self) -> dict:
        return {"design": self.design, "n": self.n, "Q": [min(self.blocks), max(self.blocks)],
                "exploration": self.exploration, "panel": self.panel,
                "threshold": self.threshold, "max_iter": self.max_iter,
                "peak_cases": self.peak_cases}


WORKLOADS = {
    "select-mnar": Workload(
        "select-mnar", "block-node", 50, (1, 2, 3, 4), "both", 48,
        "ICL block-count selection under MNAR block-node sampling through the CLI fit and "
        "impute commands, run to convergence: VE-step bound, io and exploration on the path",
        peak_cases=2),
    "dense-mnar": Workload(
        "dense-mnar", "double-standard", 300, (3,), "none", 4,
        "one double-standard fit_single at larger n: dense n x n nu/ELBO/M-step work that "
        "runs to max_iter, no exploration or node-centred masks"),
    "covar-sbm": Workload(
        "covar-sbm", "covar-node", 60, (1, 2, 3), "both", 24,
        "covariate SBM under covar-node sampling with a fixed EM budget: covariate Newton "
        "fit and the covariate branch of the VE step", threshold=1e-12, max_iter=8),
}
TINY = {"select-mnar": dict(blocks=(1, 2, 3), panel=1, peak_cases=1),
        "dense-mnar": dict(n=90, panel=1),
        "covar-sbm": dict(panel=1)}

# Planted models.
SELECT_PI = (0.5, 0.05)                # within / between connection probability, Q = 3
SELECT_PSI = (0.9, 0.75, 0.6)          # block-node observation rate per block
DENSE_PI = (0.35, 0.05)
DENSE_RHO = (0.9, 0.4)                 # keep rates of edges / non-edges
COVAR_GAMMA = ((0.4, -1.4), (-1.4, 0.4))
COVAR_BETA = 3.0
COVAR_PSI = (0.0, 1.5)                 # covar-node (intercept, slope)


def get(name: str, tiny: bool = False) -> Workload:
    return replace(WORKLOADS[name], **TINY[name]) if tiny else WORKLOADS[name]


def _planted(q: int, within: float, between: float) -> sbm_miss.SbmParams:
    pi = np.full((q, q), between) + (within - between) * np.eye(q)
    return sbm_miss.SbmParams(alpha=np.full(q, 1.0 / q), pi=pi)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def make_inputs(wl: Workload, seed: int, out: Path) -> None:
    """Draw the panel for ``seed`` and write inputs and truth under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for k in range(wl.panel):
        case_seed = np.random.SeedSequence(seed, spawn_key=(k,))
        net_seed, obs_seed, cov_seed, fit_seed = case_seed.spawn(4)
        fit_seed = int(fit_seed.generate_state(1)[0] % 2**31)
        x = None
        if wl.name == "select-mnar":
            adj, draw = sbm_miss.sample_network(_planted(3, *SELECT_PI), wl.n, rng_seed=net_seed)
            design = sbm_miss.SamplingDesign("block-node", SELECT_PSI)
            observed = sbm_miss.observe_network(adj, design, clusters=draw.partition(3),
                                                rng_seed=obs_seed)
            io.write_dense_csv(out / f"case{k}.csv", observed)
        elif wl.name == "dense-mnar":
            adj, draw = sbm_miss.sample_network(_planted(3, *DENSE_PI), wl.n, rng_seed=net_seed)
            design = sbm_miss.SamplingDesign("double-standard", DENSE_RHO)
            observed = sbm_miss.observe_network(adj, design, rng_seed=obs_seed)
        else:
            # The covariate has its own child seed: drawn from the network's
            # stream it would reproduce the planted labels and confound beta
            # with gamma.
            x = (np.random.default_rng(cov_seed).random(wl.n) < 0.5).astype(float)
            cov = sbm_miss.CovariateSet.from_nodal([x])
            params = sbm_miss.SbmParams(alpha=np.array([0.5, 0.5]), gamma=np.array(COVAR_GAMMA),
                                        beta=np.array([COVAR_BETA]))
            adj, draw = sbm_miss.sample_network(params, wl.n, covariates=cov, rng_seed=net_seed)
            overlap = ari(x, draw.labels)
            if abs(overlap) > MAX_COVARIATE_LABEL_ARI:
                raise SystemExit(f"covariate tracks the planted labels (ARI {overlap:.3f})")
            design = sbm_miss.SamplingDesign("covar-node", COVAR_PSI)
            observed = sbm_miss.observe_network(adj, design, covariates=cov, rng_seed=obs_seed)
        arrays = dict(observed=observed.matrix, full=adj.filled(), labels=draw.labels,
                      fit_seed=fit_seed)
        if x is not None:
            arrays["x"] = x
        np.savez(out / f"case{k}.npz", **arrays)


@dataclass
class Case:
    index: int
    fit_seed: int
    observed: np.ndarray
    full: np.ndarray
    labels: np.ndarray
    x: np.ndarray | None
    csv: Path
    outdir: Path


def load_cases(wl: Workload, inputs: Path, outputs: Path) -> list[Case]:
    cases = []
    for k in range(wl.panel):
        with np.load(inputs / f"case{k}.npz") as data:
            outdir = outputs / f"case{k}"
            outdir.mkdir(parents=True, exist_ok=True)
            cases.append(Case(k, int(data["fit_seed"]), data["observed"], data["full"],
                              data["labels"], data["x"] if "x" in data else None,
                              inputs / f"case{k}.csv", outdir))
    return cases


# ---------------------------------------------------------------------------
# the timed call
# ---------------------------------------------------------------------------

def run(wl: Workload, case: Case):
    """The user-visible call of the workload; returns its raw result."""
    if wl.name == "select-mnar":
        fit_json, monitoring, imputed = (case.outdir / name for name in
                                         ("fit.json", "monitoring.csv", "imputed.csv"))
        rc = cli.main(["fit", "--input", str(case.csv), "--blocks", ",".join(map(str, wl.blocks)),
                       "--sampling", wl.design, "--exploration", wl.exploration,
                       "--threads", "1", "--seed", str(case.fit_seed),
                       "--threshold", repr(wl.threshold), "--max-iter", str(wl.max_iter),
                       "--out", str(fit_json), "--monitoring-csv", str(monitoring)])
        if rc == 0:
            rc = cli.main(["impute", "--input", str(case.csv), "--fit", str(fit_json),
                           "--out", str(imputed), "--threads", "1"])
        if rc != 0:
            raise RuntimeError(f"sbm-miss exited with code {rc}")
        return None
    adj = sbm_miss.PartialAdjacency(case.observed)
    control = sbm_miss.ControlOptions(rng_seed=case.fit_seed, threshold=wl.threshold,
                                      max_iter=wl.max_iter, exploration=wl.exploration,
                                      use_cov=wl.name == "covar-sbm", workers=1)
    if wl.name == "dense-mnar":
        fit = sbm_miss.fit_single(adj, wl.blocks[0], wl.design, control=control)
        return fit, sbm_miss.impute(fit)
    cov = sbm_miss.CovariateSet.from_nodal([case.x])
    coll = sbm_miss.estimate_miss_sbm(adj, list(wl.blocks), wl.design, covariates=cov,
                                      control=control)
    return coll, sbm_miss.impute(coll.best_model)


# ---------------------------------------------------------------------------
# outputs, checks and scores
# ---------------------------------------------------------------------------

@dataclass
class Outputs:
    models: list[dict]
    best: dict
    imputed: np.ndarray
    digest: str


def collect(wl: Workload, case: Case, result) -> Outputs:
    """Bring every workload's result into the fit-JSON form the CLI writes."""
    h = hashlib.sha256()
    if wl.name == "select-mnar":
        raw = {name: (case.outdir / name).read_bytes()
               for name in ("fit.json", "monitoring.csv", "imputed.csv")}
        for name in sorted(raw):
            h.update(raw[name])
        data = json.loads(raw["fit.json"])
        imputed = np.loadtxt(case.outdir / "imputed.csv", delimiter=",", ndmin=2)
    else:
        fitted, imputed = result
        data = fitted.to_json()
        h.update(json.dumps(data, sort_keys=True).encode())
        h.update(np.ascontiguousarray(imputed).tobytes())
    if "models" in data:
        models = data["models"]
        best = next(m for m in models if m["Q"] == data["bestQ"])
    else:
        models, best = [data], data
    return Outputs(models, best, imputed, h.hexdigest())


def check(case: Case, out: Outputs) -> list[str]:
    """Output checks; every message is a reason to count the run as failed."""
    errors = []
    for model in out.models:
        elbos = [row["elbo"] for row in model["monitoring"]]
        if any(v is None for v in elbos):
            errors.append(f"Q={model['Q']}: non-finite ELBO")
        elif any(b < a - ELBO_SLACK for a, b in zip(elbos, elbos[1:])):
            errors.append(f"Q={model['Q']}: ELBO decreased")
        if model["icl"] is None or not math.isfinite(model["icl"]):
            errors.append(f"Q={model['Q']}: ICL not finite")
    observed = case.observed
    n = observed.shape[0]
    known = ~np.isnan(observed)
    np.fill_diagonal(known, False)
    imputed = out.imputed
    if imputed.shape != (n, n):
        errors.append(f"imputed matrix has shape {imputed.shape}")
        return errors
    if not np.array_equal(imputed[known], observed[known]):
        errors.append("imputed matrix changes observed dyads")
    missing = np.isnan(observed)
    np.fill_diagonal(missing, False)
    if not (np.all(imputed[missing] >= 0.0) and np.all(imputed[missing] <= 1.0)):
        errors.append("imputed values outside [0, 1]")
    if not np.array_equal(imputed, imputed.T):
        errors.append("imputed matrix is not symmetric")
    return errors


def gate(mean_scores: dict[str, float]) -> list[str]:
    """Quality gates on the panel means of the scores."""
    errors = []
    if not mean_scores["ari"] >= MIN_ARI:
        errors.append(f"panel ARI {mean_scores['ari']:.3f} below {MIN_ARI}")
    if not mean_scores["auc"] >= MIN_AUC:
        errors.append(f"panel AUC {mean_scores['auc']:.3f} below {MIN_AUC}")
    return errors


def score(case: Case, out: Outputs) -> dict[str, float]:
    """Fit quality of the reported model against the hidden truth."""
    best = out.best
    memberships = np.asarray(best["memberships"]) - 1
    mi, mj = np.nonzero(np.triu(np.isnan(case.observed), 1))
    iterations = [len(m["monitoring"]) - 1 for m in out.models]
    return {
        "ari": ari(memberships, case.labels),
        "auc": auc(case.full[mi, mj], out.imputed[mi, mj]),
        "icl": float(best["icl"]),
        "neg_elbo": -float(best["elbo_trace"][-1]),
        "iters_per_fit": float(np.mean(iterations)),
        "converged_frac": float(np.mean([m["converged"] for m in out.models])),
        "psi_err": psi_error(case, best, memberships),
    }


def psi_error(case: Case, best: dict, memberships: np.ndarray) -> float:
    """Mean |psi_hat - psi|.  Block-node rates are compared node by node,
    because fitted blocks match planted ones only up to a permutation."""
    psi = np.asarray(best["design"]["psi"], dtype=float)
    tag = best["design"]["tag"]
    if tag == "block-node":
        return float(np.mean(np.abs(psi[memberships] - np.asarray(SELECT_PSI)[case.labels])))
    truth = DENSE_RHO if tag == "double-standard" else COVAR_PSI
    return float(np.mean(np.abs(psi - np.asarray(truth))))


def ari(a, b) -> float:
    """Adjusted Rand index, written out here so the benchmark does not score
    the program with the program's own evaluation code."""
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)

    def pairs(counts):
        return float((counts * (counts - 1) / 2.0).sum())

    cells, rows, cols = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    total = pairs(np.array([ai.size]))
    expected = rows * cols / total
    top = 0.5 * (rows + cols)
    return 1.0 if top == expected else float((cells - expected) / (top - expected))


def auc(truth, scores) -> float:
    """Mann-Whitney AUC with ties counted half; NaN when the missing dyads
    hold one class only, which happens when very few are missing."""
    truth = np.asarray(truth, dtype=bool)
    _, where, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = ((ends - counts + 1 + ends) / 2.0)[where]   # tied scores share their mean rank
    pos = int(truth.sum())
    neg = truth.size - pos
    if pos == 0 or neg == 0:
        return math.nan
    return float((ranks[truth].sum() - pos * (pos + 1) / 2.0) / (pos * neg))
