"""The nine network observation processes (sampling designs).

Every design observes a network through a Bernoulli mask.  Dyad-centered
designs decide each dyad on its own; node-centered designs draw a set of
observed nodes, and observing a node reveals every dyad involving it.  The
table ``DESIGNS`` states, once per design, its missingness mechanism (MCAR,
MAR or MNAR), its centering, what it needs besides the network (a clustering
or covariates), its family, the layout of its parameter vector psi and
whether it draws waves.  Code reads these traits, not the tag.  Everything
else follows from two likelihood families:

* rate designs hold one observation rate per stratum, named by the layout:
  one rate, edge value, block or block pair.  ``_rate_counts`` (expected
  observed and total unit counts per stratum) and ``_unit_rates`` read the
  layout, and the centering for one rate.  The log-likelihood and the M
  step obs / total are ``network.rate_loglik`` and ``network.rate_update``,
  the same pair that fits the SBM connectivity pi.
* logistic designs observe unit u with probability logistic(x_u . psi); the
  layout names the features.  ``_features`` gives dyad covariates on
  canonical dyads or nodal covariates on nodes, by centering, or expected
  degrees on nodes.  The log-likelihood and the damped Newton M step are
  ``network.logistic_loglik`` and ``network.fit_logistic``.

The VE terms read the layout too: block strata give ``tau_static_terms``,
block-pair strata ``tau_pairwise_logs``, and edge-value strata or
expected-degree features ``nu_logit_correction``.  The AUC sweep of
``evaluation`` draws psi by centering and layout.

The observation itself, the mask R and the observed nodes V, is read from
the partially observed network (``PartialAdjacency.observed_mask`` and
``observed_nodes``): a node counts as observed when all its dyads are.
Dyad units are read from the network's one dyad index,
``PartialAdjacency.pairs``, in canonical order.
Unknown dyad values enter through their imputation means nu, block strata
through the membership probabilities tau.  The estimation engine uses the
log-likelihood, the psi update, the free-parameter count for the ICL penalty
and the VE/nu terms defined here; ``observe_network`` draws the mask from the
same unit probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .network import (
    CovariateSet,
    as_rng,
    PartialAdjacency,
    Partition,
    check_nodes,
    clamp_prob,
    degrees,
    fit_logistic,
    logistic,
    logistic_loglik,
    rate_loglik,
    rate_update,
    safe_log,
    transfer_covariates,
    trusted,
)


@dataclass(frozen=True)
class DesignSpec:
    """What a sampling design is, as opposed to its parameter values."""

    mechanism: str          # MCAR, MAR or MNAR
    centering: str          # dyad-centered or node-centered
    needs: Optional[str]    # clusters, covariates or nothing
    family: str             # rate or logistic
    psi: str                # psi layout, a key of _LAYOUTS: the strata or the features
    waves: bool             # further waves add the neighbors of observed nodes


DESIGNS = {
    # tag:             DesignSpec(mechanism, centering, needs, family, psi layout, waves)
    "dyad":            DesignSpec("MCAR", "dyad-centered", None,         "rate",     "one rate",        False),
    "covar-dyad":      DesignSpec("MAR",  "dyad-centered", "covariates", "logistic", "covariates",      False),
    "node":            DesignSpec("MCAR", "node-centered", None,         "rate",     "one rate",        False),
    "covar-node":      DesignSpec("MAR",  "node-centered", "covariates", "logistic", "covariates",      False),
    "block-node":      DesignSpec("MNAR", "node-centered", "clusters",   "rate",     "block",           False),
    "block-dyad":      DesignSpec("MNAR", "dyad-centered", "clusters",   "rate",     "block pair",      False),
    "double-standard": DesignSpec("MNAR", "dyad-centered", None,         "rate",     "edge value",      False),
    "degree":          DesignSpec("MNAR", "node-centered", None,         "logistic", "expected degree", False),
    "snowball":        DesignSpec("MAR",  "node-centered", None,         "rate",     "one rate",        True),
}

AVAILABLE_SAMPLINGS = tuple(DESIGNS)
NODE_CENTERED = frozenset(t for t, spec in DESIGNS.items() if spec.centering == "node-centered")

# psi layouts, the strata of a rate design or the features of a logistic one:
# what psi holds, as error messages name it, and its shape for q blocks and m covariates
_LAYOUTS = {
    "one rate":        ("a single rate",          lambda q, m: ()),
    "edge value":      ("two values",             lambda q, m: (2,)),
    "block":           ("one rate per block",     lambda q, m: (q,)),
    "block pair":      ("a Q x Q rate matrix",    lambda q, m: (q, q)),
    "covariates":      ("(intercept, slopes...)", lambda q, m: (1 + m,)),
    "expected degree": ("two values",             lambda q, m: (2,)),
}


def design_spec(tag: str, **given) -> DesignSpec:
    """The design's spec, once the tag is known and the inputs it needs
    among ``given`` (clusters, covariates) are there."""
    try:
        spec = DESIGNS[tag]
    except KeyError:
        raise InputError(f"unknown sampling design {tag!r}") from None
    if spec.needs in given and given[spec.needs] is None:
        raise InputError(f"{tag} sampling requires {spec.needs}")
    return spec


@dataclass(frozen=True)
class SamplingDesign:
    """One observation process with its parameter vector psi.

    psi follows the layout of the design's ``DESIGNS`` entry.  The pairs are
    ordered: (rho1, rho0), the keep rates of edges and non-edges, for
    double-standard; (a, b), node rate logistic(a + b * degree), for degree.
    ``waves`` is the snowball wave count (first batch included); every other
    design has a single wave.
    """

    tag: str
    psi: np.ndarray
    waves: int = 1

    def __post_init__(self):
        spec = design_spec(self.tag)
        try:
            psi = np.array(self.psi, dtype=float)
        except (TypeError, ValueError):
            raise InputError(f"{self.tag}: psi must be numeric") from None
        if spec.psi == "one rate" and psi.size == 1:
            psi = psi.reshape(())
        # psi must have the layout's shape for some q >= 1 blocks and m >= 1 covariates
        text, shape = _LAYOUTS[spec.psi]
        q = psi.shape[0] if psi.ndim else 1
        if psi.size < 1 or psi.shape != shape(q, max(psi.size - 1, 1)):
            raise InputError(f"{self.tag} expects {text}")
        if not np.isfinite(psi).all():
            raise InputError(f"{self.tag}: psi entries must be finite")
        if spec.family == "rate" and ((psi < 0.0).any() or (psi > 1.0).any()):
            raise InputError(f"{self.tag}: rates must lie in [0, 1]")
        if self.waves < 1 or (self.waves > 1 and not spec.waves):
            raise InputError("waves must be 1, or any count >= 1 for snowball sampling")
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)


def design_df(design: SamplingDesign, q: int, directed: bool = False) -> int:
    """Number K of free sampling parameters entering the ICL penalty."""
    if q < 1:
        raise InputError("block count must be >= 1")
    layout = DESIGNS[design.tag].psi
    if layout == "block pair" and not directed:
        return q * (q + 1) // 2   # a symmetric Q x Q matrix
    return math.prod(_LAYOUTS[layout][1](q, design.psi.size - 1))


def make_default_design(tag: str, q: int, covariates: Optional[CovariateSet] = None,
                        waves: int = 1) -> SamplingDesign:
    """Neutral starting parameters for the first M-step of a fit: rates at 1/2,
    logistic coefficients at 0 with one slope per covariate of the design's units."""
    spec = design_spec(tag)
    m = 0
    if spec.needs == "covariates":
        m = covariates.m_nodal if spec.centering == "node-centered" else covariates.m
    shape = _LAYOUTS[spec.psi][1](q, m)
    return SamplingDesign(tag, np.full(shape, 0.5 if spec.family == "rate" else 0.0), waves=waves)


# ---------------------------------------------------------------------------
# Units of observation
# ---------------------------------------------------------------------------

def _features(design: SamplingDesign, adj: PartialAdjacency, nu,
              covariates: Optional[CovariateSet]) -> np.ndarray:
    """Design matrix of a logistic design, one row per unit, intercept first.

    The units are the canonical dyads with their dyad covariates, or the
    nodes with their nodal covariates or their expected degrees (row sums
    under nu).
    """
    spec = DESIGNS[design.tag]
    if spec.psi == "expected degree":
        x = [degrees(adj, nu)]
    elif spec.centering == "node-centered":
        x = [covariates.nodal_matrix()]
    else:
        x = [transfer_covariates(covariates).at_pairs(*adj.pairs).T]
    x = np.column_stack([np.ones(x[0].shape[0])] + x)
    if x.shape[1] != design.psi.size:
        raise InputError(f"{design.tag} slope count does not match the covariates")
    return x


def _logistic_data(design, state, adj, covariates) -> tuple[np.ndarray, np.ndarray]:
    """Features and 0/1 responses (node or canonical-dyad indicators)."""
    x = _features(design, adj, state.nu, covariates)
    if DESIGNS[design.tag].centering == "node-centered":
        return x, adj.observed_nodes
    return x, 1.0 - np.isnan(adj.values_at(*adj.pairs))


def _rate_counts(design, state, adj) -> tuple[np.ndarray, np.ndarray]:
    """Expected observed and total unit counts per stratum, shaped like psi.

    Nodes or canonical dyads, counted whole, split by edge value (observed
    edges and non-edges, then the missing dyads at their imputation means
    nu), or weighted by tau (block strata of nodes) or by tau_ia tau_jb
    (block-pair strata of dyads).
    """
    spec = DESIGNS[design.tag]
    if spec.psi == "one rate" and spec.centering == "node-centered":
        return adj.observed_nodes.sum(), adj.n
    if spec.psi == "one rate":
        return adj.n_observed, adj.n_dyads
    if spec.psi == "block":
        return state.tau.T @ adj.observed_nodes, state.tau.sum(axis=0)
    if spec.psi == "edge value":
        if state.nu is None and adj.n_missing:
            raise InputError("MNAR computation needs imputation probabilities for missing dyads")
        obs = np.array([adj.n_edges, adj.n_observed - adj.n_edges])
        nu_sum = float(state.nu.sum()) if adj.n_missing else 0.0
        return obs, obs + np.array([nu_sum, adj.n_missing - nu_sum])
    tau, scale, store = state.tau, (1.0 if adj.directed else 0.5), adj.pair_matrices()
    return scale * store.quad(store.r(), tau), scale * store.quad(None, tau)


# ---------------------------------------------------------------------------
# Mask generation
# ---------------------------------------------------------------------------

def observe_network(adj: PartialAdjacency, design: SamplingDesign,
                    clusters: Optional[Partition] = None,
                    covariates: Optional[CovariateSet] = None,
                    rng_seed: int = 0) -> PartialAdjacency:
    """Partially observe a fully observed network under a sampling design.

    Returns a copy of ``adj`` where every dyad left unobserved by the design
    is missing.  ``clusters`` is required by block designs and ``covariates``
    by covar designs.  The draw is a pure function of the seed.
    """
    if not adj.fully_observed:
        raise InputError("observe_network needs a fully observed network")
    spec = design_spec(design.tag, clusters=clusters, covariates=covariates)
    check_nodes("clusters", clusters, adj.n)
    check_nodes("covariates", covariates, adj.n)
    rng = as_rng(rng_seed)
    n = adj.n
    rate = _unit_rates(design, adj, clusters, covariates)
    if spec.centering == "node-centered":
        v = rng.random(n) < rate
        for _ in range(design.waves - 1):   # each further wave adds the neighbors
            v |= (adj.matrix == 1) @ v
        return adj.mask_where(v[:, None] | v[None, :])
    # dyad-centered: decide each canonical dyad independently
    u = rng.random((n, n))
    rows, cols = adj.pairs
    keep = np.zeros((n, n), dtype=bool)
    keep[rows, cols] = u[rows, cols] < rate
    return adj.mask_where(keep if adj.directed else keep | keep.T)


def _unit_rates(design, adj, clusters, covariates) -> np.ndarray:
    """Observation probability of each unit of a complete network: nodes for
    node-centered designs, canonical dyads for dyad-centered ones."""
    spec = DESIGNS[design.tag]
    if spec.family == "logistic":
        return logistic(_features(design, adj, None, covariates) @ design.psi)
    rate = design.psi
    if spec.needs == "clusters":
        if rate.shape[0] != clusters.q:
            raise InputError(f"{design.tag} rates do not match the clustering")
        if spec.psi == "block pair" and not adj.directed and not np.array_equal(rate, rate.T):
            raise InputError(f"{design.tag} rates must be symmetric on an undirected network")
        z = clusters.labels
        if spec.psi == "block":
            return rate[z]
        rows, cols = adj.pairs
        return rate[z[rows], z[cols]]
    if spec.psi == "edge value":
        return np.where(adj.matrix[adj.pairs] > 0, rate[0], rate[1])
    return np.broadcast_to(rate, adj.n if spec.centering == "node-centered" else adj.n_dyads)


# ---------------------------------------------------------------------------
# Variational expectation of the sampling log-likelihood, and the M step
# ---------------------------------------------------------------------------

def sampling_loglik(design: SamplingDesign, state, adj: PartialAdjacency,
                    covariates: Optional[CovariateSet] = None) -> float:
    """E[log p(R | .)] under the variational state.

    Unknown dyad values are replaced by their imputation probabilities nu;
    block designs average over the membership probabilities tau.
    Probabilities are clamped away from 0 and 1 before the logs.
    """
    if DESIGNS[design.tag].family == "rate":
        return rate_loglik(*_rate_counts(design, state, adj), design.psi)
    return logistic_loglik(*_logistic_data(design, state, adj, covariates), design.psi)


def update_psi(design: SamplingDesign, state, adj: PartialAdjacency,
               covariates: Optional[CovariateSet] = None
               ) -> tuple[SamplingDesign, tuple[str, ...]]:
    """Maximize the expected sampling log-likelihood in psi.

    Rates have the closed form obs / total; a stratum with no mass
    keeps its previous rate, and the returned flags name the design for the
    fit monitoring.  Block-pair rates are symmetrized on undirected networks.
    The logistic designs run ``network.fit_logistic`` warm-started at the
    current parameters.  The snowball rate is the observed-node proportion: wave
    labels are not recoverable from the mask (MAR, so theta is unaffected).
    """
    if DESIGNS[design.tag].family == "logistic":
        psi, flags = fit_logistic(*_logistic_data(design, state, adj, covariates), start=design.psi)[0], ()
    else:
        psi, kept = rate_update(*_rate_counts(design, state, adj), design.psi, adj.directed)
        flags = (f"{design.tag}: stratum without mass, rate kept",) if kept else ()
    return trusted(SamplingDesign, tag=design.tag, psi=psi, waves=design.waves), flags


# ---------------------------------------------------------------------------
# VE-step ingredients
# ---------------------------------------------------------------------------

def tau_static_terms(design: SamplingDesign, adj: PartialAdjacency) -> Optional[np.ndarray]:
    """n x Q additive log terms for the tau update that do not couple nodes.

    Only block strata of nodes contribute: V_i log psi_q + (1-V_i) log(1-psi_q).
    """
    if DESIGNS[design.tag].psi != "block":
        return None
    v = adj.observed_nodes
    lp = safe_log(design.psi)
    lq = np.log1p(-clamp_prob(design.psi))
    return v[:, None] * lp[None, :] + (1.0 - v)[:, None] * lq[None, :]


def tau_pairwise_logs(design: SamplingDesign) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(log psi, log(1-psi)) matrices for designs whose mask couples block pairs."""
    if DESIGNS[design.tag].psi != "block pair":
        return None
    return safe_log(design.psi), np.log1p(-clamp_prob(design.psi))


def nu_logit_correction(design: SamplingDesign, adj: PartialAdjacency, nu: np.ndarray):
    """Additive logit-scale correction for the imputation update of missing dyads.

    Edge-value strata shift every missing dyad by log((1-rho1)/(1-rho0));
    expected-degree features propagate the sensitivity of the node
    observation rates to the expected degrees.  Other designs leave the
    imputation at the model prediction.
    """
    layout = DESIGNS[design.tag].psi
    if layout == "edge value":
        rho1, rho0 = clamp_prob(design.psi)
        return float(np.log1p(-rho1) - np.log1p(-rho0))
    if layout == "expected degree":
        g = logistic(_features(design, adj, nu, None) @ design.psi)
        mi, mj = adj.missing_pairs
        v = adj.observed_nodes
        return design.psi[1] * ((v[mi] - g[mi]) + (v[mj] - g[mj]))
    return 0.0
