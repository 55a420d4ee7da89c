"""Binary stochastic block model, with or without dyad covariates.

Plain variant: nodes carry latent block labels drawn from the proportions
alpha, and a dyad between blocks (q, l) is an edge with probability pi[q, l].
Covariate variant: the edge probability becomes
logistic(gamma[q, l] + beta . x_ij), so blocks describe the connectivity
heterogeneity left over once the covariate effect is removed.

The dyads in play are all dyads, missing ones at their imputation means,
when the variational state carries nu, and the observed ones otherwise.
Plain pi is a rate per block pair, fitted from ``block_pair_counts`` by
``network.rate_loglik`` and ``rate_update`` as the rate sampling designs are.

Every covariate computation runs through one block-pair kernel.  With
eta_ab = gamma_ab + beta . x and the identity
y log sigma(eta) + (1 - y) log sigma(-eta) = y eta + log sigma(-eta), the
expected dyad log-likelihood under memberships tau and 0/1 weights w, which
are 1 wherever the expected edge values y (``_dyad_values``) are not 0, is

    gamma : tau' y tau  +  sum(y * beta . x)
          + sum_ab tau_a' (w * log sigma(-eta_ab)) tau_b,

so only the last term needs an n x n pass per block pair.  The kernels take
log sigma(x) = min(x, 0) - log1p(exp(-|x|)) (``network.log_sigmoid``), which
stays finite for every finite x and runs on numpy's vectorised exp and log1p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .errors import InputError, NumericalError
from .network import (
    CovariateSet,
    PartialAdjacency,
    Partition,
    as_rng,
    log_sigmoid,
    logistic,
    newton_ascent,
    pair_mass,
    rate_loglik,
    safe_log,
    transfer_covariates,
)

ALPHA_TOL = 1e-10
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class SbmParams:
    """SBM parameters: block proportions plus connectivity (pi or gamma/beta)."""

    alpha: np.ndarray
    pi: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    directed: bool = False

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        if alpha.ndim != 1 or alpha.size < 1:
            raise InputError("alpha must be a non-empty vector")
        if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > ALPHA_TOL:
            raise InputError("alpha must be a probability vector summing to 1")
        q = alpha.size
        if (self.pi is None) == (self.gamma is None):
            raise InputError("provide exactly one of pi (plain) or gamma (covariate variant)")
        if self.pi is not None:
            pi = np.asarray(self.pi, dtype=float)
            if pi.shape != (q, q):
                raise InputError(f"pi must be {q} x {q}")
            if np.any(pi < 0) or np.any(pi > 1):
                raise InputError("pi entries must lie in [0, 1]")
            if not self.directed and not np.allclose(pi, pi.T):
                raise InputError("undirected pi must be symmetric")
            pi = np.array(pi)
            pi.flags.writeable = False
            object.__setattr__(self, "pi", pi)
        else:
            gamma = np.asarray(self.gamma, dtype=float)
            if gamma.shape != (q, q):
                raise InputError(f"gamma must be {q} x {q}")
            if not self.directed and not np.allclose(gamma, gamma.T):
                raise InputError("undirected gamma must be symmetric")
            beta = np.asarray(self.beta, dtype=float)
            if beta.ndim != 1 or beta.size < 1:
                raise InputError("covariate variant needs a beta vector")
            gamma = np.array(gamma)
            beta = np.array(beta)
            gamma.flags.writeable = False
            beta.flags.writeable = False
            object.__setattr__(self, "gamma", gamma)
            object.__setattr__(self, "beta", beta)

    @property
    def q(self) -> int:
        return self.alpha.size

    @property
    def variant(self) -> str:
        return "plain" if self.pi is not None else "covariate"

    @property
    def connectivity(self) -> np.ndarray:
        """pi for the plain variant, gamma otherwise (block-pair parameters)."""
        return self.pi if self.pi is not None else self.gamma

    def to_json(self) -> dict:
        out = {"Q": self.q, "directed": self.directed, "variant": self.variant,
               "alpha": self.alpha.tolist()}
        if self.variant == "plain":
            out["pi"] = self.pi.tolist()
        else:
            out["gamma"] = self.gamma.tolist()
            out["beta"] = self.beta.tolist()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SbmParams":
        """Read what to_json writes, or the sbm object of a fit JSON: the
        variant is plain exactly when "pi" is present."""
        try:
            fields = ("alpha", "pi") if "pi" in data else ("alpha", "gamma", "beta")
            values = {key: np.array(data[key], dtype=float) for key in fields}
            directed = bool(data.get("directed", False))
        except KeyError as exc:
            raise InputError(f"SBM parameter object misses field {exc}") from None
        except (TypeError, ValueError):
            raise InputError("SBM parameters must be numeric arrays") from None
        return cls(**values, directed=directed)


@dataclass(frozen=True)
class MembershipDraw:
    """Latent block labels drawn from the block proportions (0-based)."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def partition(self, q: int) -> Partition:
        return Partition(labels=self.labels, q=q)


def dyad_covariate_effect(params: SbmParams, covariates: Optional[CovariateSet]) -> np.ndarray:
    """n x n matrix of beta . x_ij."""
    if covariates is None:
        raise InputError("covariate variant needs dyadic covariates")
    x = transfer_covariates(covariates).dyadic_stack()
    if x.shape[0] != params.beta.size:
        raise InputError(f"beta has {params.beta.size} entries but {x.shape[0]} covariates given")
    return (params.beta @ x.reshape(x.shape[0], -1)).reshape(x.shape[1:])


def sample_network(params: SbmParams, n: int, covariates: Optional[CovariateSet] = None,
                   rng_seed: int = 0) -> tuple[PartialAdjacency, MembershipDraw]:
    """Draw memberships and a fully observed network from the model."""
    rng = as_rng(rng_seed)
    z = rng.choice(params.q, size=n, p=params.alpha)
    if params.variant == "plain":
        prob = params.pi[np.ix_(z, z)]
    else:
        prob = logistic(params.gamma[np.ix_(z, z)] + dyad_covariate_effect(params, covariates))
    u = rng.random((n, n))
    if not params.directed:
        u = np.triu(u) + np.triu(u, 1).T
    mat = (u < prob).astype(float)
    np.fill_diagonal(mat, np.nan)
    return PartialAdjacency(mat, directed=params.directed), MembershipDraw(labels=z)


def _dyad_values(adj: PartialAdjacency, state) -> np.ndarray:
    """Expected edge values: observed dyads as they are, missing ones at nu
    when the state carries it and at 0 otherwise; zero diagonal."""
    return adj.filled(0.0 if state.nu is None else state.nu)


def _dyad_weight(adj: PartialAdjacency, all_dyads: bool) -> np.ndarray:
    """0/1 weights of the dyads in play, for the covariate kernels."""
    if all_dyads:
        return np.ones((adj.n, adj.n)) - np.eye(adj.n)
    return adj.observed_mask


def block_pair_counts(adj: PartialAdjacency, state) -> tuple[np.ndarray, np.ndarray]:
    """Q x Q expected edge and dyad counts per block pair over the dyads in
    play, with unordered pairs counted once on undirected networks."""
    tau = state.tau
    scale = 1.0 if adj.directed else 0.5
    if state.nu is None:
        dyads = tau.T @ adj.observed_mask @ tau
    else:
        dyads = pair_mass(tau)
    return scale * (tau.T @ _dyad_values(adj, state) @ tau), scale * dyads


def _block_pair_etas(gamma: np.ndarray, c: np.ndarray):
    """Yield (a, b, eta) with eta = gamma[a, b] + c for every block pair.

    eta is one n x n buffer, refilled for each pair; the caller may overwrite
    it between pairs.  This is the only loop over block pairs of n x n arrays.
    """
    q = gamma.shape[0]
    eta = np.empty_like(c)
    for a in range(q):
        for b in range(q):
            np.add(gamma[a, b], c, out=eta)
            yield a, b, eta


def _log_sigmoid_kernels(gamma: np.ndarray, c: np.ndarray, w: np.ndarray):
    """Yield (a, b, w * log sigma(-eta_ab)) for every block pair, in the
    reused buffer of :func:`_block_pair_etas`."""
    for a, b, eta in _block_pair_etas(gamma, c):
        np.negative(eta, out=eta)
        log_sigmoid(eta, out=eta)
        eta *= w
        yield a, b, eta


def _covariate_dyad_loglik(gamma, c, w, y, tau) -> float:
    """sum_ij w_ij sum_ab tau_ia tau_jb log p(y_ij | eta_ab,ij) over ordered
    pairs, by the kernel identity of the module docstring."""
    total = float(np.sum(gamma * (tau.T @ y @ tau))) + float(np.vdot(y, c))
    for a, b, kernel in _log_sigmoid_kernels(gamma, c, w):
        total += float(tau[:, a] @ kernel @ tau[:, b])
    return total


def expected_loglik_sbm(params: SbmParams, adj: PartialAdjacency, state,
                        covariates: Optional[CovariateSet] = None,
                        counts: Optional[tuple[np.ndarray, np.ndarray]] = None) -> float:
    """Variational expectation of the complete-data SBM log-likelihood.

    Covers the membership factor and the dyad factor over the observed dyads
    (no imputation state) or over every dyad with missing values replaced by
    nu (imputation state present).  The plain variant reads
    ``block_pair_counts(adj, state)``, or ``counts`` when the caller already
    holds them for this state.
    """
    tau = state.tau
    if tau.shape != (adj.n, params.q):
        raise InputError("tau shape does not match the network / block count")
    total = float(np.sum(tau @ safe_log(params.alpha)))
    if params.variant == "plain":
        if counts is None:
            counts = block_pair_counts(adj, state)
        return total + rate_loglik(*counts, params.pi)
    c = dyad_covariate_effect(params, covariates)
    w = _dyad_weight(adj, state.nu is not None)
    scale = 1.0 if adj.directed else 0.5
    return total + scale * _covariate_dyad_loglik(params.gamma, c, w, _dyad_values(adj, state), tau)


def predict_probabilities(params: SbmParams, state,
                          covariates: Optional[CovariateSet] = None) -> np.ndarray:
    """Connection probabilities sum_ql tau_iq tau_jl p_ql(x_ij); NaN diagonal."""
    tau = state.tau
    if params.variant == "plain":
        out = tau @ params.pi @ tau.T
    else:
        c = dyad_covariate_effect(params, covariates)
        out = np.zeros_like(c)
        weight = np.empty_like(c)
        for a, b, eta in _block_pair_etas(params.gamma, c):
            expit(eta, out=eta)
            eta *= np.multiply.outer(tau[:, a], tau[:, b], out=weight)
            out += eta
    np.fill_diagonal(out, np.nan)
    return out


# ---------------------------------------------------------------------------
# Spectral initialization
# ---------------------------------------------------------------------------

def spectral_init(adj: PartialAdjacency, q: int, rng_seed: int = 0) -> Partition:
    """Absolute-eigenvalue spectral clustering of the zero-filled adjacency.

    Missing dyads count as zero; directed matrices are symmetrized.  The q
    eigenvectors with largest |eigenvalue| embed the nodes, clustered by
    k-means.  Deterministic given the seed.
    """
    if q < 1:
        raise InputError("block count must be >= 1")
    if q > adj.n:
        raise InputError(f"cannot split {adj.n} nodes into {q} blocks")
    if q == 1:
        return Partition(labels=np.zeros(adj.n, dtype=int), q=1)
    a = adj.filled(0.0)
    if adj.directed:
        a = 0.5 * (a + a.T)
    try:
        eigval, eigvec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed in spectral initialization") from exc
    top = np.argsort(-np.abs(eigval), kind="stable")[:q]
    embedding = eigvec[:, top]
    rng = as_rng(rng_seed)
    labels = kmeans(embedding, q, rng)
    return Partition(labels=labels, q=q)


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain Lloyd k-means, squared Euclidean, best inertia over restarts.

    Centers start from a k-means++ draw; a cluster that empties is reseeded
    from the point farthest from its center.
    """
    n = points.shape[0]
    if k >= n:
        return np.arange(n) % k
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp(points, k, rng)
        labels = np.zeros(n, dtype=int)
        for _ in range(KMEANS_MAX_ITER):
            dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = dist.argmin(axis=1)
            for empty in np.setdiff1d(np.arange(k), np.unique(new_labels)):
                farthest = int(np.argmax(dist[np.arange(n), new_labels]))
                new_labels[farthest] = empty
                dist[farthest, :] = np.inf
                dist[farthest, empty] = 0.0
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
            centers = np.vstack([points[labels == c].mean(axis=0) for c in range(k)])
        inertia = float(((points - centers[labels]) ** 2).sum())
        if inertia < best_inertia - 1e-12:
            best_inertia, best_labels = inertia, labels
    return best_labels


def _kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min([(np.square(points - c).sum(axis=1)) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        centers.append(points[rng.choice(n, p=d2 / total)])
    return np.array(centers)


# ---------------------------------------------------------------------------
# Covariate connectivity M-step
# ---------------------------------------------------------------------------

def fit_covariate_connectivity(adj: PartialAdjacency, state, covariates: CovariateSet,
                               start: Optional[tuple[np.ndarray, np.ndarray]] = None
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the tau-weighted logistic dyad likelihood in (gamma, beta).

    ``network.newton_ascent`` on the concave objective: each dyad is softly
    replicated over block pairs with weight tau_iq tau_jl, the block-pair
    intercepts gamma share parameters across the symmetric pair for
    undirected networks.  Returns the updated (gamma, beta).

    y and tau' y tau are formed once per call.  Each Newton step
    (:func:`_newton_system`) allocates, besides beta . x, four n x n buffers
    that its block-pair loop reuses and that are freed before the line search:

    - eta: gamma_ab + beta . x, turned into mu = sigma(eta) and then 1 - mu
      in place;
    - wab: tau_a tau_b' * w, then wab * mu, then the pair's curvature
      wab * mu * (1 - mu);
    - the residual y - sum_ab wab * mu, started from y because
      sum_ab tau_ia tau_jb = 1;
    - the curvature summed over block pairs.
    """
    tau = state.tau
    q = tau.shape[1]
    w = _dyad_weight(adj, state.nu is not None)
    y = _dyad_values(adj, state)
    y_mass = tau.T @ y @ tau
    x = transfer_covariates(covariates).dyadic_stack()
    m = x.shape[0]
    x_rows = x.reshape(m, -1)
    # theta = (free intercepts, beta); row a * q + b of pool picks the free
    # intercept of block pair (a, b), which (b, a) shares when undirected
    keys = np.arange(q * q).reshape(q, q)
    if not adj.directed:
        keys = np.minimum(keys, keys.T)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    n_gamma = first.size
    pool = np.eye(n_gamma)[inverse.reshape(-1)]
    gamma0, beta0 = (np.zeros((q, q)), np.zeros(m)) if start is None else start
    theta = np.concatenate([np.ravel(gamma0)[first], beta0])

    def unpack(vec):
        return (pool @ vec[:n_gamma]).reshape(q, q), vec[n_gamma:]

    def objective(vec):
        gamma, beta = unpack(vec)
        return _covariate_dyad_loglik(gamma, (beta @ x_rows).reshape(y.shape), w, y, tau)

    def system(vec):
        return _newton_system(*unpack(vec), tau, w, y, y_mass, x_rows, pool)

    theta, _ = newton_ascent(objective, system, theta, "covariate connectivity fit")
    return unpack(theta)


def _newton_system(gamma, beta, tau, w, y, y_mass, x_rows, pool):
    """Gradient and negated Hessian of the covariate dyad log-likelihood in
    theta = (free intercepts, beta), y_mass being tau' y tau.

    Residuals and curvatures are weighted by tau_a tau_b' * w per block pair;
    the beta terms apply x once, to their sums over pairs.
    """
    resid = y.copy()
    curv = np.zeros_like(y)
    wab = np.empty_like(y)
    per_pair = []
    for a, b, eta in _block_pair_etas(gamma, (beta @ x_rows).reshape(y.shape)):
        mu = expit(eta, out=eta)
        np.multiply.outer(tau[:, a], tau[:, b], out=wab)
        wab *= w
        wab *= mu
        resid -= wab
        fitted = wab.sum()
        np.subtract(1.0, mu, out=mu)
        wab *= mu
        curv += wab
        per_pair.append([y_mass[a, b] - fitted, wab.sum(), *(x_rows @ wab.reshape(-1))])
    per_gamma = pool.T @ np.array(per_pair)   # columns: gradient, curvature, cross terms
    grad = np.concatenate([per_gamma[:, 0], x_rows @ resid.reshape(-1)])
    hess = np.block([[np.diag(per_gamma[:, 1]), per_gamma[:, 2:]],
                     [per_gamma[:, 2:].T, (x_rows * curv.reshape(-1)) @ x_rows.T]])
    return grad, hess
