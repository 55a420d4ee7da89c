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

The covariate variant has the block pairs k = (a, b) in play: all pairs when
directed, a <= b when undirected, where (b, a) shares eta (x_ij at i < j).  A
dyad p in play has the value y_p (observed, or nu) and the weights w_kp =
tau_ia tau_jb, plus tau_ib tau_ja for an undirected a != b, which sum to 1.
By y log sigma(eta) + (1 - y) log sigma(-eta) = y eta + log sigma(-eta), with
eta_kp = gamma_k + beta . x_p, its expected log-likelihood is

    beta . (X sy)  +  sum_k gamma_k (w_k . y)  +  sum_kv N_kv log sigma(-gamma_k - beta . X_v),

X_v the V distinct covariate columns x_p (the classes; 2 for a binary nodal
covariate), sy_v and N_kv the sums of y and w_k over class v.  The bound and
the M step read these ``covariate_counts``; the VE coupling gathers log sigma(-gamma_k - beta . X_v)
per block pair into n x n kernels by ``covariate_class_index``, all by ``network.log_sigmoid``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import InputError, NumericalError
from .network import (
    SLAB,
    CovariateSet,
    PartialAdjacency,
    Partition,
    as_rng,
    check_dense_size,
    check_nodes,
    log_sigmoid,
    logistic,
    newton_ascent,
    rate_loglik,
    read_only,
    safe_log,
    transfer_covariates,
)

ALPHA_TOL = 1e-10
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100
LANCZOS_ROWS_PER_VECTOR = 50   # n >= 50 k: the truncated solver is at least as fast as the dense one
LANCZOS_TOL = 1e-13            # Ritz residual of convergence, and Lanczos step of breakdown, relative


@dataclass(frozen=True)
class SbmParams:
    """SBM parameters: block proportions plus the variant's connection arrays."""

    # each variant's connection arrays, its Q x Q block-pair matrix first
    VARIANT_ARRAYS: ClassVar[dict] = {"plain": ("pi",), "covariate": ("gamma", "beta")}

    alpha: np.ndarray
    pi: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    directed: bool = False

    def __post_init__(self):
        if (self.pi is None) == (self.gamma is None):
            raise InputError("provide exactly one of pi (plain) or gamma (covariate variant)")
        for name in ("alpha", *self.arrays):
            value = np.array(getattr(self, name), dtype=float)
            if not np.isfinite(value).all():
                raise InputError(f"{name} entries must be finite")
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        alpha, conn = self.alpha, self.connectivity
        if alpha.ndim != 1 or alpha.size < 1:
            raise InputError("alpha must be a non-empty vector")
        if (alpha < 0).any() or abs(alpha.sum() - 1.0) > ALPHA_TOL:
            raise InputError("alpha must be a probability vector summing to 1")
        name = self.VARIANT_ARRAYS[self.variant][0]
        if conn.shape != (alpha.size,) * 2:
            raise InputError(f"{name} must be {alpha.size} x {alpha.size}")
        if self.pi is not None and ((conn < 0).any() or (conn > 1).any()):
            raise InputError("pi entries must lie in [0, 1]")
        if not (self.directed or np.allclose(conn, conn.T)):
            raise InputError(f"undirected {name} must be symmetric")
        if self.gamma is not None and (self.beta.ndim != 1 or self.beta.size < 1):
            raise InputError("covariate variant needs a beta vector")

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

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """The variant's connection arrays by name, in ``VARIANT_ARRAYS`` order."""
        return {name: getattr(self, name) for name in self.VARIANT_ARRAYS[self.variant]}

    def to_json(self) -> dict:
        return {"Q": self.q, "directed": self.directed, "variant": self.variant,
                "alpha": self.alpha.tolist(), **{k: v.tolist() for k, v in self.arrays.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "SbmParams":
        """Read what to_json writes, or the sbm object of a fit JSON: the
        variant is plain exactly when "pi" is present."""
        try:
            names = cls.VARIANT_ARRAYS["plain" if "pi" in data else "covariate"]
            values = {key: np.array(data[key], dtype=float) for key in ("alpha", *names)}
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
        object.__setattr__(self, "labels", read_only(self.labels, dtype=int))

    def partition(self, q: int) -> Partition:
        return Partition(labels=self.labels, q=q)


def _dyad_covariates(params: SbmParams, covariates: Optional[CovariateSet]) -> CovariateSet:
    """The dyad-level covariates, one per beta entry."""
    if covariates is None:
        raise InputError("covariate variant needs dyadic covariates")
    cov = transfer_covariates(covariates)
    if cov.m != params.beta.size:
        raise InputError(f"beta has {params.beta.size} entries but {cov.m} covariates given")
    return cov


def covariate_effect(params: SbmParams, x) -> np.ndarray:
    """beta . x over the m rows of x: the dyadic matrices, or the m x V class
    columns, whose values then equal those of their dyads bit for bit."""
    return sum(coef * row for coef, row in zip(params.beta, x))


def dyad_covariate_effect(params: SbmParams, covariates: Optional[CovariateSet]) -> np.ndarray:
    """n x n matrix of beta . x_ij; undirected, a dyad takes x_ij at i < j."""
    c = covariate_effect(params, _dyad_covariates(params, covariates).dyadic)
    return c if params.directed else np.triu(c) + np.triu(c, 1).T


def sample_network(params: SbmParams, n: int, covariates: Optional[CovariateSet] = None,
                   rng_seed: int = 0) -> tuple[PartialAdjacency, MembershipDraw]:
    """Draw memberships and a fully observed network from the model."""
    if n < 1:
        raise InputError(f"node count must be >= 1, got {n}")
    check_dense_size(n)
    rng = as_rng(rng_seed)
    z = rng.choice(params.q, size=n, p=params.alpha)
    if params.variant == "plain":
        prob = params.pi[np.ix_(z, z)]
    else:
        check_nodes("covariates", covariates, n)
        prob = logistic(params.gamma[np.ix_(z, z)] + dyad_covariate_effect(params, covariates))
    u = rng.random((n, n))
    if not params.directed:
        u = np.triu(u) + np.triu(u, 1).T
    mat = (u < prob).astype(float)
    np.fill_diagonal(mat, np.nan)
    return PartialAdjacency(mat, directed=params.directed), MembershipDraw(labels=z)


def block_pair_counts(adj: PartialAdjacency, state, store=None) -> tuple[np.ndarray, np.ndarray]:
    """Q x Q expected edge and dyad counts per block pair over the dyads in
    play, with unordered pairs counted once on undirected networks: tau' y tau,
    and tau' R tau, or the mass of all pairs with nu.

    ``store`` is the fit's store of the pair matrices (a fresh one by default)."""
    store = adj.pair_matrices() if store is None else store
    scale = 1.0 if adj.directed else 0.5
    dyads = store.quad(store.r() if state.nu is None else None, state.tau)
    return scale * store.quad(store.y(state.nu), state.tau), scale * dyads


CovariateCounts = namedtuple("CovariateCounts", "x xy wy n pairs")


def covariate_classes(adj: PartialAdjacency, covariates: CovariateSet, missing: bool):
    """Distinct columns X (m x V; -0.0 == 0.0) of the dyads in play, observed then missing if ``missing``,
    and per part (rows, cols, order, starts, v0): its class order, where classes start, its first class."""
    cov = transfer_covariates(covariates)
    columns, parts = [], []
    for rows, cols in [adj.observed_pairs] + ([adj.missing_pairs] if missing else []):
        x = cov.at_pairs(rows, cols)
        order = np.argsort(x[-1])   # lexicographic, so equal columns meet
        if np.any(x[-1, order[1:]] == x[-1, order[:-1]]):   # earlier rows break ties
            for row in x[-2::-1]:
                order = order[np.argsort(row[order], kind="stable")]
        x = x[:, order]
        new = np.r_[True, np.any(x[:, 1:] != x[:, :-1], axis=0)][:order.size]
        starts = np.append(np.flatnonzero(new), order.size)
        parts.append((rows, cols, order, starts, sum(c.shape[1] for c in columns)))
        columns.append(x[:, new])
    return np.hstack(columns), parts


def covariate_class_index(classes, n: int, directed: bool) -> np.ndarray:
    """n x n intp index of each dyad's class in ``covariate_classes`` (both orders of an
    undirected dyad); the diagonal and the dyads out of play point at the extra slot V."""
    index = np.full((n, n), classes[0].shape[1], dtype=np.intp)
    for rows, cols, order, starts, v0 in classes[1]:
        cls = np.empty(order.size, dtype=np.intp)
        cls[order] = np.repeat(np.arange(v0, v0 + starts.size - 1), np.diff(starts))
        index[rows, cols] = cls
        if not directed:
            index[cols, rows] = cls
    return index


def covariate_counts(adj: PartialAdjacency, state, covariates: CovariateSet,
                     classes=None) -> CovariateCounts:
    """X (m x V), X sy, w_k . y, N (K x V) and the block pairs (a, b) at ``state``, from
    ``classes`` if given; the dyads are walked by class, ``SLAB`` / 2 weights at a time."""
    x, parts = covariate_classes(adj, covariates, state.nu is not None) if classes is None else classes
    if len(parts) > 1 and (0 if state.nu is None else state.nu.size) != parts[1][2].size:
        raise InputError("nu must hold one value per missing dyad")
    pa, pb = pairs = np.nonzero(np.tri(state.tau.shape[1], dtype=bool).T | adj.directed)
    ta, tb = state.tau.T[pa], state.tau.T[pb] * np.where((pa == pb) & (not adj.directed), 0.5, 1.0)[:, None]
    n, wy, xy = np.zeros((pa.size, x.shape[1])), np.zeros(pa.size), np.zeros(len(x))
    step = max(1, SLAB // (2 * pa.size))
    for (rows, cols, order, starts, v0), nu in zip(parts, (None, state.nu)):
        for s in range(0, order.size, step):
            i, j = rows[order[s:s + step]], cols[order[s:s + step]]
            w = ta.take(i, axis=1)
            w *= tb.take(j, axis=1)
            if not adj.directed:   # (b, a) as well, so tb (K x n) is halved where a == b
                w += tb.take(i, axis=1) * ta.take(j, axis=1)
            y = adj.values_at(i, j) if nu is None else nu[order[s:s + step]]
            first, last = np.searchsorted(starts, (s, s + i.size - 1), side="right") - 1
            offsets, cls = np.maximum(starts[first:last + 1] - s, 0), slice(v0 + first, v0 + last + 1)
            n[:, cls] += np.add.reduceat(w, offsets, axis=1)
            wy += w @ y
            xy += x[:, cls] @ np.add.reduceat(y, offsets)
    return CovariateCounts(x, xy, wy, n, pairs)


def _class_slabs(gamma_k: np.ndarray, beta: np.ndarray, counts: CovariateCounts):
    """Yield (X, slabs) per chunk of classes, slabs iterating (pairs, N, -gamma_k - beta . X)
    over contiguous slabs of <= ``SLAB`` counts: whole rows when V is small, else parts of one."""
    k, v = counts.n.shape
    width = min(v, SLAB)
    height = max(1, SLAB // width)
    for s in range(0, v, width):
        x = counts.x[:, s:s + width]
        c = beta @ x
        yield x, ((p, counts.n[p, s:s + width], -gamma_k[p, None] - c)
                  for p in (slice(r, r + height) for r in range(0, k, height)))


def _covariate_loglik(gamma_k: np.ndarray, beta: np.ndarray, counts: CovariateCounts) -> float:
    """The expected dyad log-likelihood of the module docstring."""
    total = float(beta @ counts.xy + gamma_k @ counts.wy)
    for _, slabs in _class_slabs(gamma_k, beta, counts):
        for _, n, minus_eta in slabs:
            total += float(np.vdot(n, log_sigmoid(minus_eta, out=minus_eta)))
    return total


def expected_loglik_sbm(params: SbmParams, adj: PartialAdjacency, state,
                        covariates: Optional[CovariateSet] = None,
                        counts=None) -> float:
    """Variational expectation of the complete-data SBM log-likelihood.

    Covers the membership factor and the dyad factor over the observed dyads
    (no imputation state) or over every dyad with missing values replaced by
    nu (imputation state present).  The dyad factor reads the variant's
    statistics, ``block_pair_counts(adj, state)`` or ``covariate_counts(adj,
    state, covariates)``, or ``counts`` when the caller already holds them
    for this state.
    """
    tau = state.tau
    if tau.shape != (adj.n, params.q):
        raise InputError("tau shape does not match the network / block count")
    total = float((tau @ safe_log(params.alpha)).sum())
    if params.variant == "plain":
        if counts is None:
            counts = block_pair_counts(adj, state)
        return total + rate_loglik(*counts, params.pi)
    cov = _dyad_covariates(params, covariates)
    if counts is None:
        counts = covariate_counts(adj, state, cov)
    return total + _covariate_loglik(params.gamma[counts.pairs], params.beta, counts)


def predict_probabilities(params: SbmParams, state,
                          covariates: Optional[CovariateSet] = None) -> np.ndarray:
    """Connection probabilities sum_ql tau_iq tau_jl p_ql(x_ij); NaN diagonal."""
    tau = state.tau
    if params.variant == "plain":
        out = tau @ params.pi @ tau.T
    else:
        c = dyad_covariate_effect(params, covariates)
        out = np.zeros_like(c)
        eta, weight = np.empty_like(c), np.empty_like(c)
        for a in range(params.q):   # every block pair, or the pairs a <= b when undirected
            for b in range(0 if params.directed else a, params.q):
                logistic(np.add(params.gamma[a, b], c, out=eta), out=eta)
                eta *= np.multiply.outer(tau[:, a], tau[:, b], out=weight)
                out += eta
                if not params.directed and a != b:   # eta is symmetric: pair (b, a)
                    out += eta.T
    np.fill_diagonal(out, np.nan)
    return out


# ---------------------------------------------------------------------------
# Spectral initialization
# ---------------------------------------------------------------------------

def spectral_embedding(adj: PartialAdjacency, k: int) -> np.ndarray:
    """n x min(k, n) spectral embedding of the zero-filled adjacency.

    Missing dyads count as zero; directed matrices are symmetrized.  The
    columns are the eigenvectors in one stable order by decreasing
    |eigenvalue|, so the first q columns are the embedding for q blocks
    whatever k >= q is.  From n >= 50 k the truncated ``_lanczos`` computes
    them, and the dense ``eigh`` below that and wherever ``_lanczos`` gives
    up.  The two agree column by column up to sign, which k-means does not
    see: negation is exact.
    """
    a = adj.filled(0.0)
    if adj.directed:
        a = 0.5 * (a + a.T)
    try:
        if adj.n >= LANCZOS_ROWS_PER_VECTOR * k and (eigvec := _lanczos(a, k)) is not None:
            return eigvec
        eigval, eigvec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed in spectral initialization") from exc
    return eigvec[:, np.argsort(-np.abs(eigval), kind="stable")[:k]]


def _lanczos(a: np.ndarray, k: int) -> Optional[np.ndarray]:
    """The k eigenvectors of largest |eigenvalue| of the symmetric ``a``, in
    ``spectral_embedding``'s order, or None where the dense solver should run.

    Lanczos from one fixed start vector with full reorthogonalisation (two
    classical Gram-Schmidt passes).  The tridiagonal's Ritz pairs are checked
    at a stride growing with m, until each of the k leading by |theta| has a
    residual |beta_m s_mi| <= LANCZOS_TOL max|theta|.  None on breakdown (an
    invariant Krylov space: no edge, equal cliques, a complete bipartite
    graph) and at n / 2 vectors, where the dense solver is cheaper.
    """
    n = a.shape[0]
    basis, diag, off = np.empty((n // 2 + 1, n)), np.empty(n // 2), np.empty(n // 2)
    start = np.random.default_rng(0).random(n)
    basis[0] = start / np.linalg.norm(start)
    scale, due = 0.0, k
    for m in range(n // 2):
        w = a @ basis[m]
        diag[m] = basis[m] @ w
        for _ in range(2):
            w -= (basis[:m + 1] @ w) @ basis[:m + 1]
        off[m] = np.linalg.norm(w)
        scale = max(scale, abs(diag[m]), off[m])
        if off[m] <= LANCZOS_TOL * scale:
            return None
        basis[m + 1] = w / off[m]
        if m + 1 >= due:
            due = m + 1 + max(5, (m + 1) // 4)
            theta, s = np.linalg.eigh(np.diag(diag[:m + 1]) + np.diag(off[:m], 1) + np.diag(off[:m], -1))
            top = np.argsort(-np.abs(theta), kind="stable")[:k]
            if (np.abs(off[m] * s[m, top]) <= LANCZOS_TOL * np.abs(theta).max()).all():
                return basis[:m + 1].T @ s[:, top]
    return None


def spectral_init(adj: PartialAdjacency, q: int, rng_seed: int = 0,
                  embedding: Optional[np.ndarray] = None) -> Partition:
    """Absolute-eigenvalue spectral clustering of the zero-filled adjacency.

    The first q columns of ``spectral_embedding`` embed the nodes, clustered
    by k-means.  ``embedding`` is that embedding with at least q columns,
    when the caller already holds it (one decomposition serves every block
    count).  Deterministic given the seed.
    """
    if q < 1:
        raise InputError("block count must be >= 1")
    if q > adj.n:
        raise InputError(f"cannot split {adj.n} nodes into {q} blocks")
    if q == 1:
        return Partition(labels=np.zeros(adj.n, dtype=int), q=1)
    if embedding is None:
        embedding = spectral_embedding(adj, q)
    elif embedding.shape[0] != adj.n or embedding.shape[1] < q:
        raise InputError(f"a {q}-block start needs an embedding of {adj.n} rows and >= {q} columns")
    labels = kmeans(embedding[:, :q], q, as_rng(rng_seed))
    return Partition(labels=labels, q=q)


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain Lloyd k-means, squared Euclidean, best inertia over restarts.

    Centers start from a k-means++ draw; a cluster that empties, also by
    the repair of another, is reseeded from the point farthest from its
    center among those not moved yet in that step.  Distances go a center at
    a time into one n x k buffer; both they and the centers (sum / count) are
    the n x k x d differences and ``mean`` bit for bit.
    """
    n = points.shape[0]
    if k >= n:
        return np.arange(n) % k
    best_labels, best_inertia = None, np.inf
    dist, diff = np.empty((n, k)), np.empty_like(points, dtype=float)
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp(points, k, rng)
        labels = np.zeros(n, dtype=int)
        for _ in range(KMEANS_MAX_ITER):
            for c in range(k):
                np.square(np.subtract(points, centers[c], out=diff), out=diff).sum(axis=1, out=dist[:, c])
            new_labels = dist.argmin(axis=1)
            while not (counts := np.bincount(new_labels, minlength=k)).all():
                farthest = int(np.argmax(dist[np.arange(n), new_labels]))
                new_labels[farthest] = counts.argmin()   # the first empty cluster
                dist[farthest, :] = -np.inf
            if (new_labels == labels).all():
                break
            labels = new_labels
            for c in range(k):
                np.divide(points[labels == c].sum(axis=0), counts[c], out=centers[c])
        inertia = float(((points - centers[labels]) ** 2).sum())
        if inertia < best_inertia - 1e-12:
            best_inertia, best_labels = inertia, labels
    return best_labels


def _kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.full(n, np.inf)
    for c in range(1, k):
        np.minimum(d2, np.square(points - centers[c - 1]).sum(axis=1), out=d2)
        total = d2.sum()
        centers[c] = points[rng.integers(n) if total <= 0 else rng.choice(n, p=d2 / total)]
    return centers


# ---------------------------------------------------------------------------
# Covariate connectivity M-step
# ---------------------------------------------------------------------------

def fit_covariate_connectivity(adj: PartialAdjacency, state, covariates: CovariateSet,
                               start: Optional[tuple[np.ndarray, np.ndarray]] = None,
                               counts: Optional[CovariateCounts] = None
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the tau-weighted logistic dyad likelihood in (gamma, beta).

    ``network.newton_ascent`` on the concave objective: each dyad in play is
    softly replicated over the block pairs in play (the free intercepts) with
    weights w_ab.  The objective keeps the scale of ordered pairs, twice the
    sum over undirected dyads, which the Newton ridge and stop rule assume.

    It reads ``covariate_counts`` at ``state``, or ``counts``; each pass walks the K x V
    counts N in slabs of ``SLAB``, forming -eta, mu, 1 - mu, N mu and N mu (1 - mu).
    """
    if counts is None:
        counts = covariate_counts(adj, state, covariates)
    q, pairs, k = state.tau.shape[1], counts.pairs, len(counts.wy)
    slot = np.zeros((q, q), dtype=int)   # free intercept of each block pair
    slot[pairs] = np.arange(k)
    slot = slot if adj.directed else np.maximum(slot, slot.T)
    scale = 1.0 if adj.directed else 2.0
    gamma0, beta0 = (np.zeros((q, q)), np.zeros(len(counts.x))) if start is None else start
    theta = np.concatenate([gamma0[pairs], beta0])

    def objective(vec):
        return scale * _covariate_loglik(vec[:k], vec[k:], counts)

    def system(vec):
        grad, hess = _newton_system(vec[:k], vec[k:], counts)
        return scale * grad, scale * hess

    theta, _ = newton_ascent(objective, system, theta, "covariate connectivity fit")
    return theta[slot], theta[k:]


def _newton_system(gamma_k, beta, counts: CovariateCounts):
    """Gradient and negated Hessian of :func:`_covariate_loglik` in (gamma_k, beta), summed by class."""
    k = gamma_k.size
    grad = np.concatenate([counts.wy, counts.xy])
    hess = np.zeros((k + beta.size,) * 2)
    curv, cross = hess.reshape(-1)[::len(hess) + 1][:k], hess[:k, k:]   # views
    for x, slabs in _class_slabs(gamma_k, beta, counts):
        curved = np.zeros(x.shape[1])
        for p, n, mu in slabs:
            with np.errstate(over="ignore"):   # mu = 1 / (1 + exp(-eta)), 0 on overflow
                np.exp(mu, out=mu)
            mu += 1.0
            np.reciprocal(mu, out=mu)
            n = n * mu
            grad[:k][p] -= n.sum(axis=1)
            grad[k:] -= (n @ x.T).sum(axis=0)
            np.subtract(1.0, mu, out=mu)
            n *= mu
            curv[p] += n.sum(axis=1)
            curved += n.sum(axis=0)
            cross[p] += n @ x.T
        hess[k:, k:] += (x * curved) @ x.T
    hess[k:, :k] = cross.T
    return grad, hess
