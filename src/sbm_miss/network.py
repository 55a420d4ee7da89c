"""Partially observed binary networks, covariates, and shared numerics.

A partially observed network is tri-state: every dyad (unordered pair of
distinct nodes for undirected networks, ordered pair otherwise) is absent (0),
present (1) or missing.  Missing dyads are carried as NaN inside a dense float
matrix; the diagonal is structurally undefined and never enters any sum.

Both likelihood families, rate and logistic, live here, with ``newton_ascent``,
the one Newton loop of every logistic M step (the covariate SBM's included).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np
import numpy.random   # noqa: F401  at import: numpy loads it on first use, and every fit seeds through it

from .errors import InputError, NumericalError

# Probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP] before any log:
# degenerate M-steps can produce exact 0/1 entries.
PROB_CLAMP = 1e-12
_TINY = np.finfo(float).tiny
SLAB = 8192   # entries per temporary array: class count walks, writers' blocks, nu's logit and entropy


def logistic(x, out=None):
    """Logistic function 1 / (1 + exp(-x)), the package's one sigmoid, in four
    in-place passes over numpy's vectorised ``exp``; ``out`` may be ``x``, and
    a scalar gives a scalar.  exp(-x) = inf (x < -709.78) gives exactly 0, with
    no warning.  Within 4 ulp of ``scipy.special.expit``, whose libm ``exp``
    can differ from numpy's in the last bit."""
    with np.errstate(over="ignore"):
        out = np.negative(x, out=out, dtype=float)
        if not out.ndim:
            return 1.0 / (1.0 + np.exp(out))
        np.exp(out, out=out)
        out += 1.0
        return np.reciprocal(out, out=out)


def log_sigmoid(x, out=None):
    """log(1 / (1 + exp(-x))) as min(x, 0) - log1p(exp(-|x|)), overflow-free.

    Built from numpy's vectorised ``exp`` and ``log1p`` with one scratch
    array of the size of ``x``; ``out`` may be ``x`` itself.
    """
    x = np.asarray(x, dtype=float)
    tail = np.abs(x)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    out = np.minimum(x, 0.0, out=out)
    out -= tail
    return out


def xlogx(x: np.ndarray) -> np.ndarray:
    """x log x with 0 log 0 = 0, as x * log(max(x, tiny)) for a float array
    x >= 0; three ufunc calls, cheap on the n x Q arrays of tau as well."""
    out = np.maximum(x, _TINY)
    np.log(out, out=out)
    np.multiply(out, x, out=out)
    return out


def as_rng(seed) -> np.random.Generator:
    """Build a generator from an int seed >= 0, a SeedSequence, or a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if int(seed) < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def clamp_prob(p):
    """Clip probabilities away from 0 and 1 before taking logs; NaN stays NaN."""
    return np.minimum(np.maximum(p, PROB_CLAMP), 1.0 - PROB_CLAMP)


def read_only(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array, copied unless it is one: a caller's array is never frozen."""
    out = np.asarray(values, dtype=dtype)
    out = out.copy() if out.flags.writeable else out
    out.flags.writeable = False
    return out


def trusted(cls, **fields):
    """The frozen dataclass ``cls`` without its ``__post_init__``, for values the EM loop
    built: how it built them guarantees the shapes, ranges, sums and symmetry checked there.
    Float arrays, never a caller's, are frozen in place; a non-finite one is a NumericalError."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, (np.ndarray, np.floating)):   # a 0-d result of a ufunc is a scalar
            value = np.asarray(value)
            if not np.isfinite(value).all():
                raise NumericalError(f"{cls.__name__}.{name} entries are not finite")
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def rate_loglik(obs, total, rate) -> float:
    """Bernoulli log-likelihood of per-stratum rates from expected counts:
    sum(obs log rate + (total - obs) log(1 - rate)), rates clamped."""
    rate = clamp_prob(rate)
    return float((obs * np.log(rate) + (total - obs) * np.log1p(-rate)).sum())


def logistic_loglik(x, y, coef, weights=None) -> float:
    """(Weighted) Bernoulli log-likelihood of responses y under the logistic
    model p = logistic(x @ coef), probabilities clamped before the logs."""
    prob = clamp_prob(logistic(x @ coef))
    ll = y * np.log(prob) + (1.0 - y) * np.log1p(-prob)
    return float((ll if weights is None else weights * ll).sum())


def rate_update(obs, total, prev, directed: bool) -> tuple[np.ndarray, bool]:
    """Maximizer obs / total of :func:`rate_loglik`, and whether a stratum
    without mass kept its rate from ``prev``.

    Q x Q rates are symmetrized on undirected networks, and every rate is
    clipped to [0, 1], since sums over blocks can round obs past total.
    """
    rate = np.divide(obs, total, out=np.array(prev, dtype=float), where=total > 0)
    if rate.ndim == 2 and not directed:
        rate = 0.5 * (rate + rate.T)
    return np.minimum(np.maximum(rate, 0.0), 1.0), bool(np.any(total <= 0))


def safe_log(p):
    """log of a probability, clamped so degenerate 0/1 values stay finite."""
    return np.log(clamp_prob(p))


def safe_logit(p):
    """logit of a probability with the same clamping as :func:`safe_log`."""
    p = clamp_prob(p)
    return np.log(p) - np.log1p(-p)


def l1_similarity(x, y):
    """Componentwise -|x - y|, the default nodal-to-dyad similarity."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError(f"similarity arguments differ in shape: {x.shape} vs {y.shape}")
    return -np.abs(x - y)


SIMILARITIES: dict[str, Callable] = {"l1": l1_similarity}


def _resolve_similarity(similarity):
    if callable(similarity):
        return similarity
    try:
        return SIMILARITIES[similarity]
    except KeyError:
        raise InputError(f"unknown similarity {similarity!r}") from None


class PartialAdjacency:
    """Tri-state adjacency matrix of a partially observed binary network.

    Parameters
    ----------
    matrix:
        Square array with entries in {0, 1, NaN}; NaN marks a missing dyad.
        The diagonal is ignored (forced to NaN).  Undirected networks must be
        symmetric, missing entries included.
    directed:
        Whether dyads are ordered pairs.

    The object is immutable after construction and safe to share between
    threads.  Canonical dyad order is row-major over ``i < j`` (undirected)
    or over all ordered pairs ``i != j`` (directed).  The cached read-only
    index arrays ``pairs``, ``observed_pairs``, ``missing_pairs`` and
    ``missing_flat`` are the one dyad index of the package: every dyad set
    is read from them.  ``missing_flat`` comes with the mirrored indices that
    ``fill_missing`` writes, and ``missing_pairs`` is derived from it only for
    a caller that asks.  ``dyads`` and ``entry`` are the per-dyad reference.
    """

    def __init__(self, matrix, directed: bool = False):
        m = np.array(matrix, dtype=float, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("adjacency matrix must be square")
        n = m.shape[0]
        if n < 1:
            raise InputError("network needs at least one node")
        np.fill_diagonal(m, np.nan)
        nan = np.isnan(m)   # boolean masks only: the diagonal is NaN on both sides of each test
        if not (nan | (m == 0.0) | (m == 1.0)).all():
            raise InputError("adjacency entries must be 0, 1 or missing")
        if not directed and not ((nan & nan.T) | (m == m.T)).all():
            raise InputError("undirected adjacency must be symmetric, missing dyads included")
        m.flags.writeable = False
        self._matrix = m
        self.directed = bool(directed)

    # -- basic shape -------------------------------------------------------

    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only view, NaN on missing dyads and on the diagonal."""
        return self._matrix

    @property
    def n_dyads(self) -> int:
        n = self.n
        return n * (n - 1) if self.directed else n * (n - 1) // 2

    # -- accessors ---------------------------------------------------------

    def entry(self, i: int, j: int):
        """Value of dyad (i, j): 0, 1, or None when missing."""
        if i == j:
            raise InputError("self-dyads are undefined")
        v = self._matrix[i, j]
        return None if np.isnan(v) else int(v)

    def dyads(self) -> Iterator[tuple[int, int]]:
        """Canonical dyad order."""
        n = self.n
        if self.directed:
            return ((i, j) for i in range(n) for j in range(n) if i != j)
        return ((i, j) for i in range(n) for j in range(i + 1, n))

    @cached_property
    def observed_mask(self) -> np.ndarray:
        """R matrix: 1 where the dyad is observed, 0 where missing (0 diagonal)."""
        r = np.where(np.isnan(self._matrix), 0.0, 1.0)
        np.fill_diagonal(r, 0.0)
        r.flags.writeable = False
        return r

    @cached_property
    def observed_nodes(self) -> np.ndarray:
        """V: 1 for a node whose dyads are all observed (its row, and on
        directed networks its column as well), 0 otherwise."""
        nan = np.isnan(self._matrix)
        np.fill_diagonal(nan, False)
        full = ~nan.any(axis=1)
        if self.directed:
            full &= ~nan.any(axis=0)
        v = full.astype(float)
        v.flags.writeable = False
        return v

    def _pairs_where(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read-only, C-contiguous (rows, cols) of the dyads where ``keep``
        holds, canonical order: copies of ``np.nonzero``'s strided views."""
        np.fill_diagonal(keep, False)
        rows, cols = map(np.ascontiguousarray, np.nonzero(keep if self.directed else np.triu(keep)))
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (rows, cols) of every dyad in canonical order."""
        return self._pairs_where(np.ones((self.n, self.n), dtype=bool))

    @cached_property
    def missing_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (rows, cols) of missing dyads in canonical order, from ``missing_flat``."""
        rows, cols = divmod(self.missing_flat, self.n)
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    @cached_property
    def observed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (rows, cols) of observed dyads in canonical order."""
        return self._pairs_where(~np.isnan(self._matrix))

    @cached_property
    def missing_flat(self) -> np.ndarray:
        """Row-major flat indices mi * n + mj of the missing dyads, in
        canonical order: an n x n matrix's values at the missing dyads are
        ``matrix.take(missing_flat)``.  Built with ``_mirror``, the indices
        mj * n + mi (the same array when directed)."""
        keep = np.isnan(self._matrix)
        np.fill_diagonal(keep, False)
        flat = np.flatnonzero(keep if self.directed else np.triu(keep))
        self._mirror = flat if self.directed else flat % self.n * self.n + flat // self.n
        flat.flags.writeable = self._mirror.flags.writeable = False
        return flat

    def missing_dyads(self) -> list[tuple[int, int]]:
        mi, mj = self.missing_pairs
        return list(zip(mi.tolist(), mj.tolist()))

    @property
    def n_missing(self) -> int:
        return self.missing_flat.size

    @property
    def n_observed(self) -> int:
        return self.n_dyads - self.n_missing

    @property
    def fully_observed(self) -> bool:
        return self.n_missing == 0

    @cached_property
    def observed_degrees(self) -> np.ndarray:
        """Row sums over the observed dyads (out-degrees when directed)."""
        d = np.nansum(self._matrix, axis=1)
        d.flags.writeable = False
        return d

    @cached_property
    def n_edges(self) -> float:
        """Number of observed dyads with value 1."""
        edges = float(self.observed_degrees.sum())
        return edges if self.directed else edges / 2

    @property
    def observed_density(self) -> float:
        """Edge frequency among observed dyads (0.5 fallback when none)."""
        return self.n_edges / self.n_observed if self.n_observed else 0.5

    # -- derived matrices ----------------------------------------------------

    def filled(self, missing_values=None) -> np.ndarray:
        """Dense float matrix with the diagonal at 0 and missing dyads filled.

        ``missing_values`` may be None (requires a fully observed network),
        a scalar, or a vector aligned with :attr:`missing_pairs`; they are
        written by :meth:`fill_missing`.
        """
        out = np.array(self._matrix, order="C")
        np.fill_diagonal(out, 0.0)
        if self.n_missing:
            if missing_values is None:
                raise InputError("network has missing dyads but no fill values were given")
            self.fill_missing(out, missing_values)
        return out

    def fill_missing(self, out: np.ndarray, missing_values) -> None:
        """Write ``missing_values`` (a scalar or a vector aligned with
        :attr:`missing_pairs`) into the C-ordered n x n matrix ``out`` in
        place, through :attr:`missing_flat` and, on undirected networks, the
        cached mirrored indices mj * n + mi as well.  Other entries are untouched."""
        vals = np.asarray(missing_values, dtype=float)
        flat = out.reshape(-1)   # a view: out is C-contiguous
        flat[self.missing_flat] = vals
        if not self.directed:
            flat[self._mirror] = vals

    def values_at(self, rows, cols) -> np.ndarray:
        """Values of the dyads (rows[k], cols[k]): 0, 1, or NaN where missing."""
        return self._matrix[rows, cols]

    def pair_matrices(self) -> "PairMatrices":
        """A fresh store of the pair matrices for one fit: every store is built here."""
        return PairMatrices(self)

    def mask_where(self, keep: np.ndarray) -> "PartialAdjacency":
        """Copy with every dyad where ``keep`` is false turned missing."""
        out = np.array(self._matrix)
        out[~keep.astype(bool)] = np.nan
        if not self.directed:
            out = np.where(np.isnan(out) | np.isnan(out.T), np.nan, out)
        return PartialAdjacency(out, directed=self.directed)

    def __eq__(self, other):
        if not isinstance(other, PartialAdjacency):
            return NotImplemented
        if self.directed != other.directed or self.n != other.n:
            return False
        a, b = self._matrix, other._matrix
        return bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"PartialAdjacency(n={self.n}, {kind}, missing={self.n_missing}/{self.n_dyads})"


def check_dense_size(n: int) -> None:
    """Refuse a node count whose one n x n float matrix alone exceeds physical memory."""
    need, budget = 8 * n * n, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > budget:
        raise InputError(f"{n} nodes need {need} bytes for one n x n float matrix, "
                         f"over the {budget} bytes of physical memory")


class PairMatrices:
    """The pair matrices of the bound, stored dense: y (the observed network,
    missing dyads at nu), the mask R and, as None, the all-ones pairs off the
    diagonal.  The EM loop reads pair storage through these five methods only; with
    ``at_missing``, an MNAR fit holds y and |M|-sized vectors, and no other n x n array."""

    def __init__(self, adj: PartialAdjacency):
        self.adj, self.directed = adj, adj.directed
        self._y = self._y_nu = None   # the one n x n buffer of y, and the nu array it holds
        self._bounds = None   # at_missing's block bounds in missing_flat, on first use

    def y(self, nu) -> np.ndarray:
        """y at ``nu``; at 0, a fresh matrix per call, for nu None (MAR fits).  The buffer is
        rewritten at the missing dyads only for another nu array than it holds (nu arrays
        are never written once built); a caller's y is valid until the next call."""
        if nu is None:
            return self.adj.filled(0.0)
        if self._y is None:
            self._y = self.adj.filled(nu)
        elif self.adj.n_missing and nu is not self._y_nu:
            self.adj.fill_missing(self._y, nu)
        self._y_nu = nu
        return self._y

    def r(self) -> np.ndarray:
        """The mask R, built on first use and held by the network."""
        return self.adj.observed_mask

    def times(self, m, t: np.ndarray):
        """(m t, m' t) for a pair matrix m of the store, None for the all-ones pairs
        (column sums less t); m' t is None when undirected, where m is symmetric."""
        rows = t.sum(axis=0) - t if m is None else m @ t
        return rows, ((rows if m is None else m.T @ t) if self.directed else None)

    def at_missing(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``(left @ right.T).take(missing_flat)``, bit for bit, into one |M| vector: one
        product and one take per block of ``max(1, SLAB // n)`` rows holding a missing dyad."""
        flat, n = self.adj.missing_flat, self.adj.n
        step = max(1, SLAB // n)
        if step >= n:   # one block, of at most SLAB entries: the per-block slicing would cost more
            return (left @ right.T).take(flat)
        if self._bounds is None:
            self._bounds = np.searchsorted(flat, np.arange(0, n + step, step) * n).tolist()
        out = np.empty(flat.size)
        for start, lo, hi in zip(range(0, n, step), self._bounds, self._bounds[1:]):
            if hi > lo:   # a writeable index, as numpy copies a read-only one; "clip" does not buffer out
                np.take(left[start:start + step] @ right.T, flat[lo:hi] - start * n,
                        out=out[lo:hi], mode="clip")
        return out

    @staticmethod
    def quad(m, tau: np.ndarray) -> np.ndarray:
        """tau' m tau, left to right.  For None, tau' (1 - I) tau, the block-pair mass of all
        ordered pairs of distinct nodes, as s s' - tau' tau with s the column sums of tau."""
        if m is not None:
            return tau.T @ m @ tau
        s = tau.sum(axis=0)
        return np.outer(s, s) - tau.T @ tau


@dataclass(frozen=True)
class Partition:
    """Hard node clustering: 0-based block labels and block count q."""

    labels: np.ndarray
    q: int

    def __post_init__(self):
        labels = read_only(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if self.q < 1:
            raise InputError("block count must be >= 1")
        if labels.ndim != 1 or labels.size == 0:
            raise InputError("labels must be a non-empty vector")
        if labels.min() < 0 or labels.max() >= self.q:
            raise InputError("labels out of range for the declared block count")

    @classmethod
    def from_labels(cls, labels: Sequence[int], q: int | None = None) -> "Partition":
        labels = np.asarray(labels, dtype=int)
        if q is None:
            q = int(labels.max()) + 1 if labels.size else 1
        return cls(labels=labels, q=q)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class CovariateSet:
    """Covariates attached to a network, on nodes or directly on dyads.

    Nodal covariates are length-n vectors (one scalar per node per covariate)
    and are transferred to the dyad level by a symmetric similarity function.
    Dyadic covariates are n x n matrices; ``kind`` is "dyadic" when any are held.
    A similarity is a name in ``SIMILARITIES`` or an elementwise callable: on equal-shape
    arrays a, b of node values it returns the similarities of (a[k], b[k]).  Fits read
    nodal sets at the pairs they need (``at_pairs``), never as n x n matrices.
    """

    nodal: tuple = ()
    dyadic: tuple = ()
    similarity: str | Callable = "l1"

    def __post_init__(self):
        object.__setattr__(self, "nodal", tuple(np.asarray(v, dtype=float) for v in self.nodal))
        object.__setattr__(self, "dyadic", tuple(np.asarray(m, dtype=float) for m in self.dyadic))
        for v in self.nodal:
            if v.ndim != 1:
                raise InputError("nodal covariates must be vectors")
            if not np.isfinite(v).all():
                raise InputError("nodal covariate entries must be finite")
        for m in self.dyadic:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InputError("dyadic covariates must be square matrices")
            if not np.isfinite(m).all():
                raise InputError("dyadic covariate entries must be finite")
        counts = sorted({v.size for v in self.nodal} | {m.shape[0] for m in self.dyadic})
        if len(counts) > 1:
            raise InputError(f"covariates must share one node count, got {counts}")

    @classmethod
    def from_nodal(cls, vectors: Sequence, similarity="l1") -> "CovariateSet":
        return cls(nodal=tuple(vectors), similarity=similarity)

    @classmethod
    def from_dyadic(cls, matrices: Sequence) -> "CovariateSet":
        return cls(dyadic=tuple(matrices))

    @property
    def kind(self) -> str:
        return "dyadic" if self.dyadic else "nodal"

    @property
    def m(self) -> int:
        """Number of dyad-level covariates (after transfer)."""
        return len(self.dyadic) if self.dyadic else len(self.nodal)

    @property
    def m_nodal(self) -> int:
        return len(self.nodal)

    @property
    def n(self) -> int:
        if self.dyadic:
            return self.dyadic[0].shape[0]
        if self.nodal:
            return self.nodal[0].size
        raise InputError("empty covariate set has no node count")

    def nodal_matrix(self) -> np.ndarray:
        """n x m_nodal design matrix of the nodal covariates."""
        if not self.nodal:
            raise InputError("no nodal covariates available")
        return np.column_stack(self.nodal)

    def at_pairs(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """m x P array of the dyad-level covariates at the P pairs (rows[k], cols[k]):
        the dyadic matrices' entries, or the similarity of (v[rows], v[cols]) per
        nodal covariate v, bit for bit ``transfer_covariates(self).at_pairs``."""
        if self.dyadic:
            return np.array([x[rows, cols] for x in self.dyadic])
        sim = _resolve_similarity(self.similarity)
        return np.array([sim(v[rows], v[cols]) for v in self.nodal], dtype=float)


def check_nodes(what: str, given, n: int) -> None:
    """Refuse clusters or covariates (anything with a node count) sized for another network."""
    if given is not None and given.n != n:
        raise InputError(f"{what} given for {given.n} nodes, the network has {n}")


def transfer_covariates(cov: CovariateSet) -> CovariateSet:
    """Transfer nodal covariates to the dyad level (identity on dyadic sets).

    Each nodal covariate v produces one dyadic matrix, the similarity of (v[i], v[j])
    at (i, j) (see :class:`CovariateSet`), with the nodal vectors retained.  Only n x n
    outputs need it; fits read nodal sets at pairs (``CovariateSet.at_pairs``).
    """
    if cov.kind == "dyadic":
        return cov
    if not cov.nodal:
        raise InputError("nodal covariate set is empty")
    n = cov.n
    sim = _resolve_similarity(cov.similarity)
    mats = [sim(np.broadcast_to(vec[:, None], (n, n)), np.broadcast_to(vec[None, :], (n, n)))
            for vec in cov.nodal]
    return CovariateSet(nodal=cov.nodal, dyadic=tuple(mats), similarity=cov.similarity)


def degrees(adj: PartialAdjacency, impute=None) -> np.ndarray:
    """Node degrees D_i = sum_j y_ij, with missing dyads imputed.

    ``impute`` is a vector nu aligned with ``adj.missing_pairs``, or None on
    a fully observed network (the observed-dyad row sums alone are
    ``adj.observed_degrees``).  Directed networks use row sums
    (out-degrees).  The values at the missing dyads are added per node.
    """
    if impute is None and adj.n_missing:
        raise InputError("missing dyads present: supply imputation values")
    out = np.array(adj.observed_degrees)
    if adj.n_missing:
        mi, mj = adj.missing_pairs
        nu = np.broadcast_to(np.asarray(impute, dtype=float), mi.shape)
        out += np.bincount(mi, weights=nu, minlength=adj.n)
        if not adj.directed:
            out += np.bincount(mj, weights=nu, minlength=adj.n)
    return out


def newton_ascent(objective, system, theta: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Damped Newton ascent of a concave ``objective`` from ``theta``, with
    ``system(theta)`` = (gradient, negated Hessian), ridged by 1e-10.  A step
    is halved up to 20 times until the objective falls by at most 1e-12, so
    separation gives large finite values; stops after 25 steps, when no
    halving is accepted, or once a step moves no parameter by 1e-8.  ``what``
    names the fit in the errors.  Returns (theta, objective(theta))."""
    current = objective(theta)
    for _ in range(25):
        grad, hess = system(theta)
        hess.flat[::len(hess) + 1] += 1e-10
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular Hessian in {what}") from exc
        if not np.isfinite(step).all():
            raise NumericalError(f"non-finite Newton step in {what}")
        scale = 1.0
        for _ in range(20):
            candidate = theta + scale * step
            value = objective(candidate)
            if value >= current - 1e-12:
                break
            scale *= 0.5
        else:
            break
        theta, current = candidate, value
        if np.max(np.abs(scale * step)) < 1e-8:
            break
    return theta, current


def fit_logistic(x: np.ndarray, y: np.ndarray, weights=None, start=None) -> tuple[np.ndarray, float]:
    """(Weighted) logistic regression by :func:`newton_ascent`: ``x`` is the
    n x p design matrix (a column of ones for an intercept), ``y`` binary,
    ``weights`` non-negative case weights, ``start`` the initial coefficients
    (zeros by default).  Returns (coefficients, log-likelihood)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones(y.shape) if weights is None else np.asarray(weights, dtype=float)
    coef = np.zeros(x.shape[1]) if start is None else np.array(start, dtype=float)

    def system(c):
        prob = logistic(x @ c)
        return x.T @ (w * (y - prob)), (x * (w * prob * (1.0 - prob))[:, None]).T @ x

    return newton_ascent(lambda c: logistic_loglik(x, y, c, w), system, coef, "logistic fit")
