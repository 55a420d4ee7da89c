"""Variational EM for the SBM under partial observation.

The latent variables are the block memberships and, for MNAR designs, the
missing dyads themselves.  The variational family factorizes completely:
multinomial rows tau for memberships, independent Bernoulli means nu for the
missing dyads.  The VE step runs a fixed-point update of (tau, nu).  Each
round updates all tau rows at once, by the mean-field fixed point of the
classical SBM VEM (row-softmax of log alpha plus the terms of block strata
of nodes plus the node-coupling gradient P(tau), computed with whole-matrix
products).  A backtracking safeguard takes the longest step towards that
proposal, halving it as needed, that does not lower the bound at fixed
parameters and nu, so the ELBO stays monotone.  nu is then updated jointly
(the bound separates over missing dyads for every design except those whose
logistic features are expected degrees, whose coupled update is safeguarded
by backtracking); the model logit of every missing dyad is read from the
rank-Q product tau L tau' at the missing dyads only, by the store's
``at_missing``, a block of rows at a time.  The covariate SBM's coupling
takes log sigma per block pair at the V covariate classes only
(``sbm.covariate_class_index``).  In the M step, pi and the psi of the rate
designs are one rate family: expected counts per stratum, then
``network.rate_update``.  The logistic designs take damped Newton fits.  The
mask R and the observed nodes V come from the network itself; R is read only
by the designs whose terms weight it (MAR designs and block-pair strata),
so other MNAR fits never build it.  The M step and the bound that follows it
share one set of block-pair counts.

Under MAR designs the missing dyads drop from the objective: the SBM factor
restricts to observed dyads, a MAR fit's state carries no nu
(``_Engine.initial_nu``), and imputation predicts the missing dyads post hoc.
The pair matrices y = A_obs + nu, R and the all-ones pairs are read only
through the fit's one ``network.PairMatrices`` store; under MNAR designs it
holds y as one n x n buffer, rewritten at the missing dyads when nu changes.
Beside it, nu, its logits and its entropy terms are |M|-sized vectors.

The outer loop is EM accelerated by SQUAREM (Varadhan & Roland 2008, Scand.
J. Statist. 35:335) for every design.  The map is one EM iteration of the
parameters (alpha, pi or gamma/beta, psi), with tau and nu carried along; an
extrapolated step is kept only if the bound after one stabilising EM step
falls by no more than ``ELBO_SLACK``, so the monitored bound stays monotone.
``fit_single`` gives the cycle and what ``MonitorRow.iter`` counts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import astuple, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .network import (
    SLAB,
    CovariateSet,
    PartialAdjacency,
    Partition,
    check_nodes,
    clamp_prob,
    log_sigmoid,
    logistic,
    rate_update,
    read_only,
    safe_log,
    safe_logit,
    transfer_covariates,
    trusted,
    xlogx,
)
from .sampling import (
    DESIGNS,
    SamplingDesign,
    design_df,
    design_spec,
    make_default_design,
    nu_logit_correction,
    sampling_loglik,
    tau_pairwise_logs,
    tau_static_terms,
    update_psi,
)
from .sbm import (
    SbmParams,
    _dyad_covariates,
    block_pair_counts,
    covariate_class_index,
    covariate_classes,
    covariate_counts,
    covariate_effect,
    expected_loglik_sbm,
    fit_covariate_connectivity,
    kmeans,
    predict_probabilities,
    spectral_embedding,
    spectral_init,
)

INIT_SOFTENING = 1e-3
ELBO_SLACK = 1e-8
ICL_TIE_TOL = 1e-10     # relative ICL gain an exploration candidate must beat
VE_STEPS = tuple(0.5 ** k for k in range(10))   # step lengths tried by the VE safeguard: 1, 1/2, ..., 1/512
VE_GAIN_SLACK = 1e-12   # rounding allowance on the gain of one VE round

_LOG = logging.getLogger("sbm_miss")


def derive_seed(base: int, *keys: int) -> np.random.SeedSequence:
    """Stable child seed; identical inputs give identical streams everywhere."""
    return np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(k) for k in keys))


@dataclass(frozen=True)
class VariationalState:
    """Variational parameters: membership probabilities and imputation means.

    ``nu`` is aligned with the canonical missing-dyad order of the network it
    was fitted on; it is None for MAR fits, where the missing dyads play no
    role in the objective.  Both are read-only, copied unless given so.
    """

    tau: np.ndarray
    nu: Optional[np.ndarray] = None

    def __post_init__(self):
        tau = read_only(self.tau)
        object.__setattr__(self, "tau", tau)
        if tau.ndim != 2:
            raise InputError("tau must be an n x Q matrix")
        if not np.isfinite(tau).all() or (tau < 0).any() or np.abs(tau.sum(axis=1) - 1.0).max() > 1e-8:
            raise InputError("tau rows must be probability vectors")
        if self.nu is not None:
            nu = read_only(self.nu)
            object.__setattr__(self, "nu", nu)
            if nu.size and not (nu.min() >= 0 and nu.max() <= 1):   # False on NaN
                raise InputError("nu values must lie in [0, 1]")

    def memberships(self) -> np.ndarray:
        return self.tau.argmax(axis=1)


@dataclass
class ControlOptions:
    """Tuning knobs of the estimation loop."""

    threshold: float = 1e-2
    max_iter: int = 50
    fix_point_iter: int = 3
    exploration: str = "both"
    iterates: int = 1
    use_cov: bool = False
    rng_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.threshold < math.inf:   # False on NaN
            raise InputError("threshold must be finite and positive")
        if self.max_iter < 1 or self.fix_point_iter < 1 or self.iterates < 1 or self.workers < 1:
            raise InputError("iteration counts must be positive")
        if self.rng_seed < 0:
            raise InputError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.exploration not in ("forward", "backward", "both", "none"):
            raise InputError("exploration must be forward, backward, both or none")


@dataclass(frozen=True)
class MonitorRow:
    """One kept evaluation of a fit: ``iter`` counts evaluations of the EM
    map (see :func:`fit_single`), ``delta`` is the largest move of the
    connection parameters since the previous row."""

    iter: int
    elbo: float
    delta: float
    flags: tuple[str, ...] = ()


def icl_penalty(q: int, k: int, n: int, centering_kind: str,
                directed: bool = False, n_covariates: int = 0) -> float:
    """Model-selection penalty; sampling parameters are charged at the scale
    of their data (dyad pairs or nodes)."""
    n_pairs = n * (n - 1) if directed else n * (n - 1) / 2
    conn = (q * q if directed else q * (q + 1) / 2) + n_covariates
    if centering_kind == "dyad-centered":
        return float((k + conn) * math.log(n_pairs) + (q - 1) * math.log(n))
    if centering_kind == "node-centered":
        return float(conn * math.log(n_pairs) + (k + q - 1) * math.log(n))
    raise InputError(f"unknown centering {centering_kind!r}")


def _nu_entropy(nu: np.ndarray) -> float:
    """Entropy of the means nu: terms SLAB at a time into one array, then numpy's pairwise sum of it."""
    terms = np.empty(nu.size)
    for start in range(0, nu.size, SLAB):
        part = nu[start:start + SLAB]
        np.add(xlogx(part), xlogx(1.0 - part), out=terms[start:start + SLAB])
    return float(-terms.sum())


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class _Engine:
    """Per-fit precomputations and the VE/M/ELBO primitives.

    ``tag`` may be None for a pure SBM fit on the observed part of the data
    (no sampling factor in the objective).
    """

    def __init__(self, adj: PartialAdjacency, tag: Optional[str],
                 covariates: Optional[CovariateSet], use_cov: bool):
        spec = design_spec(tag, covariates=covariates) if tag is not None else None
        if use_cov and covariates is None:
            raise InputError("use_cov requires covariates")
        check_nodes("covariates", covariates, adj.n)
        self.adj = adj
        self.tag = tag
        self.directed = adj.directed
        # nu enters the SBM factor only under MNAR designs (see initial_nu)
        self.mnar = spec is not None and spec.mechanism == "MNAR"
        self.use_cov = use_cov
        # transferred once per fit; nodal vectors stay on it for nodal covariate features
        self.covariates = transfer_covariates(covariates) if covariates is not None else None
        self.sbm_covariates = self.covariates if use_cov else None
        self._classes = None   # use_cov: the dyads in play by covariate class, sorted on first use
        self._class_index = None   # use_cov: n x n index of each dyad's class, built with them
        self.damped_rounds = 0   # VE rounds whose full step was shortened or refused
        self._counts = (None, None)   # (state, its block_counts)
        self.store = adj.pair_matrices()   # the fit's pair matrices y, R and the all-ones pairs

    # -- initialization ------------------------------------------------------

    def initial_state(self, init: Partition, q: int) -> VariationalState:
        """Hard labels to near-hard tau; exact zeros would freeze the fixed point."""
        tau = np.full((init.n, q), INIT_SOFTENING)
        tau[np.arange(init.n), init.labels] = 1.0 - (q - 1) * INIT_SOFTENING
        return VariationalState(tau=tau, nu=self.initial_nu())

    def initial_nu(self) -> Optional[np.ndarray]:
        """Starting imputation means: the observed density under MNAR, None otherwise."""
        return np.full(self.adj.n_missing, clamp_prob(self.adj.observed_density)) if self.mnar else None

    def block_counts(self, state: VariationalState):
        """``block_pair_counts``, or ``covariate_counts`` under ``use_cov``, of
        the SBM factor at ``state``, kept for the last state seen: the M step
        and the bound that follows it read the same counts, built once per EM iteration."""
        if self._counts[0] is not state:
            counts = (covariate_counts(self.adj, state, self.covariates, self.classes()) if self.use_cov
                      else block_pair_counts(self.adj, state, self.store))
            self._counts = (state, counts)
        return self._counts[1]

    def classes(self):
        """use_cov: ``covariate_classes`` of the dyads in play, and their ``covariate_class_index``."""
        if self._classes is None:
            self._classes = covariate_classes(self.adj, self.covariates, self.mnar)
            self._class_index = covariate_class_index(self._classes, self.adj.n, self.directed)
        return self._classes

    # -- M step ---------------------------------------------------------------

    def m_step(self, state: VariationalState, prev: Optional[SbmParams],
               design: Optional[SamplingDesign]):
        alpha = state.tau.mean(axis=0)
        flags: tuple[str, ...] = ()
        if self.use_cov:
            start = (prev.gamma, prev.beta) if prev is not None and prev.variant == "covariate" else None
            gamma, beta = fit_covariate_connectivity(self.adj, state, self.covariates,
                                                     start=start, counts=self.block_counts(state))
            params = trusted(SbmParams, alpha=alpha, gamma=gamma, beta=beta, directed=self.directed)
        else:
            fallback = prev.pi if prev is not None else np.full((alpha.size,) * 2, self.adj.observed_density)
            pi, kept = rate_update(*self.block_counts(state), fallback, self.directed)
            if kept:
                flags += ("empty block pair: pi entry kept",)
            params = trusted(SbmParams, alpha=alpha, pi=pi, directed=self.directed)
        new_design = design
        if self.tag is not None:
            new_design, psi_flags = update_psi(design, state, self.adj, self.covariates)
            flags += psi_flags
        return params, new_design, flags

    # -- VE step ---------------------------------------------------------------

    def ve_step(self, params: SbmParams, design: Optional[SamplingDesign],
                state: VariationalState, rounds: int) -> VariationalState:
        tau, nu = state.tau, state.nu
        linear, tables, cov_effect = self._ve_terms(params, design)
        y = None if self.mnar else self.store.y(None)
        grad = None
        for _ in range(rounds):
            if self.mnar:
                y = self.store.y(nu)
                grad = None
            if grad is None:
                grad = self._coupling(params, tables, cov_effect, y, tau)
            s = linear + grad
            if not np.isfinite(s).all():
                raise NumericalError("non-finite membership update")
            s -= s.max(axis=1, keepdims=True)
            proposal = np.exp(s, out=s)
            proposal /= proposal.sum(axis=1, keepdims=True)
            # longest step towards the proposal that does not lower the
            # bound; P is linear, so P(tau + t step) = grad + t grad_step
            step = proposal - tau
            grad_step = self._coupling(params, tables, cov_effect, y, step)
            gain = self._tau_gain(linear, grad, tau, step, grad_step)
            t = next((t for t in VE_STEPS if gain(t) >= -VE_GAIN_SLACK), 0.0)
            del gain   # frees its xlogx(tau) before the nu update
            if t < 1.0:
                self.damped_rounds += 1
            tau = tau + t * step
            grad = grad + t * grad_step
            if self.mnar and self.adj.n_missing:
                nu = self._nu_update(design, tau, nu, tables[0], cov_effect)
        return trusted(VariationalState, tau=tau, nu=nu)

    def _ve_terms(self, params, design):
        """Per-call pieces of the tau update.

        Returns the linear term (log alpha plus the block-strata terms), the
        Q x Q log tables that weight the pair matrices y, R and the all-ones
        matrix off the diagonal (None where a matrix does not enter), and
        beta . X_v per covariate class for the covariate SBM.  The y table is
        the nu update's logit.  Undirected tables are symmetrised (a no-op on a fit's).
        """
        linear = safe_log(params.alpha)[None, :]
        static = tau_static_terms(design, self.adj) if design is not None else None
        if static is not None:
            linear = linear + static
        r_table = off_table = cov_effect = None
        if params.variant == "covariate":
            _dyad_covariates(params, self.sbm_covariates)   # InputError unless beta fits the covariates
            cov_effect = covariate_effect(params, self.classes()[0])
            y_table = params.gamma
        else:
            la = safe_log(params.pi)
            lb = np.log1p(-clamp_prob(params.pi))
            y_table = la - lb
            if self.mnar:
                off_table = lb
            else:
                r_table = lb
        pair_logs = tau_pairwise_logs(design) if design is not None else None
        if pair_logs is not None:   # block-pair strata, always MNAR
            lpsi, lpsic = pair_logs
            r_table = lpsi - lpsic
            off_table = lpsic if off_table is None else off_table + lpsic
        tables = [y_table, r_table, off_table]
        if not self.directed:
            tables = [None if table is None else 0.5 * (table + table.T) for table in tables]
        return linear, tables, cov_effect

    def _coupling(self, params, tables, cov_effect, y, t):
        """n x Q matrix P(t): the gradient in tau of the terms of the bound
        that couple pairs of nodes, evaluated at t.

        P is linear in t, and those terms equal sum(tau * P(tau)) / 2 up to a
        constant.  A pair matrix m with log table L adds
        sum_ij m_ij t_i' L t_j to the bound, halved when the network is
        undirected; m and L are then symmetric, so m t L' and m' t L, the
        two products of the directed gradient, are one.  The covariate SBM adds, per block pair, the kernel
        log sigma(-eta) on the dyads in play: log sigma at the V class values of
        ``cov_effect``, gathered into one n x n buffer through the class index.
        """
        out = np.zeros(t.shape)
        # R is read (and built) only when a design weights it: MAR designs
        # and block-pair strata; other MNAR fits never hold the n x n mask
        r = None if tables[1] is None else self.store.r()
        for m, table in zip((y, r, None), tables):
            if table is None:
                continue
            rows, cols = self.store.times(m, t)
            out += rows @ table.T + cols @ table if self.directed else rows @ table
        if cov_effect is not None:
            # with y * gamma, the logistic dyad term up to y * beta.x; dyads out of
            # play read the last slot, 0 (-0.0 under MAR, the sign of log sigma * R)
            table = np.append(cov_effect, 0.0 if self.mnar else -0.0)
            eta, kernel = table[:-1], np.empty(self._class_index.shape)
            for a in range(params.q):
                for b in range(0 if self.directed else a, params.q):
                    np.add(params.gamma[a, b], cov_effect, out=eta)
                    log_sigmoid(np.negative(eta, out=eta), out=eta)
                    np.take(table, self._class_index, out=kernel, mode="clip")
                    out[:, a] += kernel @ t[:, b]
                    if self.directed or a != b:
                        out[:, b] += kernel.T @ t[:, a]
        return out

    @staticmethod
    def _tau_gain(linear, grad, tau, step, grad_step):
        """The function t -> F(tau + t step) - F(tau), where grad = P(tau)
        and grad_step = P(step); its t-free terms are computed once.

        F(tau) = sum(tau * (linear + P(tau) / 2)) + H(tau) is the
        tau-dependent part of the bound at fixed parameters and nu.  Taken as
        a difference, the gain does not cancel against the size of F.  A
        step towards the row-softmax of linear + P(tau) is an ascent
        direction, so some t > 0 has a positive gain.
        """
        slope = float((step * (linear + grad)).sum())
        curvature = 0.5 * float((step * grad_step).sum())
        entropy = xlogx(tau)
        return lambda t: t * slope + t * t * curvature - float((xlogx(tau + t * step) - entropy).sum())

    def _nu_update(self, design, tau, nu, logit, cov_effect):
        """Imputation means at fixed tau and parameters.

        The model logit of missing dyad (i, j) is tau_i' L tau_j, with L the
        ``logit`` table of ``_ve_terms`` (plus beta . x_ij, per class, for the covariate SBM).  It is
        gathered from the rank-Q product tau L tau' at the dyads' flat indices,
        a block of at most SLAB entries at a time (``PairMatrices.at_missing``).
        """
        base = self.store.at_missing(tau @ logit, tau)
        if cov_effect is not None:
            base += cov_effect.take(self._class_index.take(self.adj.missing_flat))
        coupled = DESIGNS[design.tag].psi == "expected degree"   # _nu_objective reads base below
        z = np.add(base, nu_logit_correction(design, self.adj, nu), out=None if coupled else base)
        proposed = logistic(z, out=z)
        if not coupled:
            return proposed
        # Expected-degree features couple the missing dyads through the
        # degrees; accept the fixed-point proposal only if it does not lower
        # the nu-dependent part of the bound.
        current = self._nu_objective(base, tau, nu, design)
        step = 1.0
        for _ in range(6):
            cand = nu + step * (proposed - nu)
            if self._nu_objective(base, tau, cand, design) >= current - 1e-12:
                return cand
            step *= 0.5
        return nu

    def _nu_objective(self, base, tau, nu, design) -> float:
        value = float(base @ nu)
        value += sampling_loglik(design, trusted(VariationalState, tau=tau, nu=nu), self.adj)
        return value + _nu_entropy(nu)

    # -- objective --------------------------------------------------------------

    def elbo_parts(self, params: SbmParams, design: Optional[SamplingDesign],
                   state: VariationalState) -> tuple[float, float, float]:
        """(elbo, SBM expectation, sampling expectation)."""
        counts = self.block_counts(state)
        vexpec = expected_loglik_sbm(params, self.adj, state, self.sbm_covariates, counts)
        s_ll = 0.0
        if design is not None:
            s_ll = sampling_loglik(design, state, self.adj, self.covariates)
        ent = float(-xlogx(state.tau).sum())
        if state.nu is not None and state.nu.size:
            ent += _nu_entropy(state.nu)
        return vexpec + s_ll + ent, vexpec, s_ll


# ---------------------------------------------------------------------------
# Fit containers
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    """One fitted model at a fixed number of blocks."""

    q: int
    adj: PartialAdjacency
    design: Optional[SamplingDesign]
    params: SbmParams
    state: VariationalState
    covariates: Optional[CovariateSet]
    use_cov: bool
    elbo: float
    vexpec: float
    sampling_ll: float
    penalty: float
    icl: float
    monitoring: list[MonitorRow]
    converged: bool

    @property
    def elbo_trace(self) -> list[float]:
        """The bound after each iteration, initial M step first."""
        return [row.elbo for row in self.monitoring]

    @property
    def memberships(self) -> np.ndarray:
        return self.state.memberships()

    def to_json(self) -> dict:
        def real(x):
            return float(x) if math.isfinite(x) else None

        design_json = None
        if self.design is not None:
            design_json = {"tag": self.design.tag, "psi": np.atleast_1d(self.design.psi).tolist()}
            if DESIGNS[self.design.tag].waves:
                design_json["waves"] = self.design.waves
        sbm = {"alpha": self.params.alpha.tolist(), **{k: v.tolist() for k, v in self.params.arrays.items()}}
        return {
            "Q": self.q,
            "directed": self.adj.directed,
            "use_cov": self.use_cov,
            "design": design_json,
            "sbm": sbm,
            "memberships": (self.memberships + 1).tolist(),
            "tau": self.state.tau.tolist(),
            "icl": real(self.icl),
            "penalty": real(self.penalty),
            "vexpec": real(self.vexpec),
            "sampling_loglik": real(self.sampling_ll),
            "elbo_trace": [real(v) for v in self.elbo_trace],
            "monitoring": [
                {"iter": row.iter, "elbo": real(row.elbo), "delta": real(row.delta)}
                for row in self.monitoring
            ],
            "converged": self.converged,
        }


@dataclass
class FitCollection:
    """Fits over a range of block counts, ordered by Q."""

    models: list[FitResult]
    adj: PartialAdjacency
    sampling: Optional[str]
    covariates: Optional[CovariateSet]
    control: ControlOptions
    # astuple(control) -> the _start_key of each fit under that control; not serialized
    starts: dict = field(default_factory=dict, repr=False)

    @property
    def v_blocks(self) -> list[int]:
        return [fit.q for fit in self.models]

    @property
    def icl(self) -> np.ndarray:
        return np.array([fit.icl for fit in self.models])

    @property
    def best_model(self) -> FitResult:
        icl = self.icl
        return self.models[int(np.argmin(icl))]  # argmin takes the first (smallest Q) on ties

    def optimization_status(self) -> list[dict]:
        rows = []
        for fit in self.models:
            for row in fit.monitoring:
                rows.append({"iter": row.iter, "Q": fit.q, "elbo": row.elbo, "delta": row.delta})
        return rows

    def to_json(self) -> dict:
        return {
            "sampling": self.sampling,
            "vBlocks": self.v_blocks,
            "ICL": [float(v) for v in self.icl],
            "bestQ": self.best_model.q,
            "models": [fit.to_json() for fit in self.models],
        }


# ---------------------------------------------------------------------------
# Single fit
# ---------------------------------------------------------------------------

def _param_delta(prev: SbmParams, new: SbmParams) -> float:
    return max(float(np.abs(a - b).max()) for a, b in zip(new.arrays.values(), prev.arrays.values()))


@dataclass(frozen=True)
class _Point:
    """One evaluation of the EM map: the fitted parameters, the variational
    state they were fitted on and the bound there."""

    params: SbmParams
    design: Optional[SamplingDesign]
    state: VariationalState
    elbo: float
    vexpec: float
    sampling_ll: float
    flags: tuple[str, ...]


def _em_map(eng: _Engine, params: SbmParams, design: Optional[SamplingDesign],
            state: VariationalState, rounds: int) -> _Point:
    """One EM iteration, the map that SQUAREM accelerates: the VE step at
    (params, design) from ``state``, then the M step and the bound."""
    damped = eng.damped_rounds
    state = eng.ve_step(params, design, state, rounds)
    new_params, new_design, flags = eng.m_step(state, params, design)
    if eng.damped_rounds > damped:
        flags = ("VE step damped",) + flags
    value, vexpec, s_ll = eng.elbo_parts(new_params, new_design, state)
    return _Point(new_params, new_design, state, value, vexpec, s_ll, flags)


def _pack(params: SbmParams, design: Optional[SamplingDesign]) -> np.ndarray:
    """The parameters that SQUAREM extrapolates, as one vector in
    unconstrained coordinates: log alpha, then logit pi or (gamma, beta),
    then psi, on the logit scale for the rate designs and as it is for the
    logistic ones.  Matrices enter with every entry, so an off-diagonal
    block pair of an undirected fit weighs twice in the step length, as
    it enters the bound at (a, b) and at (b, a)."""
    parts = [safe_log(params.alpha)]
    parts += [(safe_logit(a) if name == "pi" else a).ravel() for name, a in params.arrays.items()]
    if design is not None:
        psi = safe_logit(design.psi) if DESIGNS[design.tag].family == "rate" else design.psi
        parts.append(psi.ravel())
    return np.concatenate(parts)


def _unpack(x: np.ndarray, params: SbmParams, design: Optional[SamplingDesign]
            ) -> tuple[SbmParams, Optional[SamplingDesign]]:
    """Inverse of :func:`_pack`, shaped like ``params`` and ``design``.

    Every finite vector maps to valid parameters: alpha by a softmax, pi and
    the rates by the logistic function, and the matrices of an undirected
    fit averaged with their transpose (which leaves a symmetric one as it is).
    """
    q, directed = params.q, params.directed
    pos = 0

    def take(shape):
        nonlocal pos
        size = math.prod(shape)
        pos += size
        out = x[pos - size:pos].reshape(shape)
        return out if directed or len(shape) < 2 else (out + out.T) / 2.0

    v = take((q,))
    alpha = np.exp(v - v.max())   # the softmax, as scipy.special.softmax computes it
    alpha /= alpha.sum()
    arrays = {name: take(a.shape) for name, a in params.arrays.items()}
    if "pi" in arrays:
        arrays["pi"] = logistic(arrays["pi"])
    new = trusted(SbmParams, alpha=alpha, directed=directed, **arrays)
    if design is None:
        return new, None
    psi = take(design.psi.shape)
    if DESIGNS[design.tag].family == "rate":
        psi = logistic(psi)
    return new, trusted(SamplingDesign, tag=design.tag, psi=psi, waves=design.waves)


def _squarem_point(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """SQUAREM extrapolation (Varadhan & Roland 2008, step length SqS3) from
    the cycle x0 -> x1 -> x2 of two EM steps: x0 - 2a r + a^2 v with
    r = x1 - x0, v = x2 - x1 - r and a = -|r| / |v| clamped to a <= -1.
    a = -1 gives x2 itself, as does v = 0."""
    r = x1 - x0
    v = x2 - x1 - r
    norm_v = float(np.linalg.norm(v))
    a = min(-1.0, -float(np.linalg.norm(r)) / norm_v) if norm_v > 0.0 else -1.0
    return x0 - 2.0 * a * r + a * a * v


def _log_row(q: int, row: MonitorRow) -> None:
    if _LOG.isEnabledFor(logging.INFO):
        flags = f" ({'; '.join(row.flags)})" if row.flags else ""
        _LOG.info("[fit q=%d] iter %d: elbo=%.6f delta=%.3g%s", q, row.iter, row.elbo, row.delta, flags)


def fit_single(adj: PartialAdjacency, q: int, sampling,
               covariates: Optional[CovariateSet] = None,
               init: Optional[Partition] = None,
               control: Optional[ControlOptions] = None,
               waves: int = 1) -> FitResult:
    """Fit one SBM with q blocks under a sampling design.

    ``sampling`` is a design tag, or None for a pure SBM fit on the observed
    dyads; ``waves`` is the snowball wave count.  The fit starts from the
    design's neutral parameters (``make_default_design``).  The EM
    map (VE step, M step) runs in SQUAREM cycles: two plain EM steps, then
    one stabilising EM step from the extrapolated parameters and the state
    of the second step, kept only if its bound is at least that of the
    second step less ``ELBO_SLACK``; otherwise the next plain step starts
    from the second step.  The fit stops when both the bound and the
    connection parameters move less than the threshold from one monitoring
    row to the next, or after ``max_iter`` evaluations of the map.

    ``monitoring`` gets one row per evaluation whose result is kept: the
    initial M step is row 0, and ``iter`` counts every evaluation,
    refused stabilising ones included.  A kept extrapolation is flagged
    ``"extrapolated"``; a refused one gets no row, so the next row is
    flagged ``"extrapolation refused"`` and its ``iter`` moves on by 2.
    Every row is logged at INFO on the ``"sbm_miss"`` logger.
    Deterministic given the control seed.
    """
    control = control or ControlOptions()
    if q < 1:
        raise InputError("block count must be >= 1")
    if isinstance(sampling, SamplingDesign):
        raise InputError("sampling must be a design tag or None, not a SamplingDesign")
    eng = _Engine(adj, sampling, covariates, control.use_cov)
    start = None if sampling is None else make_default_design(sampling, q, covariates=covariates, waves=waves)
    if init is None:
        init = spectral_init(adj, q, derive_seed(control.rng_seed, q, 0))
    check_nodes("initial partition", init, adj.n)
    if init.q > q:
        raise InputError("initial partition has more blocks than requested")
    init = Partition(labels=init.labels, q=q)

    rounds = control.fix_point_iter
    try:
        state = eng.initial_state(init, q)
        params, design, flags = eng.m_step(state, None, start)
        point = _Point(params, design, state, *eng.elbo_parts(params, design, state), flags)
        del state   # point holds the initial state only until the first kept evaluation
        monitoring = [MonitorRow(0, point.elbo, math.inf, flags)]
        _log_row(q, monitoring[0])
        # packed parameters of the current SQUAREM cycle, point's last; only
        # point keeps its state, the one to fall back on
        cycle = [_pack(params, design)]
        note: tuple[str, ...] = ()
        it = 0
        converged = False
        while it < control.max_iter:
            if len(cycle) < 3:
                it += 1
                new = _em_map(eng, point.params, point.design, point.state, rounds)
            else:
                x = _squarem_point(*cycle)
                new = None
                if np.isfinite(x).all():
                    it += 1
                    try:
                        new = _em_map(eng, *_unpack(x, point.params, point.design), point.state, rounds)
                    except NumericalError:   # refused, as a lower bound is
                        pass
                if new is None or not (math.isfinite(new.elbo) and new.elbo >= point.elbo - ELBO_SLACK):
                    cycle, note = cycle[-1:], ("extrapolation refused",)
                    continue
                cycle, note = [], ("extrapolated",)
            cycle.append(_pack(new.params, new.design))
            delta = _param_delta(point.params, new.params)
            monitoring.append(MonitorRow(it, new.elbo, delta, note + new.flags))
            note = ()
            if not math.isfinite(new.elbo):
                raise NumericalError(f"bound diverged at iteration {it}")
            _log_row(q, monitoring[-1])
            done = abs(new.elbo - point.elbo) < control.threshold and delta < control.threshold
            point = new
            if done:
                converged = True
                break
    except NumericalError as exc:
        raise NumericalError(f"Q={q}: {exc}") from exc

    k = design_df(point.design, q, directed=adj.directed) if sampling is not None else 0
    centering = DESIGNS[sampling].centering if sampling is not None else "dyad-centered"
    penalty = icl_penalty(q, k, adj.n, centering, adj.directed, eng.covariates.m if control.use_cov else 0)
    icl = -2.0 * (point.vexpec + point.sampling_ll) + penalty
    return FitResult(
        q=q, adj=adj, design=point.design, params=point.params, state=point.state,
        covariates=covariates, use_cov=control.use_cov,
        elbo=point.elbo, vexpec=point.vexpec, sampling_ll=point.sampling_ll,
        penalty=penalty, icl=icl, monitoring=monitoring, converged=converged,
    )


def fit_from_json(adj: PartialAdjacency, data: dict,
                  covariates: Optional[CovariateSet] = None) -> FitResult:
    """Rebuild a FitResult from its JSON form and the network it was fitted on.

    The imputation means are not serialized; for MNAR fits they are
    recomputed at their fixed point given the stored tau and parameters.
    """
    try:
        q = int(data["Q"])
        use_cov = bool(data.get("use_cov", False))
        params = SbmParams.from_json({**data["sbm"], "directed": bool(data.get("directed", False))})
        design = None
        if data.get("design") is not None:
            design = SamplingDesign(data["design"]["tag"], data["design"]["psi"],
                                    waves=int(data["design"].get("waves", 1)))
        tau = VariationalState(tau=np.array(data["tau"], dtype=float)).tau   # checked before the nu loop
        penalty = float(data.get("penalty", 0.0))
        stored_icl = None if data.get("icl") is None else float(data["icl"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed fit JSON: {exc}") from None
    if tau.shape != (adj.n, q):
        raise InputError("fit JSON does not match the network dimensions")
    eng = _Engine(adj, design.tag if design is not None else None, covariates, use_cov)
    nu = eng.initial_nu()
    if nu is not None and nu.size:
        _, tables, cov_effect = eng._ve_terms(params, design)
        for _ in range(25):
            nu, prev = eng._nu_update(design, tau, nu, tables[0], cov_effect), nu
            if np.max(np.abs(nu - prev)) < 1e-12:
                break
    state = VariationalState(tau=tau, nu=nu)
    value, vexpec, s_ll = eng.elbo_parts(params, design, state)
    icl_value = -2.0 * (vexpec + s_ll) + penalty if stored_icl is None else stored_icl
    return FitResult(
        q=q, adj=adj, design=design, params=params, state=state,
        covariates=covariates, use_cov=use_cov,
        elbo=value, vexpec=vexpec, sampling_ll=s_ll,
        penalty=penalty, icl=icl_value,
        monitoring=[MonitorRow(0, value, math.inf)], converged=bool(data.get("converged", True)),
    )


# ---------------------------------------------------------------------------
# Imputation
# ---------------------------------------------------------------------------

def impute(fit: FitResult) -> np.ndarray:
    """Dense real matrix: observed dyads copied, missing ones imputed.

    MNAR fits carry the imputation means directly; MAR fits fill in the
    model's predicted connection probabilities post hoc.  Diagonal is 0.
    """
    values = fit.state.nu
    if values is None and fit.adj.n_missing:
        pred = predict_probabilities(fit.params, fit.state,
                                     fit.covariates if fit.use_cov else None)
        values = pred.take(fit.adj.missing_flat)
    return fit.adj.filled(values)


# ---------------------------------------------------------------------------
# Estimation over a range of block counts, with exploration
# ---------------------------------------------------------------------------

def fan_out(func, tasks: list, workers: int) -> list:
    """``func`` of every task, in order; in a pool of ``workers`` processes
    when there is more than one of each."""
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor   # ~15 ms of import, for pools only
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, tasks))
    return [func(task) for task in tasks]


def _fit_task(args):
    adj, q, sampling, covariates, init, control, waves = args
    return fit_single(adj, q, sampling, covariates=covariates, init=init,
                      control=control, waves=waves)


def estimate_miss_sbm(adj: PartialAdjacency, v_blocks: Sequence[int], sampling,
                      covariates: Optional[CovariateSet] = None,
                      control: Optional[ControlOptions] = None,
                      inits: Optional[Sequence[Partition]] = None,
                      waves: int = 1) -> FitCollection:
    """Fit the SBM for every block count in ``v_blocks`` and explore.

    ``sampling`` and ``waves`` are as for :func:`fit_single`: a design tag,
    or None for a pure SBM fit.  Each block count starts from spectral
    clustering, or from its partition in ``inits``: one per entry of
    ``v_blocks``, in its order, which may then not repeat.  Split/merge
    exploration then reinitializes neighbors per the control options and
    keeps every improvement in ICL.  The spectral starts share one
    eigendecomposition, and each equals ``fit_single``'s own start.
    Fits for different block counts may run in parallel workers; results are
    byte-identical regardless of the worker count because every fit seeds
    from (rng_seed, Q).
    """
    control = control or ControlOptions()
    blocks = [int(q) for q in v_blocks]
    qs = sorted(set(blocks))
    if not qs:
        raise InputError("vBlocks must not be empty")
    if qs[0] < 1:
        raise InputError("block counts must be >= 1")
    if inits is not None:
        if len(qs) != len(blocks):
            raise InputError("block counts must not repeat when initial partitions are given")
        if len(inits) != len(blocks):
            raise InputError("one initial partition per block count is required")
        inits = [dict(zip(blocks, inits))[q] for q in qs]   # each start with its own block count
    else:
        embedding = spectral_embedding(adj, qs[-1]) if qs[-1] > 1 else None
        inits = [spectral_init(adj, q, derive_seed(control.rng_seed, q, 0), embedding) for q in qs]
    models = fan_out(_fit_task, [(adj, q, sampling, covariates, init, control, waves)
                                 for q, init in zip(qs, inits)], control.workers)
    starts = {astuple(control): {_start_key(q, init.labels) for q, init in zip(qs, inits)}}
    collection = FitCollection(models=models, adj=adj, sampling=sampling, covariates=covariates,
                               control=control, starts=starts)
    if control.exploration != "none" and len(qs) > 1:
        for _ in range(control.iterates):
            if control.exploration in ("forward", "both"):
                collection = explore(collection, "forward")
            if control.exploration in ("backward", "both"):
                collection = explore(collection, "backward")
    return collection


def explore(collection: FitCollection, direction: str) -> FitCollection:
    """One split (forward) or merge (backward) pass over the collection,
    under the collection's control.

    Forward walks the block counts upward, refitting each from every
    single-block split of its (Q-1)-neighbor; backward walks downward with
    every pairwise merge of the (Q+1)-neighbor, closest connectivity rows
    first.  A candidate replaces the entry only if its ICL is lower by more
    than ICL_TIE_TOL relative, so no entry can get worse and rounding-level
    ties keep the current fit.  A candidate that repeats a start (Q and labels) fitted
    into the collection under the same control is skipped: its fit would be the same,
    and the entry it was measured against can only have fallen since.  The
    starts are recorded per control, so a collection whose control was
    replaced skips nothing that an earlier control fitted.
    """
    control = collection.control
    if direction not in ("forward", "backward"):
        raise InputError("direction must be 'forward' or 'backward'")
    starts = dict(collection.starts)
    seen = starts[astuple(control)] = set(starts.get(astuple(control), ()))
    models = {fit.q: fit for fit in collection.models}
    qs = sorted(models)
    order = qs if direction == "forward" else list(reversed(qs))
    for q in order:
        neighbor = q - 1 if direction == "forward" else q + 1
        if neighbor not in models or q < 1 or (direction == "forward" and q < 2):
            continue
        base = models[neighbor]
        candidates = (_split_candidates(base, q, control) if direction == "forward"
                      else _merge_candidates(base, q))
        design = models[q].design
        for labels in candidates:
            if _start_key(q, labels) in seen:
                continue
            seen.add(_start_key(q, labels))
            candidate = fit_single(collection.adj, q, collection.sampling,
                                   covariates=collection.covariates,
                                   init=Partition(labels=labels, q=q),
                                   control=control,
                                   waves=design.waves if design is not None else 1)
            # an ICL lower only by rounding (say, a relabelled copy) is a tie
            if candidate.icl < models[q].icl - ICL_TIE_TOL * abs(models[q].icl):
                models[q] = candidate
    return replace(collection, models=[models[q] for q in qs], starts=starts)


def _start_key(q: int, labels: np.ndarray) -> bytes:
    """The labels and then Q, each in the fewest bytes that hold Q: one set key per start."""
    return np.append(labels, q).astype(np.min_scalar_type(q)).tobytes()


def _split_candidates(base: FitResult, q_target: int, control: ControlOptions):
    """Split each block of the (q_target-1)-fit in two, by 2-means on the
    block's rows of the imputed adjacency restricted to the block's columns."""
    z = base.memberships
    imputed = impute(base)
    for block in range(base.q):
        members = np.nonzero(z == block)[0]
        if members.size < 2:
            continue
        sub = imputed[np.ix_(members, members)]
        if np.allclose(sub, sub[0]):
            halves = np.arange(members.size) % 2
        else:
            rng = np.random.default_rng(derive_seed(control.rng_seed, q_target, 17, block))
            halves = kmeans(sub, 2, rng)   # both clusters non-empty
        labels = np.array(z)
        labels[members[halves == 1]] = q_target - 1
        yield labels


def _merge_candidates(base: FitResult, q_target: int):
    """Merge each block pair of the (q_target+1)-fit, closest rows first."""
    z = base.memberships
    conn = base.params.connectivity
    pairs = []
    for a in range(base.q):
        for b in range(a + 1, base.q):
            dist = float(np.linalg.norm(conn[a] - conn[b]))
            pairs.append((dist, a, b))
    pairs.sort()
    for _, a, b in pairs:
        labels = np.array(z)
        labels[labels == b] = a
        labels[labels > b] -= 1
        yield labels
