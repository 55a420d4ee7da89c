import dataclasses
import itertools
import json
import logging
import math

import numpy as np
import pytest
import scipy.sparse
from scipy.special import logsumexp, softmax

from sbm_miss import (
    AVAILABLE_SAMPLINGS,
    ControlOptions,
    CovariateSet,
    InputError,
    PartialAdjacency,
    Partition,
    SamplingDesign,
    SbmParams,
    VariationalState,
    ari,
    estimate_miss_sbm,
    explore,
    fit_single,
    icl_penalty,
    impute,
    observe_network,
    predict_probabilities,
    sample_network,
    spectral_init,
)
from sbm_miss import sampling, sbm, vem
from sbm_miss.network import SLAB, PairMatrices, log_sigmoid, safe_log, safe_logit, trusted
from sbm_miss.sampling import DESIGNS, make_default_design
from sbm_miss.vem import ELBO_SLACK, ICL_TIE_TOL, _Engine, fit_from_json

from util import adjacency_from_edges, dyad_values, elbo_is_monotone, peak_floats, planted_params, random_partial


def hard_state(labels, q, nu=None):
    tau = np.zeros((len(labels), q))
    tau[np.arange(len(labels)), labels] = 1.0
    return VariationalState(tau=tau, nu=nu)


def exact_logp_double_standard(adj, params, rho1, rho0):
    """Brute-force log p(Y^o, R) over all memberships and missing completions.

    Uses the same probability clamping as the estimation objective so the
    bound stays well-defined when a fitted parameter hits 0 or 1.
    """
    n = adj.n
    pi = np.clip(params.pi, 1e-12, 1 - 1e-12)
    alpha = np.clip(params.alpha, 1e-12, 1 - 1e-12)
    rho1 = float(np.clip(rho1, 1e-12, 1 - 1e-12))
    rho0 = float(np.clip(rho0, 1e-12, 1 - 1e-12))
    q = params.q
    obs = [(i, j, adj.entry(i, j)) for i, j in adj.dyads() if adj.entry(i, j) is not None]
    miss = adj.missing_dyads()
    terms = []
    for z in itertools.product(range(q), repeat=n):
        base = sum(math.log(alpha[k]) for k in z)
        for i, j, y in obs:
            p = pi[z[i], z[j]]
            base += math.log(p if y else 1.0 - p)
            base += math.log(rho1 if y else rho0)
        for pattern in itertools.product((0, 1), repeat=len(miss)):
            value = base
            for (i, j), y in zip(miss, pattern):
                p = pi[z[i], z[j]]
                value += math.log(p if y else 1.0 - p)
                value += math.log((1.0 - rho1) if y else (1.0 - rho0))
            terms.append(value)
    return logsumexp(terms)


class TestVeStep:
    def test_single_block_tau_is_one(self):
        adj, _ = sample_network(planted_params(1, 0.4, 0.4), 10, rng_seed=1)
        params = SbmParams(alpha=np.array([1.0]), pi=np.array([[0.4]]))
        state = VariationalState(tau=np.ones((10, 1)))
        out = _Engine(adj, "dyad", None, False).ve_step(params, SamplingDesign("dyad", 0.8), state, 3)
        np.testing.assert_array_equal(out.tau, np.ones((10, 1)))

    def test_double_standard_nu_is_bayes_posterior(self):
        # closed-form posterior p(Y=1 | R=0) for a single block
        params = SbmParams(alpha=np.array([1.0]), pi=np.array([[0.5]]))
        adj, _ = sample_network(params, 12, rng_seed=2)
        design = SamplingDesign("double-standard", [0.8, 0.2])
        observed = observe_network(adj, design, rng_seed=3)
        state = VariationalState(tau=np.ones((12, 1)), nu=np.full(observed.n_missing, 0.5))
        out = _Engine(observed, "double-standard", None, False).ve_step(params, design, state, 1)
        posterior = 0.5 * 0.2 / (0.5 * 0.2 + 0.5 * 0.8)
        np.testing.assert_allclose(out.nu, posterior, atol=1e-12)

    def test_mar_node_ignores_nu(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 20, rng_seed=4)
        observed = observe_network(adj, SamplingDesign("node", 0.6), rng_seed=5)
        params = planted_params(2, 0.7, 0.1)
        rng = np.random.default_rng(6)
        tau = rng.dirichlet([1.0, 1.0], size=20)
        design = SamplingDesign("node", 0.6)
        eng = _Engine(observed, "node", None, False)
        without = eng.ve_step(params, design, VariationalState(tau=tau), 3)
        with_nu = eng.ve_step(params, design, VariationalState(tau=tau, nu=np.full(observed.n_missing, 0.9)), 3)
        np.testing.assert_array_equal(without.tau, with_nu.tau)


class TestNuUpdate:
    @pytest.mark.parametrize("use_cov", [False, True], ids=["plain", "covariate"])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_matches_dyad_loop(self, directed, use_cov):
        # logit nu_ij = sum_ab tau_ia L_ab tau_jb (+ beta . x_ij) + the
        # double-standard shift log((1 - rho1) / (1 - rho0))
        n, q = 12, 3
        rng = np.random.default_rng([directed, use_cov])
        x = rng.normal(size=(2, n, n))
        if not directed:
            x = 0.5 * (x + x.transpose(0, 2, 1))
        cov = CovariateSet.from_dyadic(list(x))
        table = rng.normal(size=(q, q))
        table = table if directed else 0.5 * (table + table.T)
        if use_cov:
            params = SbmParams(alpha=np.full(q, 1.0 / q), gamma=table, beta=np.array([0.8, -0.6]),
                               directed=directed)
        else:
            params = SbmParams(alpha=np.full(q, 1.0 / q), pi=1.0 / (1.0 + np.exp(-table)),
                               directed=directed)
        adj, _ = sample_network(params, n, covariates=cov, rng_seed=3)
        observed = observe_network(adj, SamplingDesign("dyad", 0.6), rng_seed=4)
        design = SamplingDesign("double-standard", [0.8, 0.3])
        eng = _Engine(observed, design.tag, cov, use_cov)
        tau = rng.dirichlet(np.ones(q), size=n)
        nu = rng.random(observed.n_missing)
        _, tables, cov_effect = eng._ve_terms(params, design)
        out = eng._nu_update(design, tau, nu, tables[0], cov_effect)
        logit = params.gamma if use_cov else np.log(params.pi) - np.log1p(-params.pi)
        shift = math.log1p(-0.8) - math.log1p(-0.3)
        expected = []
        for i, j in observed.missing_dyads():
            value = sum(tau[i, a] * logit[a, b] * tau[j, b] for a in range(q) for b in range(q))
            if use_cov:
                value += float(params.beta @ x[:, i, j])
            expected.append(1.0 / (1.0 + math.exp(-(value + shift))))
        assert observed.n_missing > 10
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_allocates_one_vector_over_the_missing_dyads_and_one_block(self):
        # n = 600, a third of the dyads missing: the update returns one |M|
        # vector (0.18 n x n; measured peak 0.21) and allocates, beside it, one
        # product block of at most SLAB entries with its indices; a second |M|
        # vector or the whole product tau L tau' would exceed the bound
        n, q = 600, 3
        adj = random_partial(n, False, 12)
        design = SamplingDesign("double-standard", [0.8, 0.3])
        eng = _Engine(adj, design.tag, None, False)
        rng = np.random.default_rng(13)
        tau, nu = rng.dirichlet(np.ones(q), size=n), rng.random(adj.n_missing)
        _, tables, _ = eng._ve_terms(planted_params(q, 0.4, 0.1), design)
        update = lambda: eng._nu_update(design, tau, nu, tables[0], None)   # noqa: E731
        update()   # the block bounds are built once per store
        bound = (8 * adj.n_missing + 2 * 8 * SLAB + 8 * n * q) / (8.0 * n * n)
        assert peak_floats(update, n) <= bound


def tau_objective_gain(eng, params, design, nu, tau, new):
    """F(new) - F(tau) as the VE safeguard computes it, at fixed params and nu."""
    linear, tables, cov_effect = eng._ve_terms(params, design)
    y = eng.adj.filled(nu if eng.mnar else 0.0)

    def coupling(t):
        return eng._coupling(params, tables, cov_effect, y, t)

    step = new - tau
    return eng._tau_gain(linear, coupling(tau), tau, step, coupling(step))(1.0)


def ve_case(tag, directed, use_cov):
    """An engine on a network of 24 nodes observed under ``tag``, with a
    nodal covariate; the parameters and design of a VE step at Q = 3, nu
    (None under MAR), and the generator, to draw tau from."""
    rng = np.random.default_rng([AVAILABLE_SAMPLINGS.index(tag), directed, use_cov])
    n, q = 24, 3
    cov = CovariateSet.from_nodal([rng.random(n)])
    if use_cov:
        gamma = rng.normal(size=(q, q))
        gamma = gamma if directed else 0.5 * (gamma + gamma.T)
        params = SbmParams(alpha=np.full(q, 1.0 / q), gamma=gamma, beta=np.array([1.3]),
                           directed=directed)
    else:
        params = planted_params(q, 0.6, 0.1, directed=directed)
    adj, draw = sample_network(params, n, covariates=cov, rng_seed=1)
    design = make_default_design(tag, q, covariates=cov)
    if tag == "block-dyad":
        psi = rng.uniform(0.3, 0.9, size=(q, q))
        design = SamplingDesign(tag, psi if directed else 0.5 * (psi + psi.T))
    elif tag == "block-node":
        design = SamplingDesign(tag, rng.uniform(0.3, 0.9, size=q))
    observed = observe_network(adj, design, clusters=Partition.from_labels(draw.labels, q),
                               covariates=cov, rng_seed=2)
    eng = _Engine(observed, tag, cov, use_cov)
    nu = rng.random(observed.n_missing) if eng.mnar else None
    return eng, params, design, nu, rng


class TestVeSafeguard:
    @pytest.mark.parametrize("use_cov", [False, True], ids=["plain", "covariate"])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("tag", AVAILABLE_SAMPLINGS)
    def test_objective_differences_match_elbo(self, tag, directed, use_cov):
        # pins the 1/2 on the coupling terms, the transposed terms of directed
        # networks, the block-dyad channels and the covariate kernel
        eng, params, design, nu, rng = ve_case(tag, directed, use_cov)
        n, q = eng.adj.n, params.q
        tau_a = rng.dirichlet(np.ones(q), size=n)
        tau_b = rng.dirichlet(np.ones(q), size=n)
        elbo_a = eng.elbo_parts(params, design, VariationalState(tau=tau_a, nu=nu))[0]
        elbo_b = eng.elbo_parts(params, design, VariationalState(tau=tau_b, nu=nu))[0]
        gain = tau_objective_gain(eng, params, design, nu, tau_a, tau_b)
        assert gain == pytest.approx(elbo_b - elbo_a, rel=1e-9)

    @pytest.mark.parametrize("tag", ["dyad", "double-standard"])
    def test_undirected_dyad_takes_its_covariate_at_i_below_j(self, tag):
        # an asymmetric dyadic covariate on an undirected network: the bound,
        # the VE coupling and the predictions all read x_ij at i < j
        rng = np.random.default_rng(31)
        n, q = 24, 3
        x = rng.normal(size=(n, n))
        cov = CovariateSet.from_dyadic([x])
        gamma = rng.normal(size=(q, q))
        params = SbmParams(alpha=np.full(q, 1.0 / q), gamma=0.5 * (gamma + gamma.T), beta=np.array([1.3]))
        design = SamplingDesign(tag, 0.7 if tag == "dyad" else [0.9, 0.5])
        adj, _ = sample_network(planted_params(q, 0.5, 0.2), n, rng_seed=32)
        observed = observe_network(adj, design, rng_seed=33)
        eng = _Engine(observed, tag, cov, True)
        nu = rng.random(observed.n_missing) if eng.mnar else None
        tau_a = rng.dirichlet(np.ones(q), size=n)
        tau_b = rng.dirichlet(np.ones(q), size=n)
        elbo_a = eng.elbo_parts(params, design, VariationalState(tau=tau_a, nu=nu))[0]
        elbo_b = eng.elbo_parts(params, design, VariationalState(tau=tau_b, nu=nu))[0]
        gain = tau_objective_gain(eng, params, design, nu, tau_a, tau_b)
        assert gain == pytest.approx(elbo_b - elbo_a, rel=1e-9)
        upper = np.triu(x) + np.triu(x, 1).T
        expected = predict_probabilities(params, VariationalState(tau=tau_a), CovariateSet.from_dyadic([upper]))
        np.testing.assert_array_equal(predict_probabilities(params, VariationalState(tau=tau_a), cov), expected)

    def test_overshooting_step_is_damped(self):
        # complete graph, disassortative pi, identical rows: the full step
        # sends every node to block 1 together, which lowers the bound
        n = 20
        mat = np.ones((n, n))
        np.fill_diagonal(mat, np.nan)
        adj = PartialAdjacency(mat)
        params = SbmParams(alpha=np.array([0.5, 0.5]), pi=np.array([[0.01, 0.99], [0.99, 0.01]]))
        state = VariationalState(tau=np.tile([0.9, 0.1], (n, 1)))
        eng = _Engine(adj, None, None, False)
        before = eng.elbo_parts(params, None, state)[0]
        damped = eng.ve_step(params, None, state, 1)
        assert eng.damped_rounds == 1
        assert eng.elbo_parts(params, None, damped)[0] > before
        linear, tables, _ = eng._ve_terms(params, None)
        grad = eng._coupling(params, tables, None, adj.filled(0.0), state.tau)
        proposal = softmax(linear + grad, axis=1)
        assert np.all(proposal[:, 1] > 0.99)
        assert eng.elbo_parts(params, None, VariationalState(tau=proposal))[0] < before

    def test_damped_rounds_are_flagged(self):
        params = planted_params(3, 0.5, 0.05)
        design = SamplingDesign("block-node", [0.9, 0.75, 0.6])
        flagged = 0
        for seed in (17, 20, 37):
            adj, draw = sample_network(params, 30, rng_seed=seed)
            observed = observe_network(adj, design, clusters=Partition.from_labels(draw.labels, 3),
                                       rng_seed=seed + 1)
            for q in (2, 3):
                fit = fit_single(observed, q, "block-node", control=ControlOptions(rng_seed=seed))
                assert elbo_is_monotone(fit)
                flagged += sum("VE step damped" in row.flags for row in fit.monitoring)
        assert flagged > 0


def two_product_coupling(eng, params, tables, cov_effect, y, t):
    """``_Engine._coupling`` on an undirected network as it was before it took
    one product per pair matrix: 0.5 * (m t L' + m t L) per pair matrix m
    with table L, then the covariate kernels from the class tables."""
    out = np.zeros_like(t)
    r = None if tables[1] is None else eng.adj.observed_mask
    for m, table in zip((y, r, None), tables):
        if table is None:
            continue
        rows = t.sum(axis=0) - t if m is None else m @ t
        out += 0.5 * (rows @ table.T + rows @ table)
    if cov_effect is not None:
        table = np.append(cov_effect, 0.0 if eng.mnar else -0.0)
        eta, kernel = table[:-1], np.empty(eng._class_index.shape)
        for a in range(params.q):
            for b in range(a, params.q):
                np.add(params.gamma[a, b], cov_effect, out=eta)
                log_sigmoid(np.negative(eta, out=eta), out=eta)
                np.take(table, eng._class_index, out=kernel, mode="clip")
                out[:, a] += kernel @ t[:, b]
                if a != b:
                    out[:, b] += kernel.T @ t[:, a]
    return out


class TestCoupling:
    @pytest.mark.parametrize("use_cov", [False, True], ids=["plain", "covariate"])
    @pytest.mark.parametrize("tag", AVAILABLE_SAMPLINGS)
    def test_undirected_one_product_equals_the_two_product_form_bitwise(self, tag, use_cov):
        eng, params, design, nu, rng = ve_case(tag, False, use_cov)
        _, tables, cov_effect = eng._ve_terms(params, design)
        # a fit's undirected tables are exactly symmetric: symmetrising keeps their bits
        raw = params.gamma if use_cov else safe_logit(params.pi)
        assert tables[0].tobytes() == raw.tobytes()
        y = eng.store.y(nu)
        tau = rng.dirichlet(np.ones(params.q), size=eng.adj.n)
        step = rng.dirichlet(np.ones(params.q), size=eng.adj.n) - tau
        for t in (tau, step):
            new = eng._coupling(params, tables, cov_effect, y, t)
            assert new.tobytes() == two_product_coupling(eng, params, tables, cov_effect, y, t).tobytes()

    def test_undirected_pi_symmetric_only_to_allclose_is_symmetrised(self):
        eng, params, design, _, rng = ve_case("dyad", False, False)
        pi = np.array(params.pi)
        pi[0, 1] += 1e-9   # within SbmParams' symmetry tolerance
        skewed = SbmParams(alpha=params.alpha, pi=pi)
        _, tables, _ = eng._ve_terms(skewed, design)
        raw = (safe_logit(pi), np.log1p(-pi), None)   # the dyad design's tables, as they are
        y = eng.store.y(None)
        tau = rng.dirichlet(np.ones(params.q), size=eng.adj.n)
        expected = two_product_coupling(eng, skewed, raw, None, y, tau)
        np.testing.assert_allclose(eng._coupling(skewed, tables, None, y, tau), expected,
                                   rtol=1e-12, atol=1e-12)
        assert not np.allclose(eng._coupling(skewed, raw, None, y, tau), expected, rtol=1e-12, atol=1e-12)


class TestVeRoundWork:
    def test_double_standard_fit_fills_the_y_buffer_three_times_per_evaluation(self, monkeypatch):
        # rounds 2 and 3 of each VE step and the M step; round 1 reads the nu
        # that the last M step left in the buffer.  The 2: the spectral start's
        # filled matrix and the buffer's first fill, at the initial M step.
        calls = []
        fill_missing = PartialAdjacency.fill_missing
        monkeypatch.setattr(PartialAdjacency, "fill_missing",
                            lambda adj, out, values: calls.append(1) or fill_missing(adj, out, values))
        adj, _ = sample_network(planted_params(2, 0.5, 0.1), 40, rng_seed=1)
        observed = observe_network(adj, SamplingDesign("double-standard", [0.8, 0.4]), rng_seed=2)
        calls.clear()
        fit = fit_single(observed, 2, "double-standard", control=ControlOptions(rng_seed=1))
        evaluations = fit.monitoring[-1].iter
        # a refused extrapolation leaves its nu in the buffer, which costs one fill more
        assert not any("extrapolation refused" in row.flags for row in fit.monitoring)
        assert evaluations == 10
        assert len(calls) == 3 * evaluations + 2   # 4 * evaluations + 2 = 42 before

    def test_a_ve_step_starts_from_the_buffer_its_state_left(self, monkeypatch):
        # ve_step returns its read-only arrays uncopied, and a VE step from
        # that state does not rewrite the buffer for the nu it already holds
        params = planted_params(2, 0.5, 0.1)
        design = SamplingDesign("double-standard", [0.8, 0.4])
        adj, _ = sample_network(params, 20, rng_seed=3)
        eng = _Engine(observe_network(adj, design, rng_seed=4), design.tag, None, False)
        state = eng.ve_step(params, design, eng.initial_state(Partition(labels=np.arange(20) % 2, q=2), 2), 3)
        assert not state.tau.flags.writeable and not state.nu.flags.writeable
        y = eng.store.y(state.nu)   # as the M step does
        calls = []
        monkeypatch.setattr(PartialAdjacency, "fill_missing", lambda *args: calls.append(1))
        assert eng.store.y(state.nu) is y
        eng.ve_step(params, design, state, 1)   # round 1 reads y; its nu update comes after
        assert not calls


class TestVariationalState:
    def test_a_writeable_input_is_copied_and_a_read_only_one_kept(self):
        tau, nu = np.full((4, 2), 0.5), np.full(3, 0.2)
        state = VariationalState(tau=tau, nu=nu)
        assert tau.flags.writeable and nu.flags.writeable
        tau[0] = [1.0, 0.0]   # the caller's arrays stay the caller's
        nu[0] = 0.9
        np.testing.assert_array_equal(state.tau, np.full((4, 2), 0.5))
        np.testing.assert_array_equal(state.nu, np.full(3, 0.2))
        again = VariationalState(tau=state.tau, nu=state.nu)
        assert again.tau is state.tau and again.nu is state.nu

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.1])
    def test_nu_outside_the_unit_interval_is_refused(self, bad):
        with pytest.raises(InputError, match="nu values must lie in"):
            VariationalState(tau=np.full((3, 2), 0.5), nu=np.array([bad, 0.5]))

    def test_empty_nu_is_accepted(self):
        assert VariationalState(tau=np.full((3, 2), 0.5), nu=np.array([])).nu.size == 0


class TestMStep:
    def test_hard_tau_gives_block_densities(self):
        adj, draw = sample_network(planted_params(2, 0.8, 0.1), 40, rng_seed=7)
        z = draw.labels
        params, _, _ = _Engine(adj, "dyad", None, False).m_step(hard_state(z, 2), None, SamplingDesign("dyad", 0.5))
        counts = np.zeros((2, 2))
        totals = np.zeros((2, 2))
        for i, j in adj.dyads():
            counts[z[i], z[j]] += adj.entry(i, j)
            totals[z[i], z[j]] += 1
        counts, totals = counts + counts.T, totals + totals.T
        np.testing.assert_allclose(params.pi, counts / totals, atol=1e-12)
        np.testing.assert_allclose(params.alpha, np.bincount(z, minlength=2) / 40)

    def test_single_block_density(self):
        adj, _ = sample_network(planted_params(1, 0.35, 0.35), 20, rng_seed=8)
        params, _, _ = _Engine(adj, "dyad", None, False).m_step(hard_state(np.zeros(20, int), 1), None,
                                                                SamplingDesign("dyad", 0.5))
        assert params.pi[0, 0] == pytest.approx(adj.observed_density, abs=1e-12)

    def test_uniform_tau_gives_global_density(self):
        adj, _ = sample_network(planted_params(2, 0.8, 0.1), 30, rng_seed=9)
        state = VariationalState(tau=np.full((30, 2), 0.5))
        params, _, _ = _Engine(adj, "dyad", None, False).m_step(state, None, SamplingDesign("dyad", 0.5))
        np.testing.assert_allclose(params.pi, adj.observed_density, atol=1e-12)

    @pytest.mark.parametrize("tag", ["dyad", "double-standard"], ids=["mar", "mnar"])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_soft_tau_pi_is_weighted_density_of_dyads_in_play(self, tag, directed):
        n, q = 12, 3
        rng = np.random.default_rng([directed, tag == "dyad"])
        adj, _ = sample_network(planted_params(q, 0.6, 0.2, directed=directed), n, rng_seed=5)
        observed = observe_network(adj, SamplingDesign("dyad", 0.7), rng_seed=6)
        nu = rng.random(observed.n_missing) if tag == "double-standard" else None
        state = VariationalState(tau=rng.dirichlet(np.ones(q), size=n), nu=nu)
        params, _, _ = _Engine(observed, tag, None, False).m_step(state, None, make_default_design(tag, q))
        tau = state.tau
        edges, dyads = np.zeros((q, q)), np.zeros((q, q))
        for (i, j), y in dyad_values(observed, state).items():
            # an undirected dyad counts for both orientations of a block pair
            for u, v in ((i, j),) if directed else ((i, j), (j, i)):
                edges += np.outer(tau[u], tau[v]) * y
                dyads += np.outer(tau[u], tau[v])
        np.testing.assert_allclose(params.pi, edges / dyads, rtol=1e-12)


class TestElbo:
    def test_single_block_certain_observation_equals_er_loglik(self):
        adj, _ = sample_network(planted_params(1, 0.3, 0.3), 15, rng_seed=10)
        p = 0.28
        params = SbmParams(alpha=np.array([1.0]), pi=np.array([[p]]))
        state = VariationalState(tau=np.ones((15, 1)))
        value = _Engine(adj, "dyad", None, False).elbo_parts(params, SamplingDesign("dyad", 1.0), state)[0]
        edges = sum(adj.entry(i, j) for i, j in adj.dyads())
        er = edges * np.log(p) + (adj.n_dyads - edges) * np.log(1 - p)
        assert value == pytest.approx(er, abs=1e-6)

    def test_hard_tau_equals_complete_loglik(self):
        adj, draw = sample_network(planted_params(2, 0.7, 0.2), 20, rng_seed=11)
        z = draw.labels
        state = hard_state(z, 2)
        params, _, _ = _Engine(adj, "dyad", None, False).m_step(state, None, SamplingDesign("dyad", 0.5))
        value = _Engine(adj, None, None, False).elbo_parts(params, None, state)[0]
        oracle = sum(np.log(params.alpha[z[i]]) for i in range(20))
        for i, j in adj.dyads():
            p = np.clip(params.pi[z[i], z[j]], 1e-12, 1 - 1e-12)
            oracle += np.log(p) if adj.entry(i, j) else np.log(1 - p)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_bounded_by_enumeration(self):
        params = planted_params(2, 0.75, 0.2)
        for seed in range(3):
            adj, _ = sample_network(params, 7, rng_seed=20 + seed)
            observed = observe_network(adj, SamplingDesign("double-standard", [0.85, 0.7]),
                                       rng_seed=30 + seed)
            if observed.n_missing > 6:
                continue
            fit = fit_single(observed, 2, "double-standard",
                             control=ControlOptions(threshold=1e-6, max_iter=300, rng_seed=seed))
            exact = exact_logp_double_standard(observed, fit.params,
                                               fit.design.psi[0], fit.design.psi[1])
            assert fit.elbo <= exact + 1e-9


class TestFitSingle:
    def test_planted_two_blocks_exact_recovery(self):
        adj, draw = sample_network(planted_params(2, 0.9, 0.1), 100, rng_seed=12)
        fit = fit_single(adj, 2, "node", control=ControlOptions(rng_seed=13))
        assert ari(fit.memberships, draw.labels) == 1.0

    def test_single_block_converges_fast(self):
        adj, _ = sample_network(planted_params(1, 0.3, 0.3), 30, rng_seed=14)
        fit = fit_single(adj, 1, "dyad", control=ControlOptions(rng_seed=15))
        assert fit.converged
        assert len(fit.monitoring) - 1 <= 2
        assert fit.params.pi[0, 0] == pytest.approx(adj.observed_density, abs=1e-12)

    def test_sampling_must_be_a_tag(self):
        # a SamplingDesign is unhashable: unchecked, the design lookup raised a bare TypeError
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 20, rng_seed=70)
        design = SamplingDesign("block-node", [0.5, 0.5])
        with pytest.raises(InputError, match="design tag or None, not a SamplingDesign"):
            fit_single(adj, 2, design)
        with pytest.raises(InputError, match="design tag or None, not a SamplingDesign"):
            estimate_miss_sbm(adj, [1, 2], design)

    @pytest.mark.parametrize("n", [20, 40], ids=["shorter", "longer"])
    def test_covariates_and_init_must_match_the_node_count(self, n):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=16)
        fit = fit_single(adj, 2, "covar-dyad", covariates=CovariateSet.from_nodal([np.arange(30.0)]),
                         control=ControlOptions(rng_seed=17, max_iter=2))
        cov = CovariateSet.from_nodal([np.arange(float(n))])
        mismatch = f"covariates given for {n} nodes, the network has 30"
        with pytest.raises(InputError, match=mismatch):
            fit_single(adj, 2, "covar-dyad", covariates=cov)
        with pytest.raises(InputError, match=mismatch):
            fit_from_json(adj, fit.to_json(), covariates=cov)
        with pytest.raises(InputError, match=mismatch):
            _Engine(adj, "covar-dyad", cov, False)
        with pytest.raises(InputError, match=f"initial partition given for {n} nodes, the network has 30"):
            fit_single(adj, 2, "dyad", init=Partition.from_labels(np.arange(n) % 2, 2))

    def test_covariates_of_mixed_node_counts_are_refused(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 12, rng_seed=16)
        mixed = "covariates must share one node count, got \\[12, 20\\]"
        with pytest.raises(InputError, match=mixed):
            fit_single(adj, 2, "covar-dyad",
                       covariates=CovariateSet.from_dyadic([np.zeros((12, 12)), np.ones((20, 20))]))
        with pytest.raises(InputError, match=mixed):
            fit_single(adj, 2, "covar-node",
                       covariates=CovariateSet.from_nodal([np.zeros(12), np.ones(20)]))

    def test_same_seed_bit_identical(self):
        adj, _ = sample_network(planted_params(3, 0.6, 0.1), 40, rng_seed=16)
        observed = observe_network(adj, SamplingDesign("double-standard", [0.9, 0.6]), rng_seed=17)
        fits = [fit_single(observed, 3, "double-standard", control=ControlOptions(rng_seed=18))
                for _ in range(2)]
        assert json.dumps(fits[0].to_json()) == json.dumps(fits[1].to_json())

    def test_monotone_across_designs(self):
        adj, draw = sample_network(planted_params(2, 0.7, 0.15), 30, rng_seed=19)
        clusters = Partition.from_labels(draw.labels, 2)
        cases = [
            ("dyad", SamplingDesign("dyad", 0.7), {}),
            ("double-standard", SamplingDesign("double-standard", [0.9, 0.5]), {}),
            ("block-node", SamplingDesign("block-node", [0.9, 0.4]), {"clusters": clusters}),
            ("degree", SamplingDesign("degree", [-1.0, 0.2]), {}),
        ]
        for tag, design, kwargs in cases:
            observed = observe_network(adj, design, rng_seed=20, **kwargs)
            fit = fit_single(observed, 2, tag, control=ControlOptions(rng_seed=21))
            assert elbo_is_monotone(fit), tag

    @pytest.mark.parametrize("tag,psi", [("double-standard", [0.9, 0.4]), ("block-node", [0.9, 0.5])],
                             ids=["double-standard", "block-node"])
    def test_mnar_fit_without_mask_designs_never_builds_mask(self, tag, psi):
        # the n x n float R is built only for designs whose terms weight it
        adj, draw = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=21)
        observed = observe_network(adj, SamplingDesign(tag, psi),
                                   clusters=Partition.from_labels(draw.labels, 2), rng_seed=22)
        fit = fit_single(observed, 2, tag, control=ControlOptions(rng_seed=23, max_iter=5))
        assert observed.n_missing and fit.state.nu is not None
        assert "observed_mask" not in observed.__dict__

    def test_m_step_and_bound_share_block_counts(self, monkeypatch):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=24)
        observed = observe_network(adj, SamplingDesign("double-standard", [0.9, 0.4]), rng_seed=25)
        calls = []

        def counting(*args):
            calls.append(args)
            return block_pair_counts(*args)

        block_pair_counts = vem.block_pair_counts
        monkeypatch.setattr(vem, "block_pair_counts", counting)
        eng = _Engine(observed, "double-standard", None, False)
        state = eng.initial_state(spectral_init(observed, 2, 26), 2)
        params, design, _ = eng.m_step(state, None, make_default_design("double-standard", 2))
        value = eng.elbo_parts(params, design, state)[0]
        assert len(calls) == 1
        assert value == _Engine(observed, "double-standard", None, False).elbo_parts(params, design, state)[0]
        assert len(calls) == 2

    def test_covar_dyad_fit_transfers_covariates_once(self):
        # every nodal-to-dyadic transfer calls the similarity once per covariate
        vec = np.random.default_rng(27).normal(size=30)
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=27)
        design = SamplingDesign("covar-dyad", [0.5, 1.0])
        observed = observe_network(adj, design, covariates=CovariateSet.from_nodal([vec]), rng_seed=28)
        calls = []

        def counting_l1(a, b):
            calls.append(a.shape)
            return -np.abs(a - b)

        cov = CovariateSet.from_nodal([vec], similarity=counting_l1)
        fit = fit_single(observed, 2, "covar-dyad", covariates=cov,
                         control=ControlOptions(rng_seed=29, max_iter=3, use_cov=True))
        assert len(fit.monitoring) > 2
        assert calls == [(30, 30)]

    def test_invalid_inputs(self):
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 10, rng_seed=22)
        with pytest.raises(InputError):
            fit_single(adj, 0, "dyad")
        with pytest.raises(InputError):
            fit_single(adj, 2, "covar-node")
        with pytest.raises(InputError):
            fit_single(adj, 2, "nonsense")

    def test_proposition1_sampling_factor_is_immaterial_under_mar(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.15), 60, rng_seed=23)
        observed = observe_network(adj, SamplingDesign("node", 0.7), rng_seed=24)
        init = spectral_init(observed, 2, rng_seed=25)
        aware = fit_single(observed, 2, "node", init=init, control=ControlOptions(rng_seed=25))
        bare = fit_single(observed, 2, None, init=init, control=ControlOptions(rng_seed=25))
        assert np.max(np.abs(aware.params.pi - bare.params.pi)) < 1e-6
        assert np.max(np.abs(aware.params.alpha - bare.params.alpha)) < 1e-6

    def test_ve_fixed_point_is_local_optimum(self):
        adj, _ = sample_network(planted_params(2, 0.8, 0.1), 30, rng_seed=26)
        observed = observe_network(adj, SamplingDesign("double-standard", [0.9, 0.6]), rng_seed=27)
        fit = fit_single(observed, 2, "double-standard",
                         control=ControlOptions(threshold=1e-8, max_iter=300, rng_seed=28))
        eng = _Engine(observed, "double-standard", None, False)
        base = eng.elbo_parts(fit.params, fit.design, fit.state)[0]
        tau = fit.state.tau
        for i in range(0, 30, 7):
            for vertex in range(2):
                bumped = np.array(tau)
                bumped[i] = bumped[i] * (1 - 1e-3)
                bumped[i, vertex] += 1e-3
                bumped[i] /= bumped[i].sum()
                value = eng.elbo_parts(fit.params, fit.design, VariationalState(tau=bumped, nu=fit.state.nu))[0]
                assert value <= base + 1e-10

    def test_label_permutation_equivariance(self):
        adj, _ = sample_network(planted_params(3, 0.7, 0.1), 45, rng_seed=29)
        init = spectral_init(adj, 3, rng_seed=30)
        perm = np.array([2, 0, 1])
        permuted_init = Partition(labels=perm[init.labels], q=3)
        a = fit_single(adj, 3, "node", init=init, control=ControlOptions(rng_seed=31))
        b = fit_single(adj, 3, "node", init=permuted_init, control=ControlOptions(rng_seed=31))
        assert abs(a.elbo - b.elbo) < 1e-9
        assert abs(a.icl - b.icl) < 1e-9
        assert ari(a.memberships, b.memberships) == 1.0


def plain_em(adj, q, tag, control):
    """Unaccelerated EM, the reference: fit_single's start and stop rule,
    one plain EM map evaluation per iteration.  Returns (last point, count)."""
    eng = _Engine(adj, tag, None, False)
    state = eng.initial_state(spectral_init(adj, q, vem.derive_seed(control.rng_seed, q, 0)), q)
    params, design, _ = eng.m_step(state, None, make_default_design(tag, q))
    value = eng.elbo_parts(params, design, state)[0]
    for it in range(1, control.max_iter + 1):
        point = vem._em_map(eng, params, design, state, control.fix_point_iter)
        delta = vem._param_delta(params, point.params)
        done = abs(point.elbo - value) < control.threshold and delta < control.threshold
        params, design, state, value = point.params, point.design, point.state, point.elbo
        if done:
            break
    return point, it


class TestSquarem:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_double_standard_fit_converges_within_budget(self, seed):
        # plain EM takes 200-800 iterations to the fixed point here and stops
        # short of it at the default max_iter = 50
        adj, _ = sample_network(planted_params(3, 0.35, 0.05), 120, rng_seed=seed)
        observed = observe_network(adj, SamplingDesign("double-standard", [0.9, 0.4]), rng_seed=100 + seed)
        control = ControlOptions(rng_seed=seed)
        fit = fit_single(observed, 3, "double-standard", control=control)
        assert fit.converged and fit.monitoring[-1].iter < control.max_iter
        tight = dataclasses.replace(control, threshold=1e-6, max_iter=1000)
        fixed, plain_iters = plain_em(observed, 3, "double-standard", tight)
        assert plain_iters < tight.max_iter
        truncated, _ = plain_em(observed, 3, "double-standard", control)
        # nearer the fixed point than plain EM at max_iter, in rho_1 and in the bound
        psi = fixed.design.psi
        assert abs(fit.design.psi[0] - psi[0]) < abs(truncated.design.psi[0] - psi[0])
        assert truncated.elbo < fit.elbo <= fixed.elbo + 1e-6
        # and at a tight threshold it converges to the same fixed point
        accelerated = fit_single(observed, 3, "double-standard", control=tight)
        assert accelerated.converged and accelerated.monitoring[-1].iter < plain_iters
        assert np.max(np.abs(accelerated.design.psi - psi)) < 2e-3
        assert np.max(np.abs(accelerated.params.pi - fixed.params.pi)) < 2e-3
        assert accelerated.elbo == pytest.approx(fixed.elbo, abs=1e-3)

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("variant", ["plain", "covariate"])
    @pytest.mark.parametrize("tag", list(DESIGNS))
    def test_pack_round_trip(self, tag, variant, directed):
        rng = np.random.default_rng(len(tag))
        q = 3

        def pair_matrix(values):
            return values if directed else np.triu(values) + np.triu(values, 1).T

        alpha = rng.dirichlet(np.ones(q))
        if variant == "plain":
            params = SbmParams(alpha=alpha, pi=pair_matrix(rng.uniform(0.01, 0.99, (q, q))), directed=directed)
        else:
            params = SbmParams(alpha=alpha, gamma=pair_matrix(rng.normal(size=(q, q))),
                               beta=rng.normal(size=2), directed=directed)
        spec = DESIGNS[tag]
        if spec.family == "rate":
            psi = {"one rate": rng.uniform(0.01, 0.99), "edge value": rng.uniform(0.01, 0.99, 2),
                   "block": rng.uniform(0.01, 0.99, q),
                   "block pair": pair_matrix(rng.uniform(0.01, 0.99, (q, q)))}[spec.psi]
        else:
            psi = rng.normal(size=3 if spec.psi == "covariates" else 2)
        design = SamplingDesign(tag, psi, waves=2 if tag == "snowball" else 1)
        x = vem._pack(params, design)
        # the vector SQUAREM's step length is taken over, pinned bit for bit
        conn = [safe_logit(params.pi)] if variant == "plain" else [params.gamma, params.beta]
        psi = safe_logit(design.psi) if spec.family == "rate" else design.psi
        expected = np.concatenate([safe_log(params.alpha), *(a.ravel() for a in conn), psi.ravel()])
        assert x.tobytes() == expected.tobytes()
        back, back_design = vem._unpack(x, params, design)
        assert back.variant == variant and back.directed == directed
        assert np.max(np.abs(back.alpha - params.alpha)) < 1e-12
        assert np.max(np.abs(back.connectivity - params.connectivity)) < 1e-12
        if variant == "covariate":
            assert np.max(np.abs(back.beta - params.beta)) < 1e-12
        assert back_design.tag == tag and back_design.waves == design.waves
        assert back_design.psi.shape == design.psi.shape
        assert np.max(np.abs(back_design.psi - design.psi)) < 1e-12
        # far out in every coordinate: still valid parameters
        far = np.where(rng.random(x.size) < 0.5, -1e3, 1e3)
        params_far, design_far = vem._unpack(far, params, design)
        assert np.isfinite(vem._pack(params_far, design_far)).all()

    @pytest.mark.parametrize("q", [1, 2, 5, 12])
    def test_unpacked_alpha_is_scipy_softmax_bit_for_bit(self, q):
        params = SbmParams(alpha=np.full(q, 1.0 / q), pi=np.full((q, q), 0.3))
        rng = np.random.default_rng(q)
        for spread in (1.0, 30.0, 700.0):
            for _ in range(20):
                x = np.concatenate([rng.uniform(-spread, spread, q), rng.normal(size=q * q)])
                assert vem._unpack(x, params, None)[0].alpha.tobytes() == softmax(x[:q]).tobytes()

    def test_refused_extrapolations_skip_one_iteration_and_keep_the_bound(self):
        refused = 0
        for seed in range(6):
            adj, draw = sample_network(planted_params(3, 0.5, 0.05), 50, rng_seed=seed)
            observed = observe_network(adj, SamplingDesign("block-node", [0.9, 0.75, 0.6]),
                                       clusters=Partition.from_labels(draw.labels, 3), rng_seed=10 + seed)
            for q in (2, 3, 4):
                fit = fit_single(observed, q, "block-node", control=ControlOptions(rng_seed=seed))
                rows = fit.monitoring
                assert fit.converged and rows[-1].iter <= ControlOptions().max_iter
                for prev, row in zip(rows, rows[1:]):
                    if "extrapolation refused" in row.flags:
                        refused += 1
                        assert row.iter == prev.iter + 2
                        assert row.elbo >= prev.elbo - ELBO_SLACK
                    else:
                        assert row.iter == prev.iter + 1
        assert refused > 0

    def test_every_monitoring_row_is_logged(self, caplog):
        adj, _ = sample_network(planted_params(3, 0.5, 0.05), 60, rng_seed=4)
        observed = observe_network(adj, SamplingDesign("double-standard", [0.9, 0.4]), rng_seed=5)
        with caplog.at_level(logging.INFO, logger="sbm_miss"):
            fit = fit_single(observed, 3, "double-standard", control=ControlOptions(rng_seed=6))
        records = [r for r in caplog.records if r.name == "sbm_miss"]
        assert len(records) == len(fit.monitoring)
        for record, row in zip(records, fit.monitoring):
            message = record.getMessage()
            assert record.levelno == logging.INFO
            assert message.startswith(f"[fit q=3] iter {row.iter}: ")
            assert all(flag in message for flag in row.flags)
        assert any("extrapolated" in row.flags for row in fit.monitoring)


class TestIclPenalty:
    def test_dyad_centered_example(self):
        # (K + Q(Q+1)/2) log(n(n-1)/2) + (Q-1) log n at Q=2, K=1, n=100
        expected = 4 * math.log(4950) + math.log(100)
        assert icl_penalty(2, 1, 100, "dyad-centered") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(38.634, abs=5e-4)

    def test_node_centered_example(self):
        expected = math.log(4950) + math.log(100)
        assert icl_penalty(1, 1, 100, "node-centered") == pytest.approx(expected, abs=1e-12)

    def test_directed_counts(self):
        dyad_pairs = math.log(100 * 99)
        expected = (1 + 4) * dyad_pairs + math.log(100)
        assert icl_penalty(2, 1, 100, "dyad-centered", directed=True) == pytest.approx(expected)

    def test_covariates_enter_connectivity_count(self):
        base = icl_penalty(2, 1, 100, "dyad-centered")
        with_cov = icl_penalty(2, 1, 100, "dyad-centered", n_covariates=2)
        assert with_cov - base == pytest.approx(2 * math.log(4950))

    def test_icl_difference_is_penalty_difference_at_equal_expectations(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=32)
        fit = fit_single(adj, 2, "dyad", control=ControlOptions(rng_seed=33))
        other_pen = icl_penalty(2, 2, 30, "dyad-centered")
        shifted = -2.0 * (fit.vexpec + fit.sampling_ll) + other_pen
        assert shifted - fit.icl == pytest.approx(other_pen - fit.penalty, abs=1e-12)
        assert -2.0 * (fit.vexpec + fit.sampling_ll) + fit.penalty == pytest.approx(fit.icl, abs=1e-12)


class TestEstimateAndExplore:
    def test_single_entry_collection(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=34)
        coll = estimate_miss_sbm(adj, [2], "dyad", control=ControlOptions(rng_seed=35))
        assert coll.v_blocks == [2]
        assert coll.best_model.q == 2

    def test_exploration_never_worsens_icl(self):
        adj, _ = sample_network(planted_params(3, 0.6, 0.08), 60, rng_seed=36)
        control = ControlOptions(rng_seed=37, exploration="none")
        coll = estimate_miss_sbm(adj, [1, 2, 3, 4], "node", control=control)
        before = coll.icl
        explored = explore(explore(coll, "forward"), "backward")
        assert np.all(explored.icl <= before + 1e-9)

    def test_exploration_none_keeps_models(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=38)
        control = ControlOptions(rng_seed=39, exploration="none")
        coll = estimate_miss_sbm(adj, [1, 2, 3], "dyad", control=control)
        again = estimate_miss_sbm(adj, [1, 2, 3], "dyad", control=control)
        assert json.dumps(coll.to_json()) == json.dumps(again.to_json())

    def test_exploration_rescues_bad_init(self):
        adj, _ = sample_network(planted_params(3, 0.7, 0.05), 60, rng_seed=40)
        bad = Partition(labels=np.zeros(60, dtype=int), q=3)
        control = ControlOptions(rng_seed=41, exploration="none")
        inits = [spectral_init(adj, 1, rng_seed=1), spectral_init(adj, 2, rng_seed=1), bad]
        coll = estimate_miss_sbm(adj, [1, 2, 3], "node", control=control, inits=inits)
        icl_before = coll.models[2].icl
        explored = explore(coll, "forward")
        assert explored.models[2].icl < icl_before

    def test_initial_partitions_pair_with_their_own_block_counts(self):
        # each start goes with its entry of v_blocks, in the caller's order
        adj, _ = sample_network(planted_params(3, 0.7, 0.05), 40, rng_seed=45)
        starts = {q: spectral_init(adj, q, rng_seed=46) for q in (2, 3)}
        control = ControlOptions(rng_seed=47)
        ascending = estimate_miss_sbm(adj, [2, 3], "dyad", control=control, inits=[starts[2], starts[3]])
        descending = estimate_miss_sbm(adj, [3, 2], "dyad", control=control, inits=[starts[3], starts[2]])
        assert json.dumps(descending.to_json()) == json.dumps(ascending.to_json())
        with pytest.raises(InputError, match="block counts must not repeat"):
            estimate_miss_sbm(adj, [2, 3, 2], "dyad", control=control, inits=[starts[2], starts[3], starts[2]])

    def test_workers_do_not_change_results(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 40, rng_seed=42)
        observed = observe_network(adj, SamplingDesign("node", 0.8), rng_seed=43)
        one = estimate_miss_sbm(observed, [1, 2, 3], "node",
                                control=ControlOptions(rng_seed=44, workers=1))
        two = estimate_miss_sbm(observed, [1, 2, 3], "node",
                                control=ControlOptions(rng_seed=44, workers=2))
        assert json.dumps(one.to_json()) == json.dumps(two.to_json())

    # n = 30 takes the dense eigh, n = 200 the truncated solver (n >= 50 x 4 blocks)
    @pytest.mark.parametrize("n, qmax", [(30, 6), (200, 4)])
    def test_one_eigendecomposition_serves_every_q(self, n, qmax, monkeypatch):
        adj, _ = sample_network(planted_params(3, 0.6, 0.1), n, rng_seed=64)
        observed = observe_network(adj, SamplingDesign("node", 0.8), rng_seed=65)
        control = ControlOptions(rng_seed=66, exploration="none", max_iter=3)
        calls, embedding = [], sbm.spectral_embedding

        def spy(adj, k):
            calls.append((adj.n, k))
            return embedding(adj, k)

        for module in (vem, sbm):
            monkeypatch.setattr(module, "spectral_embedding", spy)
        coll = estimate_miss_sbm(observed, range(1, qmax + 1), "node", control=control)
        assert calls == [(n, qmax)]
        for fit in coll.models:
            alone = fit_single(observed, fit.q, "node", control=control)
            assert json.dumps(fit.to_json()) == json.dumps(alone.to_json())

    def test_repeated_starts_are_not_refitted(self, monkeypatch):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 40, rng_seed=67)
        observed = observe_network(adj, SamplingDesign("dyad", 0.8), rng_seed=68)
        control = ControlOptions(rng_seed=69)
        starts = []
        fit = vem.fit_single

        def counting(adj, q, *args, init=None, **kwargs):
            starts.append(vem._start_key(q, init.labels))
            return fit(adj, q, *args, init=init, **kwargs)

        monkeypatch.setattr(vem, "fit_single", counting)
        coll = estimate_miss_sbm(observed, [1, 2, 3], "dyad", control=control)
        assert len(starts) == len(set(starts)) == len(coll.starts[dataclasses.astuple(control)])
        # the key tells Q apart, also across the label widths of Q < 256 and Q >= 256
        assert len({vem._start_key(q, np.full(40, v)) for q in (2, 3, 256, 257) for v in (0, 1)}) == 8
        # a merge into one block starts where the Q = 1 fit did: never refitted
        assert starts.count(vem._start_key(1, np.zeros(40, dtype=int))) == 1
        # under another control (it differs in workers only) nothing is skipped, and the fits agree
        starts.clear()
        other = dataclasses.replace(control, workers=2)
        ref = estimate_miss_sbm(observed, [1, 2, 3], "dyad", control=dataclasses.replace(control, exploration="none"))
        ref = explore(explore(dataclasses.replace(ref, control=other), "forward"), "backward")
        assert len(starts) > len(set(starts))
        assert json.dumps(ref.to_json()) == json.dumps(coll.to_json())

    def test_starts_are_skipped_only_under_the_control_they_were_fitted_with(self):
        adj, _ = sample_network(planted_params(3, 0.6, 0.1), 50, rng_seed=5)
        observed = observe_network(adj, SamplingDesign("node", 0.8), rng_seed=105)
        control = ControlOptions(rng_seed=205)
        coll = estimate_miss_sbm(observed, [1, 2, 3, 4], "node", control=control)
        # starts fitted at threshold 1e-2 fit differently at 1e-6: none may be skipped
        fine = dataclasses.replace(coll, control=dataclasses.replace(control, threshold=1e-6))
        cleared = explore(dataclasses.replace(fine, starts={}), "backward")
        assert json.dumps(explore(fine, "backward").to_json()) == json.dumps(cleared.to_json())

    def test_best_model_tie_breaks_to_smallest_q(self):
        adj, _ = sample_network(planted_params(1, 0.2, 0.2), 20, rng_seed=45)
        coll = estimate_miss_sbm(adj, [1, 2, 3], "dyad",
                                 control=ControlOptions(rng_seed=46, exploration="none"))
        tied = float(coll.icl.min())
        models = [dataclasses.replace(fit, icl=tied) for fit in coll.models]
        assert dataclasses.replace(coll, models=models).best_model.q == 1
        models[0] = dataclasses.replace(models[0], icl=tied + 1.0)
        assert dataclasses.replace(coll, models=models).best_model.q == 2

    def test_elbo_nondecreasing_in_q_after_exploration(self):
        adj, _ = sample_network(planted_params(3, 0.7, 0.05), 60, rng_seed=47)
        coll = estimate_miss_sbm(adj, [1, 2, 3, 4], "node", control=ControlOptions(rng_seed=48))
        finals = [fit.elbo for fit in coll.models]
        assert all(b >= a - 1e-6 for a, b in zip(finals, finals[1:]))

    def test_exploration_keeps_snowball_waves(self):
        adj, _ = sample_network(planted_params(3, 0.5, 0.05), 45, rng_seed=9)
        observed = observe_network(adj, SamplingDesign("snowball", 0.2, waves=2),
                                   rng_seed=10)
        coll = estimate_miss_sbm(observed, [1, 2, 3, 4], "snowball", waves=2,
                                 control=ControlOptions(rng_seed=11))
        assert [fit.design.waves for fit in coll.models] == [2] * 4

    def test_rounding_level_icl_gain_is_a_tie(self, monkeypatch):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=62)
        control = ControlOptions(rng_seed=63, exploration="none")
        coll = estimate_miss_sbm(adj, [1, 2], "dyad", control=control)
        # the split candidate repeats the Q = 2 start; without the record of
        # starts it is fitted (here: replaced) all the same
        coll = dataclasses.replace(coll, starts={})
        current = coll.models[1]
        relabelled = fit_single(adj, 2, "dyad", control=control,
                                init=Partition(labels=1 - current.memberships, q=2))
        assert ari(relabelled.memberships, current.memberships) == 1.0
        for gain, accepted in ((4 * np.spacing(abs(current.icl)), False),
                               (10 * ICL_TIE_TOL * abs(current.icl), True)):
            candidate = dataclasses.replace(relabelled, icl=current.icl - gain)
            monkeypatch.setattr(vem, "fit_single", lambda *args, **kwargs: candidate)
            kept = explore(coll, "forward").models[1]
            assert kept is (candidate if accepted else current)


class TestImpute:
    def test_fully_observed_identity(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 20, rng_seed=49)
        fit = fit_single(adj, 2, "dyad", control=ControlOptions(rng_seed=50))
        out = impute(fit)
        expected = adj.filled()
        np.testing.assert_array_equal(out, expected)

    def test_single_block_mcar_imputes_pi_hat(self):
        adj, _ = sample_network(planted_params(1, 0.3, 0.3), 25, rng_seed=51)
        observed = observe_network(adj, SamplingDesign("dyad", 0.7), rng_seed=52)
        fit = fit_single(observed, 1, "dyad", control=ControlOptions(rng_seed=53))
        out = impute(fit)
        mi, mj = observed.missing_pairs
        np.testing.assert_allclose(out[mi, mj], fit.params.pi[0, 0], atol=1e-12)

    def test_observed_part_exact(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.15), 30, rng_seed=54)
        observed = observe_network(adj, SamplingDesign("double-standard", [0.9, 0.5]), rng_seed=55)
        fit = fit_single(observed, 2, "double-standard", control=ControlOptions(rng_seed=56))
        out = impute(fit)
        r = observed.observed_mask.astype(bool)
        np.testing.assert_array_equal(out[r], observed.filled(0.0)[r])

    ROUND_TRIP_PSI = {
        "dyad": 0.7,
        "covar-dyad": [0.5, 2.0],
        "double-standard": [0.9, 0.5],
        "block-dyad": [[0.9, 0.5], [0.5, 0.7]],
        "node": 0.6,
        "snowball": 0.3,
        "covar-node": [0.0, 1.5],
        "block-node": [0.9, 0.5],
        "degree": [-1.0, 0.3],
    }

    ROUND_TRIP_CASES = ([(tag, False) for tag in ROUND_TRIP_PSI]
                        + [("covar-node", True), ("double-standard", True)])

    @pytest.mark.parametrize("tag,use_cov", ROUND_TRIP_CASES,
                             ids=[tag + ("-use_cov" if use_cov else "")
                                  for tag, use_cov in ROUND_TRIP_CASES])
    def test_fit_json_round_trip_reproduces_imputation(self, tag, use_cov):
        psi = self.ROUND_TRIP_PSI[tag]
        adj, draw = sample_network(planted_params(2, 0.7, 0.15), 30, rng_seed=57)
        clusters = Partition.from_labels(draw.labels, 2)
        cov = CovariateSet.from_nodal([(np.arange(30) % 2).astype(float)])
        observed = observe_network(adj, SamplingDesign(tag, psi), clusters=clusters,
                                   covariates=cov, rng_seed=58)
        fit = fit_single(observed, 2, tag, covariates=cov,
                         control=ControlOptions(rng_seed=59, threshold=1e-6, max_iter=200,
                                                use_cov=use_cov))
        data = fit.to_json()
        assert list(data["sbm"]) == (["alpha", "gamma", "beta"] if use_cov else ["alpha", "pi"])
        rebuilt = fit_from_json(observed, json.loads(json.dumps(data)), covariates=cov)
        # stored nu predates the final M step; the rebuild sits at the exact
        # fixed point of the final parameters, so they agree to threshold order
        np.testing.assert_allclose(impute(rebuilt), impute(fit), atol=1e-4)
        np.testing.assert_array_equal(rebuilt.state.tau, fit.state.tau)
        np.testing.assert_array_equal(rebuilt.design.psi, fit.design.psi)
        np.testing.assert_array_equal(rebuilt.params.connectivity, fit.params.connectivity)
        # the stored tau is input: refused as such, before the nu fixed point builds states from it
        data["tau"][0] = [math.nan, math.nan]
        with pytest.raises(InputError, match="tau rows must be probability vectors"):
            fit_from_json(observed, data, covariates=cov)


@pytest.mark.parametrize("use_cov", [False, True], ids=["plain", "use_cov"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("tag", list(TestImpute.ROUND_TRIP_PSI))
def test_node_permutation_equivariance(tag, directed, use_cov, monkeypatch):
    # relabelling the nodes of the network, its covariate and the start permutes tau and
    # leaves the ICL and the EM rows as they are; the start is given, as the k-means
    # draws of the spectral start depend on the node order.  Every parameter set and
    # state the EM loop builds, unchecked, passes the public constructors' checks here.
    def checked(cls, **fields):
        cls(**fields)
        return trusted(cls, **fields)

    for module in (vem, sampling):
        monkeypatch.setattr(module, "trusted", checked)
    n = 30
    adj, draw = sample_network(planted_params(2, 0.7, 0.15, directed=directed), n, rng_seed=62)
    x = np.random.default_rng(63).normal(size=n)
    observed = observe_network(adj, SamplingDesign(tag, TestImpute.ROUND_TRIP_PSI[tag]),
                               clusters=Partition.from_labels(draw.labels, 2),
                               covariates=CovariateSet.from_nodal([x]), rng_seed=64)
    start = spectral_init(observed, 2, rng_seed=65)
    perm = np.random.default_rng(66).permutation(n)
    control = ControlOptions(rng_seed=67, use_cov=use_cov)
    fit = fit_single(observed, 2, tag, covariates=CovariateSet.from_nodal([x]), init=start, control=control)
    moved = fit_single(PartialAdjacency(observed.matrix[np.ix_(perm, perm)], directed=directed), 2, tag,
                       covariates=CovariateSet.from_nodal([x[perm]]),
                       init=Partition(labels=start.labels[perm], q=2), control=control)
    assert len(moved.monitoring) == len(fit.monitoring)
    assert abs(moved.icl - fit.icl) <= 1e-10 * abs(fit.icl)
    np.testing.assert_allclose(moved.state.tau, fit.state.tau[perm], rtol=0, atol=1e-8)


class CsrPairMatrices(PairMatrices):
    """The pair matrices in scipy CSR storage, built from the dyad index and ``values_at``:
    y is A_obs plus a sparse nu at the missing dyads, R holds ones at the observed dyads."""

    def __init__(self, adj):
        super().__init__(adj)
        rows, cols = adj.observed_pairs
        self._a = self._csr(rows, cols, adj.values_at(rows, cols))
        self._r = self._csr(rows, cols, np.ones(rows.size))

    def _csr(self, rows, cols, values):
        if not self.directed:   # both orders of an undirected dyad
            rows, cols, values = np.r_[rows, cols], np.r_[cols, rows], np.r_[values, values]
        return scipy.sparse.csr_array((values, (rows, cols)), shape=(self.adj.n,) * 2)

    def y(self, nu):
        return self._a if nu is None else self._a + self._csr(*self.adj.missing_pairs, nu)

    def r(self):
        return self._r


@pytest.mark.parametrize("use_cov", [False, True], ids=["plain", "use_cov"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("tag", list(TestImpute.ROUND_TRIP_PSI))
def test_a_sparse_pair_store_substitutes_for_the_dense_one(tag, directed, use_cov, monkeypatch):
    # the store is the EM loop's only access to pair storage: with a CSR store in its
    # place and the dense accessors refusing, a fit from a given start keeps its EM
    # rows and its ICL to rounding.  Q is the planted count, as for the permutation
    # test above: with a block more, an extrapolated step can turn the products'
    # rounding-level differences into a moved fit
    n, q = 30, 2
    adj, draw = sample_network(planted_params(2, 0.7, 0.15, directed=directed), n, rng_seed=80)
    cov = CovariateSet.from_nodal([np.random.default_rng(81).normal(size=n)])
    observed = observe_network(adj, SamplingDesign(tag, TestImpute.ROUND_TRIP_PSI[tag]),
                               clusters=Partition.from_labels(draw.labels, 2), covariates=cov, rng_seed=82)
    start = spectral_init(observed, q, rng_seed=83)
    control = ControlOptions(rng_seed=84, use_cov=use_cov)
    dense = fit_single(observed, q, tag, covariates=cov, init=start, control=control)

    def refused(*args):
        raise AssertionError("dense pair storage read outside the store")

    stores = []
    monkeypatch.setattr(PartialAdjacency, "pair_matrices", lambda adj: stores.append(1) or CsrPairMatrices(adj))
    monkeypatch.setattr(PartialAdjacency, "filled", refused)
    monkeypatch.setattr(PartialAdjacency, "fill_missing", refused)
    monkeypatch.setattr(PartialAdjacency, "observed_mask", property(refused))
    sparse = fit_single(observed, q, tag, covariates=cov, init=start, control=control)
    assert stores
    assert len(sparse.monitoring) == len(dense.monitoring)
    assert abs(sparse.icl - dense.icl) <= 1e-10 * abs(dense.icl)


def test_monitoring_and_traces_align():
    adj, _ = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=60)
    fit = fit_single(adj, 2, "dyad", control=ControlOptions(rng_seed=61))
    assert fit.elbo_trace == [row.elbo for row in fit.monitoring] == fit.to_json()["elbo_trace"]
    assert fit.elbo_trace[-1] == fit.monitoring[-1].elbo == fit.elbo
    assert math.isinf(fit.monitoring[0].delta)


def test_mnar_fit_working_set():
    # Constructor, double-standard fit_single and impute at n = 300, as the
    # dense-mnar benchmark call: measured 3.63 n x n floats, against 5.19
    # when the nu update built the whole product tau L tau' and the fit held
    # the missing pairs, the initial state and the full |M| temporaries.  The
    # network and the y buffer are 2 of it; the bound allows 0.05 for rounding.
    n = 300
    adj, _ = sample_network(planted_params(3, 0.35, 0.05), n, rng_seed=11)
    matrix = np.array(observe_network(adj, SamplingDesign("double-standard", (0.9, 0.4)), rng_seed=12).matrix)
    control = ControlOptions(rng_seed=5, max_iter=4, exploration="none")

    def call():
        fit = fit_single(PartialAdjacency(matrix), 3, "double-standard", control=control)
        assert fit.state.nu.size > 0.2 * n * n   # |M|-sized arrays are a real share of the peak
        return impute(fit)

    call()   # warm-up: numpy's first-use allocations are not the fit's
    assert peak_floats(call, n) <= 3.68
