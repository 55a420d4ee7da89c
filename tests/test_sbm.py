import warnings

import numpy as np
import pytest

from sbm_miss import (
    CovariateSet,
    InputError,
    PartialAdjacency,
    SamplingDesign,
    SbmParams,
    VariationalState,
    ari,
    expected_loglik_sbm,
    logistic,
    observe_network,
    predict_probabilities,
    sample_network,
    spectral_init,
)
from sbm_miss import sbm
from sbm_miss.network import SLAB, fit_logistic, log_sigmoid
from sbm_miss.sbm import (covariate_classes, dyad_covariate_effect, fit_covariate_connectivity, kmeans,
                          spectral_embedding)
from sbm_miss.vem import _Engine

from util import adjacency_from_edges, dyad_values, peak_floats, planted_params, random_partial


def hard_state(labels, q):
    tau = np.zeros((len(labels), q))
    tau[np.arange(len(labels)), labels] = 1.0
    return VariationalState(tau=tau)


def counting_loglik(adj, labels, alpha, pi):
    """Independent complete-data log-likelihood oracle by direct counting."""
    total = sum(np.log(alpha[z]) for z in labels)
    for i, j in adj.dyads():
        y = adj.entry(i, j)
        p = pi[labels[i], labels[j]]
        total += np.log(p) if y else np.log(1.0 - p)
    return total


def covariate_case(directed, mnar, n=12, q=3, seed=0, kind="dyadic"):
    """Partially observed covariate-SBM network with two dyadic covariates, a
    diffuse tau and, for an MNAR state, random imputation means nu.  x holds
    the dyad-level covariates as an m x n x n array.

    The other kinds have one covariate: "nodal" a normal nodal covariate
    under the l1 similarity, "binary" a 0/1 nodal one under l1 (two values,
    -0.0 and -1.0, on the dyads), "levels" a dyadic one with the three
    values -1, 0 and 1."""
    rng = np.random.default_rng([seed, directed, mnar])
    if kind in ("nodal", "binary"):
        v = rng.normal(size=n) if kind == "nodal" else rng.integers(2, size=n).astype(float)
        x = -np.abs(v[:, None] - v[None, :])[None]
        cov = CovariateSet.from_nodal([v], similarity="l1")
    elif kind == "levels":
        x = rng.integers(-1, 2, size=(1, n, n)).astype(float)
        if not directed:
            x = np.triu(x, 1) + np.triu(x, 1).transpose(0, 2, 1)
        cov = CovariateSet.from_dyadic(list(x))
    else:
        x = rng.normal(size=(2, n, n))
        if not directed:
            x = 0.5 * (x + x.transpose(0, 2, 1))
        cov = CovariateSet.from_dyadic(list(x))
    gamma = rng.normal(size=(q, q))
    gamma = gamma if directed else 0.5 * (gamma + gamma.T)
    params = SbmParams(alpha=rng.dirichlet(np.ones(q)), gamma=gamma,
                       beta=np.array([0.8, -0.6][:x.shape[0]]), directed=directed)
    adj, _ = sample_network(params, n, covariates=cov, rng_seed=seed)
    observed = observe_network(adj, SamplingDesign("dyad", 0.7), rng_seed=seed + 1)
    nu = rng.random(observed.n_missing) if mnar else None
    state = VariationalState(tau=rng.dirichlet(np.ones(q), size=n), nu=nu)
    return observed, cov, x, params, state


COVARIATE_CASES = [(d, m) for d in (False, True) for m in (False, True)]
COVARIATE_IDS = [f"{'directed' if d else 'undirected'}-{'mnar' if m else 'mar'}"
                 for d, m in COVARIATE_CASES]
# "binary" and "levels" have a few covariate classes, far fewer than dyads
COVARIATE_KINDS = ("dyadic", "nodal", "binary", "levels")
COVARIATE_KIND_CASES = [(d, m, k) for k in COVARIATE_KINDS for d, m in COVARIATE_CASES]
COVARIATE_KIND_IDS = COVARIATE_IDS + [f"{case}-{k}" for k in COVARIATE_KINDS[1:] for case in COVARIATE_IDS]


class TestSampleNetwork:
    def test_certain_edges_give_complete_graph(self):
        params = SbmParams(alpha=np.array([1.0]), pi=np.array([[1.0]]))
        adj, _ = sample_network(params, 8, rng_seed=1)
        assert all(adj.entry(i, j) == 1 for i, j in adj.dyads())

    def test_zero_edges_give_empty_graph(self):
        params = SbmParams(alpha=np.array([1.0]), pi=np.array([[0.0]]))
        adj, _ = sample_network(params, 8, rng_seed=1)
        assert all(adj.entry(i, j) == 0 for i, j in adj.dyads())

    def test_block_frequencies_within_3se(self):
        params = planted_params(2, 0.9, 0.1)
        adj, draw = sample_network(params, 200, rng_seed=2)
        z = draw.labels
        within = [adj.entry(i, j) for i, j in adj.dyads() if z[i] == z[j]]
        between = [adj.entry(i, j) for i, j in adj.dyads() if z[i] != z[j]]
        for sample, p in ((within, 0.9), (between, 0.1)):
            freq = np.mean(sample)
            se = np.sqrt(p * (1 - p) / len(sample))
            assert abs(freq - p) <= 3 * se

    def test_reproducible_bit_exact(self):
        params = planted_params(3, 0.5, 0.05)
        a1, d1 = sample_network(params, 50, rng_seed=7)
        a2, d2 = sample_network(params, 50, rng_seed=7)
        assert a1 == a2
        np.testing.assert_array_equal(d1.labels, d2.labels)

    def test_single_block_edge_count_binomial(self):
        params = SbmParams(alpha=np.array([1.0]), pi=np.array([[0.3]]))
        adj, _ = sample_network(params, 60, rng_seed=3)
        count = sum(adj.entry(i, j) for i, j in adj.dyads())
        mean = adj.n_dyads * 0.3
        sd = np.sqrt(adj.n_dyads * 0.3 * 0.7)
        assert abs(count - mean) <= 4 * sd

    def test_undirected_symmetry_and_no_self_loops(self):
        adj, _ = sample_network(planted_params(2, 0.5, 0.2), 20, rng_seed=4)
        m = adj.matrix
        assert np.all(np.isnan(np.diag(m)))
        off = ~np.eye(20, dtype=bool)
        np.testing.assert_array_equal(m[off], m.T[off])

    def test_directed_generation(self):
        params = planted_params(2, 0.8, 0.1, directed=True)
        adj, _ = sample_network(params, 40, rng_seed=5)
        assert adj.directed
        m = adj.matrix
        assert np.nansum(np.abs(m - m.T)) > 0  # orientations drawn independently

    def test_covariate_variant_rates(self):
        x = (np.arange(200) % 2).astype(float)
        cov = CovariateSet.from_nodal([x])
        gamma = np.array([[0.5]])
        params = SbmParams(alpha=np.array([1.0]), gamma=gamma, beta=np.array([2.0]))
        adj, _ = sample_network(params, 200, covariates=cov, rng_seed=6)
        sim = -np.abs(x[:, None] - x[None, :])
        for value in (0.0, -1.0):
            stratum = np.triu(sim == value, 1)
            rate = logistic(0.5 + 2.0 * value)
            freq = adj.filled()[stratum].mean()
            se = np.sqrt(rate * (1 - rate) / stratum.sum())
            assert abs(freq - rate) <= 3 * se

    @pytest.mark.parametrize("n", [20, 40], ids=["shorter", "longer"])
    def test_covariate_variant_needs_covariates_of_the_node_count(self, n):
        cov = CovariateSet.from_nodal([np.arange(n, dtype=float)])
        params = SbmParams(alpha=np.array([1.0]), gamma=np.array([[0.5]]), beta=np.array([2.0]))
        with pytest.raises(InputError, match=f"covariates given for {n} nodes, the network has 30"):
            sample_network(params, 30, covariates=cov, rng_seed=6)


class TestExpectedLoglik:
    def test_single_block_fully_observed(self):
        adj, _ = sample_network(SbmParams(alpha=np.array([1.0]), pi=np.array([[0.4]])), 12, rng_seed=8)
        edges = sum(adj.entry(i, j) for i, j in adj.dyads())
        p = 0.37
        params = SbmParams(alpha=np.array([1.0]), pi=np.array([[p]]))
        state = hard_state(np.zeros(12, dtype=int), 1)
        expected = edges * np.log(p) + (adj.n_dyads - edges) * np.log(1 - p)
        assert expected_loglik_sbm(params, adj, state) == pytest.approx(expected, abs=1e-9)

    def test_hard_tau_matches_counting_oracle(self):
        adj, draw = sample_network(planted_params(3, 0.7, 0.1), 30, rng_seed=9)
        z = draw.labels
        # empirical block frequencies as parameters
        counts = np.zeros((3, 3))
        totals = np.zeros((3, 3))
        for i, j in adj.dyads():
            counts[z[i], z[j]] += adj.entry(i, j)
            totals[z[i], z[j]] += 1
        counts, totals = counts + counts.T, totals + totals.T
        pi = np.clip(counts / np.maximum(totals, 1), 1e-6, 1 - 1e-6)
        alpha = np.bincount(z, minlength=3) / 30
        alpha = np.clip(alpha, 1e-9, None)
        alpha = alpha / alpha.sum()
        params = SbmParams(alpha=alpha, pi=pi)
        value = expected_loglik_sbm(params, adj, hard_state(z, 3))
        oracle = counting_loglik(adj, z, alpha, pi)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_single_block_mnar_with_nu_equal_pi(self):
        adj, _ = sample_network(SbmParams(alpha=np.array([1.0]), pi=np.array([[0.5]])), 14, rng_seed=10)
        from sbm_miss import SamplingDesign, observe_network

        observed = observe_network(adj, SamplingDesign("dyad", 0.7), rng_seed=11)
        p = 0.42
        params = SbmParams(alpha=np.array([1.0]), pi=np.array([[p]]))
        nu = np.full(observed.n_missing, p)
        state = VariationalState(tau=np.ones((14, 1)), nu=nu)
        edges = sum(observed.entry(i, j) for i, j in observed.dyads() if observed.entry(i, j) is not None)
        observed_dyads = observed.n_observed
        non_edges = observed_dyads - edges
        miss = observed.n_missing
        expected = (edges * np.log(p) + non_edges * np.log(1 - p)
                    + miss * (p * np.log(p) + (1 - p) * np.log(1 - p)))
        assert expected_loglik_sbm(params, observed, state) == pytest.approx(expected, abs=1e-9)

    def test_label_permutation_invariance(self):
        adj, draw = sample_network(planted_params(3, 0.6, 0.1), 25, rng_seed=12)
        rng = np.random.default_rng(13)
        tau = rng.dirichlet([1.5] * 3, size=25)
        alpha = np.array([0.2, 0.3, 0.5])
        pi = np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.3], [0.1, 0.3, 0.5]])
        perm = np.array([2, 0, 1])
        value = expected_loglik_sbm(SbmParams(alpha=alpha, pi=pi), adj, VariationalState(tau=tau))
        permuted = expected_loglik_sbm(
            SbmParams(alpha=alpha[perm], pi=pi[np.ix_(perm, perm)]), adj,
            VariationalState(tau=tau[:, perm]))
        assert value == pytest.approx(permuted, abs=1e-9)

    @pytest.mark.parametrize("directed,mnar,kind", COVARIATE_KIND_CASES, ids=COVARIATE_KIND_IDS)
    def test_covariate_variant_matches_dyad_loop(self, directed, mnar, kind):
        adj, cov, x, params, state = covariate_case(directed, mnar, kind=kind)
        tau, q = state.tau, params.q
        oracle = float(np.sum(tau @ np.log(params.alpha)))
        for (i, j), y in dyad_values(adj, state).items():
            for a in range(q):
                for b in range(q):
                    p = logistic(params.gamma[a, b] + params.beta @ x[:, i, j])
                    oracle += tau[i, a] * tau[j, b] * (y * np.log(p) + (1 - y) * np.log(1 - p))
        value = expected_loglik_sbm(params, adj, state, cov)
        assert value == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("directed,mnar", COVARIATE_CASES, ids=COVARIATE_IDS)
    def test_plain_variant_matches_dyad_loop(self, directed, mnar):
        adj, _, _, cov_params, state = covariate_case(directed, mnar)
        params = SbmParams(alpha=cov_params.alpha, pi=logistic(cov_params.gamma), directed=directed)
        tau, q = state.tau, params.q
        oracle = float(np.sum(tau @ np.log(params.alpha)))
        for (i, j), y in dyad_values(adj, state).items():
            for a in range(q):
                for b in range(q):
                    p = params.pi[a, b]
                    oracle += tau[i, a] * tau[j, b] * (y * np.log(p) + (1 - y) * np.log(1 - p))
        value = expected_loglik_sbm(params, adj, state)
        assert value == pytest.approx(oracle, rel=1e-12)


class TestPredictProbabilities:
    def test_hard_tau_looks_up_pi(self):
        labels = np.array([0, 1, 0, 1])
        pi = np.array([[0.8, 0.2], [0.2, 0.6]])
        params = SbmParams(alpha=np.array([0.5, 0.5]), pi=pi)
        out = predict_probabilities(params, hard_state(labels, 2))
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert out[i, j] == pytest.approx(pi[labels[i], labels[j]])
        assert np.isnan(out[0, 0])

    def test_single_block_constant(self):
        params = SbmParams(alpha=np.array([1.0]), pi=np.array([[0.31]]))
        out = predict_probabilities(params, hard_state(np.zeros(5, dtype=int), 1))
        off = ~np.eye(5, dtype=bool)
        np.testing.assert_allclose(out[off], 0.31)

    def test_uniform_tau_averages(self):
        a, b, c = 0.8, 0.3, 0.5
        params = SbmParams(alpha=np.array([0.5, 0.5]), pi=np.array([[a, b], [b, c]]))
        tau = np.full((4, 2), 0.5)
        out = predict_probabilities(params, VariationalState(tau=tau))
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(out[off], (a + 2 * b + c) / 4)

    def test_entries_in_unit_interval_and_symmetric(self):
        rng = np.random.default_rng(14)
        tau = rng.dirichlet([1.0] * 3, size=10)
        pi = rng.uniform(0.05, 0.95, size=(3, 3))
        pi = 0.5 * (pi + pi.T)
        params = SbmParams(alpha=np.full(3, 1 / 3), pi=pi)
        out = predict_probabilities(params, VariationalState(tau=tau))
        off = ~np.eye(10, dtype=bool)
        assert np.all(out[off] >= 0) and np.all(out[off] <= 1)
        np.testing.assert_allclose(out[off], out.T[off])

    @pytest.mark.parametrize("directed,mnar,kind", COVARIATE_KIND_CASES, ids=COVARIATE_KIND_IDS)
    def test_covariate_variant_matches_loop(self, directed, mnar, kind):
        adj, cov, x, params, state = covariate_case(directed, mnar, kind=kind)
        tau, q, n = state.tau, params.q, adj.n
        oracle = np.full((n, n), np.nan)
        for i in range(n):
            for j in range(n):
                if i != j:
                    oracle[i, j] = sum(tau[i, a] * tau[j, b]
                                       * logistic(params.gamma[a, b] + params.beta @ x[:, i, j])
                                       for a in range(q) for b in range(q))
        np.testing.assert_allclose(predict_probabilities(params, state, cov), oracle,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "observed"])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("kind", ["plain", "dyadic", "nodal", "binary"])
    def test_predict_missing_is_the_matrix_at_the_missing_dyads(self, kind, directed, missing):
        # bit for bit; the covariate variant in |M|-sized vectors: measured 8.0 |M|
        # floats, where the whole matrix took 14-28.  At n = 300 row blocks of the plain
        # variant's product, as at_missing takes them, can differ from it in the last bit
        n = 300
        adj, cov, _, params, state = covariate_case(directed, False, n=n, kind="dyadic" if kind == "plain" else kind)
        if kind == "plain":
            params = planted_params(3, 0.6, 0.1, directed=directed)
        if not missing:
            adj = sample_network(params, n, covariates=cov, rng_seed=1)[0]
        expected = predict_probabilities(params, state, cov).take(adj.missing_flat)
        predict = lambda: sbm.predict_missing(params, state, adj, cov)   # noqa: E731
        assert bool(adj.n_missing) == missing
        assert predict().tobytes() == expected.tobytes()
        if missing and kind != "plain":
            assert peak_floats(predict, n) <= (8 * adj.n_missing + SLAB) / (n * n)


def dense_kernel_coupling(eng, params, tables, y, t):
    """``_Engine._coupling`` of the covariate SBM as it was before the class
    tables: per block pair, log sigma(-(gamma_ab + beta . x_ij)) on all n x n
    entries, then masked to the dyads in play."""
    out = np.zeros_like(t)
    r = None if tables[1] is None else eng.adj.observed_mask
    for m, table in zip((y, r, None), tables):
        if table is None:
            continue
        rows = t.sum(axis=0) - t if m is None else m @ t
        cols = m.T @ t if eng.directed and m is not None else rows
        out += (1.0 if eng.directed else 0.5) * (rows @ table.T + cols @ table)
    c = dyad_covariate_effect(params, eng.sbm_covariates)
    eta = np.empty_like(c)
    for a in range(params.q):
        for b in range(0 if eng.directed else a, params.q):
            np.add(params.gamma[a, b], c, out=eta)
            np.negative(eta, out=eta)
            kernel = log_sigmoid(eta, out=eta)
            if eng.mnar:
                np.fill_diagonal(kernel, 0.0)
            else:
                kernel *= eng.adj.observed_mask
            out[:, a] += kernel @ t[:, b]
            if eng.directed or a != b:
                out[:, b] += kernel.T @ t[:, a]
    return out


class TestCovariateCoupling:
    @pytest.mark.parametrize("directed,mnar,kind", COVARIATE_KIND_CASES, ids=COVARIATE_KIND_IDS)
    def test_class_tables_equal_dense_kernels_bitwise(self, directed, mnar, kind):
        adj, cov, _, params, state = covariate_case(directed, mnar, n=30, kind=kind)
        eng = _Engine(adj, "double-standard" if mnar else "dyad", cov, use_cov=True)
        _, tables, cov_effect = eng._ve_terms(params, None)
        y = eng.store.y(state.nu)
        step = np.random.default_rng(7).dirichlet(np.ones(params.q), size=adj.n) - state.tau
        assert (step < 0).any() and (step > 0).any()
        for t in (state.tau, step):
            new = eng._coupling(params, tables, cov_effect, y, t)
            assert new.tobytes() == dense_kernel_coupling(eng, params, tables, y, t).tobytes()


class TestFitCovariateConnectivity:
    @pytest.mark.parametrize("directed,mnar,kind", COVARIATE_KIND_CASES, ids=COVARIATE_KIND_IDS)
    def test_matches_logistic_fit_on_expanded_data(self, directed, mnar, kind):
        # each dyad (i, j) becomes one row per block pair (a, b) with weight
        # tau_ia tau_jb: one indicator column per intercept gamma_ab (shared
        # by (a, b) and (b, a) when undirected) plus the covariates x_ij
        adj, cov, x, params, state = covariate_case(directed, mnar, kind=kind)
        tau, q = state.tau, params.q
        pairs = [(a, b) for a in range(q) for b in range(q) if directed or a <= b]
        column = {pair: k for k, pair in enumerate(pairs)}
        rows, ys, weights = [], [], []
        for (i, j), y in dyad_values(adj, state).items():
            for a in range(q):
                for b in range(q):
                    onehot = np.zeros(len(pairs))
                    onehot[column.get((a, b), column.get((b, a)))] = 1.0
                    # an undirected dyad enters the objective in both orientations
                    for u, v in ((i, j),) if directed else ((i, j), (j, i)):
                        rows.append(np.concatenate([onehot, x[:, u, v]]))
                        ys.append(y)
                        weights.append(tau[u, a] * tau[v, b])
        coef, _ = fit_logistic(np.array(rows), np.array(ys), weights=np.array(weights))
        gamma, beta = fit_covariate_connectivity(adj, state, cov)
        expected_gamma = np.array([[coef[column.get((a, b), column.get((b, a)))]
                                    for b in range(q)] for a in range(q)])
        np.testing.assert_allclose(gamma, expected_gamma, atol=1e-6)
        np.testing.assert_allclose(beta, coef[len(pairs):], atol=1e-6)


def test_signed_zeros_share_a_covariate_class():
    # the l1 transfer of two equal values gives -0.0, which equals 0.0
    adj = random_partial(12, False, 4)
    x = np.zeros((12, 12))
    x[::2] = -0.0
    x[:, ::3] = 1.0
    cov = CovariateSet.from_dyadic([x])
    values = x[adj.observed_pairs]
    assert np.any(np.signbit(values) & (values == 0)) and np.any(~np.signbit(values) & (values == 0))
    classes, [(_, _, order, starts, _)] = covariate_classes(adj, cov, missing=False)
    np.testing.assert_array_equal(np.sort(classes[0]), [0.0, 1.0])
    np.testing.assert_array_equal(np.repeat(classes[0], np.diff(starts)), values[order])


@pytest.mark.parametrize("nu", ["none", "one short"])
def test_mnar_covariate_bound_needs_nu_at_every_missing_dyad(nu):
    # the MNAR SBM factor runs over the missing dyads too, at nu
    adj, cov, _, params, state = covariate_case(False, True)
    state = VariationalState(tau=state.tau, nu=None if nu == "none" else state.nu[1:])
    with pytest.raises(InputError, match="one value per missing dyad"):
        _Engine(adj, "double-standard", cov, True).elbo_parts(
            params, SamplingDesign("double-standard", [0.8, 0.2]), state)


class TestCovariateWorkingSet:
    # Measured peaks of the M step and the bound over the dyads in play
    # (n = 200, Q = 3, two continuous covariates, 70 % of the dyads observed),
    # in n x n arrays: 4.25 / 2.72 (MAR) and 5.53 / 3.61 (MNAR).  Every dyad is
    # its own covariate class here, so the K x V class counts take 6 vectors
    # over the dyads in play (2.99 arrays under MNAR).  The bound runs after
    # the fit has sorted the dyads into classes.  The bounds allow 0.05 of an
    # array for rounding, so one more slab of sbm.SLAB entries (0.2 of an
    # array here) fails.
    PEAK = {False: {"fit": 4.30, "elbo": 2.77}, True: {"fit": 5.58, "elbo": 3.67}}

    @pytest.mark.parametrize("mnar", [False, True], ids=["mar", "mnar"])
    def test_fit_and_bound_do_not_outgrow_earlier_kernels(self, mnar):
        n = 200
        adj, cov, _, params, state = covariate_case(False, mnar, n=n, q=3)
        engine = _Engine(adj, "double-standard" if mnar else "dyad", cov, use_cov=True)
        # cached inputs, held by every fit: the adjacency's indices and the
        # covariate classes with their n x n index, built by the counts of a
        # copy of the state
        adj.missing_flat, adj.observed_pairs, adj.observed_mask
        engine.block_counts(VariationalState(tau=state.tau, nu=state.nu))
        fit = peak_floats(lambda: fit_covariate_connectivity(adj, state, engine.covariates), n)
        bound = peak_floats(lambda: engine.elbo_parts(params, None, state), n)
        assert fit <= self.PEAK[mnar]["fit"]
        assert bound <= self.PEAK[mnar]["elbo"]

    # Measured peak of one VE step (3 rounds) on the same case, in n x n
    # arrays: 3.17 (MAR) and 3.77 (MNAR, where the fit's y buffer is one).
    # Kernels of log sigma on all n x n entries, masked, took 4.13 and 4.28:
    # the per-pair tables here hold one value per class, under n^2 / 2.
    VE_PEAK = {False: 3.22, True: 3.82}

    @pytest.mark.parametrize("mnar", [False, True], ids=["mar", "mnar"])
    def test_ve_step_does_not_outgrow_earlier_kernels(self, mnar):
        n = 200
        adj, cov, _, params, state = covariate_case(False, mnar, n=n, q=3)
        design = SamplingDesign("double-standard", [0.8, 0.2]) if mnar else SamplingDesign("dyad", 0.7)
        engine = _Engine(adj, design.tag, cov, use_cov=True)
        adj.missing_flat, adj.observed_pairs, adj.observed_mask
        engine.block_counts(VariationalState(tau=state.tau, nu=state.nu))
        assert peak_floats(lambda: engine.ve_step(params, design, state, 3), n) <= self.VE_PEAK[mnar]

    def test_undirected_counts_hold_two_slab_arrays_beside_the_weights(self):
        # a binary nodal covariate has two classes, so the slab arrays show in the peak:
        # measured 0.43 n x n floats at n = 200, 0.53 when the (b, a) weights took a third
        n = 200
        adj, cov, _, _, state = covariate_case(False, False, n=n, q=3, kind="binary")
        classes = covariate_classes(adj, cov, missing=False)
        counts = lambda: sbm.covariate_counts(adj, state, cov, classes)   # noqa: E731
        counts()
        assert peak_floats(counts, n) <= 0.48


class TestSpectralInit:
    def test_two_disconnected_cliques(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
        adj = adjacency_from_edges(8, edges)
        part = spectral_init(adj, 2, rng_seed=0)
        assert ari(part.labels, [0, 0, 0, 0, 1, 1, 1, 1]) == 1.0

    def test_single_block(self):
        adj = adjacency_from_edges(5, [(0, 1)])
        part = spectral_init(adj, 1, rng_seed=0)
        assert part.q == 1 and set(part.labels) == {0}

    def test_too_many_blocks_is_error(self):
        adj = adjacency_from_edges(4, [(0, 1)])
        with pytest.raises(InputError):
            spectral_init(adj, 5)

    def test_planted_three_blocks_high_ari(self):
        params = planted_params(3, 0.5, 0.02)
        hits = 0
        for seed in range(20):
            adj, draw = sample_network(params, 150, rng_seed=seed)
            part = spectral_init(adj, 3, rng_seed=seed)
            if ari(part.labels, draw.labels) >= 0.95:
                hits += 1
        assert hits >= 19  # >= 95% of seeds

    def test_missing_entries_count_as_zero(self):
        adj = adjacency_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
                                   missing=[(0, 3)])
        part = spectral_init(adj, 2, rng_seed=1)
        assert ari(part.labels, [0, 0, 0, 1, 1, 1]) == 1.0

    def test_deterministic(self):
        adj, _ = sample_network(planted_params(2, 0.5, 0.1), 40, rng_seed=15)
        a = spectral_init(adj, 2, rng_seed=3)
        b = spectral_init(adj, 2, rng_seed=3)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("case", ["undirected", "directed", "partial"])
    def test_one_embedding_gives_every_q_its_own_start(self, case):
        if case == "partial":
            adj = random_partial(30, False, 7)
        else:
            adj, _ = sample_network(planted_params(3, 0.5, 0.1, directed=case == "directed"), 30,
                                    rng_seed=8)
        embedding = spectral_embedding(adj, 6)
        assert embedding.shape == (30, 6)
        for q in range(1, 7):
            for seed in (0, 5):
                shared = spectral_init(adj, q, seed, embedding).labels
                np.testing.assert_array_equal(shared, spectral_init(adj, q, seed).labels)

    def test_embedding_too_narrow_is_error(self):
        adj = random_partial(10, False, 3)
        with pytest.raises(InputError):
            spectral_init(adj, 3, 0, spectral_embedding(adj, 2))

    @staticmethod
    def dense_embedding(adj, k):
        """The embedding by the dense eigh alone, the reference of the truncated solver."""
        a = adj.filled(0.0)
        if adj.directed:
            a = 0.5 * (a + a.T)
        eigval, eigvec = np.linalg.eigh(a)
        return eigvec[:, np.argsort(-np.abs(eigval), kind="stable")[:k]]

    @staticmethod
    def spy_lanczos(monkeypatch):
        """The rows and the result (None when it gave up) of every ``_lanczos`` call."""
        calls, lanczos = [], sbm._lanczos

        def spy(a, k):
            calls.append((a.shape[0], lanczos(a, k)))
            return calls[-1][1]

        monkeypatch.setattr(sbm, "_lanczos", spy)
        return calls

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("case", ["undirected", "directed", "partial"])
    @pytest.mark.parametrize("n", [200, 300])
    def test_truncated_embedding_is_the_dense_one(self, n, case, k, monkeypatch):
        adj, _ = sample_network(planted_params(4, 0.5, 0.05, directed=case == "directed"), n, rng_seed=n + k)
        if case == "partial":
            adj = observe_network(adj, SamplingDesign("dyad", 0.7), rng_seed=n)
        calls = self.spy_lanczos(monkeypatch)
        embedding, reference = spectral_embedding(adj, k), self.dense_embedding(adj, k)
        assert len(calls) == 1 and calls[0][1] is not None   # the truncated path ran and converged
        for col, ref in zip(embedding.T, reference.T):
            assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) < 1e-10
        for q in range(2, k + 1):
            np.testing.assert_array_equal(spectral_init(adj, q, q, embedding).labels,
                                          spectral_init(adj, q, q, reference).labels)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_truncated_solver_from_50_rows_per_vector(self, k, monkeypatch):
        calls = self.spy_lanczos(monkeypatch)
        for n in (50 * k - 1, 50 * k):
            spectral_embedding(sample_network(planted_params(k, 0.5, 0.05), n, rng_seed=n)[0], k)
        assert [rows for rows, _ in calls] == [50 * k]

    @pytest.mark.parametrize("k", [3, 6])
    @pytest.mark.parametrize("case", ["no edge", "equal cliques", "complete bipartite"])
    def test_degenerate_spectrum_falls_back_to_the_dense_result(self, case, k, monkeypatch):
        blocks = np.arange(300) // 100
        mat = {"no edge": np.zeros((300, 300)),
               "equal cliques": (blocks[:, None] == blocks).astype(float),
               "complete bipartite": ((blocks[:, None] == 0) != (blocks == 0)).astype(float)}[case]
        np.fill_diagonal(mat, np.nan)
        adj = PartialAdjacency(mat)
        calls = self.spy_lanczos(monkeypatch)
        np.testing.assert_array_equal(spectral_embedding(adj, k), self.dense_embedding(adj, k))
        assert calls == [(300, None)]


def reference_kmeans_pp(points, k, rng):
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


def reference_kmeans(points, k, rng, restarts=10, max_iter=100):
    """The Lloyd loop as first written, with set algebra for empty clusters."""
    n = points.shape[0]
    if k >= n:
        return np.arange(n) % k
    best_labels, best_inertia = None, np.inf
    for _ in range(restarts):
        centers = reference_kmeans_pp(points, k, rng)
        labels = np.zeros(n, dtype=int)
        for _ in range(max_iter):
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


def imputed_block(n, seed):
    """A block's rows of an imputed undirected adjacency, as a split candidate clusters
    them: observed dyads 0 or 1, missing ones at their nu in (0, 1), a 0 diagonal."""
    rng = np.random.default_rng(seed)
    block = (rng.random((n, n)) < 0.3).astype(float)
    missing = rng.random((n, n)) < 0.25
    block[missing] = rng.random(missing.sum())
    block = np.triu(block, 1)
    return block + block.T


KMEANS_CASES = {
    "uniform": (np.random.default_rng(1).random((40, 3)), 3),
    "binary": ((np.random.default_rng(2).random((30, 12)) < 0.4).astype(float), 2),
    "d = 1": (np.random.default_rng(4).random((25, 1)), 3),
    "k = n - 1": (np.random.default_rng(5).random((6, 2)), 5),
    # the shapes the package feeds it: a split candidate, and a spectral start of 4 blocks
    "split candidate": (imputed_block(30, 6), 2),
    "spectral": (spectral_embedding(sample_network(planted_params(4, 0.5, 0.05), 50, rng_seed=7)[0], 4), 4),
}
# inputs where repairing one empty cluster empties another: the reference
# loop leaves that cluster empty, its centre the mean of no rows.  Repaired,
# kmeans finds the reference's clusters, numbered as its first best restart
# drew their centres; the labels below pin them per seed.
CASCADE = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
DUPLICATED = np.repeat(np.random.default_rng(3).random((3, 2)), 5, axis=0)
CASCADE_CASES = {
    "cascade": (CASCADE, 5, {9: [1, 3, 2, 4, 0, 0]}),
    "duplicated rows": (DUPLICATED, 5, {
        0: [3, 4, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
        1: [3, 4, 2, 2, 2, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
        2: [3, 4, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
        3: [3, 4, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
        4: [3, 4, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    }),
}


class TestKmeans:
    @staticmethod
    def assert_matches_reference(points, k, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with warnings.catch_warnings():   # a cluster left empty has a NaN centre
            warnings.simplefilter("ignore", RuntimeWarning)
            labels, expected = kmeans(points, k, rng), reference_kmeans(points, k, ref_rng)
        np.testing.assert_array_equal(labels, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("case", list(KMEANS_CASES))
    def test_matches_reference_loop(self, case):
        points, k = KMEANS_CASES[case]
        for seed in range(5):
            self.assert_matches_reference(points, k, seed)

    def test_holds_one_array_the_size_of_the_points(self):
        # a Q = 1 split clusters all n rows of an n x n imputed matrix: one n x d
        # buffer takes every difference, where k-means++, the centres' cluster rows
        # and the inertia each allocated one or two more (about 3 n x n in all).
        # Measured 1.08: 0.05 is numpy's ufunc buffer of 8192 entries, for the
        # row sums into a column of the distances
        n = 400
        points = imputed_block(n, 8)
        assert peak_floats(lambda: kmeans(points, 2, np.random.default_rng(9)), n) <= 1.1

    @pytest.mark.parametrize("case", list(CASCADE_CASES))
    def test_cascading_empty_cluster_repair_fills_every_cluster(self, case):
        points, k, pinned = CASCADE_CASES[case]
        for seed, expected in pinned.items():
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                reference = reference_kmeans(points, k, ref_rng)
            assert any("Mean of empty slice" in str(w.message) for w in caught)
            with warnings.catch_warnings():   # no cluster is left empty, so no NaN centre
                warnings.simplefilter("error")
                labels = kmeans(points, k, rng)
            np.testing.assert_array_equal(labels, expected)
            assert np.unique(labels).size == k and ari(labels, reference) == 1.0
            centers = np.vstack([points[labels == c].mean(axis=0) for c in range(k)])
            assert np.isfinite(((points - centers[labels]) ** 2).sum())
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_undirected_symmetry_check_keeps_its_tolerance():
    alpha = np.array([0.5, 0.5])
    SbmParams(alpha=alpha, pi=np.array([[0.5, 0.1], [0.1 + 1e-12, 0.5]]))
    SbmParams(alpha=alpha, gamma=np.array([[2.0, 1.0], [1.0 + 1e-12, 0.0]]), beta=np.array([1.0]))
    asymmetric = np.array([[0.5, 0.1], [0.1 + 1e-3, 0.5]])
    with pytest.raises(InputError, match="symmetric"):
        SbmParams(alpha=alpha, pi=asymmetric)
    with pytest.raises(InputError, match="symmetric"):
        SbmParams(alpha=alpha, gamma=asymmetric, beta=np.array([1.0]))
    SbmParams(alpha=alpha, pi=asymmetric, directed=True)


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("name,value", [
    ("alpha", [np.nan, np.nan]),
    ("pi", [[np.nan, 0.1], [0.1, 0.5]]),
    ("gamma", [[np.nan, 0.1], [0.1, 0.5]]),
    ("gamma", [[0.0, np.inf], [np.inf, 0.0]]),
    ("gamma", [[-np.inf, 0.0], [0.0, 0.0]]),
    ("beta", [np.nan]),
    ("beta", [np.inf]),
])
def test_non_finite_parameters_are_refused(name, value, directed):
    # a NaN alpha passes the sum check (|nan - 1| > tol is False), a NaN pi
    # the range check, and an infinite gamma the symmetry check
    arrays = {"alpha": [0.5, 0.5], "beta": [1.0]}
    arrays["pi" if name == "pi" else "gamma"] = np.full((2, 2), 0.3)
    arrays[name] = np.array(value)
    if "pi" in arrays:
        del arrays["beta"]
    with pytest.raises(InputError, match=f"{name} entries must be finite"):
        SbmParams(**arrays, directed=directed)


def test_params_validation_and_json_round_trip():
    with pytest.raises(InputError):
        SbmParams(alpha=np.array([0.5, 0.4]), pi=np.full((2, 2), 0.5))
    with pytest.raises(InputError):
        SbmParams(alpha=np.array([0.5, 0.5]), pi=np.array([[0.5, 0.1], [0.2, 0.5]]))
    with pytest.raises(InputError):
        SbmParams(alpha=np.array([1.0]))
    params = planted_params(2, 0.6, 0.1)
    again = SbmParams.from_json(params.to_json())
    np.testing.assert_array_equal(params.pi, again.pi)
    cov = SbmParams(alpha=np.array([1.0]), gamma=np.array([[0.2]]), beta=np.array([1.0, -1.0]))
    again = SbmParams.from_json(cov.to_json())
    np.testing.assert_array_equal(cov.beta, again.beta)
