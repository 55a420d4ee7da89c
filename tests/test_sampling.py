import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from sbm_miss import (
    CovariateSet,
    InputError,
    Partition,
    SamplingDesign,
    VariationalState,
    design_df,
    logistic,
    observe_network,
    sample_network,
    sampling_loglik,
    update_psi,
)
from sbm_miss.network import PROB_CLAMP, as_rng
from sbm_miss.sampling import DESIGNS, NODE_CENTERED

from util import adjacency_from_edges, planted_params


def hard_state(labels, q, n_missing=0, nu_value=0.5):
    tau = np.zeros((len(labels), q))
    tau[np.arange(len(labels)), labels] = 1.0
    nu = np.full(n_missing, nu_value) if n_missing else None
    return VariationalState(tau=tau, nu=nu)


class TestDesignDf:
    @pytest.mark.parametrize("tag,psi,expected", [
        ("dyad", 0.5, 1),
        ("node", 0.5, 1),
        ("snowball", 0.5, 1),
        ("double-standard", [0.5, 0.5], 2),
        ("degree", [0.0, 1.0], 2),
    ])
    def test_scalar_families(self, tag, psi, expected):
        design = SamplingDesign(tag, psi)
        for q in (1, 3, 7):
            assert design_df(design, q) == expected

    def test_block_dyad_counts_symmetric_entries(self):
        design = SamplingDesign("block-dyad", np.full((3, 3), 0.5))
        assert design_df(design, 3) == 6  # symmetric 3x3 has 6 free entries
        assert design_df(design, 3, directed=True) == 9

    def test_block_node(self):
        design = SamplingDesign("block-node", np.full(4, 0.5))
        assert design_df(design, 4) == 4

    def test_covar_designs_count_intercept_plus_slopes(self):
        assert design_df(SamplingDesign("covar-node", [0.0, 1.0]), 2) == 2
        assert design_df(SamplingDesign("covar-dyad", [0.0, 1.0, 2.0]), 2) == 3


def test_missingness_classes_match_taxonomy():
    assert {t for t, spec in DESIGNS.items() if spec.mechanism == "MCAR"} == {"dyad", "node"}
    assert {t for t, spec in DESIGNS.items() if spec.mechanism == "MAR"} == {"covar-dyad", "covar-node", "snowball"}
    assert {t for t, spec in DESIGNS.items() if spec.mechanism == "MNAR"} == {
        "double-standard", "block-dyad", "degree", "block-node"}


class TestObserveNetworkTrivia:
    def setup_method(self):
        self.adj, self.draw = sample_network(planted_params(2, 0.7, 0.2), 30, rng_seed=11)

    def test_dyad_certain_observation(self):
        out = observe_network(self.adj, SamplingDesign("dyad", 1.0), rng_seed=1)
        assert out.n_missing == 0

    def test_node_zero_rate_hides_everything(self):
        out = observe_network(self.adj, SamplingDesign("node", 0.0), rng_seed=1)
        assert out.n_missing == out.n_dyads

    def test_double_standard_degenerate(self):
        out = observe_network(self.adj, SamplingDesign("double-standard", [1.0, 0.0]), rng_seed=1)
        observed = [(i, j) for i, j in out.dyads() if out.entry(i, j) is not None]
        edges = [(i, j) for i, j in self.adj.dyads() if self.adj.entry(i, j) == 1]
        assert observed == edges

    def test_block_node_degenerate(self):
        clusters = Partition.from_labels(self.draw.labels, 2)
        out = observe_network(self.adj, SamplingDesign("block-node", [1.0, 0.0]),
                              clusters=clusters, rng_seed=1)
        z = self.draw.labels
        for i, j in out.dyads():
            if z[i] == 0 or z[j] == 0:
                assert out.entry(i, j) is not None
            else:
                assert out.entry(i, j) is None

    def test_requires_fully_observed_input(self):
        hidden = observe_network(self.adj, SamplingDesign("dyad", 0.5), rng_seed=2)
        with pytest.raises(InputError):
            observe_network(hidden, SamplingDesign("dyad", 0.5), rng_seed=2)

    def test_block_design_needs_clusters(self):
        with pytest.raises(InputError):
            observe_network(self.adj, SamplingDesign("block-node", [0.5, 0.5]), rng_seed=1)

    def test_block_dyad_rates_symmetric_on_undirected(self):
        clusters = Partition.from_labels(self.draw.labels, 2)
        with pytest.raises(InputError):
            observe_network(self.adj, SamplingDesign("block-dyad", [[0.9, 0.2], [0.5, 0.6]]),
                            clusters=clusters, rng_seed=1)

    def test_covar_design_needs_covariates(self):
        with pytest.raises(InputError):
            observe_network(self.adj, SamplingDesign("covar-node", [0.0, 1.0]), rng_seed=1)

    @pytest.mark.parametrize("n", [20, 40], ids=["shorter", "longer"])
    def test_clusters_and_covariates_must_match_the_node_count(self, n):
        clusters = Partition.from_labels(np.arange(n) % 2, 2)
        cov = CovariateSet.from_nodal([np.arange(n, dtype=float)])
        with pytest.raises(InputError, match=f"clusters given for {n} nodes, the network has 30"):
            observe_network(self.adj, SamplingDesign("block-dyad", [[0.9, 0.2], [0.2, 0.6]]),
                            clusters=clusters, rng_seed=1)
        with pytest.raises(InputError, match=f"covariates given for {n} nodes, the network has 30"):
            observe_network(self.adj, SamplingDesign("covar-dyad", [0.0, 1.0]), covariates=cov, rng_seed=1)

    def test_determinism(self):
        a = observe_network(self.adj, SamplingDesign("node", 0.6), rng_seed=9)
        b = observe_network(self.adj, SamplingDesign("node", 0.6), rng_seed=9)
        assert a == b


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("tag", ["dyad", "double-standard", "block-dyad", "covar-dyad"])
def test_dyad_mask_matches_dyad_loop(tag, directed):
    """Dyad-centred masks keep dyad (i, j), in canonical order, where
    u[i, j] < its unit rate, with u = rng.random((n, n)) drawn first from
    the seed; a dyadic covariate is read at (i, j), so at i < j when
    undirected."""
    n, seed = 24, 5
    adj, draw = sample_network(planted_params(2, 0.6, 0.2, directed=directed), n, rng_seed=3)
    z = draw.labels
    x = np.random.default_rng(4).normal(size=(n, n))   # asymmetric on purpose
    psi = {"dyad": 0.6, "double-standard": [0.8, 0.3],
           "block-dyad": [[0.9, 0.4], [0.4, 0.2]] if not directed else [[0.9, 0.4], [0.7, 0.2]],
           "covar-dyad": [0.3, 1.2]}[tag]
    design = SamplingDesign(tag, psi)

    def rate(i, j):
        if tag == "dyad":
            return psi
        if tag == "double-standard":
            return psi[0] if adj.entry(i, j) == 1 else psi[1]
        if tag == "block-dyad":
            return psi[z[i]][z[j]]
        return logistic(psi[0] + psi[1] * x[i, j])

    u = as_rng(seed).random((n, n))
    expected = np.array(adj.matrix)
    for i, j in adj.dyads():
        if not u[i, j] < rate(i, j):
            expected[i, j] = np.nan
            if not directed:
                expected[j, i] = np.nan
    out = observe_network(adj, design, clusters=Partition.from_labels(z, 2),
                          covariates=CovariateSet.from_dyadic([x]), rng_seed=seed)
    np.testing.assert_array_equal(out.matrix, expected)
    assert 0 < out.n_missing < out.n_dyads


def test_node_expansion_invariant():
    adj, _ = sample_network(planted_params(2, 0.6, 0.1), 25, rng_seed=3)
    for tag, psi in [("node", 0.5), ("degree", [0.0, 0.2]), ("snowball", 0.3)]:
        out = observe_network(adj, SamplingDesign(tag, psi), rng_seed=4)
        v = out.observed_nodes
        r = out.observed_mask
        expand = np.maximum(v[:, None], v[None, :])
        np.fill_diagonal(expand, 0.0)
        assert np.all(r >= expand)


class TestGenerationFrequencies:
    """Empirical observation frequencies against design probabilities (3 s.e.)."""

    def within_3se(self, count, total, rate):
        se = np.sqrt(max(rate * (1 - rate), 1e-12) / total)
        return abs(count / total - rate) <= 3 * se + 1e-12

    def test_dyad(self):
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 40, rng_seed=5)
        obs_count = total = 0
        for rep in range(20):
            out = observe_network(adj, SamplingDesign("dyad", 0.6), rng_seed=rep)
            obs_count += out.n_observed
            total += out.n_dyads
        assert self.within_3se(obs_count, total, 0.6)

    def test_double_standard_stratified_by_edge(self):
        adj, _ = sample_network(planted_params(2, 0.6, 0.2), 40, rng_seed=6)
        y = adj.filled()
        counts = {1: [0, 0], 0: [0, 0]}
        for rep in range(20):
            out = observe_network(adj, SamplingDesign("double-standard", [0.8, 0.3]), rng_seed=rep)
            r = out.observed_mask
            for value, rate in ((1, 0.8), (0, 0.3)):
                stratum = np.triu(y == value, 1)
                counts[value][0] += int(r[stratum].sum())
                counts[value][1] += int(stratum.sum())
        assert self.within_3se(*counts[1], 0.8)
        assert self.within_3se(*counts[0], 0.3)

    def test_block_dyad_stratified_by_pair(self):
        psi = np.array([[0.9, 0.4], [0.4, 0.6]])
        adj, draw = sample_network(planted_params(2, 0.6, 0.1), 40, rng_seed=7)
        clusters = Partition.from_labels(draw.labels, 2)
        z = draw.labels
        tallies = np.zeros((2, 2)), np.zeros((2, 2))
        for rep in range(20):
            out = observe_network(adj, SamplingDesign("block-dyad", psi),
                                  clusters=clusters, rng_seed=rep)
            r = out.observed_mask
            for i, j in out.dyads():
                tallies[0][z[i], z[j]] += r[i, j]
                tallies[1][z[i], z[j]] += 1
        for a in range(2):
            for b in range(a, 2):
                hits = tallies[0][a, b] + (tallies[0][b, a] if a != b else 0)
                total = tallies[1][a, b] + (tallies[1][b, a] if a != b else 0)
                assert self.within_3se(hits, total, psi[a, b])

    def test_covar_dyad_stratified_by_bin(self):
        x = (np.arange(30) % 2).astype(float)
        cov = CovariateSet.from_nodal([x])
        adj, _ = sample_network(planted_params(1, 0.3, 0.3), 30, rng_seed=8)
        design = SamplingDesign("covar-dyad", [0.5, 2.0])
        # l1 similarity gives x_ij in {0, -1}: rates g(0.5), g(0.5 - 2)
        strata = {0.0: [0, 0], -1.0: [0, 0]}
        sim = -np.abs(x[:, None] - x[None, :])
        for rep in range(20):
            out = observe_network(adj, design, covariates=cov, rng_seed=rep)
            r = out.observed_mask
            for value in strata:
                stratum = np.triu(sim == value, 1)
                strata[value][0] += int(r[stratum].sum())
                strata[value][1] += int(stratum.sum())
        assert self.within_3se(*strata[0.0], logistic(0.5))
        assert self.within_3se(*strata[-1.0], logistic(-1.5))

    def test_node_rate(self):
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 40, rng_seed=9)
        hits = total = 0
        for rep in range(300):
            out = observe_network(adj, SamplingDesign("node", 0.55), rng_seed=rep)
            v = out.observed_nodes
            hits += int(v.sum())
            total += adj.n
        assert self.within_3se(hits, total, 0.55)

    def test_block_node_stratified_by_block(self):
        adj, draw = sample_network(planted_params(2, 0.6, 0.1), 40, rng_seed=10)
        clusters = Partition.from_labels(draw.labels, 2)
        psi = np.array([0.8, 0.35])
        hits = np.zeros(2)
        total = np.zeros(2)
        for rep in range(200):
            out = observe_network(adj, SamplingDesign("block-node", psi),
                                  clusters=clusters, rng_seed=rep)
            v = out.observed_nodes
            for b in range(2):
                hits[b] += v[draw.labels == b].sum()
                total[b] += (draw.labels == b).sum()
        assert self.within_3se(hits[0], total[0], 0.8)
        assert self.within_3se(hits[1], total[1], 0.35)

    def test_covar_node_stratified_by_bin(self):
        x = (np.arange(40) % 2).astype(float)
        cov = CovariateSet.from_nodal([x])
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 40, rng_seed=11)
        design = SamplingDesign("covar-node", [-0.5, 1.5])
        hits = {0.0: 0, 1.0: 0}
        total = {0.0: 0, 1.0: 0}
        for rep in range(200):
            out = observe_network(adj, design, covariates=cov, rng_seed=rep)
            v = out.observed_nodes
            for value in (0.0, 1.0):
                hits[value] += v[x == value].sum()
                total[value] += int((x == value).sum())
        assert self.within_3se(hits[0.0], total[0.0], logistic(-0.5))
        assert self.within_3se(hits[1.0], total[1.0], logistic(1.0))

    def test_degree_uses_true_degrees(self):
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 40, rng_seed=12)
        from sbm_miss import degrees

        rates = logistic(-2.0 + 0.2 * degrees(adj))
        hits = expected = variance = 0.0
        for rep in range(200):
            out = observe_network(adj, SamplingDesign("degree", [-2.0, 0.2]), rng_seed=rep)
            v = out.observed_nodes
            hits += v.sum()
            expected += rates.sum()
            variance += (rates * (1 - rates)).sum()
        assert abs(hits - expected) <= 3 * np.sqrt(variance)

    def test_snowball_single_wave_matches_node_rate(self):
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 40, rng_seed=13)
        hits = total = 0
        for rep in range(300):
            out = observe_network(adj, SamplingDesign("snowball", 0.3, waves=1), rng_seed=rep)
            hits += int(out.observed_nodes.sum())
            total += adj.n
        se = np.sqrt(0.3 * 0.7 / total)
        assert abs(hits / total - 0.3) <= 3 * se


class TestSnowballWaves:
    def test_more_waves_observe_more(self):
        adj, _ = sample_network(planted_params(2, 0.4, 0.05), 30, rng_seed=14)
        nodes = []
        for waves in (1, 2, 3):
            out = observe_network(adj, SamplingDesign("snowball", 0.2, waves=waves), rng_seed=5)
            nodes.append(out.observed_nodes)
        assert np.all(nodes[1] >= nodes[0]) and np.all(nodes[2] >= nodes[1])

    @pytest.mark.parametrize("tag,waves", [("snowball", 0), ("dyad", 2)])
    def test_wave_counts_other_than_snowballs_are_refused(self, tag, waves):
        SamplingDesign("snowball", 0.2, waves=7)
        with pytest.raises(InputError, match=r"waves must be 1, or any count >= 1 for snowball sampling"):
            SamplingDesign(tag, 0.2, waves=waves)

    def test_waves_cover_connected_graph(self):
        # a path graph: enough waves reach every node from any seed
        n = 12
        adj = adjacency_from_edges(n, [(i, i + 1) for i in range(n - 1)])
        out = observe_network(adj, SamplingDesign("snowball", 0.2, waves=n), rng_seed=8)
        v = out.observed_nodes
        if v.sum() > 0:
            assert v.sum() == n


def test_mcar_equivalence_double_standard_vs_dyad():
    adj, _ = sample_network(planted_params(2, 0.6, 0.1), 30, rng_seed=15)
    counts = np.zeros((2, 2))
    for rep in range(60):
        ds = observe_network(adj, SamplingDesign("double-standard", [0.55, 0.55]), rng_seed=rep)
        dy = observe_network(adj, SamplingDesign("dyad", 0.55), rng_seed=10_000 + rep)
        counts[0] += (ds.n_observed, ds.n_missing)
        counts[1] += (dy.n_observed, dy.n_missing)
    _, p_value, _, _ = chi2_contingency(counts)
    assert p_value > 0.01


class TestSamplingLoglik:
    def test_dyad_binomial_value(self):
        # 10 nodes, 45 dyads, exactly 30 observed
        rng = np.random.default_rng(0)
        mat = np.zeros((10, 10))
        dyads = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        hidden = rng.choice(45, size=15, replace=False)
        for k in hidden:
            i, j = dyads[k]
            mat[i, j] = mat[j, i] = np.nan
        np.fill_diagonal(mat, np.nan)
        from sbm_miss import PartialAdjacency

        adj = PartialAdjacency(mat)
        design = SamplingDesign("dyad", 2 / 3)
        state = hard_state(np.zeros(10, dtype=int), 1)
        expected = 30 * np.log(2 / 3) + 15 * np.log(1 / 3)
        value = sampling_loglik(design, state, adj)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_block_node_certain_rates_give_zero(self):
        adj, draw = sample_network(planted_params(2, 0.6, 0.1), 12, rng_seed=16)
        design = SamplingDesign("block-node", [1.0, 1.0])
        state = hard_state(draw.labels, 2)
        assert sampling_loglik(design, state, adj) == pytest.approx(0.0, abs=1e-9)

    def test_double_standard_collapses_to_dyad(self):
        adj, draw = sample_network(planted_params(2, 0.6, 0.1), 15, rng_seed=17)
        out = observe_network(adj, SamplingDesign("dyad", 0.7), rng_seed=18)
        state = hard_state(draw.labels, 2, n_missing=out.n_missing, nu_value=0.3)
        rho = 0.7
        ds = sampling_loglik(SamplingDesign("double-standard", [rho, rho]), state, out)
        dy = sampling_loglik(SamplingDesign("dyad", rho), state, out)
        assert ds == pytest.approx(dy, abs=1e-9)


REFERENCE_DESIGNS = [
    ("dyad", 0.6),
    ("covar-dyad", [0.2, 1.5]),
    ("double-standard", [0.8, 0.4]),
    ("block-dyad", [[0.9, 0.4, 0.2], [0.3, 0.6, 0.5], [0.1, 0.7, 0.8]]),
    ("node", 0.5),
    ("snowball", 0.15),
    ("covar-node", [-0.3, 1.2]),
    ("block-node", [0.7, 0.3, 0.5]),
    ("degree", [-1.0, 0.3]),
]


def _reference_loglik(tag, psi, adj, tau, nu, x):
    """E[log p(R)] written as explicit loops over the observation units.

    Dyad-centered designs sum E[R log p + (1 - R) log(1 - p)] over canonical
    dyads, node-centered ones E[V log g + (1 - V) log(1 - g)] over nodes; the
    expectation runs over tau (block designs) and over nu (unknown dyad
    values).  Probabilities are clamped as in the code, and degree sampling
    plugs in the expected degrees.
    """
    def term(obs, p):
        p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
        return obs * math.log(p) + (1.0 - obs) * math.log1p(-p)

    missing = {d: k for k, d in enumerate(adj.missing_dyads())}

    def edge_mean(i, j):
        value = adj.entry(i, j)
        if value is not None:
            return value
        return nu[missing[(i, j) if adj.directed or i < j else (j, i)]]

    q = tau.shape[1]
    total = 0.0
    if tag in NODE_CENTERED:
        for i in range(adj.n):
            v = float(all(adj.entry(i, j) is not None and adj.entry(j, i) is not None
                          for j in range(adj.n) if j != i))
            if tag in ("node", "snowball"):
                total += term(v, psi)
            elif tag == "block-node":
                total += sum(tau[i, a] * term(v, psi[a]) for a in range(q))
            elif tag == "covar-node":
                total += term(v, logistic(psi[0] + psi[1] * x[i]))
            else:
                d = sum(edge_mean(i, j) for j in range(adj.n) if j != i)
                total += term(v, logistic(psi[0] + psi[1] * d))
        return total
    for i, j in adj.dyads():
        r = float(adj.entry(i, j) is not None)
        if tag == "dyad":
            total += term(r, psi)
        elif tag == "covar-dyad":
            total += term(r, logistic(psi[0] - psi[1] * abs(x[i] - x[j])))
        elif tag == "double-standard":
            y = edge_mean(i, j)
            total += y * term(r, psi[0]) + (1.0 - y) * term(r, psi[1])
        else:
            total += sum(tau[i, a] * tau[j, b] * term(r, psi[a][b])
                         for a in range(q) for b in range(q))
    return total


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("tag,psi", REFERENCE_DESIGNS)
def test_sampling_loglik_matches_unit_loops(tag, psi, directed):
    n = 12
    rng = np.random.default_rng(31)
    adj, draw = sample_network(planted_params(3, 0.4, 0.05, directed=directed), n, rng_seed=32)
    x = rng.normal(size=n)
    cov = CovariateSet.from_nodal([x])
    if tag == "block-dyad" and not directed:
        psi = (np.array(psi) + np.array(psi).T) / 2
    design = SamplingDesign(tag, psi, waves=2 if tag == "snowball" else 1)
    out = observe_network(adj, design, clusters=Partition.from_labels(draw.labels, 3),
                          covariates=cov, rng_seed=33)
    assert out.n_missing > 0
    tau = rng.dirichlet(np.ones(3), size=n)
    nu = rng.uniform(size=out.n_missing)
    state = VariationalState(tau=tau, nu=nu)
    value = sampling_loglik(design, state, out, cov)
    expected = _reference_loglik(tag, np.array(psi).tolist(), out, tau, nu, x)
    assert value == pytest.approx(expected, rel=1e-10)


class TestUpdatePsi:
    def test_dyad_empirical_proportion(self):
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 10, rng_seed=19)
        out = observe_network(adj, SamplingDesign("dyad", 0.6), rng_seed=20)
        state = hard_state(np.zeros(10, dtype=int), 1, n_missing=out.n_missing)
        new, flags = update_psi(SamplingDesign("dyad", 0.5), state, out)
        assert float(new.psi) == out.n_observed / out.n_dyads
        assert flags == ()

    def test_double_standard_closed_form(self):
        # 10 observed edges, missing nu summing to 5 -> rho1 = 10/15
        mat = np.zeros((6, 6))
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3)]
        for i, j in edges:
            mat[i, j] = mat[j, i] = 1.0
        missing = [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
        for i, j in missing:
            mat[i, j] = mat[j, i] = np.nan
        np.fill_diagonal(mat, np.nan)
        from sbm_miss import PartialAdjacency

        adj = PartialAdjacency(mat)
        state = hard_state(np.zeros(6, dtype=int), 1, n_missing=5, nu_value=1.0)
        new, _ = update_psi(SamplingDesign("double-standard", [0.5, 0.5]), state, adj)
        assert new.psi[0] == pytest.approx(10 / 15, abs=1e-12)

    def test_block_node_fully_observed_block(self):
        adj, draw = sample_network(planted_params(2, 0.6, 0.1), 16, rng_seed=21)
        clusters = Partition.from_labels(draw.labels, 2)
        out = observe_network(adj, SamplingDesign("block-node", [1.0, 0.4]),
                              clusters=clusters, rng_seed=22)
        state = hard_state(draw.labels, 2, n_missing=out.n_missing)
        new, _ = update_psi(SamplingDesign("block-node", [0.5, 0.5]), state, out)
        assert new.psi[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tag,psi,needs", [
        ("dyad", 0.5, None),
        ("node", 0.5, None),
        ("double-standard", [0.6, 0.4], None),
        ("block-dyad", np.full((2, 2), 0.5), "clusters"),
        ("block-node", [0.5, 0.5], "clusters"),
        ("snowball", 0.5, None),
    ])
    def test_update_is_a_maximizer(self, tag, psi, needs):
        adj, draw = sample_network(planted_params(2, 0.6, 0.15), 24, rng_seed=23)
        clusters = Partition.from_labels(draw.labels, 2) if needs else None
        out = observe_network(adj, SamplingDesign(tag, psi), clusters=clusters, rng_seed=24)
        rng = np.random.default_rng(25)
        tau = rng.dirichlet(alpha=[2.0, 2.0], size=24)
        state = VariationalState(tau=tau, nu=rng.uniform(0.2, 0.8, size=out.n_missing))
        best, _ = update_psi(SamplingDesign(tag, psi), state, out)
        value = sampling_loglik(best, state, out)
        flat = np.atleast_1d(np.array(best.psi, dtype=float)).ravel()
        for k in range(flat.size):
            for eps in (-1e-3, 1e-3):
                bumped = flat.copy()
                bumped[k] = np.clip(bumped[k] + eps, 0.0, 1.0)
                candidate = SamplingDesign(tag, bumped.reshape(np.shape(best.psi)) if np.ndim(best.psi) else bumped[0])
                assert sampling_loglik(candidate, state, out) <= value + 1e-10

    def test_covar_node_recovers_slope_sign(self):
        x = (np.arange(60) % 2).astype(float)
        cov = CovariateSet.from_nodal([x])
        adj, _ = sample_network(planted_params(2, 0.5, 0.1), 60, rng_seed=26)
        out = observe_network(adj, SamplingDesign("covar-node", [0.0, 2.5]),
                              covariates=cov, rng_seed=27)
        state = hard_state(np.zeros(60, dtype=int), 1, n_missing=out.n_missing)
        new, _ = update_psi(SamplingDesign("covar-node", [0.0, 0.0]), state, out, cov)
        assert new.psi[1] > 0

    def test_degree_update_finite(self):
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 40, rng_seed=28)
        out = observe_network(adj, SamplingDesign("degree", [-1.0, 0.15]), rng_seed=29)
        state = hard_state(np.zeros(40, dtype=int), 1, n_missing=out.n_missing, nu_value=0.3)
        new, _ = update_psi(SamplingDesign("degree", [0.0, 0.0]), state, out)
        assert np.isfinite(new.psi).all()

    def test_empty_block_keeps_previous_and_flags(self):
        adj, _ = sample_network(planted_params(2, 0.6, 0.1), 10, rng_seed=30)
        tau = np.zeros((10, 2))
        tau[:, 0] = 1.0  # block 1 has no mass
        state = VariationalState(tau=tau)
        new, flags = update_psi(SamplingDesign("block-node", [0.5, 0.33]), state, adj)
        assert new.psi[1] == 0.33
        assert any("block-node" in f for f in flags)


def test_design_validation():
    with pytest.raises(InputError):
        SamplingDesign("dyad", 1.5)
    with pytest.raises(InputError):
        SamplingDesign("dyad", [0.5, 0.6])
    with pytest.raises(InputError):
        SamplingDesign("double-standard", [0.5])
    with pytest.raises(InputError):
        SamplingDesign("unknown", 0.5)
    with pytest.raises(InputError):
        SamplingDesign("snowball", 0.5, waves=0)
    with pytest.raises(InputError):
        SamplingDesign("node", 0.5, waves=2)


@pytest.mark.parametrize("tag,psi,ok", [
    ("dyad", 0.5, True), ("dyad", [0.5], True), ("dyad", [], False),
    ("double-standard", [0.5, 0.5], True), ("double-standard", [[0.5, 0.5]], False),
    ("degree", [0.0, 1.0], True), ("degree", [0.0, 1.0, 2.0], False),
    ("block-node", [0.5], True), ("block-node", [], False), ("block-node", 0.5, False),
    ("block-dyad", [[0.5]], True), ("block-dyad", np.full((2, 3), 0.5), False),
    ("block-dyad", np.zeros((0, 0)), False),
    ("covar-node", [0.0, 1.0, 2.0], True), ("covar-node", [0.0], False),
    ("covar-dyad", [[0.0, 1.0]], False),
])
def test_psi_must_fit_the_design_layout(tag, psi, ok):
    if ok:
        SamplingDesign(tag, psi)
    else:
        with pytest.raises(InputError, match=f"{tag} expects "):
            SamplingDesign(tag, psi)
