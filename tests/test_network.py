import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import log_expit, xlogy

from sbm_miss import (
    CovariateSet,
    InputError,
    PartialAdjacency,
    Partition,
    degrees,
    l1_similarity,
    logistic,
    transfer_covariates,
)
from sbm_miss.errors import NumericalError
from sbm_miss.network import fit_logistic, log_sigmoid, logistic_loglik, xlogx

from util import adjacency_from_edges, random_partial


class TestLogistic:
    def test_zero_is_half(self):
        assert logistic(0.0) == 0.5

    def test_log_three(self):
        # 1 / (1 + 1/3) = 3/4
        assert logistic(math.log(3.0)) == pytest.approx(0.75, abs=1e-14)

    def test_minus_fifty_tiny_but_positive(self):
        # extended-precision oracle via mpmath
        import mpmath

        value = logistic(-50.0)
        exact = float(1 / (1 + mpmath.e ** 50))
        assert 0.0 < value < 1e-21
        assert value == pytest.approx(exact, rel=1e-12)

    def test_stable_for_huge_arguments(self):
        with np.errstate(over="raise"):
            assert logistic(-745.0) >= 0.0
            assert logistic(745.0) <= 1.0

    def test_nan_propagates(self):
        assert math.isnan(logistic(float("nan")))

    @given(st.floats(-500, 500), st.floats(-500, 500))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert logistic(lo) <= logistic(hi)


class TestLogSigmoid:
    EDGES = [1000.0, -1000.0, 745.0, -745.0, 40.0, -40.0, 0.0, 1e-300, -1e-300]

    def test_matches_log_expit(self):
        x = np.concatenate([self.EDGES, 30.0 * np.random.default_rng(3).normal(size=1000)])
        np.testing.assert_allclose(log_sigmoid(x), log_expit(x), rtol=1e-15, atol=0)

    def test_writes_into_its_argument(self):
        x = 30.0 * np.random.default_rng(4).normal(size=(20, 20))
        expected = log_expit(x)
        out = log_sigmoid(x, out=x)
        assert out is x
        np.testing.assert_allclose(x, expected, rtol=1e-15, atol=0)


class TestXlogx:
    def test_matches_xlogy(self):
        x = np.concatenate([[0.0, 1.0, 5e-324, 1e-300], np.random.default_rng(5).random(1000)])
        np.testing.assert_allclose(xlogx(x), xlogy(x, x), rtol=0, atol=1e-16)


class TestL1Similarity:
    def test_identical_inputs(self):
        assert l1_similarity([2.0], [2.0]).tolist() == [0.0]

    def test_direct_values(self):
        assert l1_similarity([1.0, 4.0], [3.0, 1.0]).tolist() == [-2.0, -3.0]

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            l1_similarity([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5))
    def test_symmetry(self, values):
        other = list(reversed(values))
        np.testing.assert_array_equal(l1_similarity(values, other), l1_similarity(other, values))


class TestTransferCovariates:
    def test_nodal_transfer(self):
        cov = transfer_covariates(CovariateSet.from_nodal([[0.0, 1.0, 1.0]]))
        assert cov.kind == "dyadic"
        mat = cov.dyadic[0]
        assert mat[0, 1] == -1.0
        assert mat[1, 2] == 0.0
        np.testing.assert_array_equal(mat, mat.T)

    def test_dyadic_identity(self):
        cov = CovariateSet.from_dyadic([np.zeros((4, 4))])
        assert transfer_covariates(cov) is cov

    def test_constant_vector_gives_zero_matrix(self):
        cov = transfer_covariates(CovariateSet.from_nodal([np.full(5, 3.7)]))
        np.testing.assert_array_equal(cov.dyadic[0], np.zeros((5, 5)))

    def test_commutes_with_node_permutation(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=8)
        perm = rng.permutation(8)
        direct = transfer_covariates(CovariateSet.from_nodal([vec[perm]])).dyadic[0]
        permuted = transfer_covariates(CovariateSet.from_nodal([vec])).dyadic[0][np.ix_(perm, perm)]
        np.testing.assert_allclose(direct, permuted)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            transfer_covariates(CovariateSet.from_nodal([[1.0, 2.0], [1.0, 2.0, 3.0]]))

    def test_custom_similarity_gives_per_pair_matrix(self):
        vec = np.array([0.0, 1.0, 3.0, -2.0])
        cov = transfer_covariates(CovariateSet.from_nodal([vec], similarity=lambda a, b: -(a - b) ** 2))
        expected = [[-(vec[i] - vec[j]) ** 2 for j in range(4)] for i in range(4)]
        np.testing.assert_array_equal(cov.dyadic[0], expected)


class TestPartialAdjacency:
    def test_rejects_asymmetric_undirected(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = 1.0
        with pytest.raises(InputError):
            PartialAdjacency(mat)

    def test_rejects_asymmetric_missingness(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = np.nan
        with pytest.raises(InputError):
            PartialAdjacency(mat)

    def test_rejects_non_binary(self):
        with pytest.raises(InputError):
            PartialAdjacency(np.full((2, 2), 0.5))

    def test_diagonal_access_is_error(self):
        adj = adjacency_from_edges(3, [(0, 1)])
        with pytest.raises(InputError):
            adj.entry(1, 1)

    def test_symmetric_accessor(self):
        adj = adjacency_from_edges(4, [(0, 1), (1, 2)], missing=[(2, 3)])
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert adj.entry(i, j) == adj.entry(j, i)

    def test_observed_mask(self):
        adj = adjacency_from_edges(3, [(0, 1)], missing=[(1, 2)])
        expected = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_array_equal(adj.observed_mask, expected)

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_observed_nodes_match_node_loop(self, directed):
        n = 8
        mat = (np.random.default_rng(3).random((n, n)) < 0.4).astype(float)
        if not directed:
            mat = np.triu(mat, 1) + np.triu(mat, 1).T
        seen = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=bool)
        mat[~(seen[:, None] | seen[None, :])] = np.nan
        mat[5, 2] = np.nan   # row 2 stays fully observed; when directed, column 2 does not
        if not directed:
            mat[2, 5] = np.nan
        adj = PartialAdjacency(mat, directed=directed)
        expected = [all(adj.entry(i, j) is not None and adj.entry(j, i) is not None
                        for j in range(n) if j != i) for i in range(n)]
        np.testing.assert_array_equal(adj.observed_nodes, np.array(expected, dtype=float))
        assert adj.observed_nodes[2] == 0.0 and adj.observed_nodes.sum() == 3
        if directed:
            assert all(adj.entry(2, j) is not None for j in range(n) if j != 2)
        assert not adj.observed_nodes.flags.writeable

    def test_missing_pairs_canonical(self):
        adj = adjacency_from_edges(4, [], missing=[(2, 3), (0, 2)])
        assert adj.missing_dyads() == [(0, 2), (2, 3)]

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_observed_pairs_complement_missing_pairs(self, directed):
        adj = random_partial(9, directed, seed=9)
        observed = list(zip(*(idx.tolist() for idx in adj.observed_pairs)))
        missing = adj.missing_dyads()
        assert observed == [d for d in adj.dyads() if adj.entry(*d) is not None]
        assert not set(observed) & set(missing)
        assert sorted(observed + missing) == list(adj.dyads())
        assert len(observed) == adj.n_observed and missing and observed
        # the all-dyad index, and the observed and missing pairs as its known
        # and missing entries
        rows, cols = adj.pairs
        assert list(zip(rows.tolist(), cols.tolist())) == list(adj.dyads())
        assert not rows.flags.writeable and not cols.flags.writeable
        known = ~np.isnan(adj.matrix[rows, cols])
        for part, idx in ((known, adj.observed_pairs), (~known, adj.missing_pairs)):
            np.testing.assert_array_equal(rows[part], idx[0])
            np.testing.assert_array_equal(cols[part], idx[1])

    def test_directed_allows_asymmetry(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = 1.0
        adj = PartialAdjacency(mat, directed=True)
        assert adj.entry(0, 1) == 1 and adj.entry(1, 0) == 0
        assert adj.n_dyads == 6

    def test_filled_requires_values(self):
        adj = adjacency_from_edges(3, [], missing=[(0, 1)])
        with pytest.raises(InputError):
            adj.filled()

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_filled_matches_entry_loop(self, directed):
        adj = random_partial(9, directed, seed=7)
        nu = np.random.default_rng(8).random(adj.n_missing)
        position = {d: k for k, d in enumerate(adj.missing_dyads())}
        expected = np.zeros((adj.n, adj.n))
        for i in range(adj.n):
            for j in range(adj.n):
                if i != j:
                    value = adj.entry(i, j)
                    dyad = (i, j) if directed else (min(i, j), max(i, j))
                    expected[i, j] = nu[position[dyad]] if value is None else value
        assert adj.n_missing > 5
        np.testing.assert_array_equal(adj.filled(nu), expected)
        np.testing.assert_array_equal(adj.filled(nu).take(adj.missing_flat), nu)
        # a column-major input matrix fills the same dyads
        fortran = PartialAdjacency(np.asfortranarray(adj.matrix), directed=directed)
        np.testing.assert_array_equal(fortran.filled(nu), expected)

    def test_mask_where(self):
        adj = adjacency_from_edges(3, [(0, 1)])
        keep = np.ones((3, 3), dtype=bool)
        keep[0, 2] = keep[2, 0] = False
        out = adj.mask_where(keep)
        assert out.entry(0, 2) is None
        assert out.entry(0, 1) == 1


class TestDegrees:
    def test_triangle(self):
        adj = adjacency_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        np.testing.assert_array_equal(degrees(adj), [2.0, 2.0, 2.0])

    def test_edgeless(self):
        adj = adjacency_from_edges(4, [])
        np.testing.assert_array_equal(degrees(adj), np.zeros(4))

    def test_missing_with_imputation(self):
        # path 0-1 plus missing dyad (1, 2) imputed at 0.5
        adj = adjacency_from_edges(3, [(0, 1)], missing=[(1, 2)])
        np.testing.assert_allclose(degrees(adj, impute=[0.5]), [1.0, 1.5, 0.5])

    def test_missing_without_imputation_is_error(self):
        adj = adjacency_from_edges(3, [(0, 1)], missing=[(1, 2)])
        with pytest.raises(InputError):
            degrees(adj)

    def test_observed_only_mode(self):
        adj = adjacency_from_edges(3, [(0, 1)], missing=[(1, 2)])
        np.testing.assert_array_equal(adj.observed_degrees, [1.0, 1.0, 0.0])
        assert not adj.observed_degrees.flags.writeable

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_imputed_degrees_are_filled_row_sums(self, directed):
        adj = random_partial(10, directed, seed=9)
        nu = np.random.default_rng(10).random(adj.n_missing)
        np.testing.assert_allclose(degrees(adj, nu), adj.filled(nu).sum(axis=1), rtol=1e-13)
        np.testing.assert_array_equal(adj.observed_degrees, adj.filled(0.0).sum(axis=1))


class TestPartition:
    def test_validation(self):
        with pytest.raises(InputError):
            Partition(labels=np.array([0, 3]), q=2)
        with pytest.raises(InputError):
            Partition(labels=np.array([0]), q=0)


class TestFitLogistic:
    def test_recovers_known_slope(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4000, 1))
        design = np.column_stack([np.ones(4000), x])
        prob = 1.0 / (1.0 + np.exp(-(0.5 + 2.0 * x[:, 0])))
        y = (rng.random(4000) < prob).astype(float)
        coef, ll = fit_logistic(design, y)
        assert coef[0] == pytest.approx(0.5, abs=0.2)
        assert coef[1] == pytest.approx(2.0, abs=0.25)
        assert ll <= 0.0

    def test_separation_stays_finite(self):
        x = np.array([[1.0, -1.0], [1.0, -0.5], [1.0, 0.5], [1.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        coef, _ = fit_logistic(x, y)
        assert np.isfinite(coef).all()
        assert coef[1] > 0

    def test_nan_feature_is_numerical_error(self):
        x = np.array([[1.0, 0.2], [1.0, np.nan], [1.0, -0.4]])
        with pytest.raises(NumericalError, match="^non-finite Newton step in logistic fit$"):
            fit_logistic(x, np.array([0.0, 1.0, 1.0]))

    def test_weighted_warm_start_returns_its_loglik(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        y = (rng.random(200) < 0.4).astype(float)
        weights = rng.uniform(0.1, 3.0, size=200)
        start = np.array([0.3, -0.5, 0.8])
        coef, ll = fit_logistic(x, y, weights=weights, start=start)
        assert ll == logistic_loglik(x, y, coef, weights)
        assert ll >= logistic_loglik(x, y, start, weights)
