import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit, log_expit, xlogy

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
from sbm_miss.network import PROB_CLAMP, clamp_prob, fit_logistic, log_sigmoid, logistic_loglik, xlogx

from util import adjacency_from_edges, peak_floats, random_partial


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

    def test_within_four_ulp_of_expit(self):
        # numpy's vectorised exp and libm's differ in the last bit for about
        # 2 % of arguments; where 1 + exp(-x) rounds a tie above 2**53
        # (x near -36.8) that grows to 4 ulp of the result
        grid = np.linspace(-40.0, 40.0, 800_001)
        values, reference = logistic(grid), expit(grid)
        np.testing.assert_array_max_ulp(values, reference, maxulp=4)
        assert (values == reference).mean() > 0.97

    def test_huge_arguments_give_exact_bounds_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logistic(np.array([-1000.0, 1000.0])).tolist() == [0.0, 1.0]
            assert (logistic(-1000.0), logistic(1000.0)) == (0.0, 1.0)

    def test_writes_into_its_argument(self):
        x = 3.0 * np.random.default_rng(6).normal(size=(20, 20))
        expected = expit(x)
        assert logistic(x, out=x) is x
        np.testing.assert_array_max_ulp(x, expected, maxulp=4)

    def test_scalar_gives_scalar_and_integers_are_accepted(self):
        assert np.ndim(logistic(0.5)) == 0 and np.ndim(logistic(np.float64(2))) == 0
        np.testing.assert_array_equal(logistic(np.arange(-2, 3)), logistic(np.arange(-2.0, 3.0)))


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
        for index in (adj.pairs, adj.observed_pairs, adj.missing_pairs):
            assert all(not a.flags.writeable and a.flags.c_contiguous for a in index)
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

    def test_a_writeable_input_is_copied_and_a_read_only_one_kept(self):
        labels = np.array([0, 1, 1])
        part = Partition(labels=labels, q=2)
        assert labels.flags.writeable and not part.labels.flags.writeable
        labels[0] = 1   # the caller's array stays the caller's
        np.testing.assert_array_equal(part.labels, [0, 1, 1])
        assert Partition(labels=part.labels, q=3).labels is part.labels


def test_clamp_prob_equals_clip_nan_included():
    values = np.array([np.nan, -1.0, 0.0, 1e-13, 0.3, 1.0 - 1e-13, 1.0, 2.0, np.inf, -np.inf])
    expected = np.clip(values, PROB_CLAMP, 1.0 - PROB_CLAMP)
    assert clamp_prob(values).tobytes() == expected.tobytes()
    assert clamp_prob(0.0) == PROB_CLAMP and clamp_prob(np.array(1.0)) == 1.0 - PROB_CLAMP


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


def _reference_validation(matrix, directed):
    """The constructor's error text for ``matrix``, or None, from copies of
    the off-diagonal values and np.isin: the reference for its masks."""
    m = np.array(matrix, dtype=float)
    np.fill_diagonal(m, np.nan)
    off = ~np.eye(len(m), dtype=bool)
    vals = m[off]
    finite = vals[~np.isnan(vals)]
    if finite.size and not np.isin(finite, (0.0, 1.0)).all():
        return "adjacency entries must be 0, 1 or missing"
    nan = np.isnan(m)
    if not directed and not ((nan & nan.T) | (m == m.T))[off].all():
        return "undirected adjacency must be symmetric, missing dyads included"
    return None


@st.composite
def square_matrices(draw, values=(0.0, 1.0, np.nan), symmetric=False):
    """n x n matrices (n = 1..7) of ``values``, copied onto the lower
    triangle when ``symmetric``."""
    n = draw(st.integers(1, 7))
    mat = draw(hnp.arrays(float, (n, n), elements=st.sampled_from(values)))
    if symmetric:
        lower = np.tril_indices(n, -1)
        mat[lower] = mat.T[lower]
    return mat


# entries the constructor accepts, and ones it refuses
ENTRY_VALUES = (0.0, 1.0, np.nan, -0.0, 0.5, 2.0, np.inf, -np.inf)


class TestConstructorValidation:
    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.booleans().flatmap(lambda symmetric: square_matrices(ENTRY_VALUES, symmetric)))
    @example(False, np.array([[np.nan, np.nan], [0.0, np.nan]]))   # one side of a dyad missing
    def test_accepts_and_refuses_as_the_reference_does(self, directed, mat):
        expected = _reference_validation(mat, directed)
        if expected is None:
            adj = PartialAdjacency(mat, directed=directed)
            np.fill_diagonal(mat, np.nan)
            np.testing.assert_array_equal(adj.matrix, mat)
        else:
            with pytest.raises(InputError, match=f"^{expected}$"):
                PartialAdjacency(mat, directed=directed)

    def test_peak_at_n_300(self):
        # Measured: 1.50 n x n floats, the held copy (1.0) and the boolean
        # masks of the two tests; the float copies of the off-diagonal values
        # and np.isin took 3.12.
        n = 300
        mat = np.array(random_partial(n, False, 4).matrix)
        assert peak_floats(lambda: PartialAdjacency(mat), n) <= 1.55


class TestMissingIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.data())
    def test_equals_the_nonzero_construction(self, directed, data):
        adj = PartialAdjacency(data.draw(square_matrices(symmetric=not directed)), directed=directed)
        n = adj.n
        keep = np.isnan(adj.matrix)
        np.fill_diagonal(keep, False)
        mi, mj = np.nonzero(keep if directed else np.triu(keep))
        flat = adj.missing_flat
        np.testing.assert_array_equal(flat, mi * n + mj)
        # the mirrored indices that fill_missing writes, built with missing_flat
        if directed:
            assert adj._mirror is flat
        else:
            np.testing.assert_array_equal(adj._mirror, mj * n + mi)
        assert adj.n_missing == mi.size
        for got, want in zip(adj.missing_pairs, (mi, mj)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        for index in (flat, adj._mirror, *adj.missing_pairs):
            assert not index.flags.writeable and index.flags.c_contiguous

    def test_a_fit_path_read_builds_no_missing_pairs(self):
        # n_missing, missing_flat and fill_missing read the flat indices only
        adj = random_partial(12, False, 5)
        adj.filled(np.zeros(adj.n_missing))
        assert "missing_pairs" not in vars(adj)


def _with_rows_observed(adj, rows):
    """``adj`` with every dyad touching ``rows`` observed (absent when missing)."""
    mat = np.array(adj.matrix)
    for view in (mat[rows], mat[:, rows]):
        view[np.isnan(view)] = 0.0
    return PartialAdjacency(mat, directed=adj.directed)


class TestAtMissing:
    # n = 1, 30 and 90 are one block of rows (SLAB // n >= n), one product
    # and one take; n = 200 is five blocks of 40 rows, the second of them
    # without a missing dyad in the "gap" case
    CASES = {"n1": (1, None), "one block": (90, None), "none missing, one block": (30, slice(None)),
             "blocks": (200, None), "gap": (200, slice(40, 80)), "none missing": (200, slice(None))}

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_equals_the_whole_product_at_missing_flat_bitwise(self, case, directed):
        n, observed = self.CASES[case]
        adj = random_partial(n, directed, seed=n)
        if observed is not None:
            adj = _with_rows_observed(adj, observed)
        rng = np.random.default_rng(n)
        left, right = rng.standard_normal((n, 3)), rng.random((n, 3))
        store = adj.pair_matrices()
        expected = (left @ right.T).take(adj.missing_flat)
        for _ in range(2):   # the block bounds are cached by the first call
            got = store.at_missing(left, right)
            assert got.shape == (adj.n_missing,) and got.dtype == float
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        if case == "gap":
            assert adj.n_missing and not np.isin(adj.missing_flat // n, np.arange(40, 80)).any()
        if case.startswith("none missing"):
            assert adj.n_missing == 0

    def test_holds_one_block_of_the_product(self):
        # n = 200: |M| (about 0.18 n x n), one 40-row block of the product
        # (0.2) and its indices; the whole product would be 1.0 more
        n = 200
        adj = random_partial(n, False, 6)
        store = adj.pair_matrices()
        left, right = np.ones((n, 3)), np.ones((n, 3))
        store.at_missing(left, right)
        assert peak_floats(lambda: store.at_missing(left, right), n) < 0.5
