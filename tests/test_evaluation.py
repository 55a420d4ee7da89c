import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sbm_miss import (
    ControlOptions,
    ExperimentSpec,
    InputError,
    ari,
    auc,
    compare_designs,
    fit_single,
    observe_network,
    run_auc_sweep,
    sample_network,
    SamplingDesign,
)

from sbm_miss import evaluation, vem
from sbm_miss.evaluation import _draw_sweep_design
from util import planted_params


def pair_counting_ari(a, b):
    """Brute-force ARI oracle over all node pairs."""
    n = len(a)
    together_a, together_b, both, total = 0, 0, 0, 0
    for i, j in itertools.combinations(range(n), 2):
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        together_a += sa
        together_b += sb
        both += sa and sb
        total += 1
    expected = together_a * together_b / total
    maximum = 0.5 * (together_a + together_b)
    if maximum == expected:
        return 1.0
    return (both - expected) / (maximum - expected)


class TestAri:
    def test_identical_partitions(self):
        assert ari([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0
        assert ari([1, 1, 2, 2], [5, 5, 9, 9]) == 1.0  # relabeling is immaterial

    def test_constant_vs_arbitrary_is_zero(self):
        assert ari([1, 1, 1, 1, 1], [1, 2, 3, 1, 2]) == 0.0

    def test_frozen_example(self):
        # pair-counting by hand: a=1, b=1, c=3, d=5 -> ARI = 1/11
        value = ari([1, 1, 2, 2, 3], [1, 1, 1, 2, 2])
        assert value == pytest.approx(1 / 11, abs=1e-12)
        assert value == pytest.approx(pair_counting_ari([1, 1, 2, 2, 3], [1, 1, 1, 2, 2]), abs=1e-12)

    def test_matches_pair_counting_oracle_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(0, 4, size=12)
            b = rng.integers(0, 3, size=12)
            assert ari(a, b) == pytest.approx(pair_counting_ari(a, b), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            ari([1, 2], [1, 2, 3])

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=12))
    def test_symmetric_and_relabel_invariant(self, labels):
        rng = np.random.default_rng(0)
        other = rng.integers(0, 3, size=len(labels))
        assert ari(labels, other) == pytest.approx(ari(other, labels), abs=1e-12)
        relabeled = [{0: 7, 1: 5, 2: 6, 3: 9}[v] for v in labels]
        assert ari(labels, other) == pytest.approx(ari(relabeled, other), abs=1e-12)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_frozen_example(self):
        # positives (.9, .4) vs negatives (.8, .1): wins 3 of 4 pairs
        assert auc([1, 0, 1, 0], [0.9, 0.8, 0.4, 0.1]) == pytest.approx(0.75, abs=1e-12)

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 2, size=30)
        truth[0], truth[1] = 0, 1
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=30)
        wins = ties = total = 0
        for i in np.nonzero(truth == 1)[0]:
            for j in np.nonzero(truth == 0)[0]:
                total += 1
                wins += scores[i] > scores[j]
                ties += scores[i] == scores[j]
        assert auc(truth, scores) == pytest.approx((wins + 0.5 * ties) / total, abs=1e-12)

    def test_single_class_is_error(self):
        with pytest.raises(InputError):
            auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_nan_score_is_error(self):
        with pytest.raises(InputError):
            auc([0, 1, 1], [np.nan, 0.5, 0.7])

    @given(st.integers(0, 1000))
    def test_complement_property_without_ties(self, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, 2, size=12)
        truth[0], truth[1] = 0, 1
        scores = rng.permutation(np.linspace(0.0, 1.0, 12))
        assert auc(truth, scores) + auc(truth, -scores) == pytest.approx(1.0, abs=1e-12)


class TestAucSweep:
    def make_spec(self, **kwargs):
        base = dict(
            params=planted_params(2, 0.6, 0.05),
            n_nodes=30,
            design="block-node",
            rate_range=(0.5, 0.8),
            fit_blocks=2,
            replicates=3,
            base_seed=7,
            control=ControlOptions(rng_seed=7, exploration="none"),
        )
        base.update(kwargs)
        return ExperimentSpec(**base)

    def test_deterministic(self):
        rows_a = run_auc_sweep(self.make_spec())
        rows_b = run_auc_sweep(self.make_spec())
        assert rows_a == rows_b

    def test_full_observation_is_flagged(self):
        rows = run_auc_sweep(self.make_spec(rate_range=(1.0, 1.0), replicates=2))
        assert all(r["flag"] == "no-missing-dyads" and r["auc"] is None for r in rows)
        assert all(r["rate"] == 1.0 for r in rows)

    def test_zero_observation_leaves_every_dyad_missing(self):
        rows = run_auc_sweep(self.make_spec(rate_range=(0.0, 0.0), replicates=2))
        assert all(r["rate"] == 0.0 for r in rows)
        assert all(r["flag"] == "no-observed-dyads" and r["auc"] is None for r in rows)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 1000))
    def test_block_node_dyad_rates_stay_in_range(self, a, b, seed):
        lo, hi = min(a, b), max(a, b)
        spec = self.make_spec(rate_range=(lo, hi))
        psi = _draw_sweep_design(spec, 4, np.random.default_rng(seed)).psi
        dyad_rates = 1.0 - np.outer(1.0 - psi, 1.0 - psi)
        assert np.all(dyad_rates >= lo - 1e-12) and np.all(dyad_rates <= hi + 1e-12)

    # psi drawn at rate range (0.3, 0.8), 3 blocks, default_rng(2024), pinned bit
    # for bit: the draws, their order and psi's shape are part of the sweep
    PINNED_SWEEP_PSI = {
        "dyad": 0.6379156689906409,
        "double-standard": [0.6379156689906409, 0.4071616006191288],
        "node": 0.42654007602374716,
        "block-node": [0.3122693565190502, 0.35032088837642383, 0.5463265147336804],
    }

    @pytest.mark.parametrize("tag", list(PINNED_SWEEP_PSI))
    def test_sweep_draws_are_pinned(self, tag):
        spec = self.make_spec(params=planted_params(3, 0.6, 0.05), design=tag, rate_range=(0.3, 0.8))
        psi = _draw_sweep_design(spec, 3, np.random.default_rng(2024)).psi
        expected = np.array(self.PINNED_SWEEP_PSI[tag])
        assert psi.shape == expected.shape and psi.tolist() == expected.tolist()

    @pytest.mark.parametrize("tag", ["covar-dyad", "covar-node", "block-dyad", "degree", "snowball"])
    def test_sweep_refuses_other_designs(self, tag):
        with pytest.raises(InputError, match=f"sweep does not support the '{tag}' design"):
            _draw_sweep_design(self.make_spec(design=tag), 2, np.random.default_rng(0))

    def test_sweep_designs_are_the_pinned_ones(self):
        assert set(evaluation.SWEEP_DESIGNS) == set(self.PINNED_SWEEP_PSI)

    def test_rows_carry_rate_and_auc(self):
        rows = run_auc_sweep(self.make_spec())
        scored = [r for r in rows if r["auc"] is not None]
        assert scored, "expected at least one scored replicate"
        for row in scored:
            assert 0.0 <= row["rate"] <= 1.0
            assert 0.0 <= row["auc"] <= 1.0

    def test_workers_do_not_change_rows(self):
        rows_a = run_auc_sweep(self.make_spec())
        rows_b = run_auc_sweep(self.make_spec(control=ControlOptions(rng_seed=7, exploration="none", workers=2)))
        assert rows_a == rows_b


class TestCompareDesigns:
    def test_single_design_single_q(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 25, rng_seed=3)
        rows = compare_designs(adj, ["dyad"], [2], control=ControlOptions(rng_seed=4))
        assert len(rows) == 1
        assert rows[0]["design"] == "dyad" and rows[0]["Q"] == 2

    def test_icl_decomposition_between_mcar_designs(self):
        # same theta-hat under MAR: ICL rows differ only through the sampling
        # log-likelihood and the K-dependent penalty
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 30, rng_seed=5)
        observed = observe_network(adj, SamplingDesign("node", 0.75), rng_seed=6)
        control = ControlOptions(rng_seed=7, exploration="none")
        fit_dyad = fit_single(observed, 2, "dyad", control=control)
        fit_node = fit_single(observed, 2, "node", control=control)
        lhs = fit_dyad.icl - fit_node.icl
        rhs = (-2.0 * (fit_dyad.sampling_ll - fit_node.sampling_ll)
               + (fit_dyad.penalty - fit_node.penalty))
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert fit_dyad.vexpec == pytest.approx(fit_node.vexpec, abs=1e-9)

    def test_failures_are_isolated(self):
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 20, rng_seed=8)
        rows = compare_designs(adj, ["covar-node", "dyad"], [2],
                               control=ControlOptions(rng_seed=9))
        bad = [r for r in rows if r["design"] == "covar-node"]
        good = [r for r in rows if r["design"] == "dyad"]
        assert len(bad) == 1 and bad[0]["ICL"] is None and bad[0]["error"]
        assert len(good) == 1 and good[0]["ICL"] is not None

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in the fitting code")

        monkeypatch.setattr(evaluation, "estimate_miss_sbm", broken)
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 20, rng_seed=8)
        with pytest.raises(TypeError, match="bug in the fitting code"):
            compare_designs(adj, ["dyad"], [2], control=ControlOptions(rng_seed=9))

    def test_linear_algebra_errors_inside_a_fit_propagate(self, monkeypatch):
        # the fit code turns every LinAlgError it expects into NumericalError;
        # one that escapes is a bug, not a "design failed" row
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(vem._Engine, "ve_step", singular)
        adj, _ = sample_network(planted_params(2, 0.7, 0.1), 20, rng_seed=8)
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            compare_designs(adj, ["dyad"], [2], control=ControlOptions(rng_seed=9))
