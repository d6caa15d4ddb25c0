"""Grouped gap/noise statistics pipeline tests."""

import numpy as np
import pytest

from gaplab.geometry import (
    group_statistics,
    masked_gap_distance,
    per_dim_variance,
)
from gaplab.linalg import EmbeddingMatrix, PairedEmbeddings, covariance, l2_normalize_rows
from gaplab.worlds import make_collapsed_init_world, make_gap_world


def pairs_from(x, y):
    return PairedEmbeddings(x=EmbeddingMatrix(x), y=EmbeddingMatrix(y))


class TestGrouping:
    """``group_statistics`` cuts ``default_rng(seed).permutation(n)`` into groups."""

    def test_even_partition(self):
        w = make_gap_world(n=1000, d=8, span_dim=3, gap_norm=0.1, sigma=0.01, seed=0)
        rep = group_statistics(w.pairs, group_size=100, seed=0)
        assert (rep.n_groups, rep.group_size) == (10, 100)

    def test_deterministic_per_seed(self):
        w = make_gap_world(n=200, d=8, span_dim=3, gap_norm=0.1, sigma=0.01, seed=1)
        assert group_statistics(w.pairs, 100, seed=7) == group_statistics(w.pairs, 100, seed=7)

    def test_half_remainder_dropped(self):
        w = make_gap_world(n=250, d=8, span_dim=3, gap_norm=0.1, sigma=0.01, seed=2)
        assert group_statistics(w.pairs, 100, seed=0).n_groups == 2

    def test_majority_remainder_kept(self):
        w = make_gap_world(n=251, d=8, span_dim=3, gap_norm=0.1, sigma=0.01, seed=3)
        assert group_statistics(w.pairs, 100, seed=0).n_groups == 3

    @pytest.mark.parametrize("n,group_size,message", [
        (50, 1, "group_size must be >= 2, got 1"),
        (50, 100, "need at least one full group: n=50 < group_size=100"),
        (150, 100, "need at least 2 groups for the gap-direction statistic"),
    ])
    def test_too_small_rejected(self, n, group_size, message):
        w = make_gap_world(n=n, d=8, span_dim=3, gap_norm=0.1, sigma=0.01, seed=4)
        with pytest.raises(ValueError, match=f"^{message}$"):
            group_statistics(w.pairs, group_size, seed=0)


class TestGroupStatistics:
    def test_identical_modalities(self):
        rng = np.random.default_rng(0)
        m = l2_normalize_rows(rng.standard_normal((400, 16))).values
        rep = group_statistics(pairs_from(m, m.copy()), group_size=100, seed=0)
        assert rep.gap_length == (0.0, 0.0)
        assert abs(rep.noise_mean[0]) < 1e-15
        # every gap and noise cosine is degenerate and must be tallied
        assert rep.skipped_zero_pairs > 0

    def test_recovers_known_geometry(self):
        w = make_gap_world(n=2000, d=64, span_dim=16, gap_norm=0.83, sigma=0.05, seed=5)
        rep = group_statistics(w.pairs, 100, seed=0)
        assert abs(rep.gap_length[0] - 0.83) < 0.03
        assert rep.gap_direction[0] > 0.95
        assert abs(rep.gap_orthogonality[0]) < 0.03
        assert abs(rep.noise_mean[0]) < 1e-3
        assert abs(rep.noise_direction[0]) < 0.05

    def test_orthogonal_transform_invariance(self):
        w = make_gap_world(n=500, d=24, span_dim=6, gap_norm=0.5, sigma=0.05, seed=6)
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((24, 24)))
        rotated = pairs_from(w.pairs.x.values @ q.T, w.pairs.y.values @ q.T)
        rep = group_statistics(w.pairs, 100, seed=3)
        rot = group_statistics(rotated, 100, seed=3)
        for a, b in zip(rep.rows(), rot.rows()):
            assert a[1] == pytest.approx(b[1], abs=1e-9)
            assert a[2] == pytest.approx(b[2], abs=1e-9)

    def test_within_group_noise_sums_to_zero(self):
        w = make_gap_world(n=256, d=16, span_dim=5, gap_norm=0.3, sigma=0.1, seed=7)
        perm = np.random.default_rng(0).permutation(256)  # group_statistics' groups at seed 0
        x = w.pairs.x.values
        y = w.pairs.y.values
        for idx in (perm[:128], perm[128:]):
            diffs = x[idx] - y[idx]
            eps = diffs - diffs.mean(axis=0)
            assert np.abs(eps.sum(axis=0)).max() < 1e-14 * max(1.0, np.abs(diffs).max())

    def test_orthogonality_mean_shrinks_with_n(self):
        means = {}
        for n in (500, 2000):
            w = make_gap_world(n=n, d=32, span_dim=8, gap_norm=0.83, sigma=0.05, seed=11)
            rep = group_statistics(w.pairs, 100, seed=0)
            means[n] = abs(rep.gap_orthogonality[0])
        assert means[2000] <= means[500] / 2 + 1e-4

    def test_needs_two_groups(self):
        w = make_gap_world(n=100, d=8, span_dim=3, gap_norm=0.1, sigma=0.01, seed=8)
        with pytest.raises(ValueError, match="2 groups"):
            group_statistics(w.pairs, 100, seed=0)

    @pytest.mark.parametrize("pairs_per_group", [0, -5])
    def test_rejects_pair_budget_below_one(self, pairs_per_group):
        w = make_gap_world(n=200, d=8, span_dim=3, gap_norm=0.1, sigma=0.01, seed=8)
        with pytest.raises(ValueError, match=f"pair budget must be >= 1, got {pairs_per_group}"):
            group_statistics(w.pairs, 100, 0, pairs_per_group)


class TestGapVector:
    """``masked_gap_distance`` is the norm of the mean difference on its mask."""

    @pytest.mark.parametrize("mask", [np.arange(6), [0, 2, 5], [4]])
    def test_pure_constant_offset(self, mask):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((50, 6))
        c = rng.standard_normal(6)
        got = masked_gap_distance(pairs_from(y + c, y), mask)
        assert got == pytest.approx(np.linalg.norm(c[mask]), abs=1e-12)

    def test_zero_world(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((20, 4))
        assert masked_gap_distance(pairs_from(y.copy(), y), np.arange(4)) == 0.0

    def test_clt_recovery(self):
        w = make_gap_world(n=2000, d=32, span_dim=8, gap_norm=0.83, sigma=0.05, seed=9)
        got = np.array([masked_gap_distance(w.pairs, [j]) for j in range(32)])
        assert np.abs(got - np.abs(w.true_gap)).max() < 4 * 0.05 / np.sqrt(2000)


class TestMaskedGap:
    def test_identical_pairs_zero(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((30, 8))
        p = pairs_from(y.copy(), y)
        assert masked_gap_distance(p, np.arange(8)) == 0.0
        assert masked_gap_distance(p, [2, 5]) == 0.0

    def test_init_world_reference_values(self):
        w = make_collapsed_init_world(seed=0)
        full = masked_gap_distance(w.pairs, np.arange(512))
        masked = masked_gap_distance(w.pairs, w.shared_ineffective)
        assert abs(full - 1.21) < 0.1
        assert abs(masked - 0.99) < 0.1

    def test_empty_mask_rejected(self):
        w = make_gap_world(n=20, d=8, span_dim=3, gap_norm=0.1, sigma=0.0, seed=0)
        with pytest.raises(ValueError, match="mask"):
            masked_gap_distance(w.pairs, np.array([], dtype=int))

    # plain indexing would wrap -1 to dimension 7, raise IndexError on 8 and
    # read a boolean mask as a selection of 4 dimensions
    @pytest.mark.parametrize("mask,message", [
        ([-1], r"must lie in \[0, 8\)"),
        ([8], r"must lie in \[0, 8\)"),
        ([True] * 4 + [False] * 4, "non-empty 1-d array of integer"),
        ([[2, 5]], "non-empty 1-d array of integer"),
    ])
    def test_mask_checked_as_the_trainer_checks_it(self, mask, message):
        w = make_gap_world(n=20, d=8, span_dim=3, gap_norm=0.1, sigma=0.0, seed=0)
        with pytest.raises(ValueError, match=message):
            masked_gap_distance(w.pairs, mask)


class TestPerDimVariance:
    def test_constant_dims_zero(self):
        m = np.tile([3.0, -1.0, 7.5], (10, 1))
        np.testing.assert_array_equal(per_dim_variance(m), [0.0, 0.0, 0.0])

    def test_unit_gaussian_near_one(self):
        rng = np.random.default_rng(5)
        v = per_dim_variance(rng.standard_normal((1000, 8)))
        assert np.abs(v - 1.0).max() < 0.15

    def test_matches_covariance_diagonal(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((200, 12)) * rng.uniform(0.5, 3.0, size=12)
        np.testing.assert_allclose(per_dim_variance(m), np.diag(covariance(m)), atol=1e-10)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            per_dim_variance([[1.0, 2.0]])

    @pytest.mark.parametrize("source", ["small", "init-world"])
    def test_bits_of_a_per_column_var(self, source):
        # a column's .var() sums pairwise; m.var(axis=0) adds down the columns
        # and moves last bits at both sources
        if source == "small":
            mats = [np.random.default_rng(0).standard_normal((50, 4))]
        else:
            w = make_collapsed_init_world()
            mats = [w.pre_norm_x, w.pre_norm_y, w.pairs.x.values, w.pairs.y.values]
        for m in mats:
            want = [m[:, i].var() for i in range(m.shape[1])]
            assert per_dim_variance(m).tolist() == want
