"""Synthetic world generator tests."""

import numpy as np
import pytest

from gaplab.linalg import covariance, spectral_summary
from gaplab.worlds import (
    MlpSimConfig,
    make_collapsed_init_world,
    make_gap_world,
    mlp_collapse_sim,
)

RANK_GAMMA = 1.0 - 1e-9


class TestGapWorld:
    def test_no_gap_no_noise_is_identity(self):
        w = make_gap_world(n=50, d=16, span_dim=5, gap_norm=0.0, sigma=0.0, seed=0)
        np.testing.assert_array_equal(w.pairs.x.values, w.pairs.y.values)

    def test_gap_orthogonal_to_span(self):
        w = make_gap_world(n=100, d=32, span_dim=8, gap_norm=0.83, sigma=0.0, seed=1)
        np.testing.assert_allclose(w.span_basis.T @ w.true_gap, 0.0, atol=1e-10)
        diffs = w.pairs.x.values[:50] - w.pairs.x.values[50:]
        np.testing.assert_allclose(diffs @ w.true_gap, 0.0, atol=1e-10)

    def test_identity_exact_by_construction(self):
        w = make_gap_world(n=200, d=24, span_dim=6, gap_norm=0.5, sigma=0.0, seed=2)
        resid = w.pairs.x.values - w.pairs.y.values - w.true_gap
        assert np.abs(resid).max() < 1e-15

    def test_noise_scale(self):
        w = make_gap_world(n=800, d=40, span_dim=10, gap_norm=0.3, sigma=0.05, seed=3)
        resid = w.pairs.x.values - w.pairs.y.values - w.true_gap
        stds = resid.std(axis=0)
        assert np.all(np.abs(stds - 0.05) < 0.2 * 0.05)
        means = resid.mean(axis=0)
        assert np.all(np.abs(means) < 4 * 0.05 / np.sqrt(800))

    def test_span_noise_mode(self):
        w = make_gap_world(n=100, d=20, span_dim=6, gap_norm=0.4, sigma=0.1,
                           seed=4, noise_mode="span")
        resid = w.pairs.x.values - w.pairs.y.values - w.true_gap
        # residuals live entirely inside the span
        outside = resid - (resid @ w.span_basis) @ w.span_basis.T
        np.testing.assert_allclose(outside, 0.0, atol=1e-12)

    def test_y_rows_unit_and_in_span(self):
        w = make_gap_world(n=60, d=18, span_dim=4, gap_norm=0.2, sigma=0.01, seed=5)
        norms = np.linalg.norm(w.pairs.y.values, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        outside = w.pairs.y.values - (w.pairs.y.values @ w.span_basis) @ w.span_basis.T
        np.testing.assert_allclose(outside, 0.0, atol=1e-12)

    def test_full_span_with_gap_rejected(self):
        with pytest.raises(ValueError, match="orthogonal complement"):
            make_gap_world(n=10, d=8, span_dim=8, gap_norm=0.5, sigma=0.0, seed=0)

    def test_deterministic(self):
        a = make_gap_world(n=30, d=12, span_dim=4, gap_norm=0.83, sigma=0.05, seed=7)
        b = make_gap_world(n=30, d=12, span_dim=4, gap_norm=0.83, sigma=0.05, seed=7)
        np.testing.assert_array_equal(a.pairs.x.values, b.pairs.x.values)
        np.testing.assert_array_equal(a.true_gap, b.true_gap)


class TestInitWorld:
    def test_constant_blocks_exact_before_normalization(self):
        w = make_collapsed_init_world(n=100, d=64, dex=5, dey=20, seed=0)
        const_x = w.pre_norm_x[:, 5:]
        assert np.all(const_x == const_x[0])
        const_y_head = w.pre_norm_y[:, :5]
        const_y_tail = w.pre_norm_y[:, 25:]
        assert np.all(const_y_head == const_y_head[0])
        assert np.all(const_y_tail == const_y_tail[0])

    def test_rows_unit_norm(self):
        w = make_collapsed_init_world(n=50, d=32, dex=4, dey=12, seed=1)
        for m in (w.pairs.x.values, w.pairs.y.values):
            np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-12)

    def test_rank_effective_dims_exact(self):
        w = make_collapsed_init_world(seed=2)
        sx = spectral_summary(covariance(w.pre_norm_x), RANK_GAMMA)
        sy = spectral_summary(covariance(w.pre_norm_y), RANK_GAMMA)
        assert sx.effective_dim == 25
        assert sy.effective_dim == 230

    def test_masks_partition(self):
        w = make_collapsed_init_world(n=20, d=40, dex=3, dey=10, seed=3)
        np.testing.assert_array_equal(w.shared_ineffective, np.arange(13, 40))

    def test_deterministic(self):
        a = make_collapsed_init_world(n=40, d=48, dex=4, dey=16, seed=9)
        b = make_collapsed_init_world(n=40, d=48, dex=4, dey=16, seed=9)
        np.testing.assert_array_equal(a.pairs.x.values, b.pairs.x.values)
        np.testing.assert_array_equal(a.pre_norm_y, b.pre_norm_y)

    def test_dimension_budget_validated(self):
        with pytest.raises(ValueError):
            make_collapsed_init_world(n=10, d=16, dex=10, dey=10)


class TestMlpCollapseSim:
    def test_probe_layers(self):
        probes = mlp_collapse_sim(MlpSimConfig(depth=10, width=32, n_inputs=100,
                                               probe_stride=5, seed=0))
        assert [p.layer for p in probes] == [0, 5, 10]

    def test_layer_zero_matches_input_statistics(self):
        cfg = MlpSimConfig(depth=5, width=24, n_inputs=200, probe_stride=5, seed=3)
        probes = mlp_collapse_sim(cfg)
        inputs = np.random.default_rng(3).standard_normal((200, 24))
        direct = spectral_summary(covariance(inputs), cfg.gamma)
        assert probes[0].effective_dim == direct.effective_dim

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            MlpSimConfig(depth=0, width=16, n_inputs=64, seed=1, probe_stride=5)

    def test_collapse_deepens(self):
        probes = mlp_collapse_sim(MlpSimConfig(depth=10, width=128, n_inputs=400,
                                               probe_stride=5, seed=4))
        by_layer = {p.layer: p for p in probes}
        assert by_layer[10].effective_dim <= by_layer[5].effective_dim
        assert by_layer[10].cone_mean > by_layer[5].cone_mean > 0.0

    def test_dead_layer_sentinel(self):
        # width-1 nets die as soon as a negative weight follows a ReLU
        for seed in range(40):
            probes = mlp_collapse_sim(
                MlpSimConfig(depth=3, width=1, n_inputs=32, probe_stride=1, seed=seed)
            )
            dead = [p for p in probes if p.dead]
            if dead:
                assert dead[0].effective_dim == 0
                return
        pytest.fail("no dead layer found across seeds")

    def test_depth_must_cover_stride(self):
        with pytest.raises(ValueError):
            MlpSimConfig(depth=3, probe_stride=5, width=512, n_inputs=1000, seed=0)

    def test_deterministic(self):
        cfg = MlpSimConfig(depth=5, width=32, n_inputs=100, probe_stride=5, seed=11)
        a = mlp_collapse_sim(cfg)
        b = mlp_collapse_sim(cfg)
        assert [p.effective_dim for p in a] == [p.effective_dim for p in b]
        assert [p.cone_mean for p in a] == [p.cone_mean for p in b]
