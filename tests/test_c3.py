"""Collapse/corrupt transform tests."""

import numpy as np
import pytest

from gaplab.c3 import C3Config, _add_noise, _unit_noise, collapse, corrupt
from gaplab.worlds import make_gap_world


class TestCollapse:
    def test_centers_to_zero(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((50, 8)) + 3.0
        centered = collapse(m, m.mean(axis=0))
        assert np.abs(centered.mean(axis=0)).max() < 1e-12

    def test_idempotent_on_centered(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((30, 5))
        once = collapse(m, m.mean(axis=0))
        twice = collapse(once, once.mean(axis=0))
        np.testing.assert_allclose(twice, once, atol=1e-14)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            collapse(np.ones((4, 3)), np.zeros(5))

    def test_variance_untouched(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((60, 7))
        centered = collapse(m, m.mean(axis=0))
        np.testing.assert_allclose(m.var(axis=0), centered.var(axis=0), atol=1e-12)

    def test_removes_gap_from_paired_means(self):
        w = make_gap_world(n=1000, d=32, span_dim=8, gap_norm=0.83, sigma=0.05, seed=4)
        x = w.pairs.x.values
        y = w.pairs.y.values
        cx = collapse(x, x.mean(axis=0))
        cy = collapse(y, y.mean(axis=0))
        assert np.linalg.norm(cx.mean(axis=0) - cy.mean(axis=0)) < 1e-12
        resid = cx - cy  # the residual difference is pure alignment noise
        assert np.abs(resid.mean(axis=0)).max() < 4 * 0.05 / np.sqrt(1000)


class TestCorrupt:
    def test_zero_sigma_is_identity(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((10, 4))
        out = corrupt(m, C3Config(sigma=0.0))
        np.testing.assert_array_equal(out, m)
        assert out is not m

    def test_noise_scale(self):
        zeros = np.zeros((10000, 16))
        out = corrupt(zeros, C3Config(sigma=0.05, seed=0))
        stds = out.std(axis=0)
        assert np.all(np.abs(stds - 0.05) < 0.05 * 0.05)

    def test_span_only_leaves_gap_component(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal(12)
        g /= np.linalg.norm(g)
        m = rng.standard_normal((200, 12))
        cfg = C3Config(sigma=0.1, mode="span_only", gap_direction=g, seed=1)
        out = corrupt(m, cfg)
        np.testing.assert_allclose((out - m) @ g, 0.0, atol=1e-12)

    def test_span_only_requires_direction(self):
        with pytest.raises(ValueError, match="gap_direction"):
            C3Config(mode="span_only")

    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            C3Config(mode="span_only", gap_direction=np.array([1.0, 1.0]))

    def test_noise_keyed_by_row_index(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((20, 6))
        cfg = C3Config(sigma=0.3, seed=9)
        full = corrupt(m, cfg)
        head = corrupt(m[:5], cfg)
        np.testing.assert_array_equal(full[:5], head)

    def test_deterministic_per_seed(self):
        m = np.zeros((8, 4))
        a = corrupt(m, C3Config(sigma=1.0, seed=3))
        b = corrupt(m, C3Config(sigma=1.0, seed=3))
        c = corrupt(m, C3Config(sigma=1.0, seed=4))
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_one_draw_serves_every_sigma_bit_for_bit(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal(12)
        g /= np.linalg.norm(g)
        m = rng.standard_normal((40, 12))
        unit = _unit_noise(5, 40, 12)
        for sigma in (0.01, 0.05, 0.1, 0.2):
            for cfg in (C3Config(sigma=sigma, seed=5),
                        C3Config(sigma=sigma, mode="span_only", gap_direction=g, seed=5)):
                np.testing.assert_array_equal(_add_noise(m, unit, cfg), corrupt(m, cfg))


class TestPipelines:
    def test_test_transform_never_noisy(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((15, 5))
        mean = m.mean(axis=0)
        a = collapse(m, mean)
        b = collapse(m, mean)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, m - mean)

    def test_train_test_centers_align(self):
        w = make_gap_world(n=2000, d=24, span_dim=6, gap_norm=0.83, sigma=0.05, seed=12)
        x = w.pairs.x.values
        y = w.pairs.y.values
        train_side = collapse(y, y.mean(axis=0))
        test_side = collapse(x, x.mean(axis=0))
        dist = np.linalg.norm(train_side.mean(axis=0) - test_side.mean(axis=0))
        assert dist < 1e-12
