"""Collapse/corrupt transform tests."""

import numpy as np
import pytest

from gaplab import c3
from gaplab.c3 import _KEY_ROWS, C3Config, _add_noise, _unit_noise, collapse, corrupt
from gaplab.worlds import make_gap_world


def reference_noise(seed, n, d):
    """The keyed stream row by row: a SeedSequence, PCG64 and Generator each."""
    noise = np.empty((n, d))
    for row in range(n):
        noise[row] = np.random.default_rng(np.random.SeedSequence([seed, row])).standard_normal(d)
    return noise


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

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_span_only_direction_must_match_the_rows(self, sigma, monkeypatch):
        def no_noise(*args):
            raise AssertionError("noise was drawn")
        monkeypatch.setattr(c3, "_unit_noise", no_noise)
        cfg = C3Config(sigma=sigma, mode="span_only", gap_direction=np.array([1.0, 0.0]))
        with pytest.raises(ValueError) as err:
            corrupt(np.ones((3, 4)), cfg)
        assert str(err.value) == "gap_direction has dimension 2, rows have 4"

    def test_span_only_requires_direction(self):
        with pytest.raises(ValueError, match="gap_direction"):
            C3Config(mode="span_only", sigma=0.05)

    @pytest.mark.parametrize("g", [[1.0, 1.0], [np.nan, 0.0, 0.0], [np.inf, 0.0]])
    def test_direction_must_be_unit(self, g):
        # a NaN norm fails the unit-norm tolerance too, instead of turning
        # every corrupted row into NaN
        with pytest.raises(ValueError, match="gap_direction must be unit-norm"):
            C3Config(sigma=0.1, mode="span_only", gap_direction=np.array(g))

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


# 1 to 4 words of entropy in the seed; with the row's word, 2**100 + 7 fills
# more than SeedSequence's pool of 4
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7)


class TestUnitNoise:
    @pytest.mark.parametrize("seed", SEEDS + (np.int64(2**40 + 5),))
    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("d", [1, 64])
    def test_matches_per_row_reference(self, seed, n, d):
        noise = _unit_noise(seed, n, d)
        assert noise.shape == (n, d)
        assert np.array_equal(noise, reference_noise(seed, n, d))

    @pytest.mark.parametrize("seed", [0, 2**100 + 7])
    def test_partial_last_block_matches_reference(self, seed):
        n = 4 * _KEY_ROWS + 77  # past 1024 rows, ending in a partial block
        assert np.array_equal(_unit_noise(seed, n, 64), reference_noise(seed, n, 64))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prefix_across_a_block_boundary(self, seed):
        full = _unit_noise(seed, _KEY_ROWS + 5, 64)
        for k in (_KEY_ROWS - 1, _KEY_ROWS, _KEY_ROWS + 1):
            assert np.array_equal(_unit_noise(seed, k, 64), full[:k])

    @pytest.mark.parametrize("seed,error", [(-3, ValueError), (-(2**70), ValueError),
                                            (np.int64(-1), ValueError), (1.0, TypeError),
                                            (np.float64(2.0), TypeError)])
    def test_rejects_what_seed_sequence_rejects(self, seed, error):
        with pytest.raises(error):
            reference_noise(seed, 1, 4)
        with pytest.raises(error):
            _unit_noise(seed, 1, 4)


class TestConfigSeed:
    @pytest.mark.parametrize("seed", [-3, -1, 1.0, 2.5, "3", None, True])
    def test_bad_seed_rejected_when_built(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer") as info:
            C3Config(sigma=0.1, seed=seed)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, np.int64(5)])
    def test_integer_seed_accepted(self, seed):
        assert C3Config(sigma=0.1, seed=seed).seed == seed


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
