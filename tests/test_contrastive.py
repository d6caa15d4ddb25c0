"""Contrastive loss, gradient, trainer, and stable-region tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import contrastive, linalg
from gaplab.contrastive import (
    ContrastiveBatch,
    _gradients,
    TrainerConfig,
    conditional_probs,
    contrastive_loss,
    exact_gradients,
    loss_bound_check,
    span_gradients,
    stable_region_threshold,
    train_contrastive,
)
from gaplab.linalg import EmbeddingMatrix, PairedEmbeddings, l2_normalize_rows
from gaplab.worlds import make_collapsed_init_world

ONE_STEP = TrainerConfig(learning_rate=0.1, steps=1, renormalize_each_step=True,
                         record_every=100, gradient_form="exact")

def unit_batch(rng, n, d, tau=0.07):
    x = l2_normalize_rows(rng.standard_normal((n, d)))
    y = l2_normalize_rows(rng.standard_normal((n, d)))
    return ContrastiveBatch(PairedEmbeddings(x=x, y=y), tau=tau)


def brute_force_probs(batch):
    """Direct softmax conditionals from the written-out formula."""
    x = batch.pairs.x.values
    y = batch.pairs.y.values
    n = x.shape[0]
    p_xy = np.zeros((n, n))
    p_yx = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            p_xy[i, j] = math.exp(x[i] @ y[j] / batch.tau) / sum(
                math.exp(x[k] @ y[j] / batch.tau) for k in range(n)
            )
            p_yx[i, j] = math.exp(y[i] @ x[j] / batch.tau) / sum(
                math.exp(y[k] @ x[j] / batch.tau) for k in range(n)
            )
    return p_xy, p_yx


def brute_force_loss(batch):
    """The objective evaluated term by term with plain scalar math."""
    x = batch.pairs.x.values
    y = batch.pairs.y.values
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        num = math.exp(x[i] @ y[i] / batch.tau)
        den_row = sum(math.exp(x[i] @ y[j] / batch.tau) for j in range(n))
        den_col = sum(math.exp(x[j] @ y[i] / batch.tau) for j in range(n))
        total += math.log(num / den_row) + math.log(num / den_col)
    return -total / (2 * n)


def raw_loss(x, y, tau):
    """The objective from scratch on raw arrays; rows are free variables."""
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        num = x[i] @ y[i] / tau
        den_row = math.log(sum(math.exp(x[i] @ y[j] / tau) for j in range(n)))
        den_col = math.log(sum(math.exp(x[j] @ y[i] / tau) for j in range(n)))
        total += (num - den_row) + (num - den_col)
    return -total / (2 * n)


def fd_gradients(batch, h=1e-5):
    """Central finite differences of the from-scratch loss, entry by entry."""
    x0 = batch.pairs.x.values.copy()
    y0 = batch.pairs.y.values.copy()
    tau = batch.tau
    gx = np.zeros_like(x0)
    gy = np.zeros_like(y0)
    for i in range(x0.shape[0]):
        for j in range(x0.shape[1]):
            xp, xm = x0.copy(), x0.copy()
            xp[i, j] += h
            xm[i, j] -= h
            gx[i, j] = (raw_loss(xp, y0, tau) - raw_loss(xm, y0, tau)) / (2 * h)
            yp, ym = y0.copy(), y0.copy()
            yp[i, j] += h
            ym[i, j] -= h
            gy[i, j] = (raw_loss(x0, yp, tau) - raw_loss(x0, ym, tau)) / (2 * h)
    return gx, gy


class TestConditionalProbs:
    def test_single_pair(self):
        batch = unit_batch(np.random.default_rng(0), 1, 4)
        p_xy, p_yx = conditional_probs(batch)
        np.testing.assert_array_equal(p_xy, [[1.0]])
        np.testing.assert_array_equal(p_yx, [[1.0]])

    def test_equal_similarities(self):
        v = np.array([[1.0, 0.0]])
        x = EmbeddingMatrix(np.vstack([v, v]), unit_norm=True)
        batch = ContrastiveBatch(PairedEmbeddings(x=x, y=x), tau=0.07)
        p_xy, p_yx = conditional_probs(batch)
        np.testing.assert_allclose(p_xy, 0.5, atol=1e-15)
        np.testing.assert_allclose(p_yx, 0.5, atol=1e-15)

    def test_matches_brute_force(self):
        batch = unit_batch(np.random.default_rng(4), 3, 5)
        p_xy, p_yx = conditional_probs(batch)
        b_xy, b_yx = brute_force_probs(batch)
        np.testing.assert_allclose(p_xy, b_xy, atol=1e-12)
        np.testing.assert_allclose(p_yx, b_yx, atol=1e-12)

    def test_columns_sum_to_one(self):
        batch = unit_batch(np.random.default_rng(8), 7, 6, tau=0.01)
        p_xy, p_yx = conditional_probs(batch)
        np.testing.assert_allclose(p_xy.sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(p_yx.sum(axis=0), 1.0, atol=1e-10)

    def test_tiny_temperature_stays_finite(self):
        batch = unit_batch(np.random.default_rng(2), 6, 8, tau=1e-6)
        p_xy, p_yx = conditional_probs(batch)
        assert np.all(np.isfinite(p_xy)) and np.all(np.isfinite(p_yx))


class TestContrastiveLoss:
    def test_single_pair_is_zero(self):
        batch = unit_batch(np.random.default_rng(1), 1, 3)
        assert contrastive_loss(batch) == 0.0

    def test_two_pairs_equal_similarities(self):
        v = EmbeddingMatrix(np.tile([0.6, 0.8], (2, 1)), unit_norm=True)
        batch = ContrastiveBatch(PairedEmbeddings(x=v, y=v), tau=0.07)
        assert contrastive_loss(batch) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_matches_brute_force(self):
        batch = unit_batch(np.random.default_rng(6), 4, 8)
        assert contrastive_loss(batch) == pytest.approx(brute_force_loss(batch), abs=1e-12)

    def test_symmetry_in_modalities(self):
        batch = unit_batch(np.random.default_rng(10), 5, 7)
        flipped = ContrastiveBatch(
            PairedEmbeddings(x=batch.pairs.y, y=batch.pairs.x), batch.tau
        )
        assert contrastive_loss(batch) == pytest.approx(contrastive_loss(flipped), abs=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        batch = unit_batch(rng, 6, 5)
        perm = rng.permutation(6)
        permuted = ContrastiveBatch(
            PairedEmbeddings(
                x=EmbeddingMatrix(batch.pairs.x.values[perm], unit_norm=True),
                y=EmbeddingMatrix(batch.pairs.y.values[perm], unit_norm=True),
            ),
            batch.tau,
        )
        assert contrastive_loss(permuted) == pytest.approx(contrastive_loss(batch), abs=1e-12)
        g = exact_gradients(batch)
        gp = exact_gradients(permuted)
        np.testing.assert_allclose(gp.grad_x, g.grad_x[perm], atol=1e-12)
        np.testing.assert_allclose(gp.grad_y, g.grad_y[perm], atol=1e-12)


class TestExactGradients:
    def test_single_pair_zero(self):
        batch = unit_batch(np.random.default_rng(3), 1, 4)
        g = exact_gradients(batch)
        np.testing.assert_allclose(g.grad_x, 0.0, atol=1e-15)
        np.testing.assert_allclose(g.grad_y, 0.0, atol=1e-15)

    def test_identical_y_with_uniform_similarities(self):
        # all y rows equal and every anchor equally similar to them: the
        # pair-marginal sums hit exactly one and the x gradient vanishes
        n = 4
        x = EmbeddingMatrix(np.eye(n), unit_norm=True)
        y = EmbeddingMatrix(np.tile(np.ones(n) / np.sqrt(n), (n, 1)), unit_norm=True)
        g = exact_gradients(ContrastiveBatch(PairedEmbeddings(x=x, y=y), tau=0.2))
        np.testing.assert_allclose(g.grad_x, 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        batch = unit_batch(np.random.default_rng(14), 6, 10)
        g = exact_gradients(batch)
        fdx, fdy = fd_gradients(batch)
        scale = max(np.abs(g.grad_x).max(), np.abs(g.grad_y).max())
        assert np.abs(fdx - g.grad_x).max() / scale < 1e-5
        assert np.abs(fdy - g.grad_y).max() / scale < 1e-5


class TestSpanGradients:
    def test_single_pair_zero(self):
        batch = unit_batch(np.random.default_rng(5), 1, 4)
        g = span_gradients(batch)
        np.testing.assert_array_equal(g.grad_x, 0.0)
        np.testing.assert_array_equal(g.grad_y, 0.0)

    def test_coincides_with_exact_on_symmetric_configuration(self):
        # x = y = identity rows makes every conditional doubly stochastic,
        # so the pair-marginal sums are exactly one
        n = 5
        eye = EmbeddingMatrix(np.eye(n), unit_norm=True)
        batch = ContrastiveBatch(PairedEmbeddings(x=eye, y=eye), tau=0.3)
        g_span = span_gradients(batch)
        g_exact = exact_gradients(batch)
        np.testing.assert_allclose(g_span.grad_x, g_exact.grad_x, atol=1e-10)
        np.testing.assert_allclose(g_span.grad_y, g_exact.grad_y, atol=1e-10)

    def test_difference_is_marginal_correction(self):
        batch = unit_batch(np.random.default_rng(16), 6, 9)
        lam = 1.0 / (2 * batch.n * batch.tau)
        p_xy, p_yx = brute_force_probs(batch)
        g_span = span_gradients(batch)
        g_exact = exact_gradients(batch)
        corr_x = lam * (1.0 - p_xy.sum(axis=1))[:, None] * batch.pairs.y.values
        np.testing.assert_allclose(g_span.grad_x - g_exact.grad_x, corr_x, atol=1e-10)
        corr_y = lam * (1.0 - p_yx.sum(axis=1))[:, None] * batch.pairs.x.values
        np.testing.assert_allclose(g_span.grad_y - g_exact.grad_y, corr_y, atol=1e-10)

    def test_constant_coordinate_gets_bitwise_zero(self):
        rng = np.random.default_rng(18)
        d = 8
        y_raw = rng.standard_normal((6, d))
        y_raw[:, 3] = 0.0  # zero survives row normalization identically
        y = l2_normalize_rows(y_raw)
        x = l2_normalize_rows(rng.standard_normal((6, d)))
        batch = ContrastiveBatch(PairedEmbeddings(x=x, y=y), tau=0.07)
        g = span_gradients(batch)
        assert np.all(g.grad_x[:, 3] == 0.0)


class TestTrainer:
    def test_deterministic(self):
        w = make_collapsed_init_world(n=24, d=32, dex=4, dey=10, seed=1)
        cfg = TrainerConfig(learning_rate=0.1, steps=50, record_every=10,
                            renormalize_each_step=True, gradient_form="exact")
        a = train_contrastive(w.pairs, 0.07, cfg, masked_dims=w.shared_ineffective)
        b = train_contrastive(w.pairs, 0.07, cfg, masked_dims=w.shared_ineffective)
        np.testing.assert_array_equal(a.final.x.values, b.final.x.values)
        assert [r.loss for r in a.trajectory] == [r.loss for r in b.trajectory]

    def test_loss_decreases(self):
        w = make_collapsed_init_world(n=64, d=64, dex=6, dey=24, seed=2)
        cfg = TrainerConfig(learning_rate=0.1, steps=400, record_every=100,
                            renormalize_each_step=True, gradient_form="exact")
        res = train_contrastive(w.pairs, 0.07, cfg, masked_dims=w.shared_ineffective)
        losses = [r.loss for r in res.trajectory]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_projection_keeps_rows_unit(self):
        w = make_collapsed_init_world(n=20, d=16, dex=3, dey=6, seed=3)
        cfg = TrainerConfig(learning_rate=0.1, steps=30, record_every=30,
                            renormalize_each_step=True, gradient_form="exact")
        res = train_contrastive(w.pairs, 0.07, cfg, masked_dims=w.shared_ineffective)
        norms = np.linalg.norm(res.final.x.values, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_span_form_freezes_shared_constants(self):
        w = make_collapsed_init_world(n=32, d=24, dex=4, dey=10, seed=4)
        init = PairedEmbeddings(
            x=EmbeddingMatrix(w.pre_norm_x), y=EmbeddingMatrix(w.pre_norm_y)
        )
        cfg = TrainerConfig(
            learning_rate=0.1, steps=200, record_every=50,
            renormalize_each_step=False, gradient_form="span",
        )
        res = train_contrastive(init, 0.07, cfg, masked_dims=w.shared_ineffective)
        assert all(r.masked_grad_max == 0.0 for r in res.trajectory)
        np.testing.assert_array_equal(
            res.final.x.values[:, w.shared_ineffective],
            w.pre_norm_x[:, w.shared_ineffective],
        )

    @pytest.mark.parametrize("tau,lr,record_every,message", [
        (1e-4, 1e12, 10, "loss diverged at step 10"),     # found by a record
        (0.07, 1e150, 10, "update diverged at step 2"),   # found by an update
        (0.07, 1e150, 1, "loss diverged at step 2"),      # the record comes first
    ])
    def test_divergence_reports_step(self, tau, lr, record_every, message):
        w = make_collapsed_init_world(n=8, d=12, dex=2, dey=4, seed=5)
        cfg = TrainerConfig(learning_rate=lr, steps=50, record_every=record_every,
                            renormalize_each_step=False, gradient_form="exact")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError) as want:
                ref_alloc_train(w.pairs, tau, cfg, w.shared_ineffective)
            with pytest.raises(FloatingPointError) as got:
                train_contrastive(w.pairs, tau, cfg, masked_dims=w.shared_ineffective)
        assert str(want.value) == message
        assert str(got.value) == str(want.value)

    def test_unit_init_required_for_projection(self):
        raw = EmbeddingMatrix(np.random.default_rng(0).standard_normal((4, 6)))
        pairs = PairedEmbeddings(x=raw, y=raw)
        with pytest.raises(ValueError, match="unit-norm"):
            train_contrastive(pairs, 0.07, ONE_STEP, masked_dims=[0])

    def test_masked_dims_required(self):
        w = make_collapsed_init_world(n=8, d=12, dex=2, dey=4, seed=5)
        with pytest.raises(TypeError, match="masked_dims"):
            train_contrastive(w.pairs, 0.07, ONE_STEP)


class TestMargin:
    def test_orthogonal_negatives(self):
        x = EmbeddingMatrix(np.eye(3), unit_norm=True)
        batch = ContrastiveBatch(PairedEmbeddings(x=x, y=x), tau=0.07)
        assert loss_bound_check(batch, 0, 0.01).margin == 1.0

    def test_half_margin(self):
        d = 4
        x = np.zeros((2, d))
        x[0, 0] = 1.0
        x[1, 1] = 1.0
        y = np.zeros((2, d))
        y[0, 0] = 1.0                       # matched similarity 1.0
        y[1, 0] = 0.5                       # hardest negative 0.5
        y[1, 2] = np.sqrt(1 - 0.25)
        batch = ContrastiveBatch(
            PairedEmbeddings(
                x=EmbeddingMatrix(x, unit_norm=True),
                y=EmbeddingMatrix(y, unit_norm=True),
            ),
            tau=0.07,
        )
        assert loss_bound_check(batch, 0, 0.01).margin == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(19)
        batch = unit_batch(rng, 7, 5)
        x = batch.pairs.x.values
        y = batch.pairs.y.values
        for i in range(7):
            sims = [x[i] @ y[j] for j in range(7)]
            expected = sims[i] - max(s for j, s in enumerate(sims) if j != i)
            assert loss_bound_check(batch, i, 0.01).margin == pytest.approx(expected, abs=1e-12)

    def test_needs_a_negative(self):
        batch = unit_batch(np.random.default_rng(20), 1, 4)
        with pytest.raises(ValueError):
            loss_bound_check(batch, 0, 0.01).margin


class TestStableRegion:
    def test_threshold_frozen_example(self):
        # t=(1.0, 0.5), tau=0.07, delta=0.01; value checked against a
        # 30-digit evaluation of 0.07*log(2/expm1(0.01))
        o_prime = 1.0 + math.exp((0.5 - 1.0) / 0.07)
        assert o_prime == pytest.approx(1.0007904903231199, abs=1e-12)
        assert math.ceil(o_prime) == 2
        assert 0.07 * math.log(2 / math.expm1(0.01)) == pytest.approx(0.3705319239919390, abs=1e-12)
        thr = stable_region_threshold([1.0, 0.5], 0.07, 0.01)
        assert thr == pytest.approx(0.3705319239919390, abs=1e-12)
        # an anchor whose negatives are that profile reports the same crowding
        y = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, math.sqrt(0.75)]])
        batch = ContrastiveBatch(PairedEmbeddings(x=EmbeddingMatrix(np.eye(3), unit_norm=True),
                                                  y=l2_normalize_rows(y)), 0.07)
        assert loss_bound_check(batch, 0, 0.01).crowding == 2

    def test_large_delta_means_any_margin(self):
        thr = stable_region_threshold([0.9, 0.1, -0.2], tau=0.07, delta=5.0)
        assert thr <= 0.0

    def test_delta_up_to_log_dbl_max(self):
        # exp(delta) - 1 is finite up to log(DBL_MAX) and overflows one ulp above it
        top = math.log(np.finfo(np.float64).max)
        assert math.isfinite(stable_region_threshold([0.9, 0.1], 0.07, top))
        for delta in (np.nextafter(top, math.inf), 1e308):
            with pytest.raises(ValueError) as exc:
                stable_region_threshold([0.9, 0.1], 0.07, delta)
            assert str(exc.value) == f"delta must be <= log(DBL_MAX) = 709.782712893384, got {delta}"

    def test_tied_maximum_rejected(self):
        with pytest.raises(ValueError, match="tie"):
            stable_region_threshold([0.7, 0.7, 0.1], tau=0.1, delta=0.01)

    @pytest.mark.parametrize("profile", [[math.nan, 0.1, 0.2], [0.9, math.nan, 0.2],
                                         [math.inf, 0.1], [0.9, -math.inf]])
    def test_non_finite_profile_rejected(self, monkeypatch, profile):
        def no_tie_check(t):
            raise AssertionError("the tie rule ran before the profile was checked")

        monkeypatch.setattr(contrastive, "_check_unique_max", no_tie_check)
        with pytest.raises(ValueError) as exc:
            stable_region_threshold(profile, 0.07, 0.01)
        assert str(exc.value) == "similarity profile must be finite"

    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_threshold_monotone_in_tau(self, seed):
        rng = np.random.default_rng(seed)
        profile = np.sort(rng.uniform(-1, 1, size=6))[::-1]
        profile[0] += 0.05  # ensure a unique maximum
        taus = [0.01, 0.07, 0.5, 1.0]
        values = [stable_region_threshold(profile, t, 0.01) for t in taus]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_huge_margin_bound_near_zero(self):
        d = 6
        x = np.zeros((3, d))
        y = np.zeros((3, d))
        for i in range(3):
            x[i, i] = 1.0
            y[i, i] = 1.0  # matched pairs aligned, negatives orthogonal
        batch = ContrastiveBatch(
            PairedEmbeddings(
                x=EmbeddingMatrix(x, unit_norm=True),
                y=EmbeddingMatrix(y, unit_norm=True),
            ),
            tau=0.01,
        )
        rep = loss_bound_check(batch, 0, delta=1e-10)
        assert rep.margin == 1.0
        assert rep.bound < 1e-12
        assert rep.in_stable_region

    def test_bound_holds_on_random_batches(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            tau = float(rng.choice([0.01, 0.07, 0.5]))
            batch = unit_batch(rng, 8, 16, tau)
            i = int(rng.integers(0, 8))
            rep = loss_bound_check(batch, i, delta=0.01)
            assert rep.loss_i <= rep.bound

    @pytest.mark.parametrize("tied", [False, True])
    def test_kernel_equals_one_check_per_tau(self, tied):
        # one kernel call over several taus reports what loss_bound_check
        # reports at each tau alone, tied hardest negatives included
        taus = (0.01, 0.07, 0.5, 2.0)
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            x = l2_normalize_rows(rng.standard_normal((n, 5)))
            y = rng.standard_normal((n, 5))
            if tied and n >= 3:
                y[1] = y[2] = x.values[0]  # anchor 0's two hardest negatives tie
            pairs = PairedEmbeddings(x=x, y=l2_normalize_rows(y))
            for i in range(n):
                sims = pairs.x.values[i] @ pairs.y.values.T
                got = contrastive._anchor_reports(sims, i, taus, 0.01)
                assert got == [loss_bound_check(ContrastiveBatch(pairs, tau), i, 0.01)
                               for tau in taus]

    @pytest.mark.parametrize("i", [-1, 3])
    def test_anchor_index_out_of_range(self, i):
        with pytest.raises(IndexError, match="out of range"):
            loss_bound_check(unit_batch(np.random.default_rng(24), 3, 4), i, 0.01)

    @pytest.mark.parametrize("i", [-1, 1])
    def test_one_row_batch_reports_the_bad_index_first(self, i):
        # the range check runs before the anchor's need for a negative
        with pytest.raises(IndexError, match=f"row {i} out of range for n=1"):
            loss_bound_check(unit_batch(np.random.default_rng(26), 1, 4), i, 0.01)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError, match="delta"):
            loss_bound_check(unit_batch(np.random.default_rng(25), 3, 4), 0, 0.0)

    def test_margin_at_threshold_meets_delta(self):
        # one-negative instance; binary search the negative similarity so the
        # achieved margin lands on the threshold, then the loss must be <= delta
        tau, delta = 0.07, 0.05
        d = 4

        def batch_for(neg_sim):
            x = np.zeros((2, d))
            x[0, 0] = 1.0
            x[1, 1] = 1.0
            y = np.zeros((2, d))
            y[0, 0] = 1.0
            y[1, 0] = neg_sim
            y[1, 2] = np.sqrt(1 - neg_sim**2)
            return ContrastiveBatch(
                PairedEmbeddings(
                    x=EmbeddingMatrix(x, unit_norm=True),
                    y=EmbeddingMatrix(y, unit_norm=True),
                ),
                tau,
            )

        lo, hi = 0.0, 0.9
        for _ in range(60):
            mid = (lo + hi) / 2
            b = batch_for(mid)
            r = loss_bound_check(b, 0, delta).margin
            thr = stable_region_threshold([mid], tau, delta)
            if r > thr:
                lo = mid
            else:
                hi = mid
        b = batch_for(lo)
        rep = loss_bound_check(b, 0, delta)
        assert rep.margin >= stable_region_threshold([lo], tau, delta) - 1e-9
        assert rep.loss_i <= delta


# The per-helper formulas the one-pass helpers replaced: a separate logits
# product and separate row and column softmaxes for every quantity.
_REF_FLOOR = -700.0


def _ref_softmax(z, axis):
    z = np.maximum(z - z.max(axis=axis, keepdims=True), _REF_FLOOR)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _ref_logsumexp(z, axis):
    m = z.max(axis=axis)
    return m + np.log(np.exp(np.maximum(z - np.expand_dims(m, axis), _REF_FLOOR)).sum(axis=axis))


def ref_loss(x, y, tau):
    z = x @ y.T / tau
    return float(-(2.0 * np.diag(z) - _ref_logsumexp(z, 1) - _ref_logsumexp(z, 0)).sum()
                 / (2.0 * x.shape[0]))


def ref_probs(x, y, tau):
    z = x @ y.T / tau
    return _ref_softmax(z, 0), _ref_softmax(z, 1).T


def ref_exact(x, y, tau):
    z = x @ y.T / tau
    p_row, p_col = _ref_softmax(z, 1), _ref_softmax(z, 0)
    lam = 1.0 / (2.0 * x.shape[0] * tau)
    return (-lam * (2.0 * y - p_row @ y - p_col @ y),
            -lam * (2.0 * x - p_row.T @ x - p_col.T @ x))


def ref_span(x, y, tau):
    z = x @ y.T / tau
    w_x = _ref_softmax(z, 1) + _ref_softmax(z, 0)
    lam = 1.0 / (2.0 * x.shape[0] * tau)
    ys, xs = y - y[0], x - x[0]
    w_y = w_x.T
    return (lam * (w_x @ ys - w_x.sum(axis=1)[:, None] * ys),
            lam * (w_y @ xs - w_y.sum(axis=1)[:, None] * xs))


class TestOnePassMatchesPerHelperReference:
    @pytest.mark.parametrize("tau", [0.01, 0.07, 0.5])
    @pytest.mark.parametrize("seed,n,d", [(0, 2, 3), (1, 17, 9), (2, 64, 48), (3, 200, 32)])
    def test_helpers_match_reference(self, tau, seed, n, d):
        batch = unit_batch(np.random.default_rng(seed), n, d, tau)
        x, y = batch.pairs.x.values, batch.pairs.y.values
        assert contrastive_loss(batch) == ref_loss(x, y, tau)
        for got, want in zip(conditional_probs(batch), ref_probs(x, y, tau)):
            assert np.array_equal(got, want)
        span = span_gradients(batch)
        for got, want in zip((span.grad_x, span.grad_y), ref_span(x, y, tau)):
            assert np.array_equal(got, want)
        exact = exact_gradients(batch)
        for got, want in zip((exact.grad_x, exact.grad_y), ref_exact(x, y, tau)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("tau", [0.01, 0.07, 0.5])
    def test_span_form_matches_reference_on_free_rows(self, tau):
        # pre-normalization rows with shared constant coordinates, as train-sim uses
        w = make_collapsed_init_world(n=40, d=32, dex=4, dey=12, seed=6)
        x, y = w.pre_norm_x, w.pre_norm_y
        gx, gy, loss = _gradients(x, y, tau, span=True)
        want = ref_span(x, y, tau)
        assert np.array_equal(gx, want[0]) and np.array_equal(gy, want[1])
        assert loss == ref_loss(x, y, tau)

    # Exact projected descent on this world runs in reduced coordinates; its
    # case is TestReducedExactProjectedTraining's, within rounding.
    @pytest.mark.parametrize("form,projected", [("exact", False), ("span", False)])
    def test_last_record_loss_is_loss_of_final_state(self, form, projected):
        w = make_collapsed_init_world(n=32, d=24, dex=4, dey=10, seed=7)
        init = w.pairs if projected else PairedEmbeddings(
            x=EmbeddingMatrix(w.pre_norm_x), y=EmbeddingMatrix(w.pre_norm_y))
        cfg = TrainerConfig(learning_rate=0.1, steps=60, record_every=25,
                            renormalize_each_step=projected, gradient_form=form)
        res = train_contrastive(init, 0.07, cfg, masked_dims=w.shared_ineffective)
        assert [r.step for r in res.trajectory] == [0, 25, 50, 60]
        assert res.trajectory[0].loss == ref_loss(init.x.values, init.y.values, 0.07)
        assert res.trajectory[-1].loss == ref_loss(res.final.x.values, res.final.y.values, 0.07)


# The allocating step the workspace trainer replaced, copied verbatim: every
# step builds z, both softmaxes, W and the gradients afresh, updates with
# x - lr * g and re-projects through a new validated EmbeddingMatrix.
def _ref_alloc_forward(x, y, tau):
    z = x @ y.T / tau
    probs, lses = [], []
    for axis in (1, 0):
        m = z.max(axis=axis, keepdims=True)
        e = z - m
        np.maximum(e, _REF_FLOOR, out=e)
        np.exp(e, out=e)
        s = e.sum(axis=axis, keepdims=True)
        e /= s
        probs.append(e)
        lses.append((m + np.log(s)).ravel())
    loss = -(2.0 * np.diagonal(z) - lses[0] - lses[1]).sum() / (2.0 * x.shape[0])
    return probs[0], probs[1], float(loss)


def _ref_alloc_gradients(x, y, tau, span):
    w, p_col, loss = _ref_alloc_forward(x, y, tau)
    w += p_col
    lam = 1.0 / (2.0 * x.shape[0] * tau)
    if not span:
        return -lam * (2.0 * y - w @ y), -lam * (2.0 * x - w.T @ x), loss
    ys = y - y[0]
    grad_x = lam * (w @ ys - w.sum(axis=1)[:, None] * ys)
    w_y = w.T
    xs = x - x[0]
    grad_y = lam * (w_y @ xs - w_y.sum(axis=1)[:, None] * xs)
    return grad_x, grad_y, loss


def _ref_l2_normalize_rows(a):
    norms = np.linalg.norm(a, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot normalize zero row at index {zero[0]}")
    return EmbeddingMatrix(a / norms[:, None], unit_norm=True)


def ref_alloc_train(init, tau, cfg, masked_dims):
    """(final x, final y, records as tuples) of the allocating trainer."""
    mask = np.asarray(masked_dims, dtype=np.intp)
    span = cfg.gradient_form == "span"
    x = init.x.values.copy()
    y = init.y.values.copy()

    def analysis_views():
        if cfg.renormalize_each_step:
            return x, y
        return _ref_l2_normalize_rows(x).values, _ref_l2_normalize_rows(y).values

    def snapshot(step, loss, masked_grad_max):
        if not math.isfinite(loss):
            raise FloatingPointError(f"loss diverged at step {step}")
        try:
            xs, ys = analysis_views()
        except ValueError as exc:
            raise FloatingPointError(f"state degenerated at step {step}: {exc}") from exc
        diff = xs.mean(axis=0) - ys.mean(axis=0)
        return (step, loss, float(np.linalg.norm(diff)),
                float(np.linalg.norm(diff[mask])), masked_grad_max)

    trajectory = []
    running_masked_max = 0.0
    for step in range(cfg.steps + 1):
        grad_x, grad_y, loss = _ref_alloc_gradients(x, y, tau, span)
        seen = max(float(np.abs(grad_x[:, mask]).max()), float(np.abs(grad_y[:, mask]).max()))
        running_masked_max = max(running_masked_max, seen)
        if step % cfg.record_every == 0 or step == cfg.steps:
            trajectory.append(snapshot(step, loss, running_masked_max))
            running_masked_max = 0.0
        if step == cfg.steps:
            break
        x = x - cfg.learning_rate * grad_x
        y = y - cfg.learning_rate * grad_y
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise FloatingPointError(f"update diverged at step {step}")
        if cfg.renormalize_each_step:
            try:
                x = _ref_l2_normalize_rows(x).values
                y = _ref_l2_normalize_rows(y).values
            except ValueError as exc:
                raise FloatingPointError(f"state degenerated at step {step}: {exc}") from exc
    return x, y, trajectory


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestWorkspaceTrainerMatchesAllocatingReference:
    @pytest.mark.parametrize("form,projected,lr,steps,record_every,mask", [
        # Exact projected descent with the world's mask runs in reduced
        # coordinates; TestReducedExactProjectedTraining compares it within rounding.
        ("span", False, 0.1, 120, 25, "world"),          # span on free rows
        ("exact", False, 0.1, 60, 20, "world"),          # exact on free rows
        ("span", True, 0.1, 60, 20, "world"),            # span projected
        ("exact", True, 0.1, 40, 10, [20, 3, 17, 3]),    # unsorted, duplicated, full-rank block
        ("span", False, 0.1, 40, 10, [0, 5]),            # a mask of varying dimensions
        ("span", False, 0.1, 47, 10, "world"),           # steps not a multiple
    ])
    def test_final_state_and_records_are_bitwise_equal(self, form, projected, lr, steps,
                                                       record_every, mask):
        w = make_collapsed_init_world(n=48, d=24, dex=4, dey=10, seed=11)
        init = w.pairs if projected else PairedEmbeddings(
            x=EmbeddingMatrix(w.pre_norm_x), y=EmbeddingMatrix(w.pre_norm_y))
        masked_dims = w.shared_ineffective if isinstance(mask, str) else mask
        cfg = TrainerConfig(learning_rate=lr, steps=steps, record_every=record_every,
                            renormalize_each_step=projected, gradient_form=form)
        res = train_contrastive(init, 0.07, cfg, masked_dims=masked_dims)
        want_x, want_y, want_records = ref_alloc_train(init, 0.07, cfg, masked_dims)
        assert _bitwise_equal(res.final.x.values, want_x)
        assert _bitwise_equal(res.final.y.values, want_y)
        got_records = [(r.step, r.loss, r.gap_full, r.gap_masked, r.masked_grad_max)
                       for r in res.trajectory]
        assert got_records == want_records
        assert got_records[-1][0] == steps

    def test_degenerating_projection_fails_at_the_reference_step(self):
        w = make_collapsed_init_world(n=16, d=12, dex=2, dey=4, seed=5)
        cfg = TrainerConfig(learning_rate=4.33e153, steps=60, record_every=5,
                            renormalize_each_step=True, gradient_form="exact")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError) as want:
                ref_alloc_train(w.pairs, 0.07, cfg, w.shared_ineffective)
            with pytest.raises(FloatingPointError) as got:
                train_contrastive(w.pairs, 0.07, cfg, masked_dims=w.shared_ineffective)
        assert "state degenerated at step" in str(want.value)
        assert str(got.value) == str(want.value)

    def test_public_helpers_never_share_buffers(self):
        batch = unit_batch(np.random.default_rng(12), 9, 5)
        arrays = []
        for _ in range(2):
            arrays += conditional_probs(batch)
            for g in (exact_gradients(batch), span_gradients(batch)):
                arrays += [g.grad_x, g.grad_y]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


def _record_workspace_widths(monkeypatch) -> list:
    """Widths of every ``_Workspace`` the trainer builds from now on."""
    widths = []

    class Recording(contrastive._Workspace):
        __slots__ = ()

        def __init__(self, n, d):
            widths.append(d)
            super().__init__(n, d)

    monkeypatch.setattr(contrastive, "_Workspace", Recording)
    return widths


class TestReducedExactProjectedTraining:
    """Exact projected descent in the unmasked columns plus a basis of the mask's block.

    On the small world (d=24, the block of 10 masked columns holding rank 2)
    the run is 16 columns wide. It must agree with the allocating d-column
    reference to rounding: scalars within 1e-13 relative, states within 1e-13.
    """

    TOL = 1e-13

    @staticmethod
    def world():
        return make_collapsed_init_world(n=48, d=24, dex=4, dey=10, seed=11)

    @staticmethod
    def cfg(lr=0.1, steps=60, record_every=20):
        return TrainerConfig(learning_rate=lr, steps=steps, record_every=record_every,
                             renormalize_each_step=True, gradient_form="exact")

    def test_agrees_with_the_allocating_reference(self, monkeypatch):
        widths = _record_workspace_widths(monkeypatch)
        w, cfg = self.world(), self.cfg()
        res = train_contrastive(w.pairs, 0.07, cfg, masked_dims=w.shared_ineffective)
        assert widths == [16]
        want_x, want_y, want_records = ref_alloc_train(w.pairs, 0.07, cfg, w.shared_ineffective)
        assert np.abs(res.final.x.values - want_x).max() <= self.TOL
        assert np.abs(res.final.y.values - want_y).max() <= self.TOL
        assert [rec[0] for rec in want_records] == [0, 20, 40, 60]
        fields = ("loss", "gap_full", "gap_masked", "masked_grad_max")
        for got, want in zip(res.trajectory, want_records, strict=True):
            assert got.step == want[0]
            for field, value in zip(fields, want[1:]):
                assert getattr(got, field) == pytest.approx(value, rel=self.TOL), field

    def test_last_record_loss_is_loss_of_final_state(self):
        w, cfg = self.world(), self.cfg(record_every=25)
        res = train_contrastive(w.pairs, 0.07, cfg, masked_dims=w.shared_ineffective)
        assert res.trajectory[0].loss == ref_loss(w.pairs.x.values, w.pairs.y.values, 0.07)
        want = ref_loss(res.final.x.values, res.final.y.values, 0.07)
        assert res.trajectory[-1].loss == pytest.approx(want, rel=self.TOL)

    def test_rotated_input_gives_the_rotated_trajectory(self, monkeypatch):
        # A rotation of the unmasked columns and one of the masked block keep
        # the block low-rank, so both runs are reduced, in different bases.
        w, cfg = self.world(), self.cfg()
        rng = np.random.default_rng(13)
        rot = np.zeros((24, 24))
        rot[:14, :14] = linalg._orthonormal_columns(rng, 14, 14)
        rot[14:, 14:] = linalg._orthonormal_columns(rng, 10, 10)
        rotated = PairedEmbeddings(x=EmbeddingMatrix(w.pairs.x.values @ rot, unit_norm=True),
                                   y=EmbeddingMatrix(w.pairs.y.values @ rot, unit_norm=True))
        widths = _record_workspace_widths(monkeypatch)
        a = train_contrastive(w.pairs, 0.07, cfg, masked_dims=w.shared_ineffective)
        b = train_contrastive(rotated, 0.07, cfg, masked_dims=w.shared_ineffective)
        assert widths == [16, 16]
        assert np.abs(a.final.x.values @ rot - b.final.x.values).max() <= self.TOL
        assert np.abs(a.final.y.values @ rot - b.final.y.values).max() <= self.TOL
        for ra, rb in zip(a.trajectory, b.trajectory, strict=True):
            assert ra.step == rb.step
            for field in ("loss", "gap_full", "gap_masked"):
                assert getattr(ra, field) == pytest.approx(getattr(rb, field), rel=self.TOL), field

    def test_degenerating_projection_fails_at_the_reference_step(self, monkeypatch):
        widths = _record_workspace_widths(monkeypatch)
        w, cfg = self.world(), self.cfg(lr=1e154, record_every=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError) as want:
                ref_alloc_train(w.pairs, 0.07, cfg, w.shared_ineffective)
            with pytest.raises(FloatingPointError) as got:
                train_contrastive(w.pairs, 0.07, cfg, masked_dims=w.shared_ineffective)
        assert widths == [16]
        assert str(want.value).startswith("state degenerated at step 2:")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("form,projected,lr,mask,width", [
        ("exact", True, 0.1, "world", 257),    # the long-running form
        ("span", False, 0.1, "world", 512),    # train-sim's default form
        ("span", True, 0.1, "world", 512),
        ("exact", False, 0.1, "world", 512),   # free rows
        ("exact", True, 0.1, [3, 300], 512),   # a block of full rank
    ])
    def test_workspace_width_on_the_collapsed_world(self, monkeypatch, form, projected, lr,
                                                    mask, width):
        w = make_collapsed_init_world(n=32, d=512, dex=25, dey=230, seed=0)
        init = w.pairs if projected else PairedEmbeddings(
            x=EmbeddingMatrix(w.pre_norm_x), y=EmbeddingMatrix(w.pre_norm_y))
        cfg = TrainerConfig(learning_rate=lr, steps=1, renormalize_each_step=projected,
                            gradient_form=form, record_every=100)
        widths = _record_workspace_widths(monkeypatch)
        train_contrastive(init, 0.07, cfg,
                          masked_dims=w.shared_ineffective if mask == "world" else mask)
        assert widths == [width]

    def test_block_rows_off_the_basis_beyond_rounding_keep_d_columns(self, monkeypatch):
        # A 1e-9 spread in the masked block falls below the eigenvalue cut, so
        # only the residual check can see that the rank-2 basis misses it.
        w = make_collapsed_init_world(n=32, d=512, dex=25, dey=230, seed=0)
        m = w.shared_ineffective
        noise = 1e-9 * np.random.default_rng(14).standard_normal((2, 32, m.size))
        sides = []
        for a, e in zip((w.pairs.x.values, w.pairs.y.values), noise):
            a = a.copy()
            a[:, m] += e
            sides.append(l2_normalize_rows(a))
        widths = _record_workspace_widths(monkeypatch)
        train_contrastive(PairedEmbeddings(x=sides[0], y=sides[1]), 0.07,
                          ONE_STEP, masked_dims=m)
        assert widths == [512]


class TestMaskedDimsChecked:
    @pytest.mark.parametrize("masked_dims,message", [
        ([], "non-empty 1-d array of integer"),
        (np.array([], dtype=np.intp), "non-empty 1-d array of integer"),
        ([[20, 21]], "non-empty 1-d array of integer"),
        ([20.0, 21.0], "non-empty 1-d array of integer"),
        ([True, False], "non-empty 1-d array of integer"),
        ([-1], r"must lie in \[0, 24\)"),
        ([20, 24], r"must lie in \[0, 24\)"),
    ])
    def test_bad_mask_rejected_before_the_first_step(self, monkeypatch, masked_dims, message):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the mask was checked")

        monkeypatch.setattr(contrastive, "_gradients", no_step)
        w = make_collapsed_init_world(n=16, d=24, dex=3, dey=8, seed=0)
        cfg = TrainerConfig(learning_rate=0.1, steps=2, renormalize_each_step=True,
                            record_every=100, gradient_form="exact")
        with pytest.raises(ValueError, match=message):
            train_contrastive(w.pairs, 0.07, cfg, masked_dims=masked_dims)


class TestTemperatureAndDeltaChecked:
    """One rule, "positive and finite", for every temperature and delta."""

    BAD = [-1.0, -0.07, 0.0, math.inf, math.nan]

    @pytest.mark.parametrize("tau", BAD)
    def test_trainer_rejects_tau_before_the_first_step(self, monkeypatch, tau):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before tau was checked")

        monkeypatch.setattr(contrastive, "_gradients", no_step)
        w = make_collapsed_init_world(n=16, d=24, dex=3, dey=8, seed=0)
        cfg = TrainerConfig(learning_rate=0.1, steps=50, renormalize_each_step=False,
                            record_every=100, gradient_form="exact")
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            train_contrastive(w.pairs, tau, cfg, masked_dims=w.shared_ineffective)

    @pytest.mark.parametrize("tau", BAD)
    def test_batch_rejects_tau(self, tau):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            unit_batch(np.random.default_rng(30), 3, 4, tau=tau)

    @pytest.mark.parametrize("tau,delta,name", [
        *[(tau, 0.01, "temperature") for tau in BAD],
        *[(0.07, delta, "delta") for delta in BAD],
    ])
    def test_threshold_rejects(self, tau, delta, name):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            stable_region_threshold([0.9, 0.1, -0.2], tau, delta)

    @pytest.mark.parametrize("delta", BAD)
    def test_anchor_kernel_rejects_delta(self, delta):
        batch = unit_batch(np.random.default_rng(31), 3, 4)
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            loss_bound_check(batch, 0, delta)
        sims = batch.pairs.x.values[0] @ batch.pairs.y.values.T
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            contrastive._anchor_reports(sims, 0, (0.07, 0.5), delta)
