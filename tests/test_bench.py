"""Cross-modal transfer benchmark tests."""

import math
import warnings

import numpy as np
import pytest

from gaplab import bench, c3
from gaplab.bench import (
    VARIANTS,
    AblationRow,
    gap_shift_sweep,
    in_modality_metric,
    make_toy_task,
    run_ablation,
    train_decoder,
)
from gaplab.c3 import C3Config, collapse, corrupt
from gaplab.linalg import l2_normalize_rows

STANDARD = dict(n=5000, d=64, gap_norm=0.83, sigma_align=0.05, span_dim=16)


def score_cell(task, variant, sigma, lam=1e-3, noise_seed=0):
    """The metric of one (variant, train sigma) cell, through the shared scorer."""
    return bench._seed_scores(task, [(variant, sigma)], lam, noise_seed)[0]


def ref_evaluate(task, variant, sigma, lam, noise_seed):
    """The per-cell transfer pipeline the shared scorer replaced, as a reference.

    Each cell resolves its own stages and draws fresh noise through
    ``corrupt``: collapse (c21, c3) then corrupt (c22, c22_span, c3) the
    train rows, collapse the test rows with their own mean when the train
    side is collapsed, unit-normalize both, fit the ridge decoder and score
    by nearest code.
    """
    collapsing = variant in ("c21", "c3")
    span = variant == "c22_span"
    y_train = task.pairs.y.values[task.train_idx]
    x_test = task.pairs.x.values[task.test_idx]
    train_rows = collapse(y_train, y_train.mean(axis=0)) if collapsing else y_train
    if variant in ("c22", "c22_span", "c3"):
        cfg = C3Config(sigma=sigma, mode="span_only" if span else "full",
                       gap_direction=task.gap_direction if span else None, seed=noise_seed)
        train_rows = corrupt(train_rows, cfg)
    test_rows = collapse(x_test, x_test.mean(axis=0)) if collapsing else x_test
    train_rows = l2_normalize_rows(train_rows).values
    test_rows = l2_normalize_rows(test_rows).values
    pred = train_decoder(train_rows, task.targets[task.train_idx], lam).predict(test_rows)
    guess = ((pred[:, None, :] - task.codes[None, :, :]) ** 2).sum(axis=-1).argmin(axis=1)
    return float((guess == task.labels[task.test_idx]).mean())


def gradient_descent_ridge(x, t, lam, steps=60_000, lr=None):
    """Iterative oracle for the ridge solution on centered data."""
    xm = x.mean(axis=0)
    tm = t.mean(axis=0)
    xc = x - xm
    tc = t - tm
    w = np.zeros((x.shape[1], t.shape[1]))
    h = xc.T @ xc + lam * np.eye(x.shape[1])
    if lr is None:
        lr = 1.0 / np.linalg.eigvalsh(h).max()
    g_target = xc.T @ tc
    for _ in range(steps):
        w -= lr * (h @ w - g_target)
    return w, tm - xm @ w


class TestToyTask:
    def test_deterministic(self):
        a = make_toy_task(seed=3, **STANDARD)
        b = make_toy_task(seed=3, **STANDARD)
        np.testing.assert_array_equal(a.pairs.x.values, b.pairs.x.values)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    def test_zero_gap_zero_noise_identical_modalities(self):
        t = make_toy_task(n=200, d=32, gap_norm=0.0, sigma_align=0.0, seed=0, span_dim=16)
        np.testing.assert_array_equal(t.pairs.x.values, t.pairs.y.values)

    def test_split_disjoint(self):
        t = make_toy_task(seed=1, **STANDARD)
        assert len(np.intersect1d(t.train_idx, t.test_idx)) == 0
        assert len(t.train_idx) + len(t.test_idx) == t.pairs.n

    def test_classes_linearly_separable_in_modality(self):
        for seed in range(3):
            assert in_modality_metric(make_toy_task(seed=seed, **STANDARD)) >= 0.99

    def test_targets_are_class_codes(self):
        t = make_toy_task(n=200, d=32, seed=2, span_dim=16)
        assert (t.targets == t.codes[t.labels]).all()

    @pytest.mark.parametrize("latent", [("regression", 4), ("classification", 3)])
    def test_only_classification_latents(self, latent):
        with pytest.raises(ValueError, match="latent kind|4 classes"):
            bench.LatentSpec(*latent)

    @pytest.mark.parametrize("span_dim", [17, 0])
    def test_span_dim_must_fit(self, span_dim):
        with pytest.raises(ValueError, match=rf"span_dim must be in \[1, 16\], got {span_dim}"):
            make_toy_task(n=200, d=16, span_dim=span_dim, gap_norm=0.0)

    def test_gap_needs_orthogonal_room(self):
        with pytest.raises(ValueError, match="span_dim"):
            make_toy_task(n=100, d=16, span_dim=16, gap_norm=0.5, sigma_align=0.0)

    def test_gap_geometry(self):
        t = make_toy_task(seed=4, **STANDARD)
        # gap direction orthogonal to the span, gap present in the mean difference
        np.testing.assert_allclose(t.span_basis.T @ t.gap_direction, 0.0, atol=1e-10)
        diff = t.pairs.x.values.mean(axis=0) - t.pairs.y.values.mean(axis=0)
        assert diff @ t.gap_direction == pytest.approx(0.83, abs=0.01)


class TestRidgeDecoder:
    def test_exact_linear_targets(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((300, 10))
        w_true = rng.standard_normal((10, 3))
        t = x @ w_true + rng.standard_normal(3)
        dec = train_decoder(x, t, lam=1e-8)
        assert ((dec.predict(x) - t) ** 2).mean() < 1e-6

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((80, 6))
        t = rng.standard_normal((80, 2))
        dec = train_decoder(x, t, lam=0.5)
        w, b = gradient_descent_ridge(x, t, lam=0.5)
        assert np.abs(dec.weights - w).max() < 1e-4
        assert np.abs(dec.bias - b).max() < 1e-4

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 5))
        t = rng.standard_normal((50, 2))
        perm = rng.permutation(50)
        a = train_decoder(x, t, lam=0.1)
        b = train_decoder(x[perm], t[perm], lam=0.1)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-10)
        np.testing.assert_allclose(a.bias, b.bias, atol=1e-10)

    def test_linear_readout_blind_to_orthogonal_shift(self):
        # why decoder inputs are unit-normalized: a ridge map fitted on rows
        # inside the span maps any shift orthogonal to it to nothing
        t = make_toy_task(seed=6, **STANDARD)
        dec = train_decoder(t.pairs.y.values[t.train_idx], t.targets[t.train_idx], lam=1e-3)
        x_test = t.pairs.x.values[t.test_idx]
        pred = dec.predict(x_test)
        scale = np.abs(pred).max()
        for c in (0.5, 2.0):
            shifted = dec.predict(x_test + c * t.gap_direction)
            assert np.abs(shifted - pred).max() <= 1e-9 * scale

    def test_zero_penalty_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            train_decoder(np.ones((3, 2)), np.ones((3, 1)), lam=0.0)

    def test_one_dimensional_inputs_rejected(self):
        with pytest.raises(ValueError) as err:
            train_decoder(np.ones(10), np.ones(10), lam=1e-3)
        assert str(err.value) == "expected a 2-d matrix, got shape (10,)"

    @pytest.mark.parametrize("targets", [np.ones((0, 2)), np.ones((4, 2))])
    def test_zero_rows_rejected_before_any_mean(self, targets):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "Mean of empty slice" on the way
            with pytest.raises(ValueError) as err:
                train_decoder(np.ones((0, 3)), targets, lam=1e-3)
        assert str(err.value) == "train_decoder needs at least one input row, got shape (0, 3)"


class TestScorer:
    """The nearest-code scorer adds each code's m squared-difference terms
    left to right, the bits of a plain float sum, at every summation length."""

    @pytest.mark.parametrize("m", [1, 4, 7, 8, 9, 10, 16, 17, 127, 128, 129, 300])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_distances_equal_a_left_to_right_sum(self, m, scale):
        rng = np.random.default_rng(m)
        pred = scale * rng.standard_normal((203, m))
        codes = rng.standard_normal((11, m))
        want = np.empty((11, 203))
        for k, c in enumerate(codes.tolist()):
            for i, p in enumerate(pred.tolist()):
                s = (p[0] - c[0]) * (p[0] - c[0])
                for j in range(1, m):
                    t = p[j] - c[j]
                    s += t * t
                want[k, i] = s
        got = bench._code_distances(pred, codes)
        assert got.shape == (11, 203)
        assert np.array_equal(got, want)

    def test_accuracy_equals_the_broadcast_argmin(self):
        for seed in range(20):
            task = make_toy_task(n=400, d=32, seed=seed)
            x = task.pairs.x.values
            dec = train_decoder(l2_normalize_rows(x[task.train_idx]).values,
                                task.targets[task.train_idx], lam=1e-3)
            pred = dec.predict(l2_normalize_rows(x[task.test_idx]).values)
            d2 = ((pred[:, None, :] - task.codes[None]) ** 2).sum(axis=-1)
            want = float((d2.argmin(axis=1) == task.labels[task.test_idx]).mean())
            assert bench._metric(task, pred) == want

    @pytest.mark.parametrize("m", [4, 10, 40, 150])
    def test_tie_goes_to_the_first_code(self, m):
        rng = np.random.default_rng(3)
        codes = rng.standard_normal((6, m))
        codes[4] = codes[1]
        pred = codes[1] + 0.01 * rng.standard_normal((50, m))
        d2 = bench._code_distances(pred, codes)
        assert np.array_equal(d2[1], d2[4])
        assert list(d2.argmin(axis=0)) == [1] * 50


class TestEvaluate:
    def test_clean_task_all_variants_equal(self):
        t = make_toy_task(n=2000, d=64, gap_norm=0.0, sigma_align=0.0, seed=0, span_dim=16)
        vals = [score_cell(t, v, 0.01, noise_seed=3)
                for v in ("c1", "c21", "c22", "c22_span", "c3")]
        assert max(vals) - min(vals) <= 0.01

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_span_only_needs_a_gap_direction(self, sigma):
        t = make_toy_task(n=200, d=16, span_dim=16, gap_norm=0.0, sigma_align=0.0, seed=0)
        assert t.gap_direction is None
        with pytest.raises(ValueError, match="gap_direction"):
            score_cell(t, "c22_span", sigma)

    def test_deterministic(self):
        t = make_toy_task(seed=5, **STANDARD)
        a = score_cell(t, "c3", 0.05, noise_seed=11)
        b = score_cell(t, "c3", 0.05, noise_seed=11)
        assert a == b

    def test_no_transfer_beats_in_modality(self):
        for seed in range(5):
            t = make_toy_task(seed=seed, **STANDARD)
            own = in_modality_metric(t)
            for variant in ("c1", "c21", "c22", "c22_span", "c3"):
                assert own >= score_cell(t, variant, 0.05, noise_seed=100 + seed)


class TestAblation:
    def test_ordering_and_sigma_sweep(self):
        rows = run_ablation(task_kwargs=STANDARD, seeds=(0, 1, 2))
        by = {r.variant: r for r in rows}
        assert by["c3"].mean >= by["c21"].mean
        assert by["c3"].mean >= by["c22"].mean >= by["c1"].mean
        assert by["c3"].mean - by["c1"].mean >= 0.1
        assert by["c1"].train_sigma == 0.0  # sweep only touches corrupting variants
        assert by["c22"].train_sigma in (0.01, 0.05, 0.1, 0.2)

    def test_bit_identical_to_reference_pipeline(self):
        kwargs = dict(n=600, d=32, gap_norm=0.83, sigma_align=0.05, span_dim=16)
        seeds, grid = (0, 1, 2), (0.01, 0.05, 0.2)
        tasks = [make_toy_task(seed=s, **kwargs) for s in seeds]
        for variant in VARIANTS:
            for sigma in (0.0,) + grid:
                assert score_cell(tasks[0], variant, sigma, 1e-3, noise_seed=7) == \
                    ref_evaluate(tasks[0], variant, sigma, 1e-3, noise_seed=7)
        expected = []
        for variant in VARIANTS:
            best = None
            for sigma in grid if variant in ("c22", "c22_span", "c3") else (0.0,):
                vals = np.array([ref_evaluate(t, variant, sigma, 1e-3, noise_seed=1000 + s)
                                 for t, s in zip(tasks, seeds)])
                mean = float(vals.mean())
                if best is None or mean > best[1]:
                    best = (sigma, mean, float(vals.std()))
            expected.append(AblationRow(variant, best[0], best[1], best[2], len(seeds)))
        assert run_ablation(task_kwargs=kwargs, seeds=seeds, sigma_grid=grid) == expected

    def test_empty_sigma_grid_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            run_ablation(task_kwargs={}, sigma_grid=(), seeds=(0, 1, 2, 3, 4))

    @pytest.mark.parametrize("kwargs,grid,message", [
        (dict(n=200, d=16, span_dim=16, gap_norm=0.0, sigma_align=0.0), bench.SIGMA_GRID,
         "c22_span needs a gap direction: span_dim must be < d, got span_dim=16, d=16"),
        (dict(n=200, d=32, span_dim=16), (0.05, -0.1),
         "sigma_grid entry must be finite and >= 0, got -0.1"),
        (dict(n=200, d=32, span_dim=16), (math.nan,),
         "sigma_grid entry must be finite and >= 0, got nan"),
    ])
    def test_fails_before_any_cell_is_scored(self, monkeypatch, kwargs, grid, message):
        scored = []
        monkeypatch.setattr(bench, "_seed_scores", lambda *a: scored.append(a))
        with pytest.raises(ValueError) as exc:
            run_ablation(task_kwargs=kwargs, seeds=(0,), sigma_grid=grid)
        assert str(exc.value) == message
        assert scored == []

    def test_noise_drawn_once_per_seed(self, monkeypatch):
        calls = []
        unit_noise = c3._unit_noise
        # bench calls c3's kernel through the name it imported
        monkeypatch.setattr(bench, "_unit_noise", lambda *a: calls.append(a) or unit_noise(*a))
        kwargs = dict(n=400, d=32, gap_norm=0.83, sigma_align=0.05, span_dim=16)
        seeds = (0, 1, 2)
        run_ablation(task_kwargs=kwargs, seeds=seeds)
        n_train = len(make_toy_task(seed=0, **kwargs).train_idx)
        # one draw of every train row per seed, not x 3 variants x 4 sigmas
        assert calls == [(1000 + s, n_train, 32) for s in seeds]

    def test_in_modality_scored_on_the_ablation_tasks(self, monkeypatch):
        kwargs = dict(n=400, d=32, gap_norm=0.83, sigma_align=0.05, span_dim=16)
        seeds = (0, 1, 2)
        expected = [in_modality_metric(make_toy_task(seed=s, **kwargs), 1e-3) for s in seeds]
        rows = run_ablation(task_kwargs=kwargs, seeds=seeds)
        built = []
        make = bench.make_toy_task
        monkeypatch.setattr(bench, "make_toy_task", lambda **kw: built.append(kw["seed"]) or make(**kw))
        assert bench._ablation(kwargs, seeds, bench.SIGMA_GRID, 1e-3,
                               in_modality=True) == (rows, expected)
        assert built == list(seeds)
        assert bench._ablation(kwargs, seeds, bench.SIGMA_GRID, 1e-3) == (rows, [])


class TestShiftSweep:
    def test_zero_shift_matches_plain_evaluation(self):
        t = make_toy_task(n=2000, d=64, gap_norm=0.0, sigma_align=0.05, seed=7, span_dim=16)
        curve = gap_shift_sweep(t, [0.0])
        direct = score_cell(t, "c1", 0.0)
        assert abs(curve[0][1] - direct) <= 1e-10

    def test_monotone_degradation(self):
        t = make_toy_task(n=4000, d=64, gap_norm=0.0, sigma_align=0.05, seed=8, span_dim=16)
        curve = gap_shift_sweep(t, [0.0, 0.5, 1.0, 1.5, 2.0, 5.0])
        vals = [m for _, m in curve]
        assert all(b <= a + 0.01 for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 0.2  # chance is 0.1 for ten classes

    def test_unsorted_shifts_rejected(self):
        t = make_toy_task(n=200, d=32, gap_norm=0.0, sigma_align=0.0, seed=0, span_dim=16)
        with pytest.raises(ValueError, match="sorted"):
            gap_shift_sweep(t, [1.0, 0.5])

    @pytest.mark.parametrize("shifts,message", [
        ([0.0, math.nan], "shift norm must be finite and >= 0, got nan"),
        ([math.nan, 0.0], "shift norm must be finite and >= 0, got nan"),
        ([0.0, math.inf], "shift norm must be finite and >= 0, got inf"),
        ([-1.0, 0.0], "shift norm must be finite and >= 0, got -1.0"),
    ])
    def test_non_finite_or_negative_shift_rejected(self, shifts, message):
        t = make_toy_task(n=200, d=32, gap_norm=0.0, sigma_align=0.0, seed=0, span_dim=16)
        with pytest.raises(ValueError) as exc:
            gap_shift_sweep(t, shifts)
        assert str(exc.value) == message

    def test_full_span_task_has_no_orthogonal_direction(self):
        t = make_toy_task(n=200, d=16, span_dim=16, gap_norm=0.0, sigma_align=0.0, seed=0)
        with pytest.raises(ValueError, match="orthogonal"):
            gap_shift_sweep(t, [0.0, 1.0])
