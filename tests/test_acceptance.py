"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Every expected value is either asserted directly from an arithmetic fact,
computed here by an independent oracle (finite differences, brute-force
formula evaluation), or checked against a band established analytically.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from gaplab.bench import gap_shift_sweep, in_modality_metric, make_toy_task, run_ablation
from gaplab.cli import main as cli_main
from gaplab.contrastive import (
    ContrastiveBatch,
    TrainerConfig,
    conditional_probs,
    exact_gradients,
    loss_bound_check,
    span_gradients,
    stable_region_threshold,
    train_contrastive,
)
from gaplab.embio import read_mmeb, write_mmeb
from gaplab.geometry import group_statistics, masked_gap_distance
from gaplab.linalg import (
    EmbeddingMatrix,
    PairedEmbeddings,
    covariance,
    l2_normalize_rows,
    spectral_summary,
)
from gaplab.worlds import (
    MlpSimConfig,
    make_collapsed_init_world,
    make_gap_world,
    mlp_collapse_sim,
)

TAUS = (0.01, 0.07, 0.5)
RANK_GAMMA = 1.0 - 1e-9


def announce(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def direct_loss(x, y, tau):
    """Plain-formula objective; no shared code with the library internals."""
    z = x @ y.T / tau
    n = x.shape[0]
    row = np.log(np.exp(z).sum(axis=1))
    col = np.log(np.exp(z).sum(axis=0))
    return float(-(2.0 * np.diag(z) - row - col).sum() / (2.0 * n))


def fd_gradients(x, y, tau, h=1e-5):
    gx = np.zeros_like(x)
    gy = np.zeros_like(y)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            gx[i, j] = (direct_loss(xp, y, tau) - direct_loss(xm, y, tau)) / (2 * h)
            yp, ym = y.copy(), y.copy()
            yp[i, j] += h
            ym[i, j] -= h
            gy[i, j] = (direct_loss(x, yp, tau) - direct_loss(x, ym, tau)) / (2 * h)
    return gx, gy


def scale_relative(approx, exact):
    return float(np.abs(approx - exact).max() / max(np.abs(exact).max(), 1e-12))


@pytest.fixture(scope="module")
def random_batches():
    rng = np.random.default_rng(2024)
    batches = []
    for b in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        tau = TAUS[b % len(TAUS)]
        x = l2_normalize_rows(rng.standard_normal((n, d)))
        y = l2_normalize_rows(rng.standard_normal((n, d)))
        batches.append(ContrastiveBatch(PairedEmbeddings(x=x, y=y), tau=tau))
    return batches


def test_criterion_1_gradients_match_finite_differences(random_batches):
    start = time.monotonic()
    worst = 0.0
    for batch in random_batches:
        g = exact_gradients(batch)
        fdx, fdy = fd_gradients(batch.pairs.x.values, batch.pairs.y.values, batch.tau)
        worst = max(worst, scale_relative(fdx, g.grad_x), scale_relative(fdy, g.grad_y))
    elapsed = time.monotonic() - start
    announce(
        1,
        worst < 1e-5 and elapsed < 10.0,
        f"max relative gradient error {worst:.3e} (< 1e-5) over 100 batches, "
        f"tau in {TAUS}, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_span_form_identity(random_batches):
    worst = 0.0
    for batch in random_batches:
        lam = 1.0 / (2.0 * batch.n * batch.tau)
        p_xy, p_yx = conditional_probs(batch)
        g_exact = exact_gradients(batch)
        g_span = span_gradients(batch)
        corr_x = lam * (1.0 - p_xy.sum(axis=1))[:, None] * batch.pairs.y.values
        corr_y = lam * (1.0 - p_yx.sum(axis=1))[:, None] * batch.pairs.x.values
        worst = max(
            worst,
            float(np.abs(g_span.grad_x - g_exact.grad_x - corr_x).max()),
            float(np.abs(g_span.grad_y - g_exact.grad_y - corr_y).max()),
        )
    eye = EmbeddingMatrix(np.eye(5), unit_norm=True)
    sym = ContrastiveBatch(PairedEmbeddings(x=eye, y=eye), tau=0.3)
    coincide = max(
        float(np.abs(span_gradients(sym).grad_x - exact_gradients(sym).grad_x).max()),
        float(np.abs(span_gradients(sym).grad_y - exact_gradients(sym).grad_y).max()),
    )
    announce(
        2,
        worst <= 1e-10 and coincide <= 1e-10,
        f"span-minus-exact equals the marginal correction within {worst:.2e} (<= 1e-10); "
        f"symmetric configuration coincidence {coincide:.2e} (<= 1e-10)",
    )


def test_criterion_3_initialization_numbers():
    start = time.monotonic()
    fulls, maskeds = [], []
    for seed in range(5):
        w = make_collapsed_init_world(seed=seed)
        fulls.append(masked_gap_distance(w.pairs, np.arange(512)))
        maskeds.append(masked_gap_distance(w.pairs, w.shared_ineffective))
    w0 = make_collapsed_init_world(seed=0)
    dim_x = spectral_summary(covariance(w0.pre_norm_x), RANK_GAMMA).effective_dim
    dim_y = spectral_summary(covariance(w0.pre_norm_y), RANK_GAMMA).effective_dim
    dim_x_99 = spectral_summary(covariance(w0.pre_norm_x), 0.99).effective_dim
    full = float(np.mean(fulls))
    masked = float(np.mean(maskeds))
    elapsed = time.monotonic() - start
    announce(
        3,
        abs(full - 1.21) <= 0.1 and abs(masked - 0.99) <= 0.1
        and dim_x == 25 and dim_y == 230 and dim_x_99 == 25 and elapsed < 5.0,
        f"5-seed mean gaps {full:.3f} (1.21 +- 0.1) / {masked:.3f} (0.99 +- 0.1); "
        f"pre-normalization effective dims {dim_x}/{dim_y} (exactly 25/230), "
        f"{elapsed:.1f}s (< 5s)",
    )


@pytest.mark.slow
def test_criterion_4_gap_preserved_under_scaled_training():
    start = time.monotonic()
    w = make_collapsed_init_world(n=256, seed=0)
    init = PairedEmbeddings(
        x=EmbeddingMatrix(w.pre_norm_x), y=EmbeddingMatrix(w.pre_norm_y)
    )
    cfg = TrainerConfig(
        learning_rate=0.1,
        steps=20_000,
        record_every=100,
        renormalize_each_step=False,
        gradient_form="span",
    )
    res = train_contrastive(init, 0.07, cfg, masked_dims=w.shared_ineffective)
    elapsed = time.monotonic() - start
    max_masked_grad = max(r.masked_grad_max for r in res.trajectory)
    final_loss = res.trajectory[-1].loss
    final_gap = res.trajectory[-1].gap_masked
    announce(
        4,
        max_masked_grad == 0.0 and final_loss < 0.01
        and 0.7 <= final_gap <= 1.1 and elapsed < 600.0,
        f"masked gradient entries all exactly 0.0 at every recorded step "
        f"(max {max_masked_grad!r}); final loss {final_loss:.2e} (< 0.01); "
        f"masked gap {final_gap:.3f} in [0.7, 1.1]; {elapsed:.0f}s (< 600s)",
    )


def test_criterion_5_stable_region_bound():
    rng = np.random.default_rng(7)
    violations = 0
    mono_failures = 0
    done = 0
    while done < 1000:
        x = l2_normalize_rows(rng.standard_normal((8, 16)))
        y = l2_normalize_rows(rng.standard_normal((8, 16)))
        pairs = PairedEmbeddings(x=x, y=y)
        for i in range(8):
            if done >= 1000:
                break
            sims = x.values[i] @ y.values.T
            negatives = np.delete(sims, i)
            thresholds = []
            for tau in TAUS:
                rep = loss_bound_check(ContrastiveBatch(pairs, tau), i, delta=0.01)
                if rep.loss_i > rep.bound:
                    violations += 1
                thresholds.append(stable_region_threshold(negatives, tau, 0.01))
            if any(b < a for a, b in zip(thresholds, thresholds[1:])):
                mono_failures += 1
            done += 1
    announce(
        5,
        violations == 0 and mono_failures == 0,
        f"anchor loss within the crowding bound on {done} instances "
        f"({violations} violations); threshold non-decreasing in tau "
        f"({mono_failures} failures)",
    )


def test_criterion_6_gap_statistics_recovery():
    start = time.monotonic()
    w = make_gap_world(n=10_000, d=512, span_dim=64, gap_norm=0.83, sigma=0.05, seed=0)
    rep = group_statistics(w.pairs, group_size=100, seed=0)
    elapsed = time.monotonic() - start
    ok = (
        abs(rep.gap_length[0] - 0.83) <= 0.02
        and rep.gap_direction[0] >= 0.98
        and abs(rep.gap_orthogonality[0]) <= 0.02
        and abs(rep.noise_mean[0]) <= 1e-3
        and abs(rep.noise_direction[0]) <= 0.03
        and elapsed < 30.0
    )
    announce(
        6,
        ok,
        f"gap length {rep.gap_length[0]:.4f} (0.83 +- 0.02), direction "
        f"{rep.gap_direction[0]:.4f} (>= 0.98), orthogonality "
        f"{rep.gap_orthogonality[0]:+.4f} (|.| <= 0.02), noise mean "
        f"{rep.noise_mean[0]:+.1e} (|.| <= 1e-3), noise direction "
        f"{rep.noise_direction[0]:+.4f} (|.| <= 0.03); {elapsed:.1f}s (< 30s)",
    )


def test_criterion_7_mlp_dimensional_collapse():
    start = time.monotonic()
    eff = {}
    cone = {}
    for seed in range(5):
        probes = mlp_collapse_sim(MlpSimConfig(depth=20, width=512, n_inputs=1000,
                                               probe_stride=5, seed=seed))
        for p in probes:
            if p.layer > 0:
                eff.setdefault(p.layer, []).append(p.effective_dim)
                cone.setdefault(p.layer, []).append(p.cone_mean)
    layers = sorted(eff)
    eff_means = [float(np.mean(eff[l])) for l in layers]
    cone_means = [float(np.mean(cone[l])) for l in layers]
    elapsed = time.monotonic() - start
    ok = (
        layers == [5, 10, 15, 20]
        and all(b <= a for a, b in zip(eff_means, eff_means[1:]))
        and all(b > a for a, b in zip(cone_means, cone_means[1:]))
        and all(c > 0 for c in cone_means)
        and elapsed < 60.0
    )
    announce(
        7,
        ok,
        f"effective dims {[round(e, 1) for e in eff_means]} non-increasing; "
        f"cone means {[round(c, 3) for c in cone_means]} strictly increasing and "
        f"positive; {elapsed:.1f}s (< 60s)",
    )


def test_criterion_8_ablation_ordering():
    start = time.monotonic()
    rows = run_ablation(
        task_kwargs=dict(n=5000, d=64, gap_norm=0.83, sigma_align=0.05, span_dim=16),
        seeds=(0, 1, 2, 3, 4),
    )
    by = {r.variant: r for r in rows}
    c1, c21, c22, span, c3 = (by[v].mean for v in ("c1", "c21", "c22", "c22_span", "c3"))
    elapsed = time.monotonic() - start
    ok = (
        c3 >= c21
        and c3 >= c22 >= c1
        and c3 - c1 >= 0.1
        and abs(span - c21) <= 0.05
        and elapsed < 60.0
    )
    announce(
        8,
        ok,
        f"c1={c1:.3f} c21={c21:.3f} c22={c22:.3f} span={span:.3f} c3={c3:.3f}; "
        f"c3>=c21, c3>=c22>=c1, c3-c1={c3 - c1:.3f} (>= 0.1), |span-c21|="
        f"{abs(span - c21):.3f} (<= 0.05); {elapsed:.0f}s (< 60s)",
    )


def test_criterion_9_gap_shift_monotonicity():
    shifts = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    curves = []
    for seed in range(5):
        task = make_toy_task(n=5000, d=64, gap_norm=0.0, sigma_align=0.05,
                             span_dim=16, seed=seed)
        curves.append([m for _, m in gap_shift_sweep(task, shifts)])
    means = np.asarray(curves).mean(axis=0)
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a + 0.01)
    ok = inversions <= 1 and means[-1] <= 0.5 * means[0]
    announce(
        9,
        ok,
        f"metric falls {means[0]:.3f} -> {means[-1]:.3f} over shift 0..2 "
        f"({inversions} inversions > 0.01 allowed at most 1; end <= half of start)",
    )


def test_criterion_10_determinism_and_io(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"instances": 200}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = cli_main(["stable-region", "--config", str(config), "--out", str(out_a), "--seed", "3"])
    rc_b = cli_main(["stable-region", "--config", str(config), "--out", str(out_b), "--seed", "3"])
    bytes_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
    bytes_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
    reports_identical = rc_a == rc_b == 0 and bytes_a == bytes_b

    rng = np.random.default_rng(10)
    matrix = rng.standard_normal((1000, 512)).astype(np.float32).astype(np.float64)
    path = tmp_path / "big.mmeb"
    write_mmeb(matrix, str(path))
    round_trip = bool(np.array_equal(read_mmeb(str(path)).values, matrix))
    announce(
        10,
        reports_identical and round_trip,
        f"same config+seed reports byte-identical: {reports_identical}; "
        f"1000x512 MMEB round trip bit-exact: {round_trip}",
    )


def test_transfer_never_beats_in_modality():
    # supporting invariant for the bench: no cross-modal variant outscores
    # training and testing inside the same modality
    task_kwargs = dict(n=5000, d=64, gap_norm=0.83, sigma_align=0.05, span_dim=16)
    own = float(np.mean([in_modality_metric(make_toy_task(seed=s, **task_kwargs))
                         for s in range(5)]))
    rows = run_ablation(task_kwargs=task_kwargs, seeds=(0, 1, 2, 3, 4))
    best_transfer = max(r.mean for r in rows)
    assert own >= best_transfer
