"""The shared pair sampler, pair cosines and crowding sum reproduce the
per-module implementations they replaced.

The references below are those implementations, copied verbatim: the
within-group pair sampler and row-wise cosines of ``geometry``, the
normalize-then-dot ``mean_pairwise_cosine`` of ``linalg``, the grouped
statistics loop built on them, and the inline margin and crowding sum of
``loss_bound_check``. Everything that does not take a cosine of a gap
vector or a normalized row matches bit for bit; gap orthogonality (one
dot with the gap vector per row now) and the pairwise cosines (row norms divided out after the dot
product now) may move by rounding, at most 1e-15.

``TestBlockedGathersMatchUnblocked`` holds the pair cosines, the grouped
statistics and the MLP forward as they were before pair rows were gathered
in cache-sized blocks (one gather of every pair, ``np.maximum`` into a new
array), and requires the blocked code to match them bit for bit, also with
the block shrunk to one row and to a row count that divides no pair count.
Gap orthogonality's dot products are a per-row einsum, in the reference as
in the code, so it too matches at every block size.
"""

import math

import numpy as np
import pytest

from gaplab import linalg
from gaplab.contrastive import ContrastiveBatch, loss_bound_check, stable_region_threshold
from gaplab.geometry import GapReport, PairGroups, group_pairs, group_statistics
from gaplab.linalg import (EmbeddingMatrix, PairedEmbeddings, _index_pairs, covariance,
                           l2_normalize_rows, mean_pairwise_cosine, spectral_summary)
from gaplab.worlds import MlpSimConfig, make_gap_world, mlp_collapse_sim

ZERO_VECTOR_TOL = 1e-12
MAX_PAIRS = 10_000  # the row pairs mean_pairwise_cosine enumerates before it samples


def ref_sample_index_pairs(rng, g, wanted):
    total = g * (g - 1) // 2
    if total <= wanted:
        iu = np.triu_indices(g, k=1)
        return iu[0], iu[1]
    j = rng.integers(0, g, size=wanted)
    k = rng.integers(0, g - 1, size=wanted)
    k = np.where(k >= j, k + 1, k)
    return j, k


def ref_cosines(a, b):
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > ZERO_VECTOR_TOL) & (nb > ZERO_VECTOR_TOL)
    vals = np.einsum("ij,ij->i", a[ok], b[ok]) / (na[ok] * nb[ok])
    return np.clip(vals, -1.0, 1.0), int((~ok).sum())


def ref_mean_std(v):
    if v.size == 0:
        return (0.0, 0.0)
    return (float(np.mean(v)), float(np.std(v)))


def ref_group_statistics(groups, pairs_per_group=1000, seed=0):
    x = groups.source.x.values
    y = groups.source.y.values
    rng = np.random.default_rng(seed)
    gap_vectors, gap_lengths, ortho_vals, noise_dir_vals = [], [], [], []
    eps_sum = np.zeros(x.shape[1])
    eps_count = 0
    skipped = 0
    for idx in groups.groups:
        gx = x[idx]
        diffs = gx - y[idx]
        d_i = diffs.mean(axis=0)
        gap_vectors.append(d_i)
        gap_lengths.append(np.linalg.norm(d_i))
        eps = diffs - d_i
        eps_sum += eps.sum(axis=0)
        eps_count += eps.shape[0]
        g = len(idx)
        j, k = ref_sample_index_pairs(rng, g, pairs_per_group)
        r = gx[j] - gx[k]
        vals, miss = ref_cosines(np.broadcast_to(d_i, r.shape), r)
        ortho_vals.append(vals)
        skipped += miss
        j, k = ref_sample_index_pairs(rng, g, pairs_per_group)
        vals, miss = ref_cosines(eps[j], eps[k])
        noise_dir_vals.append(vals)
        skipped += miss
    gap_vectors = np.asarray(gap_vectors)
    iu = np.triu_indices(len(groups.groups), k=1)
    dir_vals, miss = ref_cosines(gap_vectors[iu[0]], gap_vectors[iu[1]])
    skipped += miss
    return GapReport(
        gap_length=ref_mean_std(np.asarray(gap_lengths)),
        gap_direction=ref_mean_std(dir_vals),
        gap_orthogonality=ref_mean_std(np.concatenate(ortho_vals)),
        noise_mean=ref_mean_std(eps_sum / eps_count),
        noise_direction=ref_mean_std(np.concatenate(noise_dir_vals)),
        n_groups=len(groups.groups),
        group_size=groups.group_size,
        skipped_zero_pairs=skipped,
    )


def ref_mean_pairwise_cosine(m, seed=0):
    a = np.asarray(m, dtype=np.float64)
    n = a.shape[0]
    norms = np.linalg.norm(a, axis=1)
    unit = a / norms[:, None]
    total = n * (n - 1) // 2
    if total <= MAX_PAIRS:
        g = unit @ unit.T
        iu = np.triu_indices(n, k=1)
        vals = g[iu]
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=MAX_PAIRS)
        j = rng.integers(0, n - 1, size=MAX_PAIRS)
        j = np.where(j >= i, j + 1, j)
        vals = np.einsum("ij,ij->i", unit[i], unit[j])
    vals = np.clip(vals, -1.0, 1.0)
    return float(vals.mean()), float(vals.std())


def ref_loss_bound_check(batch, i, delta):
    sims = batch.pairs.x.values[i] @ batch.pairs.y.values.T
    negatives = np.delete(sims, i)
    top = negatives.max()
    r = float(sims[i] - top)
    o_prime = 1.0 + float(np.exp((np.delete(negatives, np.argmax(negatives)) - top) / batch.tau).sum())
    o = int(math.ceil(o_prime))
    decay = np.exp(-r / batch.tau)
    loss_i = float(np.log1p(o_prime * decay))
    bound = float(np.log1p(o * decay))
    return loss_i, bound, r, o, bool(loss_i <= delta)


def ref_unblocked_pair_cosines(rows, j, k, tol=0.0):
    norms = np.linalg.norm(rows, axis=1)
    ok = (norms[j] > tol) & (norms[k] > tol)
    j, k = j[ok], k[ok]
    vals = np.einsum("ij,ij->i", rows[j], rows[k]) / (norms[j] * norms[k])
    return np.clip(vals, -1.0, 1.0), int(ok.size - j.size)


def ref_unblocked_mean_pairwise_cosine(a, seed=0):
    pairs = ref_sample_index_pairs(np.random.default_rng(seed), a.shape[0], MAX_PAIRS)
    vals, _ = ref_unblocked_pair_cosines(a, *pairs)
    return float(vals.mean()), float(vals.std())


def ref_unblocked_group_statistics(groups, pairs_per_group=1000, seed=0):
    x = groups.source.x.values
    y = groups.source.y.values
    rng = np.random.default_rng(seed)
    gap_vectors, gap_lengths, ortho_vals, noise_dir_vals = [], [], [], []
    eps_sum = np.zeros(x.shape[1])
    eps_count = 0
    skipped = 0
    for idx in groups.groups:
        gx = x[idx]
        diffs = gx - y[idx]
        d_i = diffs.mean(axis=0)
        length = np.linalg.norm(d_i)
        gap_vectors.append(d_i)
        gap_lengths.append(length)
        eps = diffs - d_i
        eps_sum += eps.sum(axis=0)
        eps_count += eps.shape[0]
        j, k = ref_sample_index_pairs(rng, len(idx), pairs_per_group)
        r = gx[j] - gx[k]
        r_norms = np.linalg.norm(r, axis=1)
        ok = (r_norms > ZERO_VECTOR_TOL) & (length > ZERO_VECTOR_TOL)
        r_dots = np.einsum("ij,j->i", r, d_i)
        ortho_vals.append(np.clip(r_dots[ok] / (r_norms[ok] * length), -1.0, 1.0))
        skipped += int((~ok).sum())
        vals, miss = ref_unblocked_pair_cosines(
            eps, *ref_sample_index_pairs(rng, len(idx), pairs_per_group), ZERO_VECTOR_TOL)
        noise_dir_vals.append(vals)
        skipped += miss
    gap_vectors = np.asarray(gap_vectors)
    dir_vals, miss = ref_unblocked_pair_cosines(
        gap_vectors, *np.triu_indices(len(groups.groups), k=1), ZERO_VECTOR_TOL)
    skipped += miss
    return GapReport(
        gap_length=ref_mean_std(np.asarray(gap_lengths)),
        gap_direction=ref_mean_std(dir_vals),
        gap_orthogonality=ref_mean_std(np.concatenate(ortho_vals)),
        noise_mean=ref_mean_std(eps_sum / eps_count),
        noise_direction=ref_mean_std(np.concatenate(noise_dir_vals)),
        n_groups=len(groups.groups),
        group_size=groups.group_size,
        skipped_zero_pairs=skipped,
    )


def ref_unblocked_mlp_probes(cfg):
    """(layer, live rows, cone, effective dimension or None) per probe of the unfused forward."""
    def probe(h, layer):
        c = covariance(h)
        live = h[np.linalg.norm(h, axis=1) > 0.0]
        cone = (ref_unblocked_mean_pairwise_cosine(live, seed=cfg.seed)
                if live.shape[0] >= 2 else (0.0, 0.0))
        dim = (None if float(np.abs(c).sum()) == 0.0
               else spectral_summary(c, cfg.gamma).effective_dim)
        return layer, live.shape[0], cone, dim

    rng = np.random.default_rng(cfg.seed)
    h = rng.standard_normal((cfg.n_inputs, cfg.width))
    probes = [probe(h, 0)]
    bound = math.sqrt(6.0 / (2 * cfg.width))  # Xavier-uniform, fan_in = fan_out = width
    for layer in range(1, cfg.depth + 1):
        w = rng.uniform(-bound, bound, size=(cfg.width, cfg.width))
        h = np.maximum(h @ w.T, 0.0)
        if layer % cfg.probe_stride == 0:
            probes.append(probe(h, layer))
    return probes


def degenerate_groups():
    """Explicit groups on which every kind of cosine meets zero-norm vectors.

    Rows 0-99 carry noise, so their groups are ordinary. Rows 100-199 have
    x - y equal to one constant gap, so their residuals are rounding-sized
    (below 1e-12) and every noise-direction pair there is skipped. Rows
    200-249 have x == y: a zero gap vector, whose orthogonality pairs and
    gap-direction pairs are all skipped. Rows 0-24 repeat as rows 25-49 on
    the x side, so some within-group differences x_j - x_k are zero too.
    """
    rng = np.random.default_rng(3)
    n, d = 250, 12
    y = l2_normalize_rows(rng.standard_normal((n, d))).values
    gap = np.zeros(d)
    gap[-1] = 0.4
    x = y + gap
    x[:100] += 0.05 * rng.standard_normal((100, d))
    x[25:50] = x[:25]
    x[200:] = y[200:]
    pairs = PairedEmbeddings(x=EmbeddingMatrix(x), y=EmbeddingMatrix(y))
    groups = [np.arange(s, s + 50) for s in range(0, n, 50)]
    return PairGroups(source=pairs, groups=groups, group_size=50)


class TestSharedPrimitivesMatchReference:
    @pytest.mark.parametrize("n,wanted", [(2, 1), (10, 45), (10, 44), (100, 1000), (1000, 10_000)])
    def test_index_pairs(self, n, wanted):
        rng_new, rng_ref = np.random.default_rng(n), np.random.default_rng(n)
        got, want = _index_pairs(rng_new, n, wanted), ref_sample_index_pairs(rng_ref, n, wanted)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert rng_new.integers(0, 2**62) == rng_ref.integers(0, 2**62)  # same draws consumed

    @pytest.mark.parametrize("source,group_size,pairs_per_group", [
        ("world", 100, 1000),   # sampled within-group pairs
        ("world", 100, 5000),   # every within-group pair
        ("world", 37, 200),
        ("degenerate", 50, 1000),
        ("degenerate", 50, 300),
    ])
    def test_group_statistics(self, source, group_size, pairs_per_group):
        if source == "world":
            w = make_gap_world(n=2000, d=32, span_dim=8, gap_norm=0.83, sigma=0.05, seed=5)
            groups = group_pairs(w.pairs, group_size=group_size, seed=2)
        else:
            groups = degenerate_groups()
        got = group_statistics(groups, pairs_per_group, seed=7)
        want = ref_group_statistics(groups, pairs_per_group, seed=7)
        for field in ("gap_length", "gap_direction", "noise_mean", "noise_direction",
                      "n_groups", "group_size", "skipped_zero_pairs"):
            assert getattr(got, field) == getattr(want, field), field
        assert np.abs(np.subtract(got.gap_orthogonality, want.gap_orthogonality)).max() <= 1e-15
        if source == "degenerate":
            assert got.skipped_zero_pairs > 0

    def test_degenerate_groups_skip_every_kind_of_pair(self):
        groups = degenerate_groups()
        full = group_statistics(groups, 5000, seed=0).skipped_zero_pairs
        within = 50 * 49 // 2
        # two rounding-residual groups (noise direction), the x == y group
        # (orthogonality and noise direction), its 4 gap-direction pairs and
        # the 25 repeated x rows of group 0 (orthogonality)
        assert full == 2 * within + 2 * within + 4 + 25

    @pytest.mark.parametrize("n,d,offset", [
        (40, 16, 0.0),    # every pair
        (40, 16, 3.0),
        (1000, 64, 0.0),  # sampled pairs
        (1000, 64, 3.0),
        (141, 8, 1.0),    # every pair: 9,870 of them, the most under 10,000
        (142, 8, 1.0),    # 10,011 pairs: 10,000 sampled
    ])
    def test_mean_pairwise_cosine(self, n, d, offset):
        m = np.random.default_rng(n + d).standard_normal((n, d)) + offset
        got = mean_pairwise_cosine(m, seed=4)
        want = ref_mean_pairwise_cosine(m, seed=4)
        assert np.abs(np.subtract(got, want)).max() <= 1e-15

    @pytest.mark.parametrize("tau", [0.01, 0.07, 0.5])
    @pytest.mark.parametrize("tied", [False, True])
    def test_loss_bound_check(self, tau, tied):
        rng = np.random.default_rng(11)
        x = l2_normalize_rows(rng.standard_normal((9, 6)))
        y = rng.standard_normal((9, 6))
        if tied:
            y[5] = y[7] = x.values[0]  # anchor 0's two hardest negatives tie
        batch = ContrastiveBatch(PairedEmbeddings(x=x, y=l2_normalize_rows(y)), tau=tau)
        for i in range(batch.n):
            rep = loss_bound_check(batch, i, 0.01)
            got = (rep.loss_i, rep.bound, rep.margin, rep.crowding, rep.in_stable_region)
            assert got == ref_loss_bound_check(batch, i, 0.01)
            negatives = np.delete(x.values[i] @ batch.pairs.y.values.T, i)
            if tied and i == 0:  # loss_bound_check takes the tie, the threshold refuses it
                with pytest.raises(ValueError, match="tied maximum"):
                    stable_region_threshold(negatives, tau, 0.01)
            elif not tied:  # the threshold takes the crowding the report does
                assert stable_region_threshold(negatives, tau, 0.01) == \
                    float(tau * math.log(rep.crowding / math.expm1(0.01)))


# A block of one row, and of 93 rows: 93 divides none of the pair counts
# below, so the last block is partial. None keeps the module's block size.
BLOCKS = [None, 1, 93]


def set_block_rows(monkeypatch, rows, d):
    if rows is not None:
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 8 * d * rows)
        assert next(linalg._row_blocks(10_000, d)) == slice(0, rows)


class TestBlockedGathersMatchUnblocked:
    @pytest.mark.parametrize("rows", BLOCKS)
    @pytest.mark.parametrize("n,d", [
        (1000, 512),  # sampled pairs, 128-row blocks
        (300, 700),   # sampled pairs, 93-row blocks, the last one partial
        (100, 512),   # every pair (4950)
    ])
    def test_mean_pairwise_cosine(self, monkeypatch, rows, n, d):
        m = np.random.default_rng(n + d).standard_normal((n, d)) + 0.5
        set_block_rows(monkeypatch, rows, d)
        assert mean_pairwise_cosine(m, seed=4) == ref_unblocked_mean_pairwise_cosine(m, seed=4)

    @pytest.mark.parametrize("rows", BLOCKS)
    @pytest.mark.parametrize("source,pairs_per_group", [
        ("world", 1000),       # sampled within-group pairs
        ("world", 5000),       # every within-group pair (4950)
        ("degenerate", 1000),  # every within-group pair (1225), zero norms skipped
        ("degenerate", 300),
    ])
    def test_group_statistics(self, monkeypatch, rows, source, pairs_per_group):
        if source == "world":
            w = make_gap_world(n=2000, d=512, span_dim=16, gap_norm=0.83, sigma=0.05, seed=5)
            groups = group_pairs(w.pairs, group_size=100, seed=2)
        else:
            groups = degenerate_groups()
        set_block_rows(monkeypatch, rows, groups.source.d)
        got = group_statistics(groups, pairs_per_group, seed=7)
        want = ref_unblocked_group_statistics(groups, pairs_per_group, seed=7)
        for field in ("gap_length", "gap_direction", "gap_orthogonality", "noise_mean",
                      "noise_direction", "n_groups", "group_size", "skipped_zero_pairs"):
            assert getattr(got, field) == getattr(want, field), field

    @pytest.mark.parametrize("rows", [None, 1])
    @pytest.mark.parametrize("cfg,partly_dead", [
        (MlpSimConfig(depth=10, width=64, n_inputs=200, probe_stride=5, seed=0), False),
        (MlpSimConfig(depth=10, width=4, n_inputs=60, probe_stride=5, seed=1), True),
    ])
    def test_mlp_collapse_probes(self, monkeypatch, rows, cfg, partly_dead):
        set_block_rows(monkeypatch, rows, cfg.width)
        got = mlp_collapse_sim(cfg)
        want = ref_unblocked_mlp_probes(cfg)
        assert [p.layer for p in got] == [w[0] for w in want]
        for p, (_, _, cone, dim) in zip(got, want):
            assert (p.cone_mean, p.cone_std) == cone
            assert p.dead == (dim is None)
            assert p.effective_dim == (0 if dim is None else dim)
        # the second net loses some rows but not all, so the probe's
        # live-row selection is exercised on both paths
        assert any(0 < live < cfg.n_inputs for _, live, _, _ in want) == partly_dead
