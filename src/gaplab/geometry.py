"""Statistical verification of the gap-plus-noise geometry of paired embeddings.

Pairs are randomly partitioned into groups. Within group i, the per-pair
difference d_j = x_j - y_j splits into the group mean d_i (the modality gap
estimate, noise averages out) and the residual eps_j = d_j - d_i (the
alignment noise estimate). Five statistics summarize the geometry, each as
(mean, std):

* gap length      ||d_i|| over groups
* gap direction   cos(d_i, d_j) over group pairs
* gap orthogonality  cos(d_i, x_j - x_k) over within-group index pairs
* noise mean      per-dimension mean of all eps_j, summarized over dimensions
* noise direction cos(eps_j, eps_k) over within-group index pairs

A constant gap shows up as (near-constant length, direction near 1,
orthogonality near 0); Gaussian noise as (direction near 0). The noise mean
is 0 only up to rounding at the data's scale, since each group's residuals
are taken from that group's own mean: gap-stats' ``noise_mean_zero`` check
(|mean| <= 1e-3) passes at ``sigma`` 1e15 and fails at 1e18. The
statistics are designed for unit-norm embeddings but the pipeline accepts
any pairs so exact synthetic constructions can be fed in unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (PairedEmbeddings, _checked_mask, _index_pairs, _pair_cosines, _row_blocks,
                     as_array)

__all__ = [
    "PairGroups",
    "GapReport",
    "group_pairs",
    "group_statistics",
    "masked_gap_distance",
    "per_dim_variance",
]

ZERO_VECTOR_TOL = 1e-12


@dataclass(frozen=True)
class PairGroups:
    """A disjoint partition of pair indices into groups.

    Every group has ``group_size`` members except possibly the last; a
    remainder of at most half a group is dropped rather than kept.
    """

    source: PairedEmbeddings
    groups: list
    group_size: int

    def __post_init__(self):
        seen = np.concatenate([np.asarray(g) for g in self.groups]) if self.groups else np.array([])
        if seen.size != np.unique(seen).size:
            raise ValueError("groups overlap")


def group_pairs(pairs: PairedEmbeddings, group_size: int, seed: int) -> PairGroups:
    """Uniformly random partition of pair indices, deterministic per seed.

    The trailing remainder group is kept only when it holds more than half
    of ``group_size`` members.
    """
    if group_size < 2:
        raise ValueError(f"group_size must be >= 2, got {group_size}")
    n = pairs.n
    if n < group_size:
        raise ValueError(f"need at least one full group: n={n} < group_size={group_size}")
    perm = np.random.default_rng(seed).permutation(n)
    groups = [perm[i : i + group_size] for i in range(0, n, group_size)]
    if len(groups[-1]) < group_size and len(groups[-1]) * 2 <= group_size:
        groups = groups[:-1]
    return PairGroups(source=pairs, groups=groups, group_size=group_size)


@dataclass(frozen=True)
class GapReport:
    """Five (mean, std) statistics plus bookkeeping about skipped cosines."""

    gap_length: tuple
    gap_direction: tuple
    gap_orthogonality: tuple
    noise_mean: tuple
    noise_direction: tuple
    n_groups: int
    group_size: int
    skipped_zero_pairs: int

    def rows(self) -> list:
        """The five statistics in presentation order."""
        return [
            ("gap_length", *self.gap_length),
            ("gap_direction", *self.gap_direction),
            ("gap_orthogonality", *self.gap_orthogonality),
            ("noise_mean", *self.noise_mean),
            ("noise_direction", *self.noise_direction),
        ]


def _mean_std(v: np.ndarray) -> tuple:
    if v.size == 0:  # every contributing pair was degenerate and skipped
        return (0.0, 0.0)
    return (float(np.mean(v)), float(np.std(v)))


def group_statistics(
    groups: PairGroups,
    pairs_per_group: int = 1000,
    seed: int = 0,
) -> GapReport:
    """Compute the five gap/noise statistics over a grouped pairing.

    Within-group index pairs for the orthogonality and noise-direction
    statistics are enumerated exhaustively when there are at most
    ``pairs_per_group`` of them and uniformly subsampled (seeded) otherwise.
    Cosines involving a vector of norm below 1e-12 are skipped and tallied.
    """
    if len(groups.groups) < 2:
        raise ValueError("need at least 2 groups for the gap-direction statistic")
    x = groups.source.x.values
    y = groups.source.y.values
    rng = np.random.default_rng(seed)

    gap_vectors = []
    gap_lengths = []
    ortho_vals = []
    noise_dir_vals = []
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

        # cos(d_i, r) for every within-group difference r = x_j - x_k, one
        # block of pairs at a time as in _pair_cosines. The dot is a per-row
        # einsum reduction, not the BLAS mat-vec r @ d_i: OpenBLAS rounds a
        # mat-vec row by its place in the call and by the thread split, so
        # the block size and the thread count would reach the last bits.
        j, k = _index_pairs(rng, len(idx), pairs_per_group)
        r_norms = np.empty(j.size)
        r_dots = np.empty(j.size)
        for blk in _row_blocks(j.size, gx.shape[1]):
            r = gx[j[blk]] - gx[k[blk]]
            r_norms[blk] = np.linalg.norm(r, axis=1)
            np.einsum("ij,j->i", r, d_i, out=r_dots[blk])
        ok = (r_norms > ZERO_VECTOR_TOL) & (length > ZERO_VECTOR_TOL)
        ortho_vals.append(np.clip(r_dots[ok] / (r_norms[ok] * length), -1.0, 1.0))
        skipped += int((~ok).sum())

        vals, miss = _pair_cosines(eps, *_index_pairs(rng, len(idx), pairs_per_group),
                                   ZERO_VECTOR_TOL)
        noise_dir_vals.append(vals)
        skipped += miss

    gap_vectors = np.asarray(gap_vectors)
    dir_vals, miss = _pair_cosines(gap_vectors, *np.triu_indices(len(groups.groups), k=1),
                                   ZERO_VECTOR_TOL)
    skipped += miss

    per_dim_noise_mean = eps_sum / eps_count
    return GapReport(
        gap_length=_mean_std(np.asarray(gap_lengths)),
        gap_direction=_mean_std(dir_vals),
        gap_orthogonality=_mean_std(np.concatenate(ortho_vals)),
        noise_mean=_mean_std(per_dim_noise_mean),
        noise_direction=_mean_std(np.concatenate(noise_dir_vals)),
        n_groups=len(groups.groups),
        group_size=groups.group_size,
        skipped_zero_pairs=skipped,
    )


def masked_gap_distance(pairs: PairedEmbeddings, mask) -> float:
    """L2 distance between the modality means restricted to ``mask`` dimensions,
    a non-empty 1-d array of integer dimensions in [0, d) (ValueError otherwise)."""
    mask = _checked_mask(mask, pairs.d)
    gap = pairs.x.values.mean(axis=0) - pairs.y.values.mean(axis=0)
    return float(np.linalg.norm(gap[mask]))


def per_dim_variance(m) -> np.ndarray:
    """Per-dimension population variance (n >= 2 rows required), with the bits
    of a per-column ``.var()``: each dimension is reduced as one contiguous row,
    which numpy sums pairwise as it sums the column slice ``a[:, i]``, where
    ``a.var(axis=0)`` would add down the columns sequentially."""
    a = as_array(m)
    if a.shape[0] < 2:
        raise ValueError(f"variance needs at least 2 rows, got {a.shape[0]}")
    return np.ascontiguousarray(a.T).var(axis=1)
