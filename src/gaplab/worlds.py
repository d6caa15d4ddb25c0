"""Ground-truth data generators.

Three generators with known geometry:

* ``make_gap_world``: paired embeddings whose difference is exactly a
  constant span-orthogonal gap plus isotropic Gaussian alignment noise.
* ``make_collapsed_init_world``: two freshly "initialized" modalities whose
  embeddings are random in a few dimensions and per-dimension constants
  everywhere else, then row-normalized. Mimics the dimensional collapse of
  untrained encoders and produces a large modality gap out of the box.
* ``mlp_collapse_sim``: forwards Gaussian inputs through a randomly
  initialized stack of linear+ReLU blocks and measures how the feature
  spectrum collapses and the pairwise-cosine cone sharpens with depth.

All generators are deterministic per seed (numpy Generator streams).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    EmbeddingMatrix,
    PairedEmbeddings,
    SpectralSummary,
    _orthonormal_columns,
    _row_blocks,
    _row_norms,
    covariance,
    l2_normalize_rows,
    mean_pairwise_cosine,
    spectral_summary,
)

__all__ = [
    "GapWorld",
    "InitWorld",
    "MlpSimConfig",
    "MlpProbe",
    "make_gap_world",
    "make_collapsed_init_world",
    "xavier_uniform",
    "mlp_collapse_sim",
]


@dataclass(frozen=True)
class GapWorld:
    """Paired embeddings with x - y = gap + noise holding exactly.

    ``pairs.y`` rows are unit vectors inside the span of ``span_basis``;
    ``true_gap`` is a constant vector in the orthogonal complement, and the
    per-pair noise is Gaussian. The x side is intentionally not
    re-normalized so the identity stays exact.
    """

    pairs: PairedEmbeddings
    true_gap: np.ndarray
    span_basis: np.ndarray


def make_gap_world(
    n: int,
    d: int,
    span_dim: int,
    gap_norm: float,
    sigma: float,
    seed: int = 0,
    noise_mode: str = "full",
) -> GapWorld:
    """Sample a world realizing a constant orthogonal gap plus Gaussian noise.

    Parameters
    ----------
    span_dim : int
        Dimension of the subspace carrying the y embeddings. Must leave room
        for an orthogonal gap direction whenever ``gap_norm > 0``.
    noise_mode : {"full", "span"}
        Whether the alignment noise is isotropic over all of R^d or has its
        out-of-span components removed.

    x is built as ``(y + gap) + eps`` in place. Full-mode noise is drawn and
    added one ``_row_blocks`` block at a time: the generator continues one
    stream, so the blocks draw the numbers of one (n, d) draw and x keeps
    its bits, without an n x d noise array. Span-mode noise stays one
    unblocked draw and projection, because OpenBLAS rounds a row of
    ``(eps @ basis) @ basis.T`` by its place in the call, so a blocked
    projection would move bits.
    """
    if not (1 <= span_dim <= d):
        raise ValueError(f"span_dim must be in [1, {d}], got {span_dim}")
    if gap_norm < 0 or sigma < 0:
        raise ValueError("gap_norm and sigma must be non-negative")
    if gap_norm > 0 and span_dim == d:
        raise ValueError("no orthogonal complement left for the gap: span_dim == d")
    if noise_mode not in ("full", "span"):
        raise ValueError(f"unknown noise_mode {noise_mode!r}")

    rng = np.random.default_rng(seed)
    want = span_dim + (1 if span_dim < d else 0)
    frame = _orthonormal_columns(rng, d, want)
    basis = frame[:, :span_dim]
    gap = gap_norm * frame[:, span_dim] if span_dim < d else np.zeros(d)

    coeffs = rng.standard_normal((n, span_dim))
    coeffs /= _row_norms(coeffs)[:, None]
    y = coeffs @ basis.T
    del coeffs  # freed before x is built

    x = np.add(y, gap)
    if noise_mode == "span":
        x += ((sigma * rng.standard_normal((n, d))) @ basis) @ basis.T
    else:
        for blk in _row_blocks(n, d):
            rows = x[blk]
            eps = rng.standard_normal(rows.shape)
            eps *= sigma
            rows += eps

    pairs = PairedEmbeddings(x=EmbeddingMatrix(x), y=EmbeddingMatrix(y, unit_norm=True))
    return GapWorld(pairs=pairs, true_gap=gap, span_basis=basis)


@dataclass(frozen=True)
class InitWorld:
    """Row-normalized embeddings of two modalities at "initialization".

    Image rows vary only inside ``effective_dims_x`` and text rows only
    inside ``effective_dims_y``; everywhere else each modality carries its
    own per-dimension constant (exactly constant across rows before
    normalization). ``shared_ineffective`` indexes the dimensions constant
    in both modalities.
    """

    pairs: PairedEmbeddings
    pre_norm_x: np.ndarray
    pre_norm_y: np.ndarray
    effective_dims_x: np.ndarray
    effective_dims_y: np.ndarray
    shared_ineffective: np.ndarray


def make_collapsed_init_world(
    n: int = 1000,
    d: int = 512,
    dex: int = 25,
    dey: int = 230,
    seed: int = 0,
) -> InitWorld:
    """Build the dimensional-collapse initialization world.

    Image rows get ``dex`` leading standard-normal dimensions, text rows the
    next ``dey``, and every remaining dimension of each modality is one
    constant drawn from N(0, 1) (different constants per modality). Rows are
    unit-normalized afterwards. With the defaults the distance between the
    modality means is about 1.21 over all dimensions and about 0.99 over the
    shared constant block.
    """
    if dex < 1 or dey < 1 or dex + dey > d:
        raise ValueError(f"need dex >= 1, dey >= 1, dex + dey <= d, got {dex}, {dey}, {d}")
    rng = np.random.default_rng(seed)
    x_rand = rng.standard_normal((n, dex))
    const_x = rng.standard_normal(d - dex)
    y_rand = rng.standard_normal((n, dey))
    const_y = rng.standard_normal(dex + (d - dex - dey))

    pre_x = np.empty((n, d))
    pre_x[:, :dex] = x_rand
    pre_x[:, dex:] = const_x

    pre_y = np.empty((n, d))
    pre_y[:, :dex] = const_y[:dex]
    pre_y[:, dex : dex + dey] = y_rand
    pre_y[:, dex + dey :] = const_y[dex:]

    pairs = PairedEmbeddings(x=l2_normalize_rows(pre_x), y=l2_normalize_rows(pre_y))
    return InitWorld(
        pairs=pairs,
        pre_norm_x=pre_x,
        pre_norm_y=pre_y,
        effective_dims_x=np.arange(0, dex),
        effective_dims_y=np.arange(dex, dex + dey),
        shared_ineffective=np.arange(dex + dey, d),
    )


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Weight matrix of shape (fan_out, fan_in) from U[-b, b], b = sqrt(6/(fan_in+fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError("fans must be >= 1")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


@dataclass(frozen=True)
class MlpSimConfig:
    """Depth/width/probing settings for the feature-collapse simulation."""

    depth: int = 20
    width: int = 512
    n_inputs: int = 1000
    probe_stride: int = 5
    seed: int = 0
    gamma: float = 0.99

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.depth and self.depth < self.probe_stride:
            raise ValueError("depth must be >= probe_stride so at least one probe lands")
        if self.width < 1 or self.n_inputs < 2 or self.probe_stride < 1:
            raise ValueError("width >= 1, n_inputs >= 2, probe_stride >= 1 required")


@dataclass(frozen=True)
class MlpProbe:
    """Spectral and cone measurements of the features at one layer.

    ``effective_dim`` is 0 and ``dead`` is True when the layer's activations
    carry no variance at all (total ReLU die-off); the cone statistics are
    then reported as zeros.
    """

    layer: int
    summary: SpectralSummary | None
    effective_dim: int
    cone_mean: float
    cone_std: float
    dead: bool = False


def _probe(h: np.ndarray, layer: int, gamma: float, seed: int) -> MlpProbe:
    c = covariance(h)
    # Dead (all-zero) rows have no direction: the cone is measured on the rest.
    alive = _row_norms(h) > 0.0
    live = h if alive.all() else h[alive]
    cone = mean_pairwise_cosine(live, seed=seed) if live.shape[0] >= 2 else (0.0, 0.0)
    if float(np.abs(c).sum()) == 0.0:
        # Total die-off (or exactly constant features): no spectrum to report.
        return MlpProbe(layer=layer, summary=None, effective_dim=0,
                        cone_mean=cone[0], cone_std=cone[1], dead=True)
    summary = spectral_summary(c, gamma)
    return MlpProbe(
        layer=layer,
        summary=summary,
        effective_dim=summary.effective_dim,
        cone_mean=cone[0],
        cone_std=cone[1],
    )


def mlp_collapse_sim(cfg: MlpSimConfig = MlpSimConfig()) -> list[MlpProbe]:
    """Forward Gaussian inputs through linear+ReLU blocks and probe features.

    Weights are Xavier-uniform, biases zero. Layer 0 (the raw inputs) is
    always probed; afterwards every ``probe_stride``-th layer is. Each probe
    reports the spectral summary of the feature covariance at ``cfg.gamma``
    and the mean pairwise cosine between feature rows.
    """
    rng = np.random.default_rng(cfg.seed)
    h = rng.standard_normal((cfg.n_inputs, cfg.width))
    probes = [_probe(h, 0, cfg.gamma, cfg.seed)]
    for layer in range(1, cfg.depth + 1):
        w = xavier_uniform(cfg.width, cfg.width, rng)
        h = h @ w.T
        np.maximum(h, 0.0, out=h)
        if layer % cfg.probe_stride == 0:
            probes.append(_probe(h, layer, cfg.gamma, cfg.seed))
    return probes
