"""Symmetric contrastive loss, analytic gradients, and stable-region bounds.

The loss over n unit-norm pairs (x_i, y_i) with temperature tau is

    L = -(1/2n) * sum_i [ log softmax_j(x_i . y_j / tau)[i]
                        + log softmax_j(x_j . y_i / tau)[i] ]

Two gradient routines are provided. ``exact_gradients`` is the true
gradient of L with each row treated as a free variable; the trainer uses
it so descent is genuine. ``span_gradients`` is the compact form

    grad_{x_k} = lambda * sum_i (p(y_i|x_k) + p(x_k|y_i)) (y_i - y_k)

with lambda = 1/(2 n tau), which confines each gradient row to the span
of the other modality's row differences. The two coincide exactly when
sum_i p(x_k|y_i) = 1 for every k (uniform pair marginals); in general
they differ by lambda * (1 - sum_i p(x_k|y_i)) * y_k per row.

All of it comes from one logits pass (``_forward``): z = x y^T / tau is
formed once, both softmaxes are max-shifted exps, and the loss reuses their
exp sums. The gradients of either form weigh rows by W = P_row + P_col,
summed in place, at two n x n x d products (W @ y, W^T @ x) per step.

The pass runs in a ``_Workspace``: two n x n buffers (z, which becomes
P_row and then W, and P_col), one n x d scratch block and the two n x d
gradients, every operation writing into them through ``out=`` and in-place
ufuncs in the order the allocating expressions would run, so the bits are
the same. ``train_contrastive`` keeps one workspace for the whole run and
updates and re-projects its state in place, so a step allocates no n x n or
n x d array. The public helpers build a fresh workspace on every call:
what they return never shares memory with another call's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (EmbeddingMatrix, PairedEmbeddings, _first_nonfinite, _normalize_rows_inplace,
                     l2_normalize_rows)

__all__ = [
    "ContrastiveBatch",
    "GradientPair",
    "TrainerConfig",
    "TrainingRecord",
    "TrainingResult",
    "conditional_probs",
    "contrastive_loss",
    "exact_gradients",
    "span_gradients",
    "train_contrastive",
    "margin",
    "crowding_factor",
    "stable_region_threshold",
    "loss_bound_check",
    "StableRegionReport",
]

DEFAULT_TAU = 0.07


@dataclass(frozen=True)
class ContrastiveBatch:
    """Unit-norm paired embeddings plus a positive temperature."""

    pairs: PairedEmbeddings
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if not (self.pairs.x.unit_norm and self.pairs.y.unit_norm):
            raise ValueError("contrastive batch requires unit-norm embeddings on both sides")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"temperature must be positive and finite, got {self.tau}")

    @property
    def n(self) -> int:
        return self.pairs.n


@dataclass(frozen=True)
class GradientPair:
    """Per-row loss gradients for both modalities."""

    grad_x: np.ndarray
    grad_y: np.ndarray

    def __post_init__(self):
        if self.grad_x.shape != self.grad_y.shape:
            raise ValueError("gradient matrices must share a shape")
        if _first_nonfinite(self.grad_x) is not None or _first_nonfinite(self.grad_y) is not None:
            raise ValueError("non-finite gradient")


# Shifted logits below this are flushed to exp(-745..) territory otherwise;
# clamping avoids subnormal arithmetic while adding at most e^-700 of mass.
_EXP_FLOOR = -700.0


class _Workspace:
    """Preallocated buffers for one gradient step at n rows of width d.

    ``z`` holds the logits, then P_row, then W = P_row + P_col; ``p_col``
    holds P_col; ``scratch`` holds one n x d intermediate at a time (twice a
    modality, or a modality shifted by its first row); ``gx`` and ``gy`` hold
    the gradients.
    """

    __slots__ = ("z", "p_col", "scratch", "gx", "gy")

    def __init__(self, n: int, d: int):
        self.z = np.empty((n, n))
        self.p_col = np.empty((n, n))
        self.scratch = np.empty((n, d))
        self.gx = np.empty((n, d))
        self.gy = np.empty((n, d))


def _forward(
    x: np.ndarray, y: np.ndarray, tau: float, ws: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """(P_row, P_col, loss) with P_row[k, i] = p(y_i | x_k), P_col[k, i] = p(x_k | y_i).

    P_row is ``ws.z`` and P_col is ``ws.p_col``; without ``ws`` both are new.
    """
    if ws is None:
        ws = _Workspace(x.shape[0], x.shape[1])
    z, p_col = ws.z, ws.p_col
    np.matmul(x, y.T, out=z)
    z /= tau
    diag = np.diagonal(z).copy()
    # The column softmax reads z into p_col; the row softmax then overwrites z.
    lses = []
    for axis, e in ((0, p_col), (1, z)):
        m = z.max(axis=axis, keepdims=True)
        np.subtract(z, m, out=e)
        np.maximum(e, _EXP_FLOOR, out=e)
        np.exp(e, out=e)
        s = e.sum(axis=axis, keepdims=True)
        e /= s
        lses.append((m + np.log(s)).ravel())
    lse_col, lse_row = lses
    loss = -(2.0 * diag - lse_row - lse_col).sum() / (2.0 * x.shape[0])
    return z, p_col, float(loss)


def _gradients(
    x: np.ndarray, y: np.ndarray, tau: float, span: bool, ws: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """(grad_x, grad_y, loss) of the exact or the span form from one ``_forward`` pass.

    The gradients are ``ws.gx`` and ``ws.gy``; without ``ws`` they are new.
    """
    if ws is None:
        ws = _Workspace(x.shape[0], x.shape[1])
    w, p_col, loss = _forward(x, y, tau, ws)
    w += p_col
    lam = 1.0 / (2.0 * x.shape[0] * tau)
    t = ws.scratch
    for g, w_g, other in ((ws.gx, w, y), (ws.gy, w.T, x)):
        if not span:
            # -lam * (2 other - W other)
            np.matmul(w_g, other, out=g)
            np.multiply(other, 2.0, out=t)
            np.subtract(t, g, out=g)
            g *= -lam
        else:
            # Shifting by the first row before weighting telescopes away exactly,
            # but makes coordinates where all rows agree contribute bitwise-exact
            # zeros: lam * (W shifted - rowsum(W) * shifted).
            np.subtract(other, other[0], out=t)
            np.matmul(w_g, t, out=g)
            t *= w_g.sum(axis=1)[:, None]
            g -= t
            g *= lam
    return ws.gx, ws.gy, loss


def conditional_probs(batch: ContrastiveBatch) -> tuple[np.ndarray, np.ndarray]:
    """Softmax conditionals (P_xy, P_yx).

    P_xy[i, j] = p(x_i | y_j) and P_yx[i, j] = p(y_i | x_j); each column of
    both matrices sums to 1. Computed with max-subtraction so no choice of
    temperature can overflow.
    """
    p_row, p_col, _ = _forward(batch.pairs.x.values, batch.pairs.y.values, batch.tau)
    return p_col, p_row.T


def contrastive_loss(batch: ContrastiveBatch) -> float:
    """Value of the symmetric contrastive objective (non-negative)."""
    return _forward(batch.pairs.x.values, batch.pairs.y.values, batch.tau)[2]


def exact_gradients(batch: ContrastiveBatch) -> GradientPair:
    """True gradient of the loss with every row treated as a free variable.

    grad_{x_k} = -(1/2n tau) [ 2 y_k - sum_i p(y_i|x_k) y_i - sum_i p(x_k|y_i) y_i ]

    and symmetrically for grad_{y_k}.
    """
    gx, gy, _ = _gradients(batch.pairs.x.values, batch.pairs.y.values, batch.tau, span=False)
    return GradientPair(grad_x=gx, grad_y=gy)


def span_gradients(batch: ContrastiveBatch) -> GradientPair:
    """Compact span form of the gradients.

    Each output row is a weighted sum of the other modality's row
    differences, so any coordinate where that modality's rows all share one
    value receives an exactly zero gradient (bitwise zero, not merely
    small). Equals ``exact_gradients`` only under uniform pair marginals;
    see the module docstring.
    """
    gx, gy, _ = _gradients(batch.pairs.x.values, batch.pairs.y.values, batch.tau, span=True)
    return GradientPair(grad_x=gx, grad_y=gy)


@dataclass(frozen=True)
class TrainerConfig:
    """Full-batch gradient descent settings.

    ``renormalize_each_step`` re-projects every row onto the unit sphere
    after each update (projected gradient descent). With it off, rows float
    freely during optimization and geometry metrics are computed on
    unit-normalized copies at recording time only.

    ``gradient_form`` selects the update direction: "exact" (the true loss
    gradient, the default) or "span" (the compact form, which leaves
    coordinates shared by all rows of the opposite modality bitwise
    untouched).
    """

    learning_rate: float = 0.1
    steps: int = 1000
    renormalize_each_step: bool = True
    record_every: int = 100
    gradient_form: str = "exact"

    def __post_init__(self):
        if not (self.learning_rate >= 0.0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.gradient_form not in ("exact", "span"):
            raise ValueError(f"gradient_form must be 'exact' or 'span', got {self.gradient_form!r}")


@dataclass(frozen=True)
class TrainingRecord:
    """Metrics captured at one checkpoint of a training run.

    ``masked_grad_max`` is the largest absolute raw-gradient entry inside
    the masked dimensions seen since the previous checkpoint (0.0 when no
    mask was given).
    """

    step: int
    loss: float
    gap_full: float
    gap_masked: float
    masked_grad_max: float


@dataclass(frozen=True)
class TrainingResult:
    trajectory: list[TrainingRecord]
    final: PairedEmbeddings


def _checked_mask(masked_dims, d: int) -> np.ndarray:
    """``masked_dims`` as an intp array, or ValueError unless it is a
    non-empty 1-d array of integer dimensions in [0, d)."""
    mask = np.asarray(masked_dims)
    if mask.ndim != 1 or mask.size == 0 or not np.issubdtype(mask.dtype, np.integer):
        raise ValueError("masked_dims must be a non-empty 1-d array of integer dimensions, "
                         f"got shape {mask.shape} of dtype {mask.dtype}")
    lo, hi = int(mask.min()), int(mask.max())
    if lo < 0 or hi >= d:
        raise ValueError(f"masked_dims must lie in [0, {d}), got dimensions {lo} to {hi}")
    return mask.astype(np.intp, copy=False)


def train_contrastive(
    init: PairedEmbeddings,
    tau: float = DEFAULT_TAU,
    cfg: TrainerConfig = TrainerConfig(),
    masked_dims: np.ndarray | None = None,
) -> TrainingResult:
    """Optimize both embedding matrices by full-batch gradient descent.

    Descends ``exact_gradients`` by default (``cfg.gradient_form`` can select
    the span form instead). Each checkpoint records the loss of the current
    state, the distance between modality means over all dimensions and over
    ``masked_dims``, and the largest absolute raw-gradient entry inside
    ``masked_dims`` since the previous checkpoint. Geometry metrics are
    measured on unit-normalized views of the state; the loss is measured on
    the state itself. The run is deterministic given the inputs and config.

    With ``renormalize_each_step`` the initial embeddings must already be
    unit-norm; without it any finite initialization is accepted.

    The step runs in one ``_Workspace`` kept for the whole run, and updates
    and re-projects the state in place. numpy's overflow and invalid-value
    warnings are silenced during the run: a non-finite loss or state is
    detected here and raised as FloatingPointError.

    Raises
    ------
    ValueError
        If ``masked_dims`` is empty, not a 1-d array of integers, or holds a
        dimension outside [0, d).
    FloatingPointError
        If the loss or an update turns non-finite (reported with its step).
    """
    if cfg.renormalize_each_step and not (init.x.unit_norm and init.y.unit_norm):
        raise ValueError("projected descent requires unit-norm initial embeddings")
    n, d = init.n, init.d
    mask = None if masked_dims is None else _checked_mask(masked_dims, d)
    span = cfg.gradient_form == "span"
    x = init.x.values.copy()
    y = init.y.values.copy()
    ws = _Workspace(n, d)

    if mask is not None:
        masked_abs = np.empty((n, mask.size))

    def analysis_views() -> tuple[np.ndarray, np.ndarray]:
        if cfg.renormalize_each_step:
            return x, y
        return l2_normalize_rows(x).values, l2_normalize_rows(y).values

    def snapshot(step: int, loss: float, masked_grad_max: float) -> TrainingRecord:
        if not math.isfinite(loss):
            raise FloatingPointError(f"loss diverged at step {step}")
        try:
            xs, ys = analysis_views()
        except ValueError as exc:  # overflowing or vanishing row norms
            raise FloatingPointError(f"state degenerated at step {step}: {exc}") from exc
        diff = xs.mean(axis=0) - ys.mean(axis=0)
        return TrainingRecord(
            step=step,
            loss=loss,
            gap_full=float(np.linalg.norm(diff)),
            gap_masked=float(np.linalg.norm(diff if mask is None else diff[mask])),
            masked_grad_max=masked_grad_max,
        )

    trajectory: list[TrainingRecord] = []
    running_masked_max = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps + 1):
            grad_x, grad_y, loss = _gradients(x, y, tau, span, ws)
            if mask is not None:
                seen = []
                for g in (grad_x, grad_y):
                    # The mask is range-checked, so "clip" never clips; it gathers
                    # straight into the buffer where "raise" would buffer again.
                    np.take(g, mask, axis=1, out=masked_abs, mode="clip")
                    seen.append(float(np.abs(masked_abs, out=masked_abs).max()))
                running_masked_max = max(running_masked_max, max(seen))
            if step % cfg.record_every == 0 or step == cfg.steps:
                trajectory.append(snapshot(step, loss, running_masked_max))
                running_masked_max = 0.0
            if step == cfg.steps:
                break
            if cfg.learning_rate == 0.0:
                continue  # a zero update followed by projection must be a bitwise no-op
            for a, g in ((x, grad_x), (y, grad_y)):
                g *= cfg.learning_rate
                a -= g
            if _first_nonfinite(x) is not None or _first_nonfinite(y) is not None:
                raise FloatingPointError(f"update diverged at step {step}")
            if cfg.renormalize_each_step:
                # The rows are finite here, so dividing them by their norms keeps
                # them finite: of EmbeddingMatrix's unit-norm checks only the
                # zero row and the 1e-9 norm band can fail.
                try:
                    for a in (x, y):
                        _normalize_rows_inplace(a)
                except ValueError as exc:
                    raise FloatingPointError(f"state degenerated at step {step}: {exc}") from exc

    unit = cfg.renormalize_each_step  # the projection kept the state on the sphere
    final = PairedEmbeddings(x=EmbeddingMatrix(x, unit_norm=unit), y=EmbeddingMatrix(y, unit_norm=unit))
    return TrainingResult(trajectory=trajectory, final=final)


def _anchor_split(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, np.ndarray]:
    """Anchor x_i's matched similarity and its n - 1 negative similarities."""
    n = x.shape[0]
    if n < 2:
        raise ValueError("an anchor needs at least one negative (n >= 2)")
    if not (0 <= i < n):
        raise IndexError(f"row {i} out of range for n={n}")
    sims = x[i] @ y.T
    return sims[i], np.delete(sims, i)


def margin(batch: ContrastiveBatch, i: int) -> float:
    """Similarity margin of anchor x_i: matched pair minus hardest negative."""
    pos, negatives = _anchor_split(batch.pairs.x.values, batch.pairs.y.values, i)
    return float(pos - negatives.max())


def _crowding(t: np.ndarray, tau: float) -> float:
    """o'(tau) = 1 + sum_{i != m} exp((t_i - t_m) / tau), m the first argmax of t."""
    m = int(np.argmax(t))
    return 1.0 + float(np.exp((np.delete(t, m) - t[m]) / tau).sum())


def crowding_factor(similarities, tau: float) -> tuple[float, int]:
    """Crowding of a similarity profile: (o', ceil(o')).

    o'(tau) = 1 + sum_{i != m} exp((t_i - t_m) / tau) where m is the unique
    argmax of the profile. Monotonically increasing in tau and bounded by
    the profile length. A tied maximum is rejected.
    """
    t = np.asarray(similarities, dtype=np.float64).ravel()
    if t.size < 1:
        raise ValueError("empty similarity profile")
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if np.count_nonzero(t == t.max()) > 1:
        raise ValueError("similarity profile has a tied maximum")
    o_prime = _crowding(t, tau)
    return o_prime, int(math.ceil(o_prime))


def stable_region_threshold(similarities, tau: float, delta: float) -> float:
    """Margin above which the per-anchor loss term is guaranteed below delta.

    threshold = tau * log( o(tau) / (exp(delta) - 1) )

    with o(tau) the integer crowding factor of the profile. A non-positive
    threshold means any margin suffices.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    _, o = crowding_factor(similarities, tau)
    return float(tau * math.log(o / math.expm1(delta)))


@dataclass(frozen=True)
class StableRegionReport:
    loss_i: float
    bound: float
    margin: float
    crowding: int
    in_stable_region: bool


def loss_bound_check(batch: ContrastiveBatch, i: int, delta: float) -> StableRegionReport:
    """Per-anchor loss, its crowding bound, and the stable-region predicate.

    The anchor term L_i = -log softmax_j(x_i . y_j / tau)[i] always sits
    below log(1 + o(tau) * exp(-r / tau)), where o is the crowding factor
    of the anchor's negative similarities and r its margin.
    """
    pos, negatives = _anchor_split(batch.pairs.x.values, batch.pairs.y.values, i)
    return _bound_report(pos, negatives, batch.tau, delta)


def _bound_report(pos: float, negatives: np.ndarray, tau: float, delta: float) -> StableRegionReport:
    """``loss_bound_check`` for an anchor given its matched and negative similarities."""
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    r = float(pos - negatives.max())
    # Tied negative maxima are fine here: the crowding inequality still
    # holds, only the threshold op insists on a unique argmax.
    o_prime = _crowding(negatives, tau)
    o = int(math.ceil(o_prime))
    # Writing the anchor loss as log1p(o' * e^(-r/tau)) is exact (shift the
    # log-sum-exp at the hardest negative) and shares every factor with the
    # bound, so the bound can never be undercut by rounding alone.
    decay = np.exp(-r / tau)
    loss_i = float(np.log1p(o_prime * decay))
    bound = float(np.log1p(o * decay))
    return StableRegionReport(
        loss_i=loss_i,
        bound=bound,
        margin=r,
        crowding=o,
        in_stable_region=bool(loss_i <= delta),
    )
