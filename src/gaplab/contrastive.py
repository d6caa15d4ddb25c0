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

Exact-form projected training may run in reduced coordinates; see
``train_contrastive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (EmbeddingMatrix, PairedEmbeddings, _check_positive_finite, _checked_mask,
                     _first_nonfinite, _unit_rows_into, l2_normalize_rows)

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
    "stable_region_threshold",
    "loss_bound_check",
    "StableRegionReport",
]

_MAX_DELTA = math.log(np.finfo(np.float64).max)  # about 709.78; exp(delta) - 1 overflows above
_GRADIENT_FORMS = ("exact", "span")


@dataclass(frozen=True)
class ContrastiveBatch:
    """Unit-norm paired embeddings plus a positive temperature."""

    pairs: PairedEmbeddings
    tau: float

    def __post_init__(self):
        if not (self.pairs.x.unit_norm and self.pairs.y.unit_norm):
            raise ValueError("contrastive batch requires unit-norm embeddings on both sides")
        _check_positive_finite("temperature", self.tau)

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
    gradient) or "span" (the compact form, which leaves coordinates shared
    by all rows of the opposite modality bitwise untouched).
    ``learning_rate`` must be positive and finite.
    """

    learning_rate: float
    steps: int
    renormalize_each_step: bool
    record_every: int
    gradient_form: str

    def __post_init__(self):
        _check_positive_finite("learning rate", self.learning_rate)
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.gradient_form not in _GRADIENT_FORMS:
            raise ValueError(f"gradient_form must be one of {', '.join(_GRADIENT_FORMS)}, "
                             f"got {self.gradient_form!r}")


@dataclass(frozen=True)
class TrainingRecord:
    """Metrics captured at one checkpoint of a training run.

    ``masked_grad_max`` is the largest absolute raw-gradient entry inside
    the masked dimensions seen since the previous checkpoint.
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


# Largest entry of |a - (a q) q^T| on unit-norm rows that still counts as
# rounding when ``_block_basis`` tests whether q holds a block's rows.
_SPAN_RESIDUAL_TOL = 64 * np.finfo(np.float64).eps


def _block_basis(x: np.ndarray, y: np.ndarray, block: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis q (|block| x s) of the row space of both sides'
    ``block`` columns, or None unless s < |block| and q holds every row of
    both sides to rounding.

    One ``eigh`` of the block's Gram matrix gives q: the eigenvectors whose
    eigenvalues stand above |block| * eps of the largest.
    """
    xb, yb = x[:, block], y[:, block]
    gram = xb.T @ xb
    gram += yb.T @ yb
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > evals[-1] * block.size * np.finfo(np.float64).eps
    if keep.all():
        return None
    q = evecs[:, keep]
    for ab in (xb, yb):
        ab -= (ab @ q) @ q.T
        if np.abs(ab).max() > _SPAN_RESIDUAL_TOL:
            return None
    return q


def train_contrastive(
    init: PairedEmbeddings,
    tau: float,
    cfg: TrainerConfig,
    masked_dims: np.ndarray,
) -> TrainingResult:
    """Optimize both embedding matrices by full-batch gradient descent.

    Descends ``exact_gradients`` or ``span_gradients``, as
    ``cfg.gradient_form`` selects. Every argument is required: the masked
    block ``masked_dims`` is what the run is watched on. Each checkpoint
    records the loss of the current state, the distance between modality
    means over all dimensions and over ``masked_dims``, and the largest
    absolute raw-gradient entry inside ``masked_dims`` since the previous
    checkpoint. Geometry metrics are
    measured on unit-normalized views of the state; the loss is measured on
    the state itself. The run is deterministic given the inputs and config.

    With ``renormalize_each_step`` the initial embeddings must already be
    unit-norm; without it any finite initialization is accepted.

    The step runs in one ``_Workspace`` kept for the whole run, and updates
    and re-projects the state in place. numpy's overflow and invalid-value
    warnings are silenced during the run: a non-finite loss or state is
    detected here and raised as FloatingPointError.

    Exact-form projected descent never leaves the span of the initial rows:
    each side's gradient combines the other side's rows, and the projection
    only rescales rows. So when the columns of ``masked_dims`` hold rows of
    lower rank than their count (``_block_basis``), the run takes place in
    reduced coordinates, the unmasked columns as they are plus coordinates
    in an orthonormal basis q of the block's row space, and is mapped back
    to d columns once, at the end. On the collapsed-init world at the
    long-running shape (n=1000, d=512) that is 257 columns. The records and
    the final state then differ from the d-column run by rounding only.
    Every other run (span form, free rows or a full-rank block)
    keeps the d-column path and its bits.

    Raises
    ------
    ValueError
        If ``tau`` is not positive and finite, or ``masked_dims`` is empty,
        not a 1-d array of integers, or holds a dimension outside [0, d).
    FloatingPointError
        If the loss or an update turns non-finite (reported with its step).
    """
    _check_positive_finite("temperature", tau)
    unit = cfg.renormalize_each_step  # projected descent: the rows stay on the unit sphere
    if unit and not (init.x.unit_norm and init.y.unit_norm):
        raise ValueError("projected descent requires unit-norm initial embeddings")
    n, d = init.n, init.d
    mask = _checked_mask(masked_dims, d)
    span = cfg.gradient_form == "span"
    x, y = init.x.values, init.y.values
    q = None
    if not span and unit:
        block = np.unique(mask)
        q = _block_basis(x, y, block)
    if q is None:
        x, y = x.copy(), y.copy()

        def full(a: np.ndarray) -> np.ndarray:
            """The identity: the state already has d columns."""
            return a
    else:
        rest = np.setdiff1d(np.arange(d), block)
        k = rest.size
        x, y = (np.concatenate((a[:, rest], a[:, block] @ q), axis=1) for a in (x, y))

        def full(a: np.ndarray) -> np.ndarray:
            """Rows (or one row) of reduced coordinates mapped back to d columns."""
            out = np.empty(a.shape[:-1] + (d,))
            out[..., rest] = a[..., :k]
            out[..., block] = a[..., k:] @ q.T
            return out
    ws = _Workspace(n, x.shape[1])
    masked_abs = np.empty((n, mask.size if q is None else block.size))

    def record(step: int, loss: float, masked_grad_max: float) -> TrainingRecord:
        if not math.isfinite(loss):
            raise FloatingPointError(f"loss diverged at step {step}")
        try:
            xs, ys = (x, y) if unit else (l2_normalize_rows(a).values for a in (x, y))
        except ValueError as exc:  # overflowing or vanishing row norms
            raise FloatingPointError(f"state degenerated at step {step}: {exc}") from exc
        diff = full(xs.mean(axis=0) - ys.mean(axis=0))
        return TrainingRecord(step, loss, float(np.linalg.norm(diff)),
                              float(np.linalg.norm(diff[mask])), masked_grad_max)

    trajectory: list[TrainingRecord] = []
    running_masked_max = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.steps + 1):
            grad_x, grad_y, loss = _gradients(x, y, tau, span, ws)
            for g in (grad_x, grad_y):
                if q is None:
                    # The mask is range-checked, so "clip" never clips; it gathers
                    # straight into the buffer where "raise" would buffer again.
                    np.take(g, mask, axis=1, out=masked_abs, mode="clip")
                else:
                    np.matmul(g[:, k:], q.T, out=masked_abs)
                running_masked_max = max(running_masked_max,
                                         float(np.abs(masked_abs, out=masked_abs).max()))
            if step % cfg.record_every == 0 or step == cfg.steps:
                trajectory.append(record(step, loss, running_masked_max))
                running_masked_max = 0.0
            if step == cfg.steps:
                break
            for a, g in ((x, grad_x), (y, grad_y)):
                g *= cfg.learning_rate
                a -= g
            if _first_nonfinite(x) is not None or _first_nonfinite(y) is not None:
                raise FloatingPointError(f"update diverged at step {step}")
            if unit:
                # The rows are finite: only a zero row or _check_rows' 1e-9 band can fail.
                try:
                    for a in (x, y):
                        _unit_rows_into(a, a)
                except ValueError as exc:
                    raise FloatingPointError(f"state degenerated at step {step}: {exc}") from exc

    del ws, grad_x, grad_y, masked_abs  # release the step's buffers before mapping back
    x, y = full(x), full(y)
    final = PairedEmbeddings(x=EmbeddingMatrix(x, unit_norm=unit), y=EmbeddingMatrix(y, unit_norm=unit))
    return TrainingResult(trajectory=trajectory, final=final)


def _crowding(shifted: np.ndarray, tau: float) -> tuple[float, int]:
    """o' = 1 + sum exp(shifted / tau) of a max-shifted profile, and o = ceil(o')."""
    o_prime = 1.0 + float(np.exp(shifted / tau).sum())
    return o_prime, int(math.ceil(o_prime))


def _threshold(tau: float, o: int, delta: float) -> float:
    """tau * log(o / (exp(delta) - 1)) for an integer crowding factor o and delta <= _MAX_DELTA."""
    if delta > _MAX_DELTA:
        raise ValueError(f"delta must be <= log(DBL_MAX) = {_MAX_DELTA}, got {delta}")
    return float(tau * math.log(o / math.expm1(delta)))


def _check_unique_max(profile: np.ndarray) -> None:
    """Raise ValueError when the maximum of ``profile`` is attained more than once."""
    if np.count_nonzero(profile == profile.max()) > 1:
        raise ValueError("similarity profile has a tied maximum")


def stable_region_threshold(similarities, tau: float, delta: float) -> float:
    """Margin above which the per-anchor loss term is guaranteed below delta.

    threshold = tau * log( o(tau) / (exp(delta) - 1) )

    with o(tau) = ceil(o'(tau)) the integer crowding factor of the profile,
    o'(tau) = 1 + sum_{i != m} exp((t_i - t_m) / tau) with m its argmax. A
    non-positive threshold means any margin suffices. The profile must be
    finite and its argmax unique: a NaN, an infinity or a tied maximum is
    rejected, and so is a delta outside (0, log(DBL_MAX)].
    """
    _check_positive_finite("temperature", tau)
    _check_positive_finite("delta", delta)
    t = np.asarray(similarities, dtype=np.float64).ravel()
    if t.size < 1:
        raise ValueError("empty similarity profile")
    if not np.isfinite(t).all():
        raise ValueError("similarity profile must be finite")
    _check_unique_max(t)
    m = int(np.argmax(t))
    return _threshold(tau, _crowding(np.delete(t, m) - t[m], tau)[1], delta)


@dataclass(frozen=True)
class StableRegionReport:
    loss_i: float
    bound: float
    margin: float
    crowding: int
    in_stable_region: bool


def _anchor_reports(sims: np.ndarray, i: int, taus, delta: float) -> list[StableRegionReport]:
    """``loss_bound_check`` of anchor i at every tau, from its row sims[j] = x_i . y_j.

    The negatives, the hardest one (first argmax), the margin and the shifted
    profile are taken once, then one exp-sum per tau gives o'. Tied hardest
    negatives are accepted: the crowding bound holds whichever one is left out.
    """
    if sims.shape[0] < 2:
        raise ValueError("an anchor needs at least one negative (n >= 2)")
    _check_positive_finite("delta", delta)
    negatives = np.delete(sims, i)
    m = int(np.argmax(negatives))
    r = float(sims[i] - negatives[m])
    shifted = np.delete(negatives, m) - negatives[m]
    reports = []
    for tau in taus:
        o_prime, o = _crowding(shifted, tau)
        # Writing the anchor loss as log1p(o' * e^(-r/tau)) is exact (shift the
        # log-sum-exp at the hardest negative) and shares every factor with the
        # bound, so the bound can never be undercut by rounding alone.
        decay = np.exp(-r / tau)
        loss_i = float(np.log1p(o_prime * decay))
        bound = float(np.log1p(o * decay))
        reports.append(StableRegionReport(loss_i=loss_i, bound=bound, margin=r, crowding=o,
                                          in_stable_region=bool(loss_i <= delta)))
    return reports


def loss_bound_check(batch: ContrastiveBatch, i: int, delta: float) -> StableRegionReport:
    """Per-anchor loss, its crowding bound, and the stable-region predicate.

    The anchor term L_i = -log softmax_j(x_i . y_j / tau)[i] always sits
    below log(1 + o(tau) * exp(-r / tau)), where o is the crowding factor
    of the anchor's negative similarities and r its margin (matched
    similarity minus hardest negative). Tied hardest negatives are accepted.
    """
    if not (0 <= i < batch.n):  # x[i] would wrap a negative i
        raise IndexError(f"row {i} out of range for n={batch.n}")
    sims = batch.pairs.x.values[i] @ batch.pairs.y.values.T
    return _anchor_reports(sims, i, (batch.tau,), delta)[0]
