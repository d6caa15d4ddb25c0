"""Desk-scale cross-modal transfer benchmark.

A decoder is trained on modality-y embeddings and evaluated on modality-x
embeddings, with the modality gap and alignment noise injected by
construction. The variant table ``_VARIANTS`` combines the mean-collapse
and noise-corruption stages of ``c3`` into the variant family

    c1        raw train, raw test
    c21       collapse at train and test
    c22       corrupt at train, raw test
    c22_span  corrupt with the gap component removed from the noise
    c3        collapse at both plus corrupt at train

and ``_seed_scores`` is the one path every transfer metric goes through.

The decoder itself is a closed-form ridge map; its first stage unit-
normalizes the incoming embedding, which is what real consumers of
contrastive embeddings see and what makes an out-of-span offset matter at
all: a strictly linear readout is provably blind to any constant shift
orthogonal to its training span, so without the normalization every
variant would score identically.

Every toy task is a classification task: the decoder regresses the class
code vector and assigns the nearest code. The codes are laid out with
unequal norms along partially shared rays so that shrinking predictions
(the signature of an unhandled modality gap after normalization) degrades
accuracy smoothly rather than not at all.

The squared distance to each code sums its m coordinate terms left to
right, as whole codes x predictions arrays; a near-tie between two codes is
decided by those bits, so the order is pinned by a test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .c3 import C3Config, MODE_FULL, MODE_SPAN_ONLY, _add_noise, _unit_noise, collapse
from .linalg import (EmbeddingMatrix, PairedEmbeddings, _check_nonnegative_finite,
                     _check_positive_finite, _gap_frame, _orthonormal_columns, as_array,
                     l2_normalize_rows)

__all__ = [
    "LatentSpec",
    "ToyTask",
    "RidgeDecoder",
    "AblationRow",
    "VARIANTS",
    "SIGMA_GRID",
    "make_toy_task",
    "train_decoder",
    "in_modality_metric",
    "run_ablation",
    "gap_shift_sweep",
]

# variant -> (collapse both sides, corruption mode of the train side or None)
_VARIANTS = {
    "c1": (False, None),
    "c21": (True, None),
    "c22": (False, MODE_FULL),
    "c22_span": (False, MODE_SPAN_ONLY),
    "c3": (True, MODE_FULL),
}
VARIANTS = tuple(_VARIANTS)
SIGMA_GRID = (0.01, 0.05, 0.1, 0.2)

# Class-code layout. Victim codes sit far from the code mean; each rival
# code sits partway down its victim's shrink path (prediction-space ray
# toward the mean) with a small off-path offset, so a shrunken prediction
# of the victim lands on the rival. The hub class sits at the code mean and
# catches everything once predictions shrink far enough. A norm-equalizing
# padding coordinate keeps the embedded prototypes on a common sphere so
# shrinkage acts uniformly across classes.
_PATH_FRACTIONS = (0.58, 0.64, 0.70, 0.78)
_PATH_OFFSET = 0.24
_VICTIM_NORM = 1.25
_SINGLETON_NORM = 1.15
_CODE_SCALE = 1.3
_CLASS_JITTER = 0.03
_NUISANCE_SCALE = 0.12
_PAD_MARGIN = 0.15


@dataclass(frozen=True)
class LatentSpec:
    """What the decoder has to recover: one of ``size`` classes."""

    kind: str = "classification"
    size: int = 10

    def __post_init__(self):
        if self.kind != "classification":
            raise ValueError(f"unknown latent kind {self.kind!r}")
        if self.size < 4:
            raise ValueError("classification tasks need at least 4 classes")


@dataclass(frozen=True)
class ToyTask:
    """Paired embeddings encoding a class label plus gap geometry.

    ``targets`` holds the decoder's regression targets, the class code of
    every row (``codes[labels]``). ``pairs.x`` rows are y rows plus the gap
    and alignment noise, left unnormalized so the construction is exact.
    """

    pairs: PairedEmbeddings
    targets: np.ndarray
    labels: np.ndarray
    codes: np.ndarray
    span_basis: np.ndarray
    gap_direction: np.ndarray | None
    train_idx: np.ndarray
    test_idx: np.ndarray


def _class_codes(rng: np.random.Generator, n_classes: int) -> np.ndarray:
    n_pairs = (n_classes - 2) // 2
    n_single = n_classes - 1 - 2 * n_pairs
    m = 2 * n_pairs + n_single + 1
    dirs = _orthonormal_columns(rng, m, m).T
    victims = _VICTIM_NORM * dirs[:n_pairs]
    offs = dirs[n_pairs : 2 * n_pairs]
    singles = _SINGLETON_NORM * dirs[2 * n_pairs : 2 * n_pairs + n_single]
    fractions = np.resize(np.asarray(_PATH_FRACTIONS), n_pairs)
    codes = np.vstack([victims, 0.6 * victims, singles, np.zeros((1, m))])
    for _ in range(8):
        mean = codes.mean(axis=0)
        rivals = np.array(
            [mean + t * (v - mean) + _PATH_OFFSET * w
             for t, v, w in zip(fractions, victims, offs)]
        )
        hub = np.vstack([victims, rivals, singles]).mean(axis=0)
        codes = np.vstack([victims, rivals, singles, hub[None]])
    return _CODE_SCALE * codes


def make_toy_task(
    n: int = 5000,
    d: int = 64,
    latent: LatentSpec = LatentSpec(),
    gap_norm: float = 0.83,
    sigma_align: float = 0.05,
    seed: int = 0,
    span_dim: int = 16,
) -> ToyTask:
    """Generate a transfer task with known gap-plus-noise geometry.

    The y side is unit-norm inside a ``span_dim``-dimensional subspace and
    encodes the class label; the x side is y plus a constant gap along
    a direction orthogonal to the span plus isotropic alignment noise.
    Rows are split half/half into a train set (y side used) and a test set
    (x side used). Deterministic per seed.
    """
    _check_nonnegative_finite("sigma_align", sigma_align)
    if n < 40:
        raise ValueError("need at least 40 samples for a meaningful split")

    rng = np.random.default_rng(seed)
    basis, gap_dir = _gap_frame(rng, d, span_dim, gap_norm)

    codes = _class_codes(rng, latent.size)
    m = codes.shape[1]
    if m + 1 >= span_dim:
        raise ValueError(f"span_dim={span_dim} too small for {latent.size} classes (need > {m + 1})")
    norms = np.linalg.norm(codes, axis=1)
    top = norms.max() * (1.0 + _PAD_MARGIN)
    pad = np.sqrt(top**2 - norms**2)
    prototypes = np.hstack([codes, pad[:, None]])
    labels = rng.integers(0, latent.size, size=n)
    lat = prototypes[labels] + _CLASS_JITTER * rng.standard_normal((n, m + 1))

    nuis = _NUISANCE_SCALE * rng.standard_normal((n, span_dim - (m + 1)))
    # contrastive-style unit embeddings
    y = l2_normalize_rows(np.hstack([lat, nuis]) @ basis.T)
    x = rng.standard_normal((n, d))
    x *= sigma_align
    x += y.values
    if gap_norm > 0:
        x += gap_norm * gap_dir

    order = rng.permutation(n)
    half = n // 2
    return ToyTask(
        pairs=PairedEmbeddings(x=EmbeddingMatrix(x), y=y),
        targets=codes[labels],
        labels=labels,
        codes=codes,
        span_basis=basis,
        gap_direction=gap_dir,
        train_idx=order[:half],
        test_idx=order[half:],
    )


@dataclass(frozen=True)
class RidgeDecoder:
    """Closed-form ridge map with a mean-augmented intercept."""

    weights: np.ndarray
    bias: np.ndarray

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return np.asarray(inputs, dtype=np.float64) @ self.weights + self.bias


def train_decoder(inputs: np.ndarray, targets: np.ndarray, lam: float) -> RidgeDecoder:
    """Solve (X'X + lam I) W = X'T on centered data (T: one row of codes per
    input row), bias from the means.

    ``lam`` must be positive and finite so the normal equations are always
    well posed.
    """
    _check_positive_finite("lam", lam)
    x = as_array(inputs)
    if x.shape[0] == 0:
        raise ValueError(f"train_decoder needs at least one input row, got shape {x.shape}")
    t = np.asarray(targets, dtype=np.float64)
    if x.shape[0] != t.shape[0]:
        raise ValueError("inputs and targets disagree on the sample count")
    x_mean = x.mean(axis=0)
    t_mean = t.mean(axis=0)
    xc = x - x_mean
    w = np.linalg.solve(xc.T @ xc + lam * np.eye(x.shape[1]), xc.T @ (t - t_mean))
    return RidgeDecoder(weights=w, bias=t_mean - x_mean @ w)


def _code_distances(pred: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Squared distance of every prediction to every code, codes x predictions,
    its m terms added left to right as whole arrays."""
    pt = np.ascontiguousarray(pred.T)
    d2 = np.square(pt[0] - codes[:, 0, None])
    for j in range(1, pt.shape[0]):
        t = pt[j] - codes[:, j, None]
        d2 += np.square(t, out=t)
    return d2


def _metric(task: ToyTask, pred: np.ndarray) -> float:
    """Nearest-code accuracy of ``pred``, the predictions for the test rows;
    a tie goes to the first code."""
    d2 = _code_distances(pred, task.codes)
    return float((d2.argmin(axis=0) == task.labels[task.test_idx]).mean())


def _score(task: ToyTask, train_rows: np.ndarray, test_inputs: np.ndarray, lam: float) -> float:
    """Fit the decoder on ``train_rows`` and score it on ``test_inputs``, unit test rows."""
    targets = task.targets[task.train_idx]
    decoder = train_decoder(l2_normalize_rows(train_rows).values, targets, lam)
    return _metric(task, decoder.predict(test_inputs))


def _seed_scores(task: ToyTask, cells, lam: float, noise_seed: int) -> list[float]:
    """Metric of each (variant, train sigma) cell on one task.

    Collapse means follow the uni-modal recipe: the train side uses the mean
    of its own training y rows, the test side the mean of its own test x
    rows. The raw or collapsed train rows and normalized test inputs each cell
    needs are prepared once, and the keyed unit noise of the train rows is
    drawn once, at the first corrupting cell; every corrupting cell rescales
    that one draw, a sigma of 0 included (its rows equal the uncorrupted ones).
    """
    sides = {_VARIANTS[v][0] for v, _ in cells}
    y_train = task.pairs.y.values[task.train_idx]
    x_test = task.pairs.x.values[task.test_idx]
    train_base = {c: collapse(y_train, y_train.mean(axis=0)) if c else y_train for c in sides}
    test_inputs = {c: l2_normalize_rows(collapse(x_test, x_test.mean(axis=0)) if c else x_test)
                   for c in sides}
    unit = None
    scores = []
    for variant, sigma in cells:
        collapsed, mode = _VARIANTS[variant]
        train_rows = train_base[collapsed]
        if mode is not None:
            cfg = C3Config(sigma=sigma, mode=mode, gap_direction=task.gap_direction, seed=noise_seed)
            if unit is None:
                unit = _unit_noise(noise_seed, *y_train.shape)
            train_rows = _add_noise(train_rows, unit, cfg)
        scores.append(_score(task, train_rows, test_inputs[collapsed].values, lam))
    return scores


def in_modality_metric(task: ToyTask, lam: float = 1e-3) -> float:
    """Train on x-side train rows, test on x-side test rows (no transfer)."""
    x = task.pairs.x.values
    return _score(task, x[task.train_idx], l2_normalize_rows(x[task.test_idx]).values, lam)


@dataclass(frozen=True)
class AblationRow:
    """Mean and std of one variant's metric over seeds, at its best sigma."""

    variant: str
    train_sigma: float
    mean: float
    std: float
    seeds: int


def run_ablation(
    task_kwargs: dict,
    seeds: tuple,
    sigma_grid: tuple = SIGMA_GRID,
    lam: float = 1e-3,
) -> list[AblationRow]:
    """Evaluate every variant of ``VARIANTS``, in that order, over seeds,
    sweeping the training noise level, on the tasks that
    ``make_toy_task(seed=s, **task_kwargs)`` builds for each seed s.

    Variants without a corruption stage ignore the sweep. For each variant
    the grid entry with the highest seed-mean accuracy is reported (the
    first such entry on a tie).

    Seeds form the outer loop, so one task is alive at a time, and each
    seed's cells are scored by one ``_seed_scores`` call with noise seed
    ``1000 + seed``. A negative or non-finite sigma, or a task with no gap
    direction for c22_span (``span_dim == d``), fails before any cell is scored.
    """
    return _ablation(task_kwargs, seeds, sigma_grid, lam)[0]


def _ablation(task_kwargs, seeds, sigma_grid, lam, in_modality=False):
    """``run_ablation``'s rows, and ``in_modality_metric`` of each seed's task
    when ``in_modality`` is set (else an empty list), on the task the seed's
    cells were scored on."""
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    if len(sigma_grid) < 1:
        raise ValueError("need at least one sigma in the grid")
    for sigma in sigma_grid:
        _check_nonnegative_finite("sigma_grid entry", sigma)
    plan = [(v, sigma_grid if mode is not None else (0.0,)) for v, (_, mode) in _VARIANTS.items()]
    cells = [(v, sigma) for v, grid in plan for sigma in grid]
    per_seed = []
    sanity = []
    for s in seeds:
        task = make_toy_task(seed=s, **task_kwargs)
        if task.gap_direction is None:
            d, span_dim = task.span_basis.shape
            raise ValueError(f"c22_span needs a gap direction: span_dim must be < d, "
                             f"got span_dim={span_dim}, d={d}")
        per_seed.append(_seed_scores(task, cells, lam, 1000 + s))
        if in_modality:
            sanity.append(in_modality_metric(task, lam))

    columns = iter(zip(*per_seed))  # per cell, its metric at every seed
    rows = []
    for variant, grid in plan:
        best = None
        for sigma in grid:
            seed_vals = np.array(next(columns))
            mean = float(seed_vals.mean())
            if best is None or mean > best[1]:
                best = (sigma, mean, float(seed_vals.std()))
        rows.append(AblationRow(variant=variant, train_sigma=best[0],
                                mean=best[1], std=best[2], seeds=len(seeds)))
    return rows, sanity


def gap_shift_sweep(task: ToyTask, shift_norms, lam: float = 1e-3) -> list[tuple[float, float]]:
    """Metric of a no-collapse decoder under growing constant test shifts.

    The decoder is trained on raw y rows; each sweep point adds a shift of
    the given norm to every test-side x row before decoding. The shift runs
    along the task's reserved gap direction, orthogonal to the embedding
    span.
    """
    norms = [float(c) for c in shift_norms]
    for c in norms:
        _check_nonnegative_finite("shift norm", c)
    if sorted(norms) != norms:
        raise ValueError("shift norms must be sorted")
    if task.gap_direction is None:
        raise ValueError("span fills the whole space; no orthogonal shift direction exists")

    y_train = task.pairs.y.values[task.train_idx]
    decoder = train_decoder(l2_normalize_rows(y_train).values, task.targets[task.train_idx], lam)
    x_test = task.pairs.x.values[task.test_idx]
    return [(c, _metric(task, decoder.predict(
        l2_normalize_rows(x_test + c * task.gap_direction).values))) for c in norms]
