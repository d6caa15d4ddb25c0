"""Dense vector/matrix primitives: normalization, covariance, spectra.

Everything here computes in float64 regardless of the caller's storage
dtype, and every function is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EmbeddingMatrix",
    "PairedEmbeddings",
    "SpectralSummary",
    "l2_normalize_rows",
    "covariance",
    "spectral_summary",
    "mean_pairwise_cosine",
]

UNIT_NORM_TOL = 1e-9
# Size of one gathered block of float64 pair rows: small enough to stay in a
# core's L2 cache (128 rows at d=512).
_BLOCK_BYTES = 512 * 1024
# Smallest row norm and widest row for which ``_unit_rows_into`` proves unit norms
_MIN_PROVEN_NORM = 2.0**-400
_MAX_PROVEN_DIM = 2**20
# Row pairs ``mean_pairwise_cosine`` enumerates, or samples when there are more
_MAX_PAIRS = 10_000


def _check_positive_finite(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is > 0 and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative_finite(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is >= 0 and finite."""
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def as_array(m) -> np.ndarray:
    """Coerce an EmbeddingMatrix or array-like to a float64 2-d array."""
    if isinstance(m, EmbeddingMatrix):
        return m.values
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class EmbeddingMatrix:
    """An n x d matrix with one embedding per row.

    Parameters
    ----------
    values : array-like, shape (n, d)
        Row-major embedding values. Stored as float64.
    unit_norm : bool
        If set, every row is required to have unit L2 norm (within 1e-9).
    """

    values: np.ndarray
    unit_norm: bool = False

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64)
        _check_rows(a, self.unit_norm)
        object.__setattr__(self, "values", a)

    @classmethod
    def _unit(cls, values: np.ndarray) -> EmbeddingMatrix:
        """Rows that ``_unit_rows_into`` has proven or checked, not checked again."""
        m = object.__new__(cls)
        m.__dict__.update(values=values, unit_norm=True)
        return m

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PairedEmbeddings:
    """Two row-aligned embedding matrices; row i of x pairs with row i of y."""

    x: EmbeddingMatrix
    y: EmbeddingMatrix

    def __post_init__(self):
        if self.x.n != self.y.n:
            raise ValueError(f"pairing requires equal row counts, got {self.x.n} vs {self.y.n}")
        if self.x.d != self.y.d:
            raise ValueError(f"paired embeddings must share dimension, got {self.x.d} vs {self.y.d}")

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def d(self) -> int:
        return self.x.d


def l2_normalize_rows(m) -> EmbeddingMatrix:
    """Scale every row to unit L2 norm, preserving its direction. The result
    skips ``_check_rows``: ``_unit_rows_into`` has proven or run it.

    Raises
    ------
    ValueError
        If any row is the zero vector (reported with its row index).
    """
    a = as_array(m)
    out = np.empty_like(a)
    _unit_rows_into(a, out)
    return EmbeddingMatrix._unit(out)


def _check_rows(a: np.ndarray, unit_norm: bool) -> None:
    """The one row check: ValueError, with EmbeddingMatrix's messages, unless
    ``a`` is n x d with n, d >= 1, finite and, with ``unit_norm``, every row
    norm within ``UNIT_NORM_TOL`` of 1. A NaN or infinity puts its row's norm
    out of that band, so the finiteness scan runs only when some norm is out."""
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"embedding matrix must be n x d with n,d >= 1, got shape {a.shape}")
    if unit_norm:
        norms = _row_norms(a)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
        if not bad.size:
            return
    if _first_nonfinite(a) is not None:
        raise ValueError("embedding matrix contains non-finite values")
    if unit_norm:
        raise ValueError(f"unit_norm contract violated at row {bad[0]}: norm={norms[bad[0]]!r}")


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=1)`` bit for bit, one ``_row_blocks`` block at
    a time, so the squared entries never take n x d memory. A row norm does
    not depend on its block, except that numpy sums a lone row of a matrix
    that is not C-ordered pairwise, not column by column as in the whole
    matrix; so a one-row block is reduced together with the row before it."""
    n = a.shape[0]
    norms = np.empty(n)
    for blk in _row_blocks(*a.shape):
        stop = min(blk.stop, n)
        lo = max(0, min(blk.start, stop - 2))
        norms[lo:stop] = np.linalg.norm(a[lo:stop], axis=1)
    return norms


def _unit_rows_into(a: np.ndarray, out: np.ndarray) -> None:
    """Write ``a`` with every row scaled to unit L2 norm into ``out``, which
    may be ``a``; ValueError on a zero row (with its index) before ``out`` is
    written, or from ``_check_rows(out, unit_norm=True)`` unless proven.

    The proof: when every norm of ``a`` is finite (no square overflowed) and
    at least ``_MIN_PROVEN_NORM`` (no square that matters underflowed), and
    d <= ``_MAX_PROVEN_DIM``, the norm, the divide and a re-measured norm of
    ``out`` round by at most (d + 3) eps together, below ``UNIT_NORM_TOL``;
    and ``out`` is finite, since every entry is at most its row norm.
    """
    norms = _row_norms(a)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot normalize zero row at index {zero[0]}")
    np.divide(a, norms[:, None], out=out)
    if not (norms.size and a.shape[1] <= _MAX_PROVEN_DIM  # NaN fails both comparisons
            and norms.min() >= _MIN_PROVEN_NORM and norms.max() < np.inf):
        _check_rows(out, unit_norm=True)


def covariance(m) -> np.ndarray:
    """Mean-centered population covariance (divides by n, not n - 1).

    The divide-by-n convention is fixed here: variance-explained ratios
    derived from the spectrum are invariant to it, but the raw matrix
    is not, so callers can rely on one choice. numpy forms ``a.T @ a`` with
    one BLAS syrk and mirrors its triangle, so the result is exactly
    symmetric without averaging it with its transpose.
    """
    a = as_array(m)
    n = a.shape[0]
    if n < 2:
        raise ValueError(f"covariance needs at least 2 rows, got {n}")
    centered = a - a.mean(axis=0)
    c = centered.T @ centered
    return np.divide(c, n, out=c)


@dataclass(frozen=True)
class SpectralSummary:
    """Descending spectrum of a covariance matrix plus its effective dimension.

    ``effective_dim`` is the minimal number of leading singular values whose
    cumulative sum reaches at least ``gamma`` of the sum of all of them.
    """

    singular_values: np.ndarray
    gamma: float
    effective_dim: int = field(init=False)

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=np.float64)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("singular_values must be a non-empty 1-d array")
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular_values must be non-negative and non-increasing")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        total = float(s.sum())
        if total <= 0.0:
            raise ValueError("spectrum has zero total mass; effective dimension undefined")
        ratios = np.cumsum(s) / total
        d_e = int(np.argmax(ratios >= self.gamma)) + 1
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "effective_dim", d_e)


def spectral_summary(c: np.ndarray, gamma: float) -> SpectralSummary:
    """Spectrum and effective dimension of a symmetric PSD covariance matrix.

    For a PSD matrix the singular values equal the eigenvalues: a symmetric
    eigensolver reads the lower triangle of a matrix inside the symmetry
    tolerance. Eigenvalues negative within numerical tolerance are clipped to
    zero; a genuinely indefinite or non-symmetric input is rejected.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"covariance must be square, got shape {c.shape}")
    if _first_nonfinite(c) is not None:
        raise ValueError("covariance contains non-finite values")
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c - c.T).max() > 1e-8 * scale:
        raise ValueError("covariance is not symmetric within tolerance")
    eigs = np.linalg.eigvalsh(c)
    if eigs[0] < -1e-8 * scale:
        raise ValueError(f"covariance is not positive semi-definite: min eigenvalue {eigs[0]!r}")
    s = np.clip(eigs[::-1], 0.0, None)
    return SpectralSummary(singular_values=s, gamma=gamma)


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


def _orthonormal_columns(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """A random d x k matrix with orthonormal columns (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    return q * np.sign(np.diag(r))


def _gap_frame(rng: np.random.Generator, d: int, span_dim: int,
               gap_norm: float) -> tuple[np.ndarray, np.ndarray | None]:
    """A d x span_dim orthonormal span basis and a unit gap direction orthogonal
    to it (None when span_dim == d), from one ``_orthonormal_columns`` draw;
    ValueError unless 1 <= span_dim <= d, ``gap_norm`` is finite and >= 0 and
    a positive ``gap_norm`` has an orthogonal complement to point into."""
    if not (1 <= span_dim <= d):
        raise ValueError(f"span_dim must be in [1, {d}], got {span_dim}")
    _check_nonnegative_finite("gap_norm", gap_norm)
    if gap_norm > 0 and span_dim == d:
        raise ValueError("no orthogonal complement left for the gap: span_dim == d")
    frame = _orthonormal_columns(rng, d, min(span_dim + 1, d))
    return frame[:, :span_dim], frame[:, span_dim] if span_dim < d else None


def _index_pairs(rng: np.random.Generator, n: int, wanted: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (j, k), j != k, of n rows: all j < k when there are at most
    ``wanted`` of them, else ``wanted`` uniform draws from ``rng``."""
    if wanted < 1:
        raise ValueError(f"pair budget must be >= 1, got {wanted}")
    if n * (n - 1) // 2 <= wanted:
        return np.triu_indices(n, k=1)
    j = rng.integers(0, n, size=wanted)
    k = rng.integers(0, n - 1, size=wanted)
    return j, np.where(k >= j, k + 1, k)  # k != j, uniform over the rest


def _row_blocks(n: int, d: int):
    """Consecutive slices of ``range(n)``, each ``_BLOCK_BYTES`` of float64
    rows of width ``d`` long (at least one row; rows of width 0 count as
    width 1)."""
    step = max(1, _BLOCK_BYTES // (8 * max(d, 1)))
    return (slice(s, s + step) for s in range(0, n, step))


def _first_nonfinite(a: np.ndarray) -> tuple[int, int] | None:
    """Row and column of the first NaN or infinity of ``a`` in row-major
    order, or None. The rows are scanned one ``_row_blocks`` block at a
    time, so the finiteness mask stays block-sized."""
    for blk in _row_blocks(*a.shape):
        finite = np.isfinite(a[blk])
        if not finite.all():
            r, c = np.argwhere(~finite)[0]
            return blk.start + int(r), int(c)
    return None


def _pair_cosines(rows: np.ndarray, j: np.ndarray, k: np.ndarray,
                  tol: float = 0.0, norms: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Cosines of the row pairs (j, k) clamped to [-1, 1], and the number of
    pairs skipped because one of their rows has norm <= ``tol``.

    ``norms`` are the rows' L2 norms, ``_row_norms(rows)``, when the caller
    already has them.

    The rows of a pair are gathered one ``_row_blocks`` block of pairs at a
    time, so the gathered copies stay cache-sized instead of growing with
    the pair count (two 41 MB copies for 10,000 pairs of 512-d rows). Each
    dot product is a per-row reduction, so its value does not depend on
    how many rows share the call: the result equals one unblocked gather's,
    bit for bit.
    """
    if norms is None:
        norms = _row_norms(rows)
    ok = (norms[j] > tol) & (norms[k] > tol)
    j, k = j[ok], k[ok]
    dots = np.empty(j.size)
    for blk in _row_blocks(j.size, rows.shape[1]):
        np.einsum("ij,ij->i", rows[j[blk]], rows[k[blk]], out=dots[blk])
    vals = dots / (norms[j] * norms[k])
    return np.clip(vals, -1.0, 1.0), int(ok.size - j.size)


def mean_pairwise_cosine(m, seed: int) -> tuple[float, float]:
    """Mean and std of cosine similarity over unordered row pairs.

    All n(n-1)/2 pairs are enumerated when there are at most ``_MAX_PAIRS``
    (10,000) of them, up to n = 141; otherwise a uniform sample of
    ``_MAX_PAIRS`` pairs is drawn from the seeded generator, so results are
    deterministic per seed.
    """
    a = as_array(m)
    n = a.shape[0]
    if n < 2:
        raise ValueError(f"pairwise cosine needs at least 2 rows, got {n}")
    norms = _row_norms(a)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero row at index {zero[0]}")
    vals, _ = _pair_cosines(a, *_index_pairs(np.random.default_rng(seed), n, _MAX_PAIRS),
                            norms=norms)
    return float(vals.mean()), float(vals.std())
