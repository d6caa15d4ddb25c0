"""Embedding transforms for cross-modal training on uni-modal data.

Two stages: ``collapse`` subtracts a modality mean from every row, and
``corrupt`` adds Gaussian noise that is isotropic or has its component
along a given gap direction projected out ("span only" mode). Which
stages a transfer variant applies, and to which side, is set by the
variant table in ``bench``.

Noise is drawn from a per-row stream keyed by (seed, row index), so the
noise a row receives does not depend on how many rows are transformed
alongside it and row-parallel execution stays deterministic. The keyed
draw is unit-variance and independent of sigma and mode, so one draw
serves every noise level: ``corrupt`` draws it and scales it, and the
ablation in ``bench`` draws it once per seed and scales the same block for
every corrupting variant and sigma, through the same ``_add_noise``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_array

__all__ = [
    "C3Config",
    "collapse",
    "corrupt",
]

MODE_FULL = "full"
MODE_SPAN_ONLY = "span_only"


@dataclass(frozen=True)
class C3Config:
    """How to draw the corruption noise."""

    sigma: float = 0.05
    mode: str = MODE_FULL
    gap_direction: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.mode not in (MODE_FULL, MODE_SPAN_ONLY):
            raise ValueError(f"unknown corruption mode {self.mode!r}")
        if self.mode == MODE_SPAN_ONLY:
            if self.gap_direction is None:
                raise ValueError("span_only corruption requires a gap_direction")
            g = np.asarray(self.gap_direction, dtype=np.float64).ravel()
            if abs(np.linalg.norm(g) - 1.0) > 1e-9:
                raise ValueError("gap_direction must be unit-norm")
            object.__setattr__(self, "gap_direction", g)


def collapse(m, mean: np.ndarray) -> np.ndarray:
    """Subtract a modality mean from every row."""
    a = as_array(m)
    mean = np.asarray(mean, dtype=np.float64).ravel()
    if mean.shape[0] != a.shape[1]:
        raise ValueError(f"mean has dimension {mean.shape[0]}, rows have {a.shape[1]}")
    return a - mean


def _row_noise(seed: int, row: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, row]))
    return rng.standard_normal(d)


def _unit_noise(seed: int, n: int, d: int) -> np.ndarray:
    """Rows 0..n-1 of the keyed unit-variance noise for ``seed``."""
    noise = np.empty((n, d))
    for i in range(n):
        noise[i] = _row_noise(seed, i, d)
    return noise


def _add_noise(a: np.ndarray, unit: np.ndarray, cfg: C3Config) -> np.ndarray:
    """``a`` plus ``unit`` scaled by ``cfg.sigma``, span-only projected if asked."""
    noise = unit * cfg.sigma
    if cfg.mode == MODE_SPAN_ONLY:
        g = cfg.gap_direction
        noise -= np.outer(noise @ g, g)
    return a + noise


def corrupt(m, cfg: C3Config) -> np.ndarray:
    """Add Gaussian noise to every row per the config.

    In span-only mode the sampled noise has its projection onto
    ``cfg.gap_direction`` removed before being added, leaving each row's
    component along that direction untouched.
    """
    a = as_array(m)
    if cfg.sigma == 0.0:
        return a.copy()
    return _add_noise(a, _unit_noise(cfg.seed, *a.shape), cfg)

