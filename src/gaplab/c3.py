"""Embedding transforms for cross-modal training on uni-modal data.

Two stages: ``collapse`` subtracts a modality mean from every row, and
``corrupt`` adds Gaussian noise that is isotropic or has its component
along a given gap direction projected out ("span only" mode). Which
stages a transfer variant applies, and to which side, is set by the
variant table in ``bench``.

Noise is drawn from a per-row stream keyed by (seed, row index), so the
noise a row receives does not depend on how many rows are transformed
alongside it and row-parallel execution stays deterministic. Row i's
stream is exactly ``np.random.default_rng(np.random.SeedSequence([seed,
i]))``, so a consumer with numpy alone can reproduce any row; the seed must
be a non-negative integer. The generator keys of a block of rows are
derived at once, by SeedSequence's hash in vectorized uint32 arithmetic;
each row sets its key as the state of one reused PCG64 and draws its normals
through one Generator on it. The keyed draw is unit-variance and independent
of sigma and mode, so one draw serves every noise level: ``corrupt`` draws
it and scales it, and the ablation in ``bench`` draws it once per seed and
scales the same block for every corrupting variant and sigma, through the
same ``_add_noise``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import UNIT_NORM_TOL, _check_nonnegative_finite, as_array

__all__ = [
    "C3Config",
    "corrupt",
]

MODE_FULL = "full"
MODE_SPAN_ONLY = "span_only"


@dataclass(frozen=True)
class C3Config:
    """How to draw the corruption noise."""

    sigma: float
    mode: str = MODE_FULL
    gap_direction: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        _check_nonnegative_finite("sigma", self.sigma)
        if self.mode not in (MODE_FULL, MODE_SPAN_ONLY):
            raise ValueError(f"unknown corruption mode {self.mode!r}")
        if self.mode == MODE_SPAN_ONLY:
            if self.gap_direction is None:
                raise ValueError("span_only corruption requires a gap_direction")
            g = np.asarray(self.gap_direction, dtype=np.float64).ravel()
            if not abs(np.linalg.norm(g) - 1.0) <= UNIT_NORM_TOL:  # NaN fails too
                raise ValueError("gap_direction must be unit-norm")
            object.__setattr__(self, "gap_direction", g)


def collapse(m, mean: np.ndarray) -> np.ndarray:
    """Subtract a modality mean from every row."""
    a = as_array(m)
    mean = np.asarray(mean, dtype=np.float64).ravel()
    if mean.shape[0] != a.shape[1]:
        raise ValueError(f"mean has dimension {mean.shape[0]}, rows have {a.shape[1]}")
    return a - mean


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool size, shift
# and the constants of its two hashes and of its mix
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
# rows whose keys, and their Python ints, are alive at once; blocks of 1024
# rows raised the peak RSS of c3-bench's ablation by up to 1.3 MiB
_KEY_ROWS = 256


def _seed_words(seed) -> list[int]:
    """The uint32 words, low first, that SeedSequence takes from an integer
    seed, raising as SeedSequence does on a float or a negative seed."""
    if isinstance(seed, (float, np.inexact)):
        raise TypeError("seed must be integer")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected non-negative integer, got {seed}")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            return words


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, its hash constant starting at
    ``h`` and multiplied by ``mult`` at every call."""
    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * mult & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(_XSHIFT))
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> np.uint32(_XSHIFT))


def _pcg64_keys(seed_words: list[int], rows: range) -> list[list[int]]:
    """``[seed_hi, seed_lo, seq_hi, seq_lo]``, the words of
    ``SeedSequence([seed, row]).generate_state(4, np.uint64)``, for every row,
    in numpy's uint32 arithmetic over all the rows at once; rows are below
    2**32, one entropy word each."""
    entropy = [np.full(len(rows), w, np.uint32) for w in seed_words]
    entropy.append(np.arange(rows.start, rows.stop, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(len(rows), np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:  # entropy the pool could not hold
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # generate_state's uint64 words are its uint32 words paired low first
    return np.stack([words[i] | words[i + 1] << np.uint64(32)
                     for i in range(0, 8, 2)], axis=1).tolist()


def _unit_noise(seed: int, n: int, d: int) -> np.ndarray:
    """Rows 0..n-1 of the keyed unit-variance noise for ``seed``: row i is
    ``default_rng(SeedSequence([seed, i])).standard_normal(d)``, bit for bit.

    The generator keys of ``_KEY_ROWS`` rows at a time are derived together
    by ``_pcg64_keys``; each row then sets its key on one reused PCG64, as
    ``pcg64_set_seed`` would, and draws its normals into place.
    """
    words = _seed_words(seed)
    if n > 2**32:
        raise ValueError(f"keyed noise has at most 2**32 rows, asked for {n}")
    noise = np.empty((n, d))
    bitgen = np.random.PCG64(0)
    draw = np.random.Generator(bitgen).standard_normal
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for start in range(0, n, _KEY_ROWS):
        block = noise[start:start + _KEY_ROWS]
        keys = _pcg64_keys(words, range(start, start + len(block)))
        for out, (s_hi, s_lo, q_hi, q_lo) in zip(block, keys):
            # pcg64_set_seed: inc = seq << 1 | 1, then from state 0 one LCG
            # step, add the seed, one more step
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            pcg["inc"] = inc
            pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = state
            draw(out=out)
    return noise


def _add_noise(a: np.ndarray, unit: np.ndarray, cfg: C3Config) -> np.ndarray:
    """``a`` plus ``unit`` scaled by ``cfg.sigma``, span-only projected if asked."""
    noise = unit * cfg.sigma
    if cfg.mode == MODE_SPAN_ONLY:
        g = cfg.gap_direction
        noise -= np.outer(noise @ g, g)
    noise += a
    return noise


def corrupt(m, cfg: C3Config) -> np.ndarray:
    """Add Gaussian noise to every row per the config.

    In span-only mode the sampled noise has its projection onto
    ``cfg.gap_direction`` removed before being added, leaving each row's
    component along that direction untouched. The result is always a new
    array; at sigma 0 it compares equal to the input (the keyed noise is
    drawn and scaled to zeros).
    """
    a = as_array(m)
    if cfg.mode == MODE_SPAN_ONLY and cfg.gap_direction.shape[0] != a.shape[1]:
        raise ValueError(f"gap_direction has dimension {cfg.gap_direction.shape[0]}, "
                         f"rows have {a.shape[1]}")
    return _add_noise(a, _unit_noise(cfg.seed, *a.shape), cfg)

